"""Tests for the incremental, bounded-memory consensus & ledger layer.

Covers:

* Merkle ``extend`` ≡ full rebuild (roots, levels and proofs);
* the fast ``digest_of`` produces bit-identical digests to the seed
  definition (``tests/digest_oracle.py``);
* a 4-replica HL committee's commit/block/view-change counts against a
  recorded golden, with full retention and with header-only retention plus
  an evicting committed-id window;
* instance tables and vote sets bounded by the in-flight window
  (pipeline_depth + checkpoint_interval), not run length;
* incremental stale-block counting in ``ForkableChain`` (including reorgs);
* the unverified-append path, running transaction totals, header-only
  retention, bounded dedup sets, attested-log truncation and the
  ``include_self`` broadcast fix.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from digest_oracle import seed_digest_of
from repro.consensus import messages as m
from repro.consensus.base import BoundedIdSet, ConsensusReplica, _Instance
from repro.consensus.cluster import ConsensusCluster, NoopChaincode, default_tx_factory
from repro.crypto.hashing import digest_of
from repro.crypto.merkle import MerkleTree
from repro.errors import EnclaveError, InvalidBlockError
from repro.ledger.block import build_block, merkle_root_of
from repro.ledger.blockchain import Blockchain, ForkableChain
from repro.sim.monitor import Monitor, ThroughputTracker, TimeSeries
from repro.tee.attested_log import AttestedAppendOnlyLog


# ---------------------------------------------------------------------- merkle
class TestMerkleExtend:
    @given(st.lists(st.integers(), max_size=40), st.lists(st.integers(), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_extend_equals_rebuild(self, base, extra):
        tree = MerkleTree(base)
        tree.extend(extra)
        reference = MerkleTree(base + extra)
        assert tree.root == reference.root
        assert len(tree) == len(base) + len(extra)

    def test_extend_in_chunks_preserves_proofs(self):
        rng = random.Random(11)
        items = [rng.randrange(1000) for _ in range(33)]
        tree = MerkleTree(items[:5])
        index = 5
        while index < len(items):
            step = rng.randrange(1, 6)
            tree.extend(items[index:index + step])
            index += step
        reference = MerkleTree(items)
        assert tree.root == reference.root
        for leaf in range(len(items)):
            proof = tree.proof(leaf)
            assert reference.verify(proof, items[leaf])

    def test_append_single_leaves(self):
        tree = MerkleTree([])
        for item in range(9):
            tree.append(item)
        assert tree.root == MerkleTree(list(range(9))).root

    def test_from_leaves_skips_item_hashing(self):
        leaves = [digest_of(i) for i in range(7)]
        assert MerkleTree.from_leaves(leaves).root == MerkleTree(range(7)).root


# ------------------------------------------------------------------- digest_of
@dataclasses.dataclass(frozen=True)
class _Point:
    x: int
    label: str


_scalars = st.one_of(st.text(max_size=8), st.integers(), st.floats(allow_nan=False),
                     st.booleans(), st.none(), st.binary(max_size=6))
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.text(max_size=3)), children, max_size=3),
    ),
    max_leaves=12,
)


class TestDigestCompatibility:
    @given(_values)
    @settings(max_examples=300, deadline=None)
    def test_fast_paths_match_seed_digests(self, value):
        assert digest_of(value) == seed_digest_of(value)

    def test_dataclass_and_set_paths(self):
        value = {"p": _Point(x=3, label="a"), "s": {3, 1, 2}, "t": (True, False, 1)}
        assert digest_of(value) == seed_digest_of(value)


# ------------------------------------------------------ committee goldens
BOUNDED_OVERRIDES = dict(ledger_retention="headers", ledger_retain_recent=8)
#: ``_run_committee({})`` at seed 3, recorded when the seed's keep-everything
#: path (no checkpoint GC, unbounded committed-id set, Merkle re-verified on
#: append) still existed and produced the same counts.
COMMITTEE_GOLDEN = {"committed": 8_010, "blocks": 285, "view_changes": 0, "tip_height": 285}


def _run_committee(overrides, seed=3, protocol="HL", n=4, rate=800.0, duration=14.0):
    cluster = ConsensusCluster(protocol, n, seed=seed, config_overrides=overrides)
    pool_size = int(rate * duration) + 200
    pool = default_tx_factory("client-0", 0.0, random.Random(f"eq-{seed}"), pool_size)
    iterator = iter(pool)

    def factory(client_id, now, rng, count):
        return [next(iterator) for _ in range(count)]

    cluster.add_open_loop_clients(1, rate_tps=rate, batch_size=10, tx_factory=factory)
    for client in cluster.clients:
        client.stop_at = duration - 4.0
    result = cluster.run(duration)
    observer = cluster.honest_observer()
    return cluster, {
        "committed": result.committed_transactions,
        "blocks": result.blocks_committed,
        "view_changes": result.view_changes,
        "tip_height": observer.blockchain.height,
    }


class TestOptimizedPathEquivalence:
    def test_committee_counts_match_golden(self):
        _, counts = _run_committee({})
        assert counts == COMMITTEE_GOLDEN

    def test_header_only_retention_same_counts(self, monkeypatch):
        # A window smaller than the run's 8 010 committed ids, so it evicts.
        monkeypatch.setattr(ConsensusReplica, "COMMITTED_ID_WINDOW", 5_000)
        bounded_cluster, bounded = _run_committee(dict(BOUNDED_OVERRIDES))
        assert bounded == COMMITTEE_GOLDEN
        observer = bounded_cluster.honest_observer()
        assert len(observer.committed_tx_ids) == 5_000
        # Bodies are pruned to the window, headers cover the whole chain.
        assert len(observer.blockchain.blocks()) <= 8
        assert len(observer.blockchain.headers()) == observer.blockchain.height + 1

    def test_state_stays_bounded_by_inflight_window(self):
        cluster = ConsensusCluster("HL", 4, seed=5)
        cluster.add_open_loop_clients(2, rate_tps=400.0, batch_size=10)
        config = cluster.config
        bound = config.pipeline_depth + 2 * config.checkpoint_interval + 8
        peaks = {"instances": 0, "checkpoint_votes": 0, "view_change_votes": 0}

        def sample():
            for replica in cluster.replicas:
                peaks["instances"] = max(peaks["instances"], len(replica.instances))
                peaks["checkpoint_votes"] = max(peaks["checkpoint_votes"],
                                                len(replica.checkpoint_votes))
                peaks["view_change_votes"] = max(peaks["view_change_votes"],
                                                 len(replica.view_change_votes))
            cluster.sim.schedule(0.5, sample)

        cluster.sim.schedule(0.5, sample)
        result = cluster.run(30.0)
        assert result.committed_transactions > 5_000
        observer = cluster.honest_observer()
        assert observer.blockchain.height > 50
        assert peaks["instances"] <= bound
        assert peaks["checkpoint_votes"] <= bound
        assert peaks["view_change_votes"] <= 4
        # The dedup sets shrink as commits migrate ids out of ``seen``.
        for replica in cluster.replicas:
            assert len(replica.seen_tx_ids) <= len(replica.pending_txs) + len(replica.in_flight_tx_ids) + 64


# ------------------------------------------------------ re-chaining on apply
class TestApplyBlock:
    """``_apply_block`` re-chains the agreed block onto the replica's own tip:
    verbatim, reusing the proposer's Merkle root, unless a transaction already
    executed here is filtered out — then the root is built afresh."""

    def _agreed_block(self, replica, count):
        chaincode = NoopChaincode()
        txs = tuple(chaincode.new_transaction("write", {"keys": (f"k{i}",), "value": i})
                    for i in range(count))
        # The proposer's block sits on a chain this replica does not share.
        return build_block(height=7, prev_hash="p" * 64, transactions=txs, proposer=0,
                           timestamp=1.5, shard_id=replica.shard_id)

    def _apply(self, replica, block):
        replica._apply_block(_Instance(seq=1, view=0, block=block,
                                       block_digest=block.block_hash))
        return replica.blockchain.tip

    def test_agreed_block_is_chained_verbatim(self):
        replica = ConsensusCluster("HL", 4, seed=1).replicas[1]
        genesis = replica.blockchain.tip
        block = self._agreed_block(replica, 3)
        tip = self._apply(replica, block)
        assert tip.height == 1 and tip.header.prev_hash == genesis.block_hash
        assert tip.transactions == block.transactions
        assert tip.header.merkle_root == block.header.merkle_root
        assert replica.blockchain.verify_chain()
        assert all(tx.tx_id in replica.committed_tx_ids for tx in block.transactions)
        assert replica.committed_transactions() == 3

    def test_already_executed_transaction_is_filtered_and_root_rebuilt(self):
        replica = ConsensusCluster("HL", 4, seed=1).replicas[1]
        block = self._agreed_block(replica, 3)
        first, executed, last = block.transactions
        replica.committed_tx_ids[executed.tx_id] = None
        tip = self._apply(replica, block)
        assert tip.transactions == (first, last)
        assert tip.header.merkle_root == merkle_root_of((first, last))
        assert tip.header.merkle_root != block.header.merkle_root
        assert replica.blockchain.verify_chain()
        assert replica.committed_transactions() == 2
        # Exactly once: the filtered write is not applied a second time.
        assert replica.state.get("k0") is not None
        assert replica.state.get("k1") is None


# ----------------------------------------------------------- ledger fast paths
class TestLedgerFastPaths:
    def _tx_batch(self, count, prefix):
        from repro.ledger.transaction import Transaction

        return tuple(Transaction.create("noop", "put", {"key": f"{prefix}{i}"})
                     for i in range(count))

    def test_running_total_transactions(self):
        chain = Blockchain()
        total = 0
        for height in range(1, 6):
            txs = self._tx_batch(height, prefix=f"h{height}-")
            chain.append(build_block(height, chain.tip.block_hash, txs, proposer=0))
            total += height
            assert chain.total_transactions() == total

    def test_unverified_append_skips_merkle_verification(self):
        chain = Blockchain()
        txs = self._tx_batch(3, prefix="x")
        forged = build_block(1, chain.tip.block_hash, txs, proposer=0,
                             merkle_root="f" * 64)  # root does NOT match txs
        with pytest.raises(InvalidBlockError):
            chain.append(forged)
        chain.append(forged, verify_merkle=False)  # trusted path trusts the caller
        assert chain.height == 1

    def test_header_only_retention_prunes_bodies(self):
        chain = Blockchain(retention="headers", retain_recent=3)
        for height in range(1, 9):
            txs = self._tx_batch(2, prefix=f"h{height}-")
            chain.append(build_block(height, chain.tip.block_hash, txs, proposer=0))
        assert chain.height == 8
        assert chain.total_transactions() == 16
        assert len(chain.blocks()) == 3
        assert chain.header_at(1).height == 1
        with pytest.raises(InvalidBlockError):
            chain.block_at(1)  # body pruned
        assert chain.block_at(8) is chain.tip
        assert chain.verify_chain()

    def test_block_by_hash_for_retained_and_pruned(self):
        chain = Blockchain(retention="headers", retain_recent=2)
        blocks = []
        for height in range(1, 6):
            block = build_block(height, chain.tip.block_hash, (), proposer=0,
                                timestamp=float(height))
            chain.append(block)
            blocks.append(block)
        assert chain.block_by_hash(blocks[-1].block_hash) is blocks[-1]
        # A committed-but-pruned body is an error naming the height, not a
        # silent None — None is reserved for hashes never committed at all.
        with pytest.raises(InvalidBlockError, match="height 1"):
            chain.block_by_hash(blocks[0].block_hash)
        assert chain.block_by_hash("never-committed") is None


# ------------------------------------------------------------ forkable chains
class TestIncrementalStaleCount:
    def _reference_stale(self, chain: ForkableChain) -> int:
        on_main = {block.block_hash for block in chain.main_chain()}
        return sum(1 for block_hash in chain._nodes if block_hash not in on_main)

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_recomputation_under_random_forks(self, parent_choices, seed):
        rng = random.Random(seed)
        chain = ForkableChain()
        known = [chain.best_tip]
        for step, choice in enumerate(parent_choices):
            parent = known[choice % len(known)]
            block = build_block(parent.height + 1, parent.block_hash, (),
                                proposer=rng.randrange(5), timestamp=float(step + 1))
            chain.add_block(block)
            known.append(block)
            assert chain.stale_blocks() == self._reference_stale(chain)
            assert chain.total_blocks() == len(known)

    def test_reorg_moves_stale_count_both_ways(self):
        chain = ForkableChain()
        genesis = chain.best_tip
        a1 = build_block(1, genesis.block_hash, (), proposer=1, timestamp=1)
        a2 = build_block(2, a1.block_hash, (), proposer=1, timestamp=2)
        b1 = build_block(1, genesis.block_hash, (), proposer=2, timestamp=3)
        b2 = build_block(2, b1.block_hash, (), proposer=2, timestamp=4)
        b3 = build_block(3, b2.block_hash, (), proposer=2, timestamp=5)
        chain.add_block(a1)
        chain.add_block(a2)
        assert chain.stale_blocks() == 0
        chain.add_block(b1)
        chain.add_block(b2)
        assert chain.stale_blocks() == 2  # the b-branch is behind
        assert chain.add_block(b3) is True  # reorg: b-branch wins
        assert chain.stale_blocks() == 2  # now the a-branch is stale
        assert chain.best_tip.block_hash == b3.block_hash
        assert chain.stale_blocks() == self._reference_stale(chain)


# ----------------------------------------------------------------- monitoring
class TestBoundedMonitor:
    def test_bounded_series_exact_count_sum_approx_percentile(self):
        series = TimeSeries("latency", max_samples=100)
        values = [float(i) for i in range(10_000)]
        for i, value in enumerate(values):
            series.record(float(i), value)
        assert series.count() == 10_000
        assert series.total() == sum(values)
        assert series.mean() == pytest.approx(sum(values) / len(values))
        assert len(series.samples) == 100
        # The reservoir p50 is an estimate of the true median.
        assert abs(series.p50() - 4999.5) < 2_000
        assert series.p99() > series.p50()

    def test_unbounded_series_unchanged(self):
        series = TimeSeries("latency")
        for i in range(100):
            series.record(float(i), float(i))
        assert series.percentile(0) == 0.0
        assert series.percentile(100) == 99.0
        assert series.count() == 100

    def test_bounded_throughput_tracker_totals_and_rates(self):
        tracker = ThroughputTracker(max_samples=16)
        for i in range(1_000):
            tracker.record_commit(float(i) / 10.0, 5)
        assert tracker.total_committed == 5_000
        assert tracker.throughput(start=0.0, end=100.0) > 0
        assert len(tracker._buckets) <= 16
        buckets = tracker.over_time(bucket_seconds=2.0)
        assert buckets and all(rate >= 0 for _, rate in buckets)

    def test_monitor_propagates_bound(self):
        monitor = Monitor(max_samples=8)
        series = monitor.series("s")
        for i in range(100):
            series.record(float(i), 1.0)
        assert len(series.samples) == 8
        assert monitor.summary()["series.s.count"] == 100.0


# ------------------------------------------------------------------ dedup sets
class TestBoundedIdSet:
    def test_fifo_eviction(self):
        ids = BoundedIdSet(capacity=3)
        for item in "abcd":
            ids.add(item)
        assert "a" not in ids
        assert set(ids) == {"b", "c", "d"}

    def test_trim_batches_eviction(self):
        ids = BoundedIdSet(capacity=2)
        for item in "abcde":
            ids[item] = None
        ids.trim()
        assert set(ids) == {"d", "e"}

    def test_unbounded_and_discard(self):
        ids = BoundedIdSet()
        for i in range(1_000):
            ids.add(str(i))
        assert len(ids) == 1_000
        ids.discard("5")
        ids.discard("not-there")
        assert len(ids) == 999


# ------------------------------------------------------------------ TEE + misc
class TestAttestedLogTruncation:
    def test_truncate_below_drops_and_locks(self):
        log = AttestedAppendOnlyLog(enclave_id="a2m-test")
        for position in range(10):
            log.append("prepare", position, f"digest-{position}")
        dropped = log.truncate_below(6)
        assert dropped == 6
        assert log.lookup("prepare", 3) is None
        assert log.lookup("prepare", 7) is not None
        assert log.highest_position("prepare") == 9
        with pytest.raises(EnclaveError):
            log.append("prepare", 2, "rebind-attempt")
        # Positions at/above the floor still work and stay bound.
        attestation = log.append("prepare", 6, "digest-6")
        assert attestation.verify()


class TestIncludeSelfBroadcast:
    def test_include_self_delivers_to_sender(self):
        cluster = ConsensusCluster("HL", 4, seed=1)
        replica = cluster.replicas[0]
        payload = m.Checkpoint(seq=0, replica=replica.node_id)

        replica._broadcast_consensus(m.KIND_CHECKPOINT, payload)
        cluster.sim.run()
        without_self = replica.stats.messages_received

        replica._broadcast_consensus(m.KIND_CHECKPOINT, payload, include_self=True)
        cluster.sim.run()
        assert replica.stats.messages_received == without_self + 1
