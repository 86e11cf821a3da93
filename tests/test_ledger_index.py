"""Tests for the ledger analytics & audit index (``repro/ledger/index.py``).

The index's contract has two halves, and both are tested here:

* **maintenance** — ingestion is idempotent per (shard, height), tolerates
  out-of-order arrival (parking the full payload until the gap fills, so
  every materialization stays height-ordered), and keeps the prefix-sum
  columns consistent with a brute-force recomputation;
* **equivalence** — :func:`rebuild_index`, the O(chain) oracle that replays
  the blocks through a fresh execution engine, reproduces the incremental
  index bit-for-bit (``snapshot_diff`` finds no divergence).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.ledger.block import build_block
from repro.ledger.blockchain import Blockchain
from repro.ledger.chaincode import ChaincodeRegistry, ExecutionEngine
from repro.ledger.index import LedgerIndex, rebuild_index, snapshot_diff
from repro.ledger.state import StateStore
from repro.ledger.transaction import Transaction
from repro.workloads.smallbank import (
    DEFAULT_BALANCE,
    SmallbankChaincode,
    account_key,
    initial_balances,
)


def smallbank_registry() -> ChaincodeRegistry:
    registry = ChaincodeRegistry()
    registry.register(SmallbankChaincode())
    return registry


def populate_smallbank(num_accounts: int, state: StateStore) -> None:
    for key, balance in initial_balances(num_accounts).items():
        state.put(key, balance)


def build_smallbank_run(num_accounts=8, blocks=15, txs_per_block=3, seed=0,
                        shard_id=0, retention="full"):
    """A committed smallbank chain plus per-height receipts and final state.

    The transaction mix exercises every delta rule: transfers, deposits
    (mints) and guaranteed-failing overdrafts (which must contribute no
    deltas at all).
    """
    rng = random.Random(seed)
    chain = Blockchain(shard_id=shard_id, retention=retention)
    state = StateStore()
    populate_smallbank(num_accounts, state)
    engine = ExecutionEngine(smallbank_registry(), state)
    receipts_by_height = {}
    blocks_by_height = {}
    for height in range(1, blocks + 1):
        txs = []
        for _ in range(txs_per_block):
            roll = rng.random()
            source, destination = rng.sample(range(num_accounts), 2)
            if roll < 0.6:
                txs.append(Transaction.create("smallbank", "sendPayment", {
                    "from": str(source), "to": str(destination),
                    "amount": rng.randint(1, 50)}))
            elif roll < 0.8:
                txs.append(Transaction.create("smallbank", "deposit", {
                    "account": str(source), "amount": rng.randint(1, 20)}))
            else:  # overdraft: fails, applies nothing
                txs.append(Transaction.create("smallbank", "sendPayment", {
                    "from": str(source), "to": str(destination),
                    "amount": 10**9}))
        block = build_block(height, chain.tip.block_hash, tuple(txs),
                            proposer=0, timestamp=float(height),
                            shard_id=shard_id)
        receipts = engine.execute_block(block, now=block.header.timestamp)
        chain.append(block)
        receipts_by_height[height] = receipts
        blocks_by_height[height] = block
    return chain, blocks_by_height, receipts_by_height, state


def ingest_all(index: LedgerIndex, blocks, receipts, shard_id=0,
               order=None) -> None:
    heights = order if order is not None else sorted(blocks)
    for height in heights:
        index.ingest_block(shard_id, blocks[height], receipts[height])


class TestIngestion:
    def test_counts_tips_and_totals(self):
        chain, blocks, receipts, _ = build_smallbank_run()
        index = LedgerIndex()
        ingest_all(index, blocks, receipts)
        assert index.blocks_indexed == chain.height
        assert index.tip_height(0) == chain.height
        assert index.tip_hash(0) == chain.tip.block_hash
        assert index.tx_count(0) == chain.total_transactions()
        assert index.duplicates_dropped == 0

    def test_duplicate_heights_are_dropped(self):
        _, blocks, receipts, _ = build_smallbank_run(blocks=6)
        index = LedgerIndex()
        ingest_all(index, blocks, receipts)
        before = index.snapshot()
        assert index.ingest_block(0, blocks[3], receipts[3]) is False
        assert index.duplicates_dropped == 1
        assert snapshot_diff(index.snapshot(), before) is None

    def test_out_of_order_arrival_parks_then_flushes_in_height_order(self):
        _, blocks, receipts, _ = build_smallbank_run(blocks=6)
        in_order = LedgerIndex()
        ingest_all(in_order, blocks, receipts)
        shuffled = LedgerIndex()
        ingest_all(shuffled, blocks, receipts, order=[1, 4, 3, 6, 2, 5])
        # While height 2 was missing, 3/4/6 were parked and applied nothing.
        probe = LedgerIndex()
        ingest_all(probe, blocks, receipts, order=[1, 4, 3, 6])
        assert probe.tip_height(0) == 1
        assert sorted(probe._parked.get(0, ())) == [3, 4, 6]
        assert not probe.balances_exact()
        # Once the gaps fill, the result is bit-identical to in-order
        # ingestion — including per-account history order.
        assert not shuffled._parked.get(0)
        assert snapshot_diff(in_order.snapshot(), shuffled.snapshot()) is None

    def test_parked_duplicate_is_dropped(self):
        _, blocks, receipts, _ = build_smallbank_run(blocks=4)
        index = LedgerIndex()
        index.ingest_block(0, blocks[1], receipts[1])
        assert index.ingest_block(0, blocks[3], receipts[3]) is True
        assert index.ingest_block(0, blocks[3], receipts[3]) is False
        assert index.duplicates_dropped == 1
        index.ingest_block(0, blocks[2], receipts[2])
        assert index.tip_height(0) == 3

    def test_mid_run_attach_is_marked_inexact(self):
        chain, blocks, receipts, _ = build_smallbank_run(blocks=5)
        index = LedgerIndex()
        index.register_shard(0, origin_height=3,
                             origin_hash=chain.header_at(3).block_hash)
        for height in (4, 5):
            index.ingest_block(0, blocks[height], receipts[height])
        assert index.tip_height(0) == 5
        assert index.blocks_indexed == 2
        assert not index.balances_exact()


class TestReorg:
    """Branch switches: the index follows the longest hash-linked chain.

    Two chains built from the same genesis with different seeds stand in
    for a committed fork (or a committee handover onto a restarted chain):
    reports from the losing branch park as siblings, and the index switches
    only when a parked branch strictly outgrows the one it follows.
    """

    def test_longer_branch_triggers_reorg(self):
        _, blocks_a, receipts_a, _ = build_smallbank_run(blocks=5, seed=1)
        _, blocks_b, receipts_b, _ = build_smallbank_run(blocks=8, seed=2)
        index = LedgerIndex()
        ingest_all(index, blocks_a, receipts_a)
        assert index.tip_height(0) == 5
        # B1..B5 are fork siblings of indexed heights: parked, no switch —
        # the B branch is not longer than the followed chain yet.
        for height in range(1, 6):
            index.ingest_block(0, blocks_b[height], receipts_b[height])
        assert index.tip_height(0) == 5
        assert index.tip_hash(0) == blocks_a[5].block_hash
        assert index.reorgs == 0
        # B6 makes the parked branch strictly taller: the index switches.
        for height in range(6, 9):
            index.ingest_block(0, blocks_b[height], receipts_b[height])
        assert index.reorgs == 1
        assert index.reorged_out == 5
        assert index.tip_height(0) == 8
        assert index.tip_hash(0) == blocks_b[8].block_hash
        # Every materialization — rows, balances, history — now equals an
        # index that only ever saw the B chain, bit for bit.
        b_only = LedgerIndex()
        ingest_all(b_only, blocks_b, receipts_b)
        assert snapshot_diff(index.snapshot(), b_only.snapshot()) is None
        # The abandoned branch parks at or below the tip: the followed
        # chain itself is complete, so balances stay exact.
        assert index.pending_heights(0) == []
        assert index.balances_exact()

    def test_reorg_is_lossless_and_reversible(self):
        _, blocks_a, receipts_a, _ = build_smallbank_run(blocks=12, seed=1)
        _, blocks_b, receipts_b, _ = build_smallbank_run(blocks=8, seed=2)
        index = LedgerIndex()
        ingest_all(index, blocks_a, receipts_a, order=range(1, 6))
        ingest_all(index, blocks_b, receipts_b)  # B outgrows: switch to B
        assert index.reorgs == 1 and index.tip_hash(0) == blocks_b[8].block_hash
        # The unapplied A1..A5 were re-parked, so when A overtakes B the
        # index switches back without having lost anything.
        ingest_all(index, blocks_a, receipts_a, order=range(6, 13))
        assert index.reorgs == 2
        assert index.tip_height(0) == 12
        a_only = LedgerIndex()
        ingest_all(a_only, blocks_a, receipts_a)
        assert snapshot_diff(index.snapshot(), a_only.snapshot()) is None


class TestBalances:
    def test_account_balances_match_executed_state(self):
        _, blocks, receipts, state = build_smallbank_run(num_accounts=6, seed=3)
        index = LedgerIndex()
        ingest_all(index, blocks, receipts)
        for account in range(6):
            key = account_key(str(account))
            assert DEFAULT_BALANCE + index.account_delta(key) == state.get(key)

    def test_drift_is_zero_and_mints_are_separated(self):
        _, blocks, receipts, _ = build_smallbank_run(seed=5)
        index = LedgerIndex()
        ingest_all(index, blocks, receipts)
        assert index.balance_drift() == 0
        assert index.minted() > 0  # the mix includes deposits
        assert index.balances_exact()

    def test_forged_delta_trips_drift(self):
        _, blocks, receipts, _ = build_smallbank_run(blocks=4)
        index = LedgerIndex()
        ingest_all(index, blocks, receipts)
        index._apply(0, index._shards[0], index.tip_height(0) + 1,
                     ((0, 0, 0, 0, 0, 0.0, "forged"),
                      [(account_key("0"), 5)], 0))
        assert index.balance_drift() == 5

    def test_history_is_height_ordered_per_account(self):
        _, blocks, receipts, _ = build_smallbank_run(seed=7)
        index = LedgerIndex()
        ingest_all(index, blocks, receipts, order=[3, 1, 2, 5, 4] + list(range(6, 16)))
        seen_any = False
        for account in range(8):
            history = index.account_history(account_key(str(account)))
            heights = [height for height, _, _ in history]
            assert heights == sorted(heights)
            seen_any = seen_any or bool(history)
        assert seen_any

    def test_disabled_history_raises(self):
        index = LedgerIndex(account_history=False)
        with pytest.raises(ConfigurationError):
            index.account_history(account_key("0"))
        assert index.snapshot()["history"] is None


class TestRangeStats:
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_sums_match_brute_force(self, seed, data):
        _, blocks, receipts, _ = build_smallbank_run(blocks=12, seed=seed % 100)
        index = LedgerIndex()
        ingest_all(index, blocks, receipts)
        start = data.draw(st.integers(min_value=-2, max_value=15))
        end = data.draw(st.integers(min_value=-2, max_value=15))
        stats = index.range_stats(0, start, end)
        in_range = [h for h in blocks if start <= h < end]
        assert stats.blocks == len(in_range)
        assert stats.transactions == sum(len(blocks[h].transactions)
                                         for h in in_range)
        recomputed_commits = sum(
            1 for h in in_range for tx in blocks[h].transactions
            if tx.function == "commitPayment")
        assert stats.commit_decisions == recomputed_commits

    def test_range_stats_partition_the_chain(self):
        chain, blocks, receipts, _ = build_smallbank_run(blocks=10)
        index = LedgerIndex()
        ingest_all(index, blocks, receipts)
        windows = [index.range_stats(0, start, end)
                   for start, end in ((1, 5), (5, 9), (9, 11))]
        assert [w.blocks for w in windows] == [4, 4, 2]
        assert sum(w.transactions for w in windows) == chain.total_transactions()
        for window in windows:
            assert 0.0 <= window.abort_rate <= 1.0


class TestRebuildOracle:
    def test_rebuild_matches_incremental_bit_for_bit(self):
        chain, blocks, receipts, _ = build_smallbank_run(num_accounts=6, seed=9)
        live = LedgerIndex()
        ingest_all(live, blocks, receipts)
        rebuilt = rebuild_index(
            {0: chain}, lambda shard_id: smallbank_registry(),
            populate=lambda shard_id, state: populate_smallbank(6, state))
        assert snapshot_diff(live.snapshot(), rebuilt.snapshot()) is None

    def test_rebuild_sees_epoch_column(self):
        chain, blocks, receipts, _ = build_smallbank_run(blocks=6)

        def epoch_of(timestamp: float) -> int:
            return 0 if timestamp < 4 else 1

        live = LedgerIndex()
        for height in sorted(blocks):
            live.ingest_block(0, blocks[height], receipts[height],
                              epoch=epoch_of(blocks[height].header.timestamp))
        rebuilt = rebuild_index(
            {0: chain}, lambda shard_id: smallbank_registry(),
            populate=lambda shard_id, state: populate_smallbank(8, state),
            epoch_of=epoch_of)
        assert snapshot_diff(live.snapshot(), rebuilt.snapshot()) is None
        assert sorted(live.epoch_summary()) == [0, 1]

    def test_rebuild_refuses_pruned_chains(self):
        chain, _, _, _ = build_smallbank_run(blocks=30, retention="headers")
        assert len(chain.blocks()) < len(chain.headers())  # bodies pruned
        with pytest.raises(ConfigurationError, match="pruned"):
            rebuild_index({0: chain}, lambda shard_id: smallbank_registry())

    def test_snapshot_diff_pinpoints_first_divergence(self):
        _, blocks, receipts, _ = build_smallbank_run(blocks=4)
        index = LedgerIndex()
        ingest_all(index, blocks, receipts)
        tampered = index.snapshot()
        tampered["shards"][0]["tx_count"][2] += 1
        diff = snapshot_diff(index.snapshot(), tampered)
        assert diff is not None and "tx_count[2]" in diff
        assert snapshot_diff(index.snapshot(), index.snapshot()) is None


class TestControlPlaneRecords:
    def test_attested_slots_bind_first_digest(self):
        index = LedgerIndex()
        assert index.record_attestation("e1", "prepare", 0, "d-one") is None
        assert index.record_attestation("e1", "prepare", 0, "d-two") == "d-one"
        assert index.record_attestation("e1", "prepare", 0, "d-one") == "d-one"
        assert index.record_attestation("e1", "prepare", 1, "d-three") is None
        assert index.attestations_recorded == 2
