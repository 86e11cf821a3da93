"""Differential tests of Figure 6: the coordinator's vote tally against R's chaincode.

Paper §6 has the reference committee R run Figure 6's 2PC state machine on
its own chain (:class:`ReferenceCommitteeChaincode`).  The only other copy
of that rule is the vote tally in
:meth:`TwoPhaseCommitCoordinator.record_prepare_vote`: it decides in the
trusted-coordinator mode, and in R mode the driver checks every decision
against the state R's receipt reports.  This module pins the two copies
together two ways:

1. A property test: for random vote sequences — duplicates, OK after NotOK,
   NotOK after OK, votes after the decision — the tally decides exactly
   like the chaincode executing the same votes on a :class:`StateStore`.
2. Goldens for a sweep of full-system runs: per-home outcomes, the driver's
   counts and the merged ``CoordinatorStats``, recorded while R mode still
   decided through a second, in-memory copy of R's state machine.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import OpenLoopDriver, ShardedBlockchain, ShardedSystemConfig
from repro.ledger.state import StateStore
from repro.ledger.transaction import Transaction, rebase_tx_counter
from repro.txn.coordinator import DistributedTxOutcome, TwoPhaseCommitCoordinator
from repro.txn.reference_committee import ReferenceCommitteeChaincode

#: What R's per-transaction state says about the decision.
R_DECISION = {
    "started": DistributedTxOutcome.PENDING,
    "preparing": DistributedTxOutcome.PENDING,
    "committed": DistributedTxOutcome.COMMITTED,
    "aborted": DistributedTxOutcome.ABORTED,
}


# ---------------------------------------------------------------------------
# 1. The tally decides like R's chaincode.
# ---------------------------------------------------------------------------
@st.composite
def vote_sequences(draw):
    """A participant count and a vote sequence over those participants.

    Long enough to revisit shards, so duplicates, OK-after-NotOK,
    NotOK-after-OK and votes after the decision all occur.
    """
    shards = draw(st.integers(min_value=1, max_value=6))
    votes = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=shards - 1), st.booleans()),
        max_size=3 * shards + 2))
    return shards, votes


@given(vote_sequences())
@settings(max_examples=400, deadline=None)
def test_tally_decides_like_the_reference_chaincode(case):
    shards, votes = case
    coordinator = TwoPhaseCommitCoordinator()
    tx = Transaction.create("smallbank", "sendPayment",
                            {"from": "a", "to": "b", "amount": 1})
    record = coordinator.begin(tx, range(shards))
    coordinator.mark_begin_executed(tx.tx_id)
    chaincode, state = ReferenceCommitteeChaincode(), StateStore()
    chaincode.invoke(state, "beginTx", {"tx_id": tx.tx_id, "num_committees": shards})
    for step, (shard, ok) in enumerate(votes):
        coordinator.record_prepare_vote(tx.tx_id, shard, ok, now=float(step))
        on_chain = chaincode.invoke(state, "prepareOK" if ok else "prepareNotOK",
                                    {"tx_id": tx.tx_id, "shard_id": shard})
        assert record.outcome is R_DECISION[on_chain["state"]], (votes[:step + 1],
                                                                 on_chain)


# ---------------------------------------------------------------------------
# 2. Full-system sweep goldens.
# ---------------------------------------------------------------------------
#: (seed, shards, zipf, benchmark, use_reference, retain, txns, conflict_policy).
#: The wound-wait run is the one whose wounds make shards revote NotOK after
#: OK (two equivocations), so it pins the tally's equivocation branch.
SWEEP = [
    (3, 2, 0.0, "smallbank", True, True, 80, "abort"),
    (11, 4, 0.9, "smallbank", True, True, 80, "abort"),
    (23, 3, 0.5, "kvstore", True, True, 60, "abort"),
    (31, 4, 0.8, "smallbank", False, True, 60, "abort"),
    (47, 2, 0.9, "smallbank", True, False, 60, "abort"),
    (59, 4, 0.99, "smallbank", True, True, 80, "wound-wait"),
]

#: The merged CoordinatorStats counters a golden lists, in this order
#: (``latency_sum`` rounded to 9 dp).
STATS_FIELDS = ("started", "committed", "aborted", "cross_shard",
                "latency_count", "latency_sum", "duplicate_votes",
                "duplicate_acks", "equivocations", "stale_messages",
                "coordinator_crashes", "redriven_transactions")

#: Recorded at commit 65bf1b9, whose R mode decided through an in-memory copy
#: of R's state machine (trusted mode through the tally).  ``outcomes`` maps
#: each home shard to its transactions' outcomes in begin order.
SWEEP_GOLDENS = {
    3: {"driver": [70, 10],
        "stats": [80, 70, 10, 37, 80, 70.782235326, 0, 0, 0, 0, 0, 0],
        "outcomes": {
            0: "CCCCCCACCCCCCCACCCCCCCCACCCCCCCCCCCACACCCCCCCCCCCCCAAAACCCCA",
            1: "CCCCCCCCCCCCCCCCCCCC"}},
    11: {"driver": [44, 36],
         "stats": [80, 44, 36, 65, 80, 103.259949436, 0, 0, 0, 0, 0, 0],
         "outcomes": {
             0: "CACCCCCACCAACACAACCAACACCCCCACCA",
             1: "CCCCAACACCAACCAACAACCAA",
             2: "CCCCAACAAAAACAACCAACAA",
             3: "CCC"}},
    23: {"driver": [32, 28],
         "stats": [60, 32, 28, 53, 60, 85.497807401, 0, 0, 0, 0, 0, 0],
         "outcomes": {
             0: "CCCCCAAAACCCCAACCACAAACCACACAACCAAAAAACCAA",
             1: "CCCACAACCAACACC",
             2: "CCC"}},
    31: {"driver": [40, 20],
         "stats": [60, 40, 20, 41, 60, 41.3258909, 0, 0, 0, 0, 0, 0],
         "outcomes": {
             0: "CCCCCACCCACACCAAAACCA",
             1: "CCCACCCCCCACCCAAAACACA",
             2: "CACCAAACCCC",
             3: "CCCCCC"}},
    47: {"driver": [42, 18],
         "stats": [60, 42, 18, 31, 60, 52.06673049, 0, 0, 0, 2, 0, 0],
         "outcomes": {
             0: "CCCCCCCACCCAAACCCCCACACCAACCCCAACACCCACACAAACCAA",
             1: "CCCCCCCCCCCC"}},
    59: {"driver": [78, 2],
         "stats": [80, 78, 2, 67, 80, 163.908958688, 0, 0, 2, 0, 0, 0],
         "outcomes": {
             0: "CACCCCCCCCCCCCCCCCCCACCCCCCCCCCC",
             1: "CCCCCCCCCCCCCCCCCCCCCCCC",
             2: "CCCCCCCCCCCCCCCCCCCC",
             3: "CCCC"}},
}


def _sweep_fingerprint(seed, shards, zipf, bench, use_reference, retain, txns,
                       policy) -> dict:
    rebase_tx_counter(0)
    system = ShardedBlockchain(ShardedSystemConfig(
        num_shards=shards, committee_size=4, num_keys=300,
        zipf_coefficient=zipf, benchmark=bench, seed=seed,
        use_reference_committee=use_reference, retain_tx_records=retain,
        conflict_policy=policy))
    # Outcomes are taken as each home finishes a transaction, so pruned
    # (retain=False) runs are covered too.
    finished = {}
    for shard_id, partition in sorted(system.partitions.items()):
        home = partition.home
        if home is None:
            continue
        seen = finished[shard_id] = []

        def on_finished(record, target, forward=home.finished, seen=seen):
            seen.append((record.begin_seq, record.outcome))
            forward(record, target)

        home.finished = on_finished
    driver = OpenLoopDriver(system, rate_tps=150.0, max_transactions=txns,
                            batch_size=4)
    stats = driver.run_to_completion()
    coordination = system.coordination_stats()
    coordination.latency_sum = round(coordination.latency_sum, 9)
    return {
        "driver": [stats.committed, stats.aborted],
        "stats": [getattr(coordination, name) for name in STATS_FIELDS],
        "outcomes": {
            shard_id: "".join("C" if outcome is DistributedTxOutcome.COMMITTED
                              else "A" for _, outcome in sorted(seen))
            for shard_id, seen in finished.items()},
    }


@pytest.mark.parametrize("sweep", SWEEP, ids=[f"seed{row[0]}" for row in SWEEP])
def test_sweep_outcomes_match_goldens(sweep):
    assert _sweep_fingerprint(*sweep) == SWEEP_GOLDENS[sweep[0]]
