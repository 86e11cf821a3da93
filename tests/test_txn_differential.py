"""Differential tests: the overhauled transaction engine vs. the seed.

The cross-shard engine overhaul (pluggable conflict policies, fault
injection, crash recovery, cohort relays) must leave the **default
configuration** — ``abort`` policy, no faults, no prepare timeout —
bit-identical to the seed implementation.  This module locks that down two
ways:

1. An inline, seed-faithful copy of the original
   ``TwoPhaseCommitCoordinator`` (taken verbatim from the seed revision) is
   driven with the same operation sequences as the current implementation
   and must agree on every observable (property-based).
2. A :class:`MirrorCoordinator` replaces every home coordinator's
   bookkeeping inside a full :class:`ShardedBlockchain` simulation and
   forwards every call to the seed copy; a seeded sweep of random multi-shard workloads must produce
   identical per-transaction outcomes and identical ``CoordinatorStats``.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import OpenLoopDriver, ShardedBlockchain, ShardedSystemConfig
from repro.errors import TransactionAbortedError
from repro.ledger.transaction import Transaction
from repro.txn.coordinator import (
    CoordinatorStats,
    DistributedTxOutcome,
    DistributedTxPhase,
    DistributedTxRecord,
    TwoPhaseCommitCoordinator,
)
from repro.txn.reference_committee import CoordinatorState, ReferenceCommitteeStateMachine


# ---------------------------------------------------------------------------
# Inline seed-faithful reference implementation (verbatim seed logic).
# ---------------------------------------------------------------------------
class SeedCoordinator:
    """The seed repository's 2PC coordinator bookkeeping, kept verbatim.

    (Including the seed's behaviour of overwriting ``prepare_votes`` on a
    revote — honest default-configuration runs never revote, which is exactly
    what the differential sweep demonstrates.)
    """

    def __init__(self, use_reference_committee: bool = True,
                 retain_records: bool = True) -> None:
        self.use_reference_committee = use_reference_committee
        self.retain_records = retain_records
        self.reference = ReferenceCommitteeStateMachine()
        self.records: Dict[str, DistributedTxRecord] = {}
        self.stats = CoordinatorStats()

    def begin(self, transaction: Transaction, shards, now: float = 0.0) -> DistributedTxRecord:
        shards = sorted(set(shards))
        if not shards:
            raise TransactionAbortedError("a transaction must involve at least one shard")
        record = DistributedTxRecord(
            tx_id=transaction.tx_id, transaction=transaction,
            shards=list(shards), started_at=now,
            phase=DistributedTxPhase.BEGINNING,
        )
        self.records[transaction.tx_id] = record
        self.stats.started += 1
        if record.is_cross_shard:
            self.stats.cross_shard += 1
        if self.use_reference_committee:
            self.reference.begin(transaction.tx_id, len(shards))
        return record

    def mark_begin_executed(self, tx_id: str) -> DistributedTxRecord:
        record = self._record(tx_id)
        record.phase = DistributedTxPhase.PREPARING
        return record

    def record_prepare_vote(self, tx_id: str, shard_id: int, ok: bool,
                            now: float = 0.0, reason: Optional[str] = None):
        if not self.retain_records and tx_id not in self.records:
            return None
        record = self._record(tx_id)
        if shard_id not in record.shards:
            raise TransactionAbortedError(
                f"shard {shard_id} is not a participant of {tx_id!r}")
        record.prepare_votes[shard_id] = ok
        record.phase = DistributedTxPhase.VOTING
        if not ok and reason and record.abort_reason is None:
            record.abort_reason = reason
        if self.use_reference_committee:
            if ok:
                state = self.reference.prepare_ok(tx_id, shard_id)
            else:
                state = self.reference.prepare_not_ok(tx_id, shard_id)
            decided = state in (CoordinatorState.COMMITTED, CoordinatorState.ABORTED)
            committed = state == CoordinatorState.COMMITTED
        else:
            if not ok:
                decided, committed = True, False
            elif record.all_votes_in and all(record.prepare_votes.values()):
                decided, committed = True, True
            else:
                decided, committed = False, False
        if decided and record.outcome is DistributedTxOutcome.PENDING:
            record.outcome = (DistributedTxOutcome.COMMITTED if committed
                              else DistributedTxOutcome.ABORTED)
            record.decided_at = now
            record.phase = DistributedTxPhase.COMMITTING
        return record

    def record_commit_ack(self, tx_id: str, shard_id: int, now: float = 0.0):
        if not self.retain_records and tx_id not in self.records:
            return None
        record = self._record(tx_id)
        record.commit_acks[shard_id] = True
        if record.all_acks_in and record.phase is not DistributedTxPhase.DONE:
            self._finish(record, now)
        return record

    def _finish(self, record: DistributedTxRecord, now: float) -> None:
        record.phase = DistributedTxPhase.DONE
        record.completed_at = now
        if record.outcome is DistributedTxOutcome.COMMITTED:
            self.stats.committed += 1
        else:
            self.stats.aborted += 1
        if record.latency is not None:
            self.stats.latency_sum += record.latency
            self.stats.latency_count += 1
            if self.retain_records:
                self.stats.latencies.append(record.latency)
        if not self.retain_records:
            self.records.pop(record.tx_id, None)
            self.reference.transactions.pop(record.tx_id, None)

    def _record(self, tx_id: str) -> DistributedTxRecord:
        record = self.records.get(tx_id)
        if record is None:
            raise TransactionAbortedError(f"unknown distributed transaction {tx_id!r}")
        return record


# ---------------------------------------------------------------------------
# The mirror: every coordinator call is forwarded to the seed copy.
# ---------------------------------------------------------------------------
class MirrorCoordinator(TwoPhaseCommitCoordinator):
    """Forwards every call to an inline seed copy and compares as it goes."""

    def __init__(self, use_reference_committee: bool = True,
                 retain_records: bool = True, **kwargs) -> None:
        super().__init__(use_reference_committee, retain_records=retain_records,
                         **kwargs)
        self.seed = SeedCoordinator(use_reference_committee, retain_records)

    def begin(self, transaction, shards, now=0.0):
        record = super().begin(transaction, shards, now=now)
        self.seed.begin(transaction, list(shards), now=now)
        return record

    def mark_begin_executed(self, tx_id, now=0.0):
        record = super().mark_begin_executed(tx_id, now=now)
        self.seed.mark_begin_executed(tx_id)
        return record

    def record_prepare_vote(self, tx_id, shard_id, ok, now=0.0, reason=None):
        record = super().record_prepare_vote(tx_id, shard_id, ok, now=now, reason=reason)
        seed_record = self.seed.record_prepare_vote(tx_id, shard_id, ok, now=now,
                                                    reason=reason)
        self._compare(record, seed_record)
        return record

    def record_commit_ack(self, tx_id, shard_id, now=0.0):
        record = super().record_commit_ack(tx_id, shard_id, now=now)
        seed_record = self.seed.record_commit_ack(tx_id, shard_id, now=now)
        self._compare(record, seed_record)
        return record

    @staticmethod
    def _compare(record, seed_record) -> None:
        # The observables the overhaul guarantees: outcomes, votes, acks and
        # stats.  (Phases are *not* compared verbatim: the seed had a quirk
        # where a late vote reset a DONE record's phase back to VOTING, which
        # the overhaul deliberately fixes.)
        assert (record is None) == (seed_record is None)
        if record is None:
            return
        assert record.outcome is seed_record.outcome
        assert record.prepare_votes == seed_record.prepare_votes
        assert record.commit_acks == seed_record.commit_acks

    def assert_stats_identical(self) -> None:
        mine, theirs = self.stats, self.seed.stats
        for name in ("started", "committed", "aborted", "cross_shard",
                     "latency_count"):
            assert getattr(mine, name) == getattr(theirs, name), name
        assert mine.latency_sum == theirs.latency_sum       # bit-identical
        assert mine.latencies == theirs.latencies
        # The overhaul's new bookkeeping must never fire on the default path.
        assert mine.duplicate_votes == 0
        assert mine.equivocations == 0
        assert mine.coordinator_crashes == 0
        assert mine.redriven_transactions == 0

    def assert_records_identical(self) -> None:
        assert set(self.records) == set(self.seed.records)
        for tx_id, record in self.records.items():
            self._compare(record, self.seed.records[tx_id])


def _mirrored_system(config: ShardedSystemConfig):
    """The system plus the mirrors now standing in for its home coordinators'
    bookkeeping (the 2PC drivers read ``home.coordinator`` on every call)."""
    system = ShardedBlockchain(config)
    mirrors = []
    for partition in system.partitions.values():
        if partition.home is not None:
            partition.home.coordinator = MirrorCoordinator(
                config.use_reference_committee,
                retain_records=config.retain_tx_records,
                prepare_timeout=config.prepare_timeout)
            mirrors.append(partition.home.coordinator)
    return system, mirrors


# ---------------------------------------------------------------------------
# 1. Property-based differential on the coordinator bookkeeping.
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_coordinator_bookkeeping_matches_seed(seed_value, use_reference, retain):
    """Random honest vote/ack interleavings: identical outcomes and stats."""
    rng = random.Random(seed_value)
    mirror = MirrorCoordinator(use_reference_committee=use_reference,
                               retain_records=retain)
    now = 0.0
    for index in range(rng.randrange(1, 12)):
        shards = sorted(rng.sample(range(4), rng.randrange(1, 4)))
        tx = Transaction.create("smallbank", "sendPayment",
                                {"from": "a", "to": "b", "amount": 1})
        record = mirror.begin(tx, shards, now=now)
        mirror.mark_begin_executed(tx.tx_id, now=now)
        votes = [(shard, rng.random() < 0.8) for shard in shards]
        rng.shuffle(votes)
        for shard, ok in votes:
            now += rng.random()
            mirror.record_prepare_vote(tx.tx_id, shard, ok, now=now,
                                       reason=None if ok else "locked")
        acks = list(shards)
        rng.shuffle(acks)
        for shard in acks:
            now += rng.random()
            mirror.record_commit_ack(tx.tx_id, shard, now=now)
        if retain:
            assert record.phase is DistributedTxPhase.DONE
    mirror.assert_stats_identical()
    mirror.assert_records_identical()


# ---------------------------------------------------------------------------
# 2. Full-system differential sweep (the acceptance criterion).
# ---------------------------------------------------------------------------
SWEEP = [
    # (seed, shards, zipf, workload benchmark, use_reference, retain, txns)
    (3, 2, 0.0, "smallbank", True, True, 80),
    (11, 4, 0.9, "smallbank", True, True, 80),
    (23, 3, 0.5, "kvstore", True, True, 60),
    (31, 4, 0.8, "smallbank", False, True, 60),
    (47, 2, 0.9, "smallbank", True, False, 60),
]


@pytest.mark.parametrize("seed,shards,zipf,bench,use_reference,retain,txns", SWEEP)
def test_default_config_bit_identical_to_seed(seed, shards, zipf, bench,
                                              use_reference, retain, txns):
    """Seeded random multi-shard workloads under the default abort policy:
    every vote/ack observable, every outcome and the final CoordinatorStats
    must be bit-identical to the inline seed-faithful coordinator."""
    config = ShardedSystemConfig(
        num_shards=shards, committee_size=4, num_keys=300,
        zipf_coefficient=zipf, benchmark=bench, seed=seed,
        use_reference_committee=use_reference, retain_tx_records=retain,
    )
    system, mirrors = _mirrored_system(config)
    driver = OpenLoopDriver(system, rate_tps=150.0, max_transactions=txns,
                            batch_size=4)
    stats = driver.run_to_completion()
    assert stats.completed == txns
    for mirror in mirrors:
        mirror.assert_stats_identical()
        mirror.assert_records_identical()
        # And the run actually decided everything it started.
        assert mirror.stats.committed + mirror.stats.aborted == mirror.stats.started
    # Not vacuous: the mirrors, between them, saw every transaction begin.
    assert sum(mirror.seed.stats.started for mirror in mirrors) == txns
