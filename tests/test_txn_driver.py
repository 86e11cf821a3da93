"""Unit tests for :class:`repro.txn.coordinator.TwoPhaseCommitDriver`.

The driver is sans-IO, so these tests need no simulator and no sockets: a
fake host records what the driver asks to have relayed, a manual clock fires
its timers, and each test scripts the votes / acks / receipts that come back.
The reference committee is played by R's real chaincode on a state store.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, List, Tuple

import pytest

from repro.core.splitters import splitter_for
from repro.errors import CoordinatorFailureError, WorkloadError
from repro.ledger.chaincode import ChaincodeRegistry, ExecutionEngine
from repro.ledger.state import StateStore
from repro.ledger.transaction import Transaction, TransactionReceipt, TxStatus
from repro.txn.coordinator import (
    DistributedTxOutcome,
    DistributedTxPhase,
    TwoPhaseCommitCoordinator,
    TwoPhaseCommitDriver,
)
from repro.txn.faults import CoordinatorCrashScenario, VoteReplayScenario
from repro.txn.reference_committee import ReferenceCommitteeChaincode
from repro.workloads.smallbank import SmallbankChaincode

TIMEOUT = 2.0


class ManualClock:
    """The two :class:`~repro.runtime.base.Runtime` members the driver uses."""

    def __init__(self) -> None:
        self.now = 0.0
        self._timers: List[Tuple[float, int, Any, tuple]] = []
        self._seq = itertools.count()

    def schedule(self, delay: float, callback: Any, *args: Any) -> None:
        heapq.heappush(self._timers,
                       (self.now + delay, next(self._seq), callback, args))

    def advance(self, seconds: float) -> None:
        until = self.now + seconds
        while self._timers and self._timers[0][0] <= until:
            self.now, _, callback, args = heapq.heappop(self._timers)
            callback(*args)
        self.now = until


class FakeHost:
    """Records every output; the test plays the shards and the committee."""

    def __init__(self) -> None:
        self.relayed: List[Tuple[str, int, Transaction, float, int]] = []
        self.reference: List[Tuple[Transaction, int]] = []
        self.down: set = set()
        self.done: List[Tuple[Any, Any]] = []
        #: The reference committee's execution: R's chaincode on its own state.
        registry = ChaincodeRegistry()
        registry.register(ReferenceCommitteeChaincode())
        self.committee = ExecutionEngine(registry, StateStore())

    def relay(self, kind, record, cohort, extra_delay, attempt) -> None:
        for shard_id, tx in cohort:
            self.relayed.append((kind, shard_id, tx, extra_delay, attempt))

    def submit_reference(self, tx, attempt) -> None:
        self.reference.append((tx, attempt))

    def shard_unreachable(self, shard_id) -> bool:
        return shard_id in self.down

    def finished(self, record, completion) -> None:
        self.done.append((record, completion))

    def take(self, kind: str) -> List[int]:
        """Shards that were relayed a ``kind`` cohort since the last take."""
        shards = [entry[1] for entry in self.relayed if entry[0] == kind]
        self.relayed = [entry for entry in self.relayed if entry[0] != kind]
        return shards


def shard_of(key: str) -> int:
    """``acc_<n>`` lives on shard ``n`` (accounts 0..3 → four shards)."""
    return int(key.rsplit("_", 1)[1])


def payment(source: int, destination: int, **overrides: Any) -> Transaction:
    args = {"from": str(source), "to": str(destination), "amount": 5}
    args.update(overrides)
    return SmallbankChaincode().new_transaction("sendPayment", args)


def build(use_reference: bool = False, retain: bool = True, fault: Any = None,
          max_redrives: Any = None, redrive_decisions: bool = False):
    clock, host = ManualClock(), FakeHost()
    driver = TwoPhaseCommitDriver(
        host, clock,
        TwoPhaseCommitCoordinator(retain_records=retain, prepare_timeout=TIMEOUT),
        splitter_for("smallbank"), shard_of, use_reference_committee=use_reference,
        fault=fault, redrive_decisions=redrive_decisions, max_redrives=max_redrives)
    return clock, host, driver


def execute_reference(host: FakeHost, driver: TwoPhaseCommitDriver,
                      forge_state: Any = None) -> List[str]:
    """Play the reference committee: execute everything submitted to it on
    R's chaincode, optionally reporting ``forge_state`` instead of R's state."""
    submitted, host.reference = host.reference, []
    for tx, _ in submitted:
        receipt = host.committee.execute_transaction(tx)
        if forge_state is not None:
            receipt.result = dict(receipt.result, state=forge_state)
        driver.reference_receipt(receipt)
    return [tx.function for tx, _ in submitted]


# ------------------------------------------------------------------ begin
def test_trusted_begin_commits_through_votes_and_acks():
    clock, host, driver = build()
    tx = payment(0, 1)
    record = driver.submit(tx, [0, 1], completion="ticket")
    assert host.take("prepare") == [0, 1]
    assert not host.reference

    driver.vote(tx.tx_id, 0, True)
    assert record.outcome is DistributedTxOutcome.PENDING
    driver.vote(tx.tx_id, 1, True)
    assert record.outcome is DistributedTxOutcome.COMMITTED
    assert host.take("decision") == [0, 1]

    driver.ack(tx.tx_id, 0)
    assert not host.done
    driver.ack(tx.tx_id, 1)
    assert host.done == [(record, "ticket")]
    assert record.phase is DistributedTxPhase.DONE
    assert driver.in_flight == 0


def test_reference_committee_begin_orders_every_step_through_it():
    clock, host, driver = build(use_reference=True)
    tx = payment(0, 1)
    record = driver.submit(tx, [0, 1])
    assert host.take("prepare") == []          # nothing before BeginTx executes
    assert execute_reference(host, driver) == ["beginTx"]
    assert host.take("prepare") == [0, 1]

    driver.vote(tx.tx_id, 0, True)
    driver.vote(tx.tx_id, 1, False, reason="locked")
    assert record.prepare_votes == {}          # votes count once R executed them
    assert execute_reference(host, driver) == ["prepareOK", "prepareNotOK"]
    assert record.outcome is DistributedTxOutcome.ABORTED
    assert record.abort_reason == "locked"
    assert host.take("decision") == [0, 1]


def test_reference_committee_commit_agrees_with_the_tally():
    clock, host, driver = build(use_reference=True)
    tx = payment(0, 1)
    record = driver.submit(tx, [0, 1])
    execute_reference(host, driver)
    for shard in (0, 1):
        driver.vote(tx.tx_id, shard, True)
    assert execute_reference(host, driver) == ["prepareOK", "prepareOK"]
    assert record.outcome is DistributedTxOutcome.COMMITTED
    assert host.take("decision") == [0, 1]


@pytest.mark.parametrize("last_ok,forged", [(True, "aborted"), (False, "committed")])
def test_forged_reference_state_raises(last_ok, forged):
    """R's receipt must report the tally's decision, whichever it is; a
    mismatch is a named error and no decision goes out."""
    clock, host, driver = build(use_reference=True)
    tx = payment(0, 1)
    driver.submit(tx, [0, 1])
    execute_reference(host, driver)
    driver.vote(tx.tx_id, 0, True)
    execute_reference(host, driver)
    driver.vote(tx.tx_id, 1, last_ok)
    with pytest.raises(CoordinatorFailureError, match=forged):
        execute_reference(host, driver, forge_state=forged)
    assert host.take("decision") == []


def test_single_shard_transaction_bypasses_two_phase_commit():
    clock, host, driver = build(use_reference=True)
    tx = payment(2, 2)
    record = driver.submit(tx, [2])
    assert host.take("single") == [2]
    driver.receipt("single", record, 2,
                   TransactionReceipt(tx_id=tx.tx_id, status=TxStatus.COMMITTED))
    assert record.outcome is DistributedTxOutcome.COMMITTED
    assert [done[0] for done in host.done] == [record]
    assert not host.reference


@pytest.mark.parametrize("bad", [{"amount": "x"}, {"amount": None}])
def test_unsplittable_transaction_is_rejected_before_anything_registers(bad):
    clock, host, driver = build()
    with pytest.raises(WorkloadError, match="cannot split"):
        driver.submit(payment(0, 1, **bad), [0, 1])
    assert driver.coordinator.stats.started == 0
    assert not driver.coordinator.records
    assert driver.in_flight == 0
    assert not host.relayed
    # Validation drew no transaction ids: the next prepare is numbered as if
    # the rejected transaction had never been looked at.
    before = payment(0, 1)
    driver.submit(before, [0, 1])
    first_prepare = host.relayed[0][2]
    assert int(first_prepare.tx_id.split("-")[1]) == int(before.tx_id.split("-")[1]) + 1


# ------------------------------------------------------- deadlines, budget
def test_lost_prepare_is_redriven_to_the_silent_shard_only():
    clock, host, driver = build()
    tx = payment(0, 1)
    record = driver.submit(tx, [0, 1])
    host.take("prepare")
    driver.vote(tx.tx_id, 0, True)

    clock.advance(TIMEOUT)
    assert [(e[1], e[4]) for e in host.relayed if e[0] == "prepare"] == [(1, 1)]
    assert record.redrives == 1
    assert driver.coordinator.stats.redriven_transactions == 1


def test_exhausted_budget_aborts_with_prepare_timeout_then_forces_acks():
    clock, host, driver = build(max_redrives=2, redrive_decisions=True)
    tx = payment(0, 1)
    record = driver.submit(tx, [0, 1], completion="ticket")
    driver.vote(tx.tx_id, 0, True)

    clock.advance(2 * TIMEOUT)                 # two re-drives, both lost
    assert record.redrives == 2
    assert record.outcome is DistributedTxOutcome.PENDING
    host.take("prepare")
    clock.advance(TIMEOUT)                     # budget spent: answer for shard 1
    assert host.take("prepare") == []
    assert record.outcome is DistributedTxOutcome.ABORTED
    assert record.abort_reason == "prepare timeout"
    assert host.take("decision") == [0, 1]

    driver.ack(tx.tx_id, 0)
    clock.advance(TIMEOUT)                     # shard 1 never acks: forced
    assert host.take("decision") == []
    assert host.done == [(record, "ticket")]
    assert record.commit_acks == {0: True, 1: True}


def test_single_shard_budget_exhaustion_aborts_instead_of_hanging():
    clock, host, driver = build(max_redrives=1)
    tx = payment(3, 3)
    record = driver.submit(tx, [3])
    clock.advance(TIMEOUT)
    assert [e[4] for e in host.relayed if e[0] == "single"] == [0, 1]
    clock.advance(TIMEOUT)
    assert record.outcome is DistributedTxOutcome.ABORTED
    assert record.abort_reason == "prepare timeout"
    assert [done[0] for done in host.done] == [record]


# ------------------------------------------------------- unreachable shards
def test_lost_shard_votes_not_ok_for_undecided_and_acks_for_decided():
    clock, host, driver = build(redrive_decisions=True)
    undecided, decided, untouched = payment(0, 1), payment(1, 2), payment(2, 3)
    records = [driver.submit(tx, shards) for tx, shards in
               ((undecided, [0, 1]), (decided, [1, 2]), (untouched, [2, 3]))]
    for shard in (1, 2):
        driver.vote(decided.tx_id, shard, True)
    driver.ack(decided.tx_id, 2)
    host.relayed.clear()

    host.down.add(1)
    driver.shard_lost(1)

    assert records[0].outcome is DistributedTxOutcome.ABORTED
    assert records[0].abort_reason == "shard 1 down"
    # The abort goes to the live participant only; the dead one is answered for.
    assert host.take("decision") == [0]
    assert records[0].commit_acks == {1: True}
    assert records[1].outcome is DistributedTxOutcome.COMMITTED
    assert records[1].phase is DistributedTxPhase.DONE
    assert records[2].outcome is DistributedTxOutcome.PENDING
    assert [done[0] for done in host.done] == [records[1]]

    driver.ack(undecided.tx_id, 0)
    assert [done[0] for done in host.done] == [records[1], records[0]]


def test_lost_shard_walks_unfinished_transactions_only():
    clock, host, driver = build()
    finished = payment(0, 1)
    driver.submit(finished, [0, 1])
    for shard in (0, 1):
        driver.vote(finished.tx_id, shard, True)
    for shard in (0, 1):
        driver.ack(finished.tx_id, shard)
    assert driver.in_flight == 0
    driver.coordinator.records[finished.tx_id] = None   # touching it would raise
    host.down.add(1)
    driver.shard_lost(1)


def test_lost_shard_aborts_its_single_shard_transactions():
    clock, host, driver = build()
    tx = SmallbankChaincode().new_transaction("deposit",
                                              {"account": "1", "amount": 3})
    record = driver.submit(tx, [1])
    host.down.add(1)
    driver.shard_lost(1)
    assert record.outcome is DistributedTxOutcome.ABORTED
    assert [done[0] for done in host.done] == [record]
    clock.advance(TIMEOUT)                     # the armed deadline is a no-op
    assert host.take("single") == [1]


def test_a_participant_lost_before_its_prepare_is_answered_for():
    """A home can hear of a dead peer before the gateway does and still be
    handed a transaction touching it: no prepare goes to the dead shard,
    which votes NotOK at once instead of re-arming the deadline forever."""
    clock, host, driver = build(redrive_decisions=True)
    host.down.add(1)
    record = driver.submit(payment(0, 1), [0, 1])
    assert host.take("prepare") == [0]
    assert record.outcome is DistributedTxOutcome.ABORTED
    assert record.abort_reason == "shard 1 down"
    assert host.take("decision") == [0]
    driver.ack(record.tx_id, 0)
    assert [done[0] for done in host.done] == [record]


# --------------------------------------------------------- crash / recovery
def test_crash_at_prepare_recovery_sends_the_withheld_prepares():
    fault = CoordinatorCrashScenario(phase="prepare", at_tx=1, recover_after=1.0)
    clock, host, driver = build(fault=fault)
    tx = payment(0, 1)
    record = driver.submit(tx, [0, 1])
    assert driver.coordinator.crashed
    assert host.take("prepare") == []

    clock.advance(1.0)
    assert not driver.coordinator.crashed
    assert host.take("prepare") == [0, 1]
    assert record.redrives == 1


def test_crash_at_decide_recovery_redrives_only_unsent_decisions():
    fault = CoordinatorCrashScenario(phase="decide", at_tx=2, recover_after=1.0)
    clock, host, driver = build(fault=fault)
    sent, unsent = payment(0, 1), payment(2, 3)
    sent_record = driver.submit(sent, [0, 1])
    unsent_record = driver.submit(unsent, [2, 3])
    for shard in (0, 1):
        driver.vote(sent.tx_id, shard, True)
    assert host.take("decision") == [0, 1]     # first decision went out
    for shard in (2, 3):
        driver.vote(unsent.tx_id, shard, True)
    assert driver.coordinator.crashed            # second one crashed the coordinator
    assert host.take("decision") == []
    driver.ack(sent.tx_id, 0)                  # buffered while down

    clock.advance(1.0)
    assert host.take("decision") == [2, 3]     # only the never-sent decision
    assert sent_record.commit_acks == {0: True}
    assert sent_record.redrives == 0
    assert unsent_record.redrives == 1


# ------------------------------------------------------------ stale inputs
def test_duplicate_vote_and_ack_replays_are_counted_noops():
    fault = VoteReplayScenario(duplicates=1, delay=0.25)
    clock, host, driver = build(fault=fault)
    tx = payment(0, 1)
    record = driver.submit(tx, [0, 1])
    for shard in (0, 1):
        driver.vote(tx.tx_id, shard, True)
    for shard in (0, 1):
        driver.ack(tx.tx_id, shard)
    assert len(host.done) == 1
    clock.advance(0.5)
    stats = driver.coordinator.stats
    assert (stats.duplicate_votes, stats.duplicate_acks) == (2, 2)
    assert record.outcome is DistributedTxOutcome.COMMITTED
    assert len(host.done) == 1


def test_stale_vote_and_ack_for_a_pruned_record_are_bookkeeping_only():
    clock, host, driver = build(use_reference=True, retain=False)
    tx = payment(0, 1)
    driver.submit(tx, [0, 1])
    execute_reference(host, driver)
    driver.vote(tx.tx_id, 0, False, reason="locked")
    execute_reference(host, driver)
    for shard in (0, 1):
        driver.ack(tx.tx_id, shard)
    assert tx.tx_id not in driver.coordinator.records
    assert len(host.done) == 1

    driver.vote(tx.tx_id, 1, True)             # the slow shard's late PrepareOK
    driver.ack(tx.tx_id, 1)
    assert driver.coordinator.stats.stale_messages == 2
    assert not host.reference                  # never forwarded to R
    assert len(host.done) == 1
