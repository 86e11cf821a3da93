"""Lifecycle of a distributed transaction under our coordination protocol (Figure 5).

A distributed transaction proceeds through three steps:

1a) **Prepare** — after the reference committee executes BeginTx, PrepareTx
    requests go to every involved transaction committee, which tries to take
    the transaction's locks and votes PrepareOK / PrepareNotOK;
1b) **Pre-Commit** — the reference committee counts quorums of votes
    (Figure 6's state machine);
2)  **Commit** — once the reference committee reaches Committed (or Aborted),
    CommitTx (or AbortTx) requests are executed at the involved committees.

:class:`DistributedTxRecord` tracks one transaction through those steps,
:class:`TwoPhaseCommitCoordinator` is the bookkeeping over a set of records
(the vote tally, idempotent votes, crash buffering) and
:class:`TwoPhaseCommitDriver` owns one and drives the message flow around
it.  The driver is sans-IO — it is fed votes, acks, reference-committee
receipts and timer fires, and asks its :class:`DriverHost` to relay
cohorts.  Its one host is :class:`repro.core.homecoord.HomeCoordinator`,
one per shard partition, whether the partition is drained by the simulated
engine or runs in a live shard process.

Who decides
-----------
Figure 6's rule is written twice: as
:class:`~repro.txn.reference_committee.ReferenceCommitteeChaincode`, which R
executes on its own chain, and as the coordinator's vote tally.  The driver
is built for one of two modes.  With the reference committee, BeginTx and
every vote are R transactions, a vote reaches the tally only once R has
executed it, and the state R's receipt reports must equal the tally's
decision — a mismatch raises
:class:`~repro.errors.CoordinatorFailureError`.  Without it — the *trusted
coordinator* the paper's "w/o R" configurations measure — the tally alone
decides.

Runtime neutrality
------------------
The coordinator sits *below* the runtime seam on purpose: it never schedules
anything and never reads a clock.  Every transition takes an explicit
``now=`` timestamp and deadlines are plain data (``prepare_deadline``).
The driver sits *on* the seam: it is handed a
:class:`~repro.runtime.base.Runtime` and reads ``now`` / arms its deadline
timers through it — the partition's :class:`~repro.sim.simulator.Simulator`
in the simulated engine, an :class:`~repro.runtime.wallclock.AsyncioRuntime`
in a live shard process.  That is what lets the identical protocol code back
the simulation and the live HTTP service.

Fault behaviour
---------------
Shard votes are **idempotent-or-rejected**: a repeated identical vote is a
counted no-op, an ``ok`` revote after a ``not ok`` can never resurrect the
transaction, and a ``not ok`` revote after an ``ok`` (an equivocating shard)
aborts an undecided transaction — exactly what R's chaincode does with the
same votes, so the tally and R's chain never diverge.  The recorded first
vote is never overwritten.

The coordinator also models **crash/recovery** (Section 6.3's observation
that the coordinator state lives on the blockchain): while crashed, incoming
votes and acks are buffered (they are durable in the shards' ledgers, so a
recovering coordinator re-reads them); :meth:`recover` replays the buffer and
reports which decided-but-unacknowledged transactions must be re-driven.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import (Any, Callable, Dict, List, Optional, Protocol, Sequence,
                    Set, Tuple)

from repro.errors import CoordinatorFailureError, TransactionAbortedError
from repro.ledger.transaction import Transaction, TransactionReceipt, TxStatus
from repro.runtime.base import Runtime
from repro.txn.reference_committee import CoordinatorState, ReferenceCommitteeChaincode


class DistributedTxPhase(str, Enum):
    """Where a distributed transaction currently is in the Figure-5 flow."""

    BEGINNING = "beginning"          # BeginTx submitted to R, not yet executed
    PREPARING = "preparing"          # PrepareTx outstanding at tx-committees
    VOTING = "voting"                # votes being relayed to R
    COMMITTING = "committing"        # CommitTx / AbortTx outstanding
    DONE = "done"


class DistributedTxOutcome(str, Enum):
    """Final outcome of a distributed transaction."""

    COMMITTED = "committed"
    ABORTED = "aborted"
    PENDING = "pending"


@dataclass
class DistributedTxRecord:
    """Book-keeping for one distributed transaction."""

    tx_id: str
    transaction: Transaction
    shards: List[int]
    phase: DistributedTxPhase = DistributedTxPhase.BEGINNING
    outcome: DistributedTxOutcome = DistributedTxOutcome.PENDING
    prepare_votes: Dict[int, bool] = field(default_factory=dict)
    commit_acks: Dict[int, bool] = field(default_factory=dict)
    started_at: float = 0.0
    decided_at: Optional[float] = None
    completed_at: Optional[float] = None
    abort_reason: Optional[str] = None
    #: Arrival sequence number assigned by the coordinator at begin() — the
    #: tie-break on ``started_at`` for age-based (wound-wait) scheduling.
    begin_seq: int = 0
    #: Absolute deadline by which every prepare vote should have arrived
    #: (set when prepares go out under a configured ``prepare_timeout``).
    prepare_deadline: Optional[float] = None
    #: How many times the scheduler re-drove this transaction's prepares or
    #: decision (retries and crash recovery).
    redrives: int = 0

    @property
    def is_cross_shard(self) -> bool:
        return len(self.shards) > 1

    @property
    def all_votes_in(self) -> bool:
        return set(self.prepare_votes) >= set(self.shards)

    @property
    def all_acks_in(self) -> bool:
        return set(self.commit_acks) >= set(self.shards)

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


@dataclass
class CoordinatorStats:
    """Aggregate statistics over all distributed transactions seen by a coordinator.

    The mean latency is maintained as a running sum so it stays O(1) in
    memory; the per-transaction ``latencies`` list is only populated when the
    coordinator retains records (it is skipped in bounded-memory mode).
    """

    started: int = 0
    committed: int = 0
    aborted: int = 0
    cross_shard: int = 0
    latency_sum: float = 0.0
    latency_count: int = 0
    latencies: List[float] = field(default_factory=list)
    #: Repeated identical votes / acks observed (idempotent no-ops).
    duplicate_votes: int = 0
    duplicate_acks: int = 0
    #: NotOK revotes from a shard that already voted OK (equivocation
    #: attempts; stale OK-after-NotOK arrivals count as stale_messages).
    equivocations: int = 0
    #: Votes/acks that arrived for already-pruned transactions (stale).
    stale_messages: int = 0
    #: Coordinator crash/recovery cycles and transactions re-driven by them.
    coordinator_crashes: int = 0
    redriven_transactions: int = 0

    @property
    def abort_rate(self) -> float:
        decided = self.committed + self.aborted
        return self.aborted / decided if decided else 0.0

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.latency_count if self.latency_count else 0.0


@dataclass
class RecoveryReport:
    """What :meth:`TwoPhaseCommitCoordinator.recover` found to do.

    ``completed`` lists transactions that finished while the coordinator was
    down (their buffered acks completed them during replay); ``redrive``
    lists decided transactions whose decision must be re-sent to shards with
    missing acks; ``restart`` lists still-undecided transactions whose
    prepares must be (re-)sent.
    """

    replayed: int = 0
    completed: List[DistributedTxRecord] = field(default_factory=list)
    redrive: List[DistributedTxRecord] = field(default_factory=list)
    restart: List[DistributedTxRecord] = field(default_factory=list)


class TwoPhaseCommitCoordinator:
    """Tracks distributed transactions through the Figure-5 protocol.

    Every decision is the vote tally's (:meth:`record_prepare_vote`): commit
    once every participant voted OK, abort on the first NotOK.  It does not
    know whether a reference committee exists — under R the driver feeds it
    only votes R has executed and checks R's state against it.

    Parameters
    ----------
    retain_records:
        When False, a transaction's record is discarded the moment it
        completes; aggregate statistics are unaffected.  Long open-loop runs
        use this to keep the coordinator's memory bounded by the in-flight
        window instead of the run length.
    prepare_timeout:
        When set, :meth:`mark_begin_executed` stamps each record with a
        prepare deadline (``now + prepare_timeout``); the
        :class:`TwoPhaseCommitDriver` arms a timer for it and re-drives the
        shards whose votes went missing.  ``None`` (the default) disables
        deadlines entirely — the seed behaviour.
    """

    def __init__(self, retain_records: bool = True,
                 prepare_timeout: Optional[float] = None) -> None:
        self.retain_records = retain_records
        self.prepare_timeout = prepare_timeout
        self.records: Dict[str, DistributedTxRecord] = {}
        self.stats = CoordinatorStats()
        self.crashed = False
        self._crash_buffer: List[tuple] = []
        self._counter = itertools.count()

    # ----------------------------------------------------------------- begin
    def begin(self, transaction: Transaction, shards: Sequence[int],
              now: float = 0.0) -> DistributedTxRecord:
        """Step 0: register the transaction and (logically) submit BeginTx to R."""
        shards = sorted(set(shards))
        if not shards:
            raise TransactionAbortedError("a transaction must involve at least one shard")
        record = DistributedTxRecord(
            tx_id=transaction.tx_id, transaction=transaction,
            shards=list(shards), started_at=now,
            begin_seq=next(self._counter),
        )
        self.records[transaction.tx_id] = record
        self.stats.started += 1
        if record.is_cross_shard:
            self.stats.cross_shard += 1
        return record

    def mark_begin_executed(self, tx_id: str, now: float = 0.0) -> DistributedTxRecord:
        """R has executed BeginTx: PrepareTx requests may now be sent (step 1a)."""
        record = self._record(tx_id)
        record.phase = DistributedTxPhase.PREPARING
        if self.prepare_timeout is not None:
            record.prepare_deadline = now + self.prepare_timeout
        return record

    # ----------------------------------------------------------------- voting
    def record_prepare_vote(self, tx_id: str, shard_id: int, ok: bool,
                            now: float = 0.0, reason: Optional[str] = None) -> Optional[DistributedTxRecord]:
        """A tx-committee reached consensus on its PrepareTx and voted (step 1b).

        With ``retain_records=False`` a vote may arrive for a transaction
        that already decided, completed and was pruned (e.g. a slow shard's
        PrepareOK after another shard's PrepareNotOK aborted the
        transaction); such stale votes are ignored and ``None`` is returned.

        Revotes from a shard that already voted are idempotent-or-rejected:
        an identical revote is a counted no-op, an OK after a NotOK is
        rejected (it can never resurrect the transaction), and a NotOK after
        an OK — an equivocating shard — aborts an undecided transaction,
        exactly as R's chaincode does.  The first recorded vote is never
        overwritten.
        """
        if self.crashed:
            self._crash_buffer.append(("vote", tx_id, shard_id, ok, now, reason))
            return None
        if not self.retain_records and tx_id not in self.records:
            self.stats.stale_messages += 1
            return None
        record = self._record(tx_id)
        if shard_id not in record.shards:
            raise TransactionAbortedError(
                f"shard {shard_id} is not a participant of {tx_id!r}"
            )
        previous = record.prepare_votes.get(shard_id)
        if previous is not None:
            if previous == ok:
                self.stats.duplicate_votes += 1
                return record
            if ok:
                # An OK revote after a NotOK can never resurrect the
                # transaction: it is a stale late arrival, not equivocation.
                self.stats.stale_messages += 1
                return record
            self.stats.equivocations += 1
            if record.outcome is not DistributedTxOutcome.PENDING:
                return record
            # NotOK after OK while undecided falls through as an abort vote
            # (R's chaincode treats it the same way); the recorded first vote
            # is preserved.
        else:
            record.prepare_votes[shard_id] = ok
        if not ok and reason and record.abort_reason is None:
            record.abort_reason = reason
        # A late vote on an already-decided transaction is recorded but
        # decides nothing and leaves the lifecycle phase alone.
        if record.outcome is DistributedTxOutcome.PENDING:
            record.phase = DistributedTxPhase.VOTING
            if not ok or (record.all_votes_in and all(record.prepare_votes.values())):
                record.outcome = (DistributedTxOutcome.COMMITTED if ok
                                  else DistributedTxOutcome.ABORTED)
                record.decided_at = now
                record.phase = DistributedTxPhase.COMMITTING
        return record

    # ----------------------------------------------------------------- commit
    def record_commit_ack(self, tx_id: str, shard_id: int, now: float = 0.0) -> Optional[DistributedTxRecord]:
        """A tx-committee executed its CommitTx/AbortTx (step 2).

        Stale acks for pruned transactions are ignored (see
        :meth:`record_prepare_vote`); duplicate acks are counted no-ops and
        acks from non-participant shards are rejected.
        """
        if self.crashed:
            self._crash_buffer.append(("ack", tx_id, shard_id, now))
            return None
        if not self.retain_records and tx_id not in self.records:
            self.stats.stale_messages += 1
            return None
        record = self._record(tx_id)
        if shard_id not in record.shards:
            raise TransactionAbortedError(
                f"shard {shard_id} is not a participant of {tx_id!r}"
            )
        if shard_id in record.commit_acks:
            self.stats.duplicate_acks += 1
            return record
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

    # -------------------------------------------------------- crash / recovery
    def crash(self) -> None:
        """The coordinator fails: incoming votes/acks are buffered, not applied.

        The buffered messages model durability — shard votes and acks are
        transactions in the shards' (and R's) ledgers, so a recovering
        coordinator re-reads them rather than losing them.
        """
        if self.crashed:
            return
        self.crashed = True
        self.stats.coordinator_crashes += 1

    def recover(self, now: float = 0.0) -> RecoveryReport:
        """Come back up: replay buffered messages and report what to re-drive.

        Raises :class:`~repro.errors.CoordinatorFailureError` if the
        coordinator is not crashed.
        """
        if not self.crashed:
            raise CoordinatorFailureError("recover() called on a live coordinator")
        self.crashed = False
        report = RecoveryReport()
        buffered, self._crash_buffer = self._crash_buffer, []
        completed_ids = set()
        for op in buffered:
            if op[0] == "vote":
                _, tx_id, shard_id, ok, at, reason = op
                record = self.record_prepare_vote(tx_id, shard_id, ok, now=at,
                                                  reason=reason)
            else:
                _, tx_id, shard_id, at = op
                record = self.record_commit_ack(tx_id, shard_id, now=at)
            report.replayed += 1
            if (record is not None and record.phase is DistributedTxPhase.DONE
                    and record.tx_id not in completed_ids):
                completed_ids.add(record.tx_id)
                report.completed.append(record)
        for record in self.records.values():
            if record.phase is DistributedTxPhase.DONE:
                continue
            if record.outcome is DistributedTxOutcome.PENDING:
                report.restart.append(record)
            else:
                report.redrive.append(record)
        # The scheduler acting on the report calls mark_redriven() for the
        # transactions it actually re-drives; merely being listed (e.g. a
        # decision already sent, acks still in flight) is not a re-drive.
        return report

    def mark_redriven(self, record: DistributedTxRecord) -> None:
        """The scheduler re-sent this transaction's prepares or decision."""
        record.redrives += 1
        self.stats.redriven_transactions += 1

    # ------------------------------------------------------------------ misc
    def _record(self, tx_id: str) -> DistributedTxRecord:
        record = self.records.get(tx_id)
        if record is None:
            raise TransactionAbortedError(f"unknown distributed transaction {tx_id!r}")
        return record


# --------------------------------------------------------------------------
# The transport-agnostic 2PC driver.
# --------------------------------------------------------------------------

#: Re-check floor when a deadline timer fires before its (re-armed) deadline.
_MIN_RECHECK = 1e-9

#: One relayed cohort: ``(shard_id, wire transaction)`` pairs.
Cohort = Sequence[Tuple[int, Transaction]]

#: The decided states of R's chaincode; its other states are undecided.
_R_DECISIONS = {
    CoordinatorState.COMMITTED.value: DistributedTxOutcome.COMMITTED,
    CoordinatorState.ABORTED.value: DistributedTxOutcome.ABORTED,
}


def _lost_reason(shard_id: int) -> str:
    return f"shard {shard_id} down"


class DriverHost(Protocol):
    """What a :class:`TwoPhaseCommitDriver` needs from whoever hosts it.

    The host owns the transport and nothing else: it moves wire transactions
    to shards, turns what comes back into driver inputs, and is told when a
    transaction is finished.
    """

    def relay(self, kind: str, record: DistributedTxRecord, cohort: Cohort,
              extra_delay: float, attempt: int) -> None:
        """Deliver ``cohort`` to its shards ``extra_delay`` after the host's
        usual hop, first contact rotated by ``attempt``.

        Each entry's receipt comes back as
        :meth:`~TwoPhaseCommitDriver.receipt` ``(kind, record, shard_id,
        receipt)`` — or, from a host that carries votes and acks as messages
        of its own, as :meth:`~TwoPhaseCommitDriver.vote` /
        :meth:`~TwoPhaseCommitDriver.ack`.  ``kind`` is ``"single"``,
        ``"prepare"`` or ``"decision"``.
        """

    def submit_reference(self, tx: Transaction, attempt: int) -> None:
        """Submit ``tx`` to the reference committee; its receipt comes back
        through :meth:`~TwoPhaseCommitDriver.reference_receipt`.  Only called
        by a driver built with ``use_reference_committee=True``."""

    def shard_unreachable(self, shard_id: int) -> bool:
        """Whether nothing relayed to ``shard_id`` can currently arrive."""

    def finished(self, record: DistributedTxRecord, completion: Any) -> None:
        """``record`` is DONE; ``completion`` is what ``submit`` was given."""


class TwoPhaseCommitDriver:
    """Drives the Figure-5 message flow around a :class:`TwoPhaseCommitCoordinator`.

    Sans-IO: inputs are method calls (:meth:`submit`, :meth:`receipt`,
    :meth:`vote`, :meth:`ack`, :meth:`reference_receipt`, :meth:`shard_lost`
    and the timers it arms on ``runtime``), outputs go through the
    :class:`DriverHost`.  Between the two it owns the whole protocol: begin
    with or without the reference committee, the fault-scenario hooks,
    duplicate vote/ack replays, prepare/decision deadlines and re-drives,
    coordinator crash/recovery and completion.

    Parameters
    ----------
    coordinator:
        The bookkeeping this driver owns and drives (its hosts read records
        and statistics through ``driver.coordinator``).
    splitter / shard_of:
        The benchmark's :class:`~repro.core.splitters.TransactionSplitter`
        and the key → shard routing function it is applied with.
    use_reference_committee:
        Run BeginTx and every vote through the reference committee R (paper
        §6), checking R's reported state against the coordinator's tally;
        when False the tally alone decides — the trusted coordinator of the
        "w/o R" configuration of Figure 13.
    fault:
        Optional bound :class:`~repro.txn.faults.FaultScenario`.
    redrive_decisions:
        Arm a deadline on every decision sent (lost decisions are re-driven).
    max_redrives:
        Give-up budget: past it a missing vote becomes a "prepare timeout"
        NotOK and missing acks are forced.  ``None`` re-drives forever.
    """

    def __init__(self, host: DriverHost, runtime: Runtime,
                 coordinator: TwoPhaseCommitCoordinator, splitter: Any,
                 shard_of: Callable[[str], int], *,
                 use_reference_committee: bool, fault: Any = None,
                 redrive_decisions: bool = False,
                 max_redrives: Optional[int] = None) -> None:
        self.host = host
        self.runtime = runtime
        self.coordinator = coordinator
        self.splitter = splitter
        self.shard_of = shard_of
        self.use_reference_committee = use_reference_committee
        self.fault = fault
        self.redrive_decisions = redrive_decisions
        self.max_redrives = max_redrives
        self._reference_chaincode = ReferenceCommitteeChaincode()
        #: tx_id -> (record, completion) of every transaction not yet DONE.
        self._unfinished: Dict[str, Tuple[DistributedTxRecord, Any]] = {}
        self._decisions_sent: Dict[str, Set[int]] = {}
        #: reference-committee tx id -> what to do with its receipt.
        self._reference_waiters: Dict[str, Callable[[TransactionReceipt], None]] = {}

    @property
    def in_flight(self) -> int:
        """Transactions submitted and not yet finished."""
        return len(self._unfinished)

    # ------------------------------------------------------------ submission
    def submit(self, tx: Transaction, shards: Sequence[int],
               completion: Any = None) -> DistributedTxRecord:
        """Begin coordinating ``tx`` over ``shards``.

        A cross-shard transaction the splitter cannot split raises
        :class:`~repro.errors.WorkloadError` here, before anything is
        registered anywhere.
        """
        if len(set(shards)) > 1:
            self.splitter.validate(tx, self.shard_of)
        coordinator = self.coordinator
        record = coordinator.begin(tx, shards, now=self.runtime.now)
        self._unfinished[tx.tx_id] = (record, completion)
        if not record.is_cross_shard:
            coordinator.mark_begin_executed(tx.tx_id, now=self.runtime.now)
            self.host.relay("single", record,
                            [(record.shards[0], tx)], 0.0, 0)
            self._arm(self._check_single_shard_deadline, tx.tx_id)
            return record
        if (self.fault is not None and not coordinator.crashed
                and self.fault.crash_coordinator(record, "prepare")):
            self._crash_coordinator()
        if self.use_reference_committee:
            self._submit_begin_tx(record)
        else:
            coordinator.mark_begin_executed(tx.tx_id, now=self.runtime.now)
            self._send_prepares(record)
        return record

    def _arm(self, check: Callable[[str], None], tx_id: str) -> None:
        timeout = self.coordinator.prepare_timeout
        if timeout is not None:
            self.runtime.schedule(timeout, check, tx_id)

    def receipt(self, kind: str, record: DistributedTxRecord, shard_id: int,
                receipt: TransactionReceipt) -> None:
        """``shard_id`` executed the transaction it was relayed as ``kind``.

        A prepare or decision receipt is that shard's vote or ack; a
        single-shard transaction's receipt is vote, ack and completion in one.
        """
        ok = receipt.status is TxStatus.COMMITTED
        if kind == "single":
            self._complete_single_shard(record, ok, receipt.error)
        elif kind == "prepare":
            self.vote(record.tx_id, shard_id, ok, receipt.error, record=record)
        else:
            self.ack(record.tx_id, shard_id, record=record)

    # ------------------------------------------------------- single shard tx
    def _complete_single_shard(self, record: DistributedTxRecord, ok: bool,
                               reason: Optional[str]) -> None:
        coordinator, now = self.coordinator, self.runtime.now
        shard_id = record.shards[0]
        coordinator.record_prepare_vote(record.tx_id, shard_id, ok, now=now,
                                        reason=reason)
        coordinator.record_commit_ack(record.tx_id, shard_id, now=now)
        if record.phase is DistributedTxPhase.DONE:
            self._finish(record)

    def _check_single_shard_deadline(self, tx_id: str) -> None:
        """Re-submit a single-shard transaction whose receipt never came.

        The single-shard mirror of the cross-shard prepare re-drive: a
        transaction lost in transit (e.g. submitted to a shard in the middle
        of a swap-all outage) is retried instead of hanging forever.  Shards
        dedup re-submissions on their seen/committed id sets, so a retry that
        races the original is a no-op.
        """
        record = self.coordinator.records.get(tx_id)
        if (record is None or record.outcome is not DistributedTxOutcome.PENDING
                or record.phase is DistributedTxPhase.DONE or record.prepare_votes):
            return
        if self._deadline_not_reached(record, self._check_single_shard_deadline):
            return
        shard_id = record.shards[0]
        if self.host.shard_unreachable(shard_id):
            return  # shard_lost() already aborted it
        if self._budget_exhausted(record):
            self._complete_single_shard(record, False, "prepare timeout")
            return
        self._mark_redriven(record)
        self.host.relay("single", record, [(shard_id, record.transaction)],
                        0.0, record.redrives)
        self._arm(self._check_single_shard_deadline, tx_id)

    # -------------------------------------------------------- cross shard tx
    def _submit_begin_tx(self, record: DistributedTxRecord) -> None:
        if self.coordinator.crashed:
            return  # recovery restarts records still in BEGINNING
        begin = self._reference_chaincode.new_transaction(
            "beginTx", {"tx_id": record.tx_id, "num_committees": len(record.shards)},
            client_id=record.transaction.client_id,
        )

        def on_receipt(receipt: TransactionReceipt) -> None:
            self.coordinator.mark_begin_executed(record.tx_id, now=self.runtime.now)
            self._send_prepares(record)

        self._reference_waiters[begin.tx_id] = on_receipt
        self.host.submit_reference(begin, record.redrives)

    def reference_receipt(self, receipt: TransactionReceipt) -> None:
        """The reference committee executed a BeginTx or a vote we submitted."""
        waiter = self._reference_waiters.pop(receipt.tx_id, None)
        if waiter is not None:
            waiter(receipt)

    def _send_prepares(self, record: DistributedTxRecord,
                       only_shards: Optional[List[int]] = None) -> None:
        """Relay the per-shard PrepareTx cohorts (fault-aware)."""
        if self.coordinator.crashed:
            return  # recovery re-drives undecided transactions
        prepares = self.splitter.prepare_transactions(record.transaction,
                                                      self.shard_of)
        fault = self.fault
        cohorts: Dict[float, List[Tuple[int, Transaction]]] = {}
        lost: List[int] = []
        for shard_id, prepare_tx in prepares.items():
            if only_shards is not None and shard_id not in only_shards:
                continue
            if self.host.shard_unreachable(shard_id):
                if shard_id not in record.prepare_votes:
                    lost.append(shard_id)  # lost before this prepare went out
                continue
            extra_delay = 0.0
            if fault is not None:
                if fault.drop_prepare(record, shard_id):
                    continue  # the prepare-deadline re-drive recovers this
                extra_delay = fault.prepare_delay(record, shard_id)
            cohorts.setdefault(extra_delay, []).append((shard_id, prepare_tx))
        for extra_delay in sorted(cohorts):
            self.host.relay("prepare", record, cohorts[extra_delay],
                            extra_delay, record.redrives)
        self._arm(self._check_prepare_deadline, record.tx_id)
        for shard_id in lost:
            self.prepare_outcome(record, shard_id, False, _lost_reason(shard_id))

    # ----------------------------------------------------------------- votes
    def vote(self, tx_id: str, shard_id: int, ok: bool,
             reason: Optional[str] = None,
             record: Optional[DistributedTxRecord] = None) -> None:
        """A participant's prepare vote arrived (step 1b).

        :meth:`receipt` still holds the ``record`` and passes it, so a vote
        that outlives its pruned record is processed in full; given only the
        id, a vote for a pruned record is bookkeeping (the fault hooks and
        the reference submission need a live record).
        """
        coordinator = self.coordinator
        if record is None:
            record = coordinator.records.get(tx_id)
            if record is None:
                if not coordinator.retain_records or coordinator.crashed:
                    coordinator.record_prepare_vote(tx_id, shard_id, ok,
                                                    now=self.runtime.now,
                                                    reason=reason)
                return
        if self.fault is not None and self.fault.drop_vote(record, shard_id, ok):
            return  # vote lost; the prepare-deadline re-drive recovers
        self.prepare_outcome(record, shard_id, ok, reason)

    def prepare_outcome(self, record: DistributedTxRecord, shard_id: int,
                        ok: bool, reason: Optional[str]) -> None:
        """A shard's prepare outcome is known: relay the vote to whoever
        decides (also the entry point for locally produced NotOK votes:
        exhausted re-drive budgets and lost shards)."""
        if self.use_reference_committee:
            self._submit_vote(record, shard_id, ok, reason)
        else:
            before = record.outcome
            self._record_vote(record, shard_id, ok, reason)
            if (record.outcome is not DistributedTxOutcome.PENDING
                    and before is DistributedTxOutcome.PENDING):
                self._send_decision(record)

    def _record_vote(self, record: DistributedTxRecord, shard_id: int, ok: bool,
                     reason: Optional[str]) -> None:
        self.coordinator.record_prepare_vote(record.tx_id, shard_id, ok,
                                             now=self.runtime.now, reason=reason)
        if self.fault is not None:
            duplicates = self.fault.duplicate_votes(record, shard_id, ok)
            for index in range(duplicates):
                self.runtime.schedule(
                    self.fault.stale_delay() * (index + 1),
                    self._replay_vote, record.tx_id, shard_id, ok, reason)

    def _replay_vote(self, tx_id: str, shard_id: int, ok: bool,
                     reason: Optional[str]) -> None:
        """A stale duplicate vote arrives (idempotent-or-rejected)."""
        coordinator = self.coordinator
        if coordinator.retain_records and tx_id not in coordinator.records:
            return
        coordinator.record_prepare_vote(tx_id, shard_id, ok,
                                        now=self.runtime.now, reason=reason)

    def _submit_vote(self, record: DistributedTxRecord, shard_id: int, ok: bool,
                     reason: Optional[str]) -> None:
        vote = self._reference_chaincode.new_transaction(
            "prepareOK" if ok else "prepareNotOK",
            {"tx_id": record.tx_id, "shard_id": shard_id},
            client_id=record.transaction.client_id,
        )

        def on_receipt(receipt: TransactionReceipt) -> None:
            before = record.outcome
            self._record_vote(record, shard_id, ok, reason)
            if (before is not DistributedTxOutcome.PENDING
                    or self.coordinator.crashed):
                return  # decided earlier, or buffered until recovery
            self._check_reference_state(record, receipt)
            if record.outcome is not DistributedTxOutcome.PENDING:
                self._send_decision(record)

        self._reference_waiters[vote.tx_id] = on_receipt
        self.host.submit_reference(vote, record.redrives)

    @staticmethod
    def _check_reference_state(record: DistributedTxRecord,
                               receipt: TransactionReceipt) -> None:
        """R executed the same votes in the same order as the tally, so the
        state its receipt reports must be the tally's decision."""
        result = receipt.result if isinstance(receipt.result, dict) else {}
        state = result.get("state")
        if _R_DECISIONS.get(state, DistributedTxOutcome.PENDING) is not record.outcome:
            raise CoordinatorFailureError(
                f"reference committee reports {state!r} for {record.tx_id!r} "
                f"but the vote tally says {record.outcome.value!r}")

    # -------------------------------------------------------------- decision
    def _send_decision(self, record: DistributedTxRecord,
                       only_shards: Optional[List[int]] = None) -> None:
        coordinator, fault = self.coordinator, self.fault
        if coordinator.crashed:
            return  # recovery re-drives decided-but-unsent decisions
        if fault is not None and fault.crash_coordinator(record, "decide"):
            self._crash_coordinator()
            return  # decided but unsent: re-driven at recovery
        if record.outcome is DistributedTxOutcome.COMMITTED:
            per_shard = self.splitter.commit_transactions(record.transaction,
                                                          self.shard_of)
        else:
            per_shard = self.splitter.abort_transactions(record.transaction,
                                                         self.shard_of)
        cohorts: Dict[float, List[Tuple[int, Transaction]]] = {}
        sent = self._decisions_sent.setdefault(record.tx_id, set())
        for shard_id, decision_tx in per_shard.items():
            if only_shards is not None and shard_id not in only_shards:
                continue
            if self.host.shard_unreachable(shard_id):
                # Nothing can arrive there: count the ack as forced, exactly
                # what shard_lost() does for decisions already in flight.
                coordinator.record_commit_ack(record.tx_id, shard_id,
                                              now=self.runtime.now)
                continue
            sent.add(shard_id)
            extra_delay = (fault.decision_delay(record, shard_id)
                           if fault is not None else 0.0)
            cohorts.setdefault(extra_delay, []).append((shard_id, decision_tx))
        for extra_delay in sorted(cohorts):
            self.host.relay("decision", record, cohorts[extra_delay],
                            extra_delay, record.redrives)
        if record.phase is DistributedTxPhase.DONE:
            self._finish(record)  # every participant was unreachable
        elif self.redrive_decisions:
            self._arm(self._check_decision_deadline, record.tx_id)

    def ack(self, tx_id: str, shard_id: int,
            record: Optional[DistributedTxRecord] = None) -> None:
        """A participant executed its CommitTx/AbortTx and acked (step 2).

        ``record`` as for :meth:`vote`: given only the id, an ack for a
        pruned record is counted by the coordinator and otherwise ignored.
        """
        coordinator = self.coordinator
        if record is None:
            record = coordinator.records.get(tx_id)
        coordinator.record_commit_ack(tx_id, shard_id, now=self.runtime.now)
        if record is None:
            return
        if self.fault is not None:
            duplicates = self.fault.duplicate_acks(record, shard_id)
            for index in range(duplicates):
                self.runtime.schedule(self.fault.stale_delay() * (index + 1),
                                      self._replay_ack, tx_id, shard_id)
        if record.all_acks_in:
            self._finish(record)

    def _replay_ack(self, tx_id: str, shard_id: int) -> None:
        """A stale duplicate commit ack arrives (a counted no-op)."""
        coordinator = self.coordinator
        if coordinator.retain_records and tx_id not in coordinator.records:
            return
        coordinator.record_commit_ack(tx_id, shard_id, now=self.runtime.now)

    # ------------------------------------------------ re-drives and recovery
    def _deadline_not_reached(self, record: DistributedTxRecord,
                              check: Callable[[str], None]) -> bool:
        """Re-arm ``check`` if the record's prepare deadline moved past now."""
        now = self.runtime.now
        deadline = record.prepare_deadline
        if deadline is not None and deadline <= now:
            return False
        delay = (deadline - now if deadline is not None
                 else self.coordinator.prepare_timeout)
        self.runtime.schedule(max(delay, _MIN_RECHECK), check, record.tx_id)
        return True

    def _budget_exhausted(self, record: DistributedTxRecord) -> bool:
        return self.max_redrives is not None and record.redrives >= self.max_redrives

    def _mark_redriven(self, record: DistributedTxRecord) -> None:
        """Count a prepare re-drive and push the record's deadline out."""
        coordinator = self.coordinator
        coordinator.mark_redriven(record)
        record.prepare_deadline = self.runtime.now + coordinator.prepare_timeout

    def _check_prepare_deadline(self, tx_id: str) -> None:
        """The prepare deadline passed: re-drive the shards with missing votes.

        Unreachable shards are not re-driven (:meth:`shard_lost` owns their
        votes).
        """
        coordinator = self.coordinator
        record = coordinator.records.get(tx_id)
        if (record is None or record.outcome is not DistributedTxOutcome.PENDING
                or record.phase is DistributedTxPhase.DONE):
            return
        if coordinator.crashed:
            # Recovery will re-drive; check again afterwards.
            self._arm(self._check_prepare_deadline, tx_id)
            return
        if self._deadline_not_reached(record, self._check_prepare_deadline):
            return
        to_redrive = [shard for shard in record.shards
                      if shard not in record.prepare_votes
                      and not self.host.shard_unreachable(shard)]
        if not to_redrive:
            record.prepare_deadline = self.runtime.now + coordinator.prepare_timeout
            self._arm(self._check_prepare_deadline, tx_id)
        elif self._budget_exhausted(record):
            for shard in to_redrive:
                self.prepare_outcome(record, shard, False, "prepare timeout")
        else:
            self._mark_redriven(record)
            self._send_prepares(record, only_shards=to_redrive)

    def _check_decision_deadline(self, tx_id: str) -> None:
        """Re-drive a decided transaction whose commit/abort acks never came.

        Shards whose ack is still missing get the decision again via a
        rotated member; re-delivery is safe because the decision chaincodes
        are idempotent (Smallbank applies deltas only while the prepare lock
        is held, KVStore writes are absolute).  Past the re-drive budget, or
        with only unreachable shards missing, the acks are forced so the
        client gets an answer rather than a hang.
        """
        coordinator = self.coordinator
        record = coordinator.records.get(tx_id)
        if (record is None or record.phase is DistributedTxPhase.DONE
                or record.outcome is DistributedTxOutcome.PENDING):
            return
        if coordinator.crashed:
            # Recovery re-drives unsent decisions; check again afterwards.
            self._arm(self._check_decision_deadline, tx_id)
            return
        missing = [shard for shard in record.shards
                   if shard not in record.commit_acks]
        live = [shard for shard in missing
                if not self.host.shard_unreachable(shard)]
        if missing and (not live or self._budget_exhausted(record)):
            for shard in missing:
                coordinator.record_commit_ack(tx_id, shard, now=self.runtime.now)
            if record.phase is DistributedTxPhase.DONE:
                self._finish(record)
        elif live:
            coordinator.mark_redriven(record)
            self._send_decision(record, only_shards=live)

    def shard_lost(self, shard_id: int) -> None:
        """``shard_id`` became unreachable: answer for it on every unfinished
        transaction it takes part in — a NotOK vote where it has not voted,
        a forced ack where the decision is already out."""
        reason = _lost_reason(shard_id)
        for record, _ in list(self._unfinished.values()):
            if shard_id not in record.shards:
                continue
            if not record.is_cross_shard:
                self._complete_single_shard(record, False, reason)
            elif record.outcome is DistributedTxOutcome.PENDING:
                if shard_id not in record.prepare_votes:
                    self.prepare_outcome(record, shard_id, False, reason)
            elif shard_id not in record.commit_acks:
                self.coordinator.record_commit_ack(record.tx_id, shard_id,
                                                   now=self.runtime.now)
                if record.phase is DistributedTxPhase.DONE:
                    self._finish(record)

    def _crash_coordinator(self) -> None:
        """The coordinator fails; recovery is scheduled per the fault scenario."""
        coordinator = self.coordinator
        if coordinator.crashed:
            return  # one recovery is already scheduled
        coordinator.crash()
        delay = self.fault.recovery_delay() if self.fault is not None else 1.0
        self.runtime.schedule(delay, self._recover_coordinator)

    def _recover_coordinator(self) -> None:
        """Replay buffered votes/acks, then re-drive unfinished transactions."""
        coordinator = self.coordinator
        if not coordinator.crashed:
            return
        report = coordinator.recover(now=self.runtime.now)
        for record in report.completed:
            self._finish(record)
        for record in report.restart:
            coordinator.mark_redriven(record)
            if (record.phase is DistributedTxPhase.BEGINNING
                    and self.use_reference_committee):
                self._submit_begin_tx(record)
                continue
            missing = [shard for shard in record.shards
                       if shard not in record.prepare_votes]
            self._send_prepares(record, only_shards=missing or list(record.shards))
        for record in report.redrive:
            sent = self._decisions_sent.get(record.tx_id, set())
            unsent = [shard for shard in record.shards
                      if shard not in record.commit_acks and shard not in sent]
            if unsent:
                coordinator.mark_redriven(record)
                self._send_decision(record, only_shards=unsent)

    # ------------------------------------------------------------ completion
    def _finish(self, record: DistributedTxRecord) -> None:
        self._decisions_sent.pop(record.tx_id, None)
        entry = self._unfinished.pop(record.tx_id, None)
        if entry is not None:
            self.host.finished(record, entry[1])
