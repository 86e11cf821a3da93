"""The coordination layer of one partition (home and participant roles).

Consensus is per committee, and so is everything above it: the 2PC
coordinator, lock admission, the open-loop drivers and the reference
committee all live inside the partitions
(:class:`~repro.core.scaleout.ShardPartition`), never on the parent.

* Every transaction gets a deterministic **home partition**
  (:func:`home_shard` — its first participating shard) whose
  :class:`HomeCoordinator` hosts the
  :class:`~repro.txn.coordinator.TwoPhaseCommitDriver` inside the
  partition's own sub-simulation — or, in a live shard process, on the
  wall clock.
* Lock admission is **participant-side**: each partition hosts a
  :class:`~repro.txn.locks.LockAdmissionTable` for the prepares that arrive
  at its shard, and votes PrepareNotOK on deadlocks/timeouts itself.
  Wounds travel to the victim's home as ordinary NotOK votes.  (Waits-for
  cycles that span shards are not visible to any single detector — they
  resolve through the wait timeout; per-shard cycles are detected.)
* Workload generation is **in-partition** (:class:`PartitionDriver`, a
  per-shard split of the one :class:`~repro.core.driver.ArrivalLoop`):
  each partition draws an independent stream seeded by a ``(seed,
  shard_id)`` split and keeps exactly the draws whose first key it owns
  (:meth:`~repro.workloads.generator.WorkloadGenerator.next_transaction_for_shard`),
  so the stream depends only on the partition's identity — never on worker
  grouping — and ``workers=None == workers=N`` holds by construction.
* Votes, decisions, re-drives, receipts and client handoffs flow between
  partitions as ordinary barrier-window :class:`Command` records, batched
  into one :class:`WindowBlock`/:class:`WindowResult` exchange per worker
  per window, encoded by :mod:`repro.codec`; between live shard processes
  one frame each.  The submitter of a transaction — the engine's parent or
  the live gateway — keeps its :class:`ClientRecords`, filled from the
  home's :class:`TxDone`.

Determinism rules
-----------------
Every cross-partition message pays ``config.relay_delay`` (the engine's
lookahead) before its destination acts — even a home messaging itself, so
latency is uniform and independent of placement.  Cross-partition commands
are *never* injected mid-window: both the parent and the worker groups hold
them until the next window starts and inject them sorted by ``(due, src,
seq)``, a total order that depends only on what each partition did.  Each
partition also owns a disjoint transaction-id stream
(:func:`partition_tx_counter`), swapped into the process-global counter
around every window, so ids never depend on which OS process drains which
partition.  A live shard process has no windows: it runs with
``relay_delay`` 0, applies each command as it arrives and keeps its id
stream installed for its whole life (:mod:`repro.service.shardnode`).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.config import ShardedSystemConfig
from repro.core.driver import ArrivalLoop, config_workload, split_evenly
from repro.core.splitters import (
    REFERENCE_SHARD_ID,
    benchmark_for,
    shards_for,
    splitter_for,
)
from repro.errors import SimulationError
from repro.ledger.transaction import Transaction, TxStatus
from repro.runtime.base import Runtime
from repro.txn.coordinator import (
    Cohort,
    DistributedTxOutcome,
    DistributedTxPhase,
    DistributedTxRecord,
    TwoPhaseCommitDriver,
)
from repro.txn.locks import DEADLOCK_REASON, LockAdmissionTable
from repro.workloads.generator import shard_of_key

#: ``src``/``origin``/``dest`` value naming the parent barrier orchestrator
#: (in a live shard process: the gateway).
PARENT = -1

#: On the wall clock, re-drives of a lost prepare or decision before the home
#: gives up (aborts the prepare, forces the ack); the simulator has no budget.
MAX_REDRIVES = 3


def home_shard(shards) -> int:
    """Deterministic home partition of a transaction: its first participating shard.

    Pure function of the participating-shard set — independent of worker
    count, arrival order, epoch reconfigurations (committee membership
    changes never change *which* shards own a key) and simulation state, so
    every partition and the parent agree on it without coordination.
    """
    return min(shards)


def partition_tx_counter(shard_id: int) -> "itertools.count":
    """The disjoint transaction-id stream owned by partition ``shard_id``.

    Spaced 10^10 apart so no realistic run (the id streams also feed
    splitter prepares, decisions and reference-committee votes) can make two
    partitions' streams collide.  The parent keeps the process-default
    stream (ids below 10^10).
    """
    return itertools.count((shard_id + 1) * 10_000_000_000)


def partition_stream_seed(seed: int, shard_id: int) -> int:
    """Per-partition split of a seed (distinct per shard): the partition's
    simulator from the system seed, its workload streams from the drivers'."""
    return seed * 1_000_003 + 7_919 * shard_id + 17


# --------------------------------------------------------------------------
# Wire format.  Plain dataclasses of primitives, registered in
# repro.codec: process mode ships them over pipes in the codec's primitive
# form (one WindowBlock/WindowResult per worker per window), inline mode
# passes the same objects in memory — same ordering rules, same outcomes.
# --------------------------------------------------------------------------

@dataclass
class Command:
    """One cross-partition message, due at an exact simulated time.

    ``src``/``seq`` are stamped by the emitting side (parent = ``PARENT``)
    and give same-``due`` commands a canonical total order.  Ops:

    * parent -> partition epoch/adversary control: ``remove``, ``admit``,
      ``margin``, ``prepare``, ``track``;
    * client handoff: ``client`` (owner/parent -> home),
      ``client_done`` (home -> owning partition's driver);
    * 2PC: ``prepare2pc`` (home -> participant), ``vote`` (participant ->
      home), ``decision`` (home -> participant), ``ack`` (participant ->
      home);
    * reference committee: ``ref_submit`` (home -> ``REFERENCE_SHARD_ID``),
      ``ref_receipt`` (reference -> home).
    """

    due: float
    dest: int
    op: str
    src: int = PARENT
    seq: int = -1
    txs: Tuple[Transaction, ...] = ()
    tx_id: str = ""
    #: prepare2pc/decision: the home partition votes/acks go back to.
    home: int = -1
    #: client/client_done/vote/ack: the partition (or PARENT) that sent it.
    origin: int = PARENT
    ok: bool = True
    reason: Optional[str] = None
    attempt: int = 0
    #: Wound-wait age priority ``(started_at, begin_seq, home_shard)`` — a
    #: total order across homes (begin_seq alone is only per-home unique).
    priority: Tuple[float, ...] = ()
    committed: bool = False
    latency: Optional[float] = None
    epoch: int = 0
    node_id: int = -1
    logical: int = -1
    transfer_override: Optional[float] = None
    marker: int = -1
    #: ref_submit: partition the eventual ref_receipt is addressed to.
    reply_to: int = PARENT
    #: ref_receipt: the reference committee's TransactionReceipt.
    receipt: Any = None


@dataclass
class TxDone:
    """Partition -> parent completion report for a parent-submitted transaction."""

    time: float
    shard: int
    seq: int
    tx_id: str
    committed: bool
    abort_reason: Optional[str]
    started_at: float
    decided_at: Optional[float]
    completed_at: Optional[float]


@dataclass
class AdmitReport:
    """A destination partition executed an admit op: its transfer delay."""

    time: float
    shard: int
    seq: int
    marker: int
    node_id: int
    transfer: float


@dataclass
class MarginReport:
    """A partition sampled its committee's active-minus-quorum margin."""

    time: float
    shard: int
    seq: int
    marker: int
    margin: int


@dataclass
class WindowBlock:
    """One parent -> worker barrier message: run every owned partition to
    ``until`` with these inbound commands (already globally ordered)."""

    until: float
    epoch: int
    commands: Tuple[Command, ...] = ()


@dataclass
class WindowResult:
    """One worker -> parent barrier reply: parent-facing outputs plus the
    cross-partition commands that left this worker's partition group."""

    outputs: Tuple[Any, ...] = ()
    routed: Tuple[Command, ...] = ()


class ClientRecords:
    """The submitter's shadow records of transactions handed to their homes
    (the engine's parent and the live gateway keep one each), filled from
    the home's :class:`TxDone`."""

    def __init__(self, splitter: Any, shard_of: Callable[[str], int]) -> None:
        self.splitter = splitter
        self.shard_of = shard_of
        #: tx_id -> (record, completion callback or None), until the outcome.
        self.pending: Dict[str, Tuple[DistributedTxRecord, Optional[Callable]]] = {}

    def __len__(self) -> int:
        return len(self.pending)

    def validate(self, tx: Transaction, shards: List[int]) -> None:
        """Raise :class:`~repro.errors.WorkloadError` for an unsplittable
        cross-shard transaction here, in the submitter's reach, rather than
        at its home."""
        if len(shards) > 1:
            self.splitter.validate(tx, self.shard_of)

    def begin(self, tx: Transaction, shards: List[int], now: float,
              on_complete: Optional[Callable[[DistributedTxRecord], None]] = None
              ) -> DistributedTxRecord:
        """Open ``tx``'s record (after :meth:`validate`)."""
        record = DistributedTxRecord(tx_id=tx.tx_id, transaction=tx,
                                     shards=sorted(shards), started_at=now)
        self.pending[tx.tx_id] = (record, on_complete)
        return record

    def finish(self, tx_id: str, committed: bool, abort_reason: Optional[str],
               decided_at: Optional[float], completed_at: Optional[float]) -> None:
        """Fill ``tx_id``'s pending record with its outcome; run its completion."""
        record, on_complete = self.pending.pop(tx_id, (None, None))
        if record is None:
            return
        record.phase = DistributedTxPhase.DONE
        record.outcome = (DistributedTxOutcome.COMMITTED if committed
                          else DistributedTxOutcome.ABORTED)
        record.abort_reason = abort_reason
        record.decided_at = decided_at
        record.completed_at = completed_at
        if on_complete is not None:
            on_complete(record)


def inbound_sort_key(command: Command) -> Tuple[float, int, int]:
    """Canonical injection order for inbound commands at a window start.

    Depends only on what each partition (and the parent) emitted — never on
    how partitions are grouped onto worker processes — which is the heart of
    the workers=1 == workers=N guarantee.
    """
    return (command.due, command.src, command.seq)


def group_by_dest(commands) -> Dict[int, List[Command]]:
    """Split an ordered command sequence by destination, preserving order."""
    by_dest: Dict[int, List[Command]] = {}
    for command in commands:
        by_dest.setdefault(command.dest, []).append(command)
    return by_dest


# --------------------------------------------------------------------------
# Load-aware (but config-deterministic) partition -> worker assignment.
# --------------------------------------------------------------------------

def partition_weights(config: ShardedSystemConfig) -> Dict[int, float]:
    """Deterministic per-partition work weight, computed once from config.

    A shard partition's weight is its sampled share of the key space (its
    consensus work scales with the keys it owns) plus the probability that a
    uniform cross-shard pair homes there (``home = min`` skews coordination
    work toward low shard ids: ``P(home = p) = (2(S - p) - 1) / S^2``).  The
    reference-committee partition processes one BeginTx plus one vote per
    participant for *every* cross-shard transaction, so it is weighted like
    a busy shard of its own.  Nothing here reads runtime state — the same
    config always produces the same weights, hence the same assignment.
    """
    shards = config.num_shards
    counts = {shard: 0 for shard in range(shards)}
    stride = max(1, config.num_keys // 20_000)
    key_of = benchmark_for(config.benchmark).key
    total = 0
    for index in range(0, config.num_keys, stride):
        counts[shard_of_key(key_of(index), shards)] += 1
        total += 1
    weights: Dict[int, float] = {}
    for shard, count in counts.items():
        share = count / total if total else 1.0 / shards
        home_probability = (2 * (shards - shard) - 1) / (shards * shards)
        weights[shard] = share + home_probability
    if config.use_reference_committee:
        weights[REFERENCE_SHARD_ID] = 2.0 / shards
    return weights


def assign_partitions(shard_ids: List[int], workers: int,
                      config: ShardedSystemConfig) -> List[List[int]]:
    """Group partitions onto ``workers`` processes (some groups may be empty).

    Longest-processing-time greedy over :func:`partition_weights` — a pure
    function of ``(shard_ids, workers, config)``.  Grouping only decides
    which OS process drains a partition, never the partition's event
    sequence, so any grouping yields bit-identical outcomes.
    """
    workers = max(1, workers)
    groups: List[List[int]] = [[] for _ in range(workers)]
    weights = partition_weights(config)
    loads = [0.0] * workers
    for shard_id in sorted(shard_ids,
                           key=lambda sid: (-weights.get(sid, 1.0), sid)):
        index = min(range(workers), key=lambda i: (loads[i], i))
        loads[index] += weights.get(shard_id, 1.0)
        groups[index].append(shard_id)
    return [sorted(group) for group in groups]


# --------------------------------------------------------------------------
# In-partition open-loop driving.
# --------------------------------------------------------------------------

class PartitionDriver(ArrivalLoop):
    """Partition ``shard_id``'s split of one open-loop driver's arrival loop.

    The parent-facing :class:`~repro.core.driver.OpenLoopDriver` splits into
    ``num_shards`` of these — the same
    :class:`~repro.core.driver.ArrivalLoop`, each with ``rate / S`` and a
    remainder-rule share of the caps.  Each draws from an independent
    per-partition stream and submits only the transactions whose first key
    the partition owns; transactions homed elsewhere are handed off with a
    ``client`` command and complete through ``client_done``.
    """

    def __init__(self, partition: Any, index: int, spec: Dict[str, Any]) -> None:
        self.partition = partition
        self.index = index
        shard_id = partition.shard_id
        shards = partition.config.num_shards
        cap = split_evenly(spec["max_in_flight"], shard_id, shards)
        client_id = f"{spec['client_id']}@s{shard_id}"
        self.workload = config_workload(
            partition.config,
            partition_stream_seed(spec["workload_seed"], shard_id),
            spec["vectorized"], spec["vector_batch"])
        super().__init__(
            partition.runtime, spec["rate_tps"] / shards, spec["batch_size"],
            split_evenly(spec["max_transactions"], shard_id, shards),
            None if cap is None else max(1, cap),
            draw=lambda now: self.workload.next_transaction_for_shard(
                shard_id, client_id=client_id, now=now),
            submit=lambda tx: partition.submit_from_driver(tx, self))

    # ------------------------------------------------------------ completion
    def on_local_complete(self, record: DistributedTxRecord) -> None:
        """The transaction's home was this partition: completion is direct."""
        self.complete(record.outcome is DistributedTxOutcome.COMMITTED,
                      record.abort_reason, record.latency,
                      self.partition.current_epoch)

    def on_remote_done(self, command: Command) -> None:
        """A ``client_done`` arrived from the remote home partition."""
        self.complete(command.committed, command.reason, command.latency,
                      command.epoch)


# --------------------------------------------------------------------------
# The distributed coordinator.
# --------------------------------------------------------------------------

class HomeCoordinator:
    """Both coordination roles of one shard partition.

    **Home role** — hosts the :class:`~repro.txn.coordinator.TwoPhaseCommitDriver`
    for every transaction homed here.  This class is only the transport:
    each cohort the driver relays becomes routed :class:`Command` records
    (``prepare2pc`` / ``decision``), the ``vote`` / ``ack`` commands coming
    back become driver inputs, and the reference committee is reached
    through ``ref_submit`` / ``ref_receipt`` instead of a same-simulation
    cluster.  Fault scenarios are per-home deep copies, so their counters
    depend only on this partition's own history.

    **Participant role** — this shard's half of other homes' transactions:
    lock admission, prepare execution and voting, decision execution and
    acking.  Under the queueing policies it hosts a
    :class:`~repro.txn.locks.LockAdmissionTable` for its own shard's
    prepares (one request per transaction): an admitted prepare is
    launched after the ``relay_delay`` grant hop unless a decision arrived
    meanwhile; a refused one, and every wound, is a ``vote`` command to the
    transaction's home.

    The ``partition`` object supplies the rest of the surface: ``runtime``,
    ``config``, ``shard_id``, ``adversary``, ``current_epoch``,
    ``route(command)``, ``watch(tx_id, callback)``,
    ``hand_to_committee(transactions, attempt)`` and ``emit_tx_done(record)``.
    """

    def __init__(self, partition: Any) -> None:
        self.partition = partition
        self.config: ShardedSystemConfig = partition.config
        self.runtime: Runtime = partition.runtime
        self.shard_id: int = partition.shard_id
        self.splitter = splitter_for(self.config.benchmark)
        #: Per-home fault copy: hook counters (drop budgets, crash counts)
        #: advance with this partition's own transaction history only.
        self.fault = copy.deepcopy(self.config.fault_scenario)
        #: Admission is participant-side here, so prepares always leave the
        #: home immediately.  An armed adversary may swallow a decision and a
        #: live peer process may die, so there decisions get deadlines; the
        #: wall clock gives up after a budget and answers for a silent peer.
        live = not self.runtime.is_simulated
        self.driver = TwoPhaseCommitDriver(
            self, self.runtime, self.splitter, self.shard_of,
            use_reference_committee=self.config.use_reference_committee,
            fault=self.fault,
            redrive_decisions=live or partition.adversary is not None,
            max_redrives=MAX_REDRIVES if live else None,
            retain_records=self.config.retain_tx_records,
            prepare_timeout=self.config.prepare_timeout)
        #: This shard's lock-admission table (queueing policies only).
        self.admission: Optional[LockAdmissionTable] = (
            LockAdmissionTable(self.runtime, self.config.conflict_policy,
                               self.config.wait_timeout,
                               on_admitted=self._on_admitted,
                               on_refused=self._on_refused,
                               on_wound=self._wound)
            if self.config.conflict_policy != "abort" else None)
        self._tx_home: Dict[str, int] = {}
        #: Peer shards whose process is gone (live partitions only: simulated
        #: shards stall or lose messages, never vanish).
        self._lost: Set[int] = set()

    # ----------------------------------------------------------------- routing
    def shard_of(self, key: str) -> int:
        return shard_of_key(key, self.config.num_shards)

    def shards_for_transaction(self, tx: Transaction) -> List[int]:
        return shards_for(self.splitter, tx, self.shard_of)

    def _route(self, **kwargs: Any) -> None:
        self.partition.route(Command(**kwargs))

    # ------------------------------------------------------------ home: inputs
    def submit_transaction(self, tx: Transaction,
                           on_complete: Optional[Callable[[DistributedTxRecord], None]] = None,
                           origin: Optional[int] = None) -> DistributedTxRecord:
        """Coordinate a benchmark transaction homed at this partition.

        Completion goes to ``on_complete`` if given, else to the ``origin``
        partition (``PARENT`` for parent-submitted transactions).
        """
        shards = self.shards_for_transaction(tx)
        if home_shard(shards) != self.shard_id:  # a misrouted submit frame, or a bug
            raise SimulationError(
                f"transaction {tx.tx_id!r} homed at {home_shard(shards)} "
                f"submitted to partition {self.shard_id}")
        return self.driver.submit(
            tx, shards, completion=on_complete if on_complete is not None else origin)

    def handle_client(self, command: Command) -> None:
        """A transaction homed here arrived from its owner (or the parent)."""
        self.submit_transaction(command.txs[0], origin=command.origin)

    def handle_vote(self, command: Command) -> None:
        """A participant's prepare vote arrived (step 1b)."""
        self.driver.vote(command.tx_id, command.origin, command.ok, command.reason)

    def handle_ack(self, command: Command) -> None:
        """A participant executed its CommitTx/AbortTx and acked (step 2)."""
        self.driver.ack(command.tx_id, command.origin)

    def handle_ref_receipt(self, command: Command) -> None:
        self.driver.reference_receipt(command.receipt)

    def shard_lost(self, shard_id: int) -> None:
        """Peer ``shard_id``'s process is gone: the driver answers for it."""
        self._lost.add(shard_id)
        self.driver.shard_lost(shard_id)

    # ------------------------------------------- home: the driver's host surface
    def relay(self, kind: str, record: DistributedTxRecord, cohort: Cohort,
              extra_delay: float, attempt: int) -> None:
        """Route a cohort to its participants; every hop pays ``relay_delay``.

        Even self-targeted hops pay it, so message latency never depends on
        whether a participant happens to be its own home.
        """
        if kind == "single":
            (_, tx), = cohort
            self.partition.watch(tx.tx_id, partial(
                self.driver.receipt, kind, record, self.shard_id))
            self.runtime.schedule(self.config.relay_delay,
                                  self.partition.hand_to_committee, [tx], attempt)
            return
        due = self.runtime.now + self.config.relay_delay + extra_delay
        if kind == "prepare":
            op = "prepare2pc"
            priority: Tuple[float, ...] = (record.started_at, record.begin_seq, self.shard_id)
        else:
            op, priority = "decision", ()
        for shard_id, tx in cohort:
            self._route(due=due, dest=shard_id, op=op, txs=(tx,),
                        tx_id=record.tx_id, home=self.shard_id,
                        attempt=attempt, priority=priority)

    def submit_reference(self, tx: Transaction, attempt: int) -> None:
        self._route(due=self.runtime.now + self.config.relay_delay,
                    dest=REFERENCE_SHARD_ID, op="ref_submit", txs=(tx,),
                    reply_to=self.shard_id, attempt=attempt)

    def shard_unreachable(self, shard_id: int) -> bool:
        return shard_id in self._lost

    def finished(self, record: DistributedTxRecord, target: Any) -> None:
        if target is None:
            return  # fire-and-forget
        if callable(target):
            target(record)
        elif target == PARENT:
            self.partition.emit_tx_done(record)
        else:
            self._route(due=self.runtime.now + self.config.relay_delay,
                        dest=target, op="client_done", tx_id=record.tx_id,
                        committed=record.outcome is DistributedTxOutcome.COMMITTED,
                        reason=record.abort_reason, latency=record.latency,
                        epoch=self.partition.current_epoch)

    # --------------------------------------------------------- participant role
    def handle_prepare(self, command: Command) -> None:
        """A home's PrepareTx arrived: admit it against this shard's lock table."""
        tx_id = command.tx_id
        self._tx_home[tx_id] = command.home
        # Without a table (first-conflict-aborts policy) the on-chain lock
        # check is the admission.
        status = "granted"
        if self.admission is not None:
            # "waiting" also answers a re-driven prepare that is still
            # parked (the original will vote); one that was admitted before
            # (its vote went missing) re-acquires re-entrantly, so it is
            # re-executed through a rotated member and re-votes.
            status = self.admission.admit(
                tx_id, command.txs[0].keys, command.priority, command)
        if status == "granted":
            self._launch_prepare(command)
        elif status == "deadlock":
            # Partial grants stay held until the abort decision executes.
            self._send_vote(tx_id, command.home, False, DEADLOCK_REASON)

    def _launch_prepare(self, command: Command) -> None:
        def on_receipt(receipt: Any) -> None:
            ok = receipt.status is TxStatus.COMMITTED
            self._send_vote(command.tx_id, command.home, ok, receipt.error)

        prepare_tx = command.txs[0]
        self.partition.watch(prepare_tx.tx_id, on_receipt)
        self.partition.hand_to_committee([prepare_tx], command.attempt)

    def _on_admitted(self, tx_id: str) -> None:
        # The grant notification pays the relay hop; the request stays parked
        # until the launch claims it, so a decision arriving in between
        # cancels it.
        self.runtime.schedule(self.config.relay_delay, self._launch_admitted, tx_id)

    def _launch_admitted(self, tx_id: str) -> None:
        command = self.admission.claim(tx_id)
        if command is not None:  # else decided while the grant was in flight
            self._launch_prepare(command)

    def _on_refused(self, tx_id: str, command: Command, reason: str) -> None:
        self._send_vote(tx_id, command.home, False, reason)

    def _wound(self, victim_tx_id: str) -> None:
        """Wound-wait: abort the younger holder through its home's vote path.

        The wounding shard votes NotOK itself; if it already voted OK the
        home records an equivocation and aborts the undecided transaction.
        """
        home = self._tx_home.get(victim_tx_id)
        if home is None:
            return  # already decided and cleaned up locally
        self._send_vote(victim_tx_id, home, False,
                        "wounded by an older transaction")

    def _send_vote(self, tx_id: str, home: int, ok: bool,
                   reason: Optional[str]) -> None:
        self._route(due=self.runtime.now + self.config.relay_delay, dest=home,
                    op="vote", tx_id=tx_id, origin=self.shard_id, ok=ok,
                    reason=reason)

    def handle_decision(self, command: Command) -> None:
        """A home's CommitTx/AbortTx arrived: execute it and ack."""
        tx_id = command.tx_id
        decision_tx = command.txs[0]
        home = command.home
        if self.admission is not None:
            self.admission.cancel(tx_id)

        def on_receipt(receipt: Any) -> None:
            if self.admission is not None:
                self.admission.finish(tx_id)
            self._tx_home.pop(tx_id, None)
            self._route(due=self.runtime.now + self.config.relay_delay, dest=home,
                        op="ack", tx_id=tx_id, origin=self.shard_id)

        self.partition.watch(decision_tx.tx_id, on_receipt)
        self.partition.hand_to_committee([decision_tx], command.attempt)
