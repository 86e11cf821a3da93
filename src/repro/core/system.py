"""The end-to-end sharded blockchain (Figure 1b).

``ShardedBlockchain`` is the one engine.  It builds:

* ``num_shards`` consensus committees (AHL+ by default), each owning a
  disjoint hash partition of the key space and running the benchmark
  chaincode;
* optionally a **reference committee** running the 2PC state-machine
  chaincode of Section 6.2;
* a coordination layer that takes every transaction through the Figure-5
  flow: BeginTx at the reference committee, PrepareTx at the involved
  committees (acquiring 2PL locks), vote relay, then CommitTx / AbortTx.

The paper's committees interact only through that coordination layer, so
each committee — with its share of the coordination work — is a
self-contained *partition* (:class:`~repro.core.scaleout.ShardPartition`:
own simulator, network, replicas, the
:class:`~repro.core.homecoord.HomeCoordinator` hosting the 2PC driver and
the shard's lock-admission table, and its split of every open-loop driver).
This class is the thin parent above the partitions: the barrier loop that
exchanges their cross-partition commands every ``relay_delay`` of simulated
time (:meth:`advance`; the execution model is described in
:mod:`repro.core.scaleout`), the client-forwarding API, the epoch control
machinery, and the merged statistics.

``ShardedSystemConfig.workers`` only chooses where the partitions are
drained: ``None`` (or ``1``) drains them inline in this process — then
``system.shards[s]`` and ``system.reference`` are the live
:class:`~repro.consensus.cluster.ConsensusCluster` objects and
``system.partitions`` the partitions themselves, which is what the
:class:`~repro.audit.auditor.SafetyAuditor` attaches to — while an integer
``N > 1`` spreads them over ``N`` groups drained in parallel, one by this
process itself and ``N - 1`` by forked worker processes.  Commit/abort/
view-change fingerprints are bit-identical for every ``workers`` value of
the same seed+config.

Clients interact through :meth:`submit_transaction`, which accepts ordinary
benchmark transactions (e.g. Smallbank ``sendPayment``) and hides the
sharding — the usability extension discussed in Section 6.4 — or through
:class:`~repro.core.driver.OpenLoopDriver`, whose arrival process runs
inside the partitions.

Lock scheduling and fault injection
-----------------------------------
* ``ShardedSystemConfig.conflict_policy`` selects how conflicting cross-shard
  lock acquisitions are scheduled.  ``"abort"`` (the default) sends prepares
  immediately and a conflicting prepare fails at the shard, aborting the
  transaction.  ``"wait"`` and ``"wound-wait"`` route each shard's prepares
  through its lock-admission table
  (:class:`repro.txn.locks.LockAdmissionTable`), so conflicting prepares
  queue (FIFO + timeout + per-shard deadlock detection) or are scheduled by
  transaction age (wound-wait) instead of aborting on first conflict.
* ``ShardedSystemConfig.fault_scenario`` attaches a
  :class:`repro.txn.faults.FaultScenario` (one deep copy per home
  coordinator) that is consulted at each protocol step to inject shard
  stalls, vote drops, stale replays and coordinator crashes.  Paired with
  ``prepare_timeout`` (deadline-driven prepare re-drives) and the
  coordinator's crash/recovery support, every injected fault is recoverable.

Epochs and live reconfiguration
-------------------------------
The deployment works in epochs (Section 5).  Every system carries an
:class:`~repro.sharding.epochs.EpochSchedule`; epoch 0 is the construction
assignment.  At an epoch boundary — automatic (``swap-batch``) every
``ShardedSystemConfig.epoch_duration`` seconds when that is set, or explicit
via :meth:`ShardedBlockchain.perform_reconfiguration` — the
system (1) derives fresh randomness from the beacon protocol (an isolated
sub-simulation, so the main event stream is untouched), (2) recomputes the
committee assignment from that randomness, (3) builds a
:class:`~repro.sharding.reconfiguration.ReconfigurationPlan` and executes it
as *real membership changes*: transitioning replicas leave their old
committee, pay a state-transfer delay derived from the destination shard's
actual ``StateStore.size_bytes()`` (``state_transfer_seconds`` under
``state_bandwidth_bps``), then join and serve in the new committee — and
(4) records the transition in the epoch schedule.  ``swap-batch`` moves at
most ``B = log n`` members of a committee at a time so every committee keeps
a quorum of active members throughout; ``swap-all`` moves everyone at once
and stalls the deployment for the transfer window (Figure 12's trough).
The parent only paces the plan: each step is partition control commands
(``remove`` at the source, ``admit`` at the destination, ``margin``
everywhere) whose reports start the next batch.

With the default configuration (no ``epoch_duration``, no explicit
reconfiguration) none of this schedules events or draws randomness, which
``tests/test_epoch_lifecycle.py`` verifies differentially.
"""

from __future__ import annotations

import dataclasses
import itertools
import warnings
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.consensus.cluster import ConsensusCluster, member_node_id
from repro.core.adversary import AdversaryState
from repro.core.config import ShardedSystemConfig
from repro.core.driver import DriverStats
from repro.core.homecoord import (
    PARENT,
    AdmitReport,
    ClientRecords,
    Command,
    MarginReport,
    TxDone,
    WindowBlock,
    home_shard,
    inbound_sort_key,
)
from repro.core.scaleout import ShardPartition, _PartitionGroup, _ProcessExecutor
from repro.core.splitters import REFERENCE_SHARD_ID, shards_for, splitter_for
from repro.errors import ConfigurationError, SimulationError
from repro.ledger.transaction import Transaction
from repro.sharding.assignment import assign_committees
from repro.sharding.beacon_protocol import derive_epoch_randomness
from repro.sharding.committee import CommitteeAssignment
from repro.sharding.epochs import EpochSchedule
from repro.sharding.reconfiguration import (
    STRATEGIES as RECONFIGURATION_STRATEGIES,
    ReconfigurationPlan,
    plan_reconfiguration,
)
from repro.sim.monitor import TimeSeries
from repro.sim.simulator import Simulator
from repro.txn.coordinator import (
    CoordinatorStats,
    DistributedTxRecord,
)
from repro.workloads.generator import shard_of_key


@dataclass
class ShardedRunResult:
    """Summary of a sharded-system run."""

    duration: float
    committed_transactions: int
    aborted_transactions: int
    throughput_tps: float
    abort_rate: float
    mean_latency: float
    cross_shard_fraction: float
    per_shard_committed: Dict[int, int] = field(default_factory=dict)
    reference_committee_transactions: int = 0
    current_epoch: int = 0
    reconfigurations_completed: int = 0


@dataclass
class EpochTransitionStats:
    """What one executed epoch transition did (kept in ``epoch_transitions``)."""

    epoch: int
    strategy: str
    started_at: float
    #: Randomness locked in by the beacon protocol (None if it gave up).
    randomness: Optional[int]
    beacon_rounds: int
    beacon_seconds: float
    nodes_to_move: int
    plan: ReconfigurationPlan
    nodes_moved: int = 0
    completed_at: Optional[float] = None
    #: Per shard, the minimum over the transition of
    #: ``active members - quorum size`` sampled after each swap batch took
    #: effect: non-negative everywhere means the committee could commit at
    #: every point of the migration (the paper's liveness criterion).
    min_active_margin: Dict[int, int] = field(default_factory=dict)


@dataclass
class _ActiveTransition:
    """Runtime bookkeeping of the transition currently executing."""

    plan: ReconfigurationPlan
    stats: EpochTransitionStats
    transfer_override: Optional[float]
    batch_interval: float
    old_map: Dict[int, int]
    new_map: Dict[int, int]


@dataclass
class _BatchState:
    """Bookkeeping for one in-flight swap batch."""

    transition: _ActiveTransition
    index: int
    started_at: float
    outstanding: int
    max_transfer: float = 0.0


class AdmissionCounts(NamedTuple):
    """The shards' lock-admission counters, summed (``system.admission``)."""

    wait_timeouts: int
    wounded_transactions: int
    deadlocks_detected: int


class _RemoteShard:
    """``system.shards[s]`` in process mode: the committee is out of reach."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id

    def __getattr__(self, name: str) -> Any:
        raise ConfigurationError(
            f"shard {self.shard_id}'s {name!r} is out of reach: in process "
            "mode the replicas are spread over the executor's partition "
            "groups.  Build the system with workers=None "
            "(bit-identical outcomes) to touch the clusters")


class ShardedBlockchain:
    """A sharded permissioned blockchain deployment (see the module docstring)."""

    def __init__(self, config: ShardedSystemConfig) -> None:
        if config.relay_delay <= 0:
            raise ConfigurationError(
                "relay_delay is the engine's barrier window and must be "
                f"positive, got {config.relay_delay!r}")
        self.config = config
        #: The parent's own simulation: epoch timers, completion reports of
        #: API-submitted transactions, and whatever clients schedule through
        #: ``runtime`` (the same simulator).  Its clock is the deployment's
        #: clock.
        self.sim = Simulator(seed=config.seed)
        self.runtime = self.sim
        self.splitter = splitter_for(config.benchmark)
        self.assignment: CommitteeAssignment = assign_committees(
            list(range(config.total_nodes)), config.num_shards, seed=config.seed)
        #: The construction-time corruption placement (who misbehaves where,
        #: the per-committee budget); built here so a bad adversary config is
        #: refused in this process.  The *live* adversary — migrations, the
        #: TEE rollback — is each partition's own copy: read its counters
        #: from :meth:`shard_summaries` or ``partitions[s].adversary``.
        self.adversary: Optional[AdversaryState] = (
            AdversaryState.place(config, self.assignment)
            if config.adversary is not None else None)
        self._cmd_buffer: List[Command] = []
        self._parent_seq = itertools.count()
        self._marker_counter = itertools.count()
        self._pending_admits: Dict[int, _BatchState] = {}
        self._margin_sinks: Dict[int, EpochTransitionStats] = {}
        #: Shadow records of the transactions submitted here, until their home's
        #: completion report arrives.
        self._remote_txs = ClientRecords(self.splitter, self.shard_of_key)
        self._drivers_registered = 0
        #: Wall-clock split of the barrier loop: time inside executor windows
        #: (partition work) vs. time draining the parent's own simulation.
        self._window_seconds = 0.0
        self._parent_seconds = 0.0

        shard_ids = list(range(config.num_shards))
        if config.use_reference_committee:
            shard_ids.append(REFERENCE_SHARD_ID)
        self._inline = (config.workers or 1) <= 1
        self.executor = (_PartitionGroup(config, shard_ids) if self._inline
                         else _ProcessExecutor(config, shard_ids, config.workers))
        #: Shard id -> its committee: the live cluster inline, a stub that
        #: explains itself in process mode.
        self.shards: Dict[int, Any] = {
            shard_id: (self.executor.partitions[shard_id].cluster
                       if self._inline else _RemoteShard(shard_id))
            for shard_id in range(config.num_shards)}
        #: The reference committee's live cluster (inline mode only).
        self.reference: Optional[ConsensusCluster] = (
            self.executor.partitions[REFERENCE_SHARD_ID].cluster
            if self._inline and config.use_reference_committee else None)

        #: The live epoch schedule; epoch 0 is the construction assignment.
        self.epochs = EpochSchedule(
            epoch_duration=(config.epoch_duration
                            if config.epoch_duration is not None else 600.0))
        self.epochs.start_epoch(self.assignment, now=0.0)
        self.epochs.complete_transition(0.0)
        #: Logical node id (as used in committee assignments) -> node id of
        #: the replica currently embodying that node.  A migration retires
        #: the old replica and binds the logical node to its successor in
        #: the destination cluster.
        self._replica_of: Dict[int, int] = {
            logical: member_node_id(committee.shard_id, slot)
            for committee in self.assignment.committees
            for slot, logical in enumerate(committee.members)}
        self._next_slot = {shard_id: config.committee_size
                           for shard_id in range(config.num_shards)}
        #: History of executed epoch transitions (stats + their plans).
        self.epoch_transitions: List[EpochTransitionStats] = []
        self._active_transition: Optional[_ActiveTransition] = None
        self.reconfigurations_completed = 0
        self.epoch_boundaries_skipped = 0
        if config.epoch_duration is not None:
            # The only scheduling automatic epochs add: request tracking
            # plus one timer per boundary.
            self._broadcast("track")
            self.runtime.schedule(config.epoch_duration, self._epoch_tick)

    @property
    def partitions(self) -> Dict[int, ShardPartition]:
        """The live partitions by shard id (``REFERENCE_SHARD_ID`` included)."""
        if not self._inline:
            raise ConfigurationError(
                "the partitions are spread over process-mode partition "
                "groups: build the system "
                "with workers=None (bit-identical to workers=N by the "
                "engine's determinism guarantee) to reach them")
        return self.executor.partitions

    def close(self) -> None:
        """Release engine resources (worker processes); idempotent."""
        self.executor.close()

    # --------------------------------------------------------------- routing
    def shard_of_key(self, key: str) -> int:
        """Hash partitioning of the key space over the shards (memoized).

        Delegates to the workload generator's routing function so the client
        side and the system side share one (cached) definition of the
        partitioning.
        """
        return shard_of_key(key, self.config.num_shards)

    def shards_for_transaction(self, tx: Transaction) -> List[int]:
        """The shards whose state a benchmark transaction touches."""
        return shards_for(self.splitter, tx, self.shard_of_key)

    # ------------------------------------------------------------ submission
    def _emit(self, command: Command) -> None:
        command.src = PARENT
        command.seq = next(self._parent_seq)
        self._cmd_buffer.append(command)

    def _broadcast(self, op: str) -> None:
        """One control command to every shard partition, a relay hop away."""
        due = self.sim.now + self.config.relay_delay
        for shard_id in range(self.config.num_shards):
            self._emit(Command(due=due, dest=shard_id, op=op))

    def submit_transaction(self, tx: Transaction,
                           on_complete: Optional[Callable[[DistributedTxRecord], None]] = None) -> DistributedTxRecord:
        """Submit a benchmark transaction; its home partition coordinates it.

        The returned record is a parent-side shadow: its outcome fields are
        filled in when the home's completion report arrives through the
        barrier exchange (``on_complete`` fires at that point).  The real
        coordination state lives in the home partition.  Raises
        :class:`~repro.errors.WorkloadError` (nothing registered) for a
        cross-shard transaction that cannot be split.
        """
        shards = self.shards_for_transaction(tx)
        self._remote_txs.validate(tx, shards)
        record = self._remote_txs.begin(tx, shards, self.sim.now, on_complete)
        self._emit(Command(due=self.sim.now + self.config.relay_delay,
                           dest=home_shard(shards), op="client", txs=(tx,),
                           tx_id=tx.tx_id, origin=PARENT))
        return record

    def _on_tx_done(self, done: TxDone) -> None:
        self._remote_txs.finish(done.tx_id, done.committed, done.abort_reason,
                                done.decided_at, done.completed_at)

    # --------------------------------------------------------------- drivers
    def register_partition_driver(self, spec: Dict[str, Any]) -> int:
        """Register one open-loop driver's spec; partitions run its splits.

        Returns the driver's index (the key into :meth:`driver_stats`).
        """
        index = self._drivers_registered
        self._drivers_registered += 1
        self.executor.call("add_driver", index, spec)
        return index

    def driver_stats(self, index: int) -> DriverStats:
        """Driver ``index``'s statistics, merged over all partitions."""
        merged = DriverStats()
        for per_driver in self._gather("driver_stats").values():
            stats = per_driver.get(index)
            if stats is not None:
                merged.merge(stats)
        return merged

    # ---------------------------------------------------------- barrier loop
    def advance(self, until: float) -> None:
        """Advance the deployment to simulated time ``until``.

        Strict alternation per window: ship the buffered command block,
        drain the partitions, inject their outputs at exact times, drain
        the parent.  Commands the partitions routed to each other come back
        in the window result and ship with the *next* block.
        """
        delta = self.config.relay_delay
        now = self.sim.now
        while now < until:
            end = min(now + delta, until)
            commands, self._cmd_buffer = self._cmd_buffer, []
            # detlint: disable=DET001 -- coordinator_work_share wall-time split: measures host cost only, never feeds simulated time or the event stream
            started = perf_counter()
            result = self.executor.run_window(WindowBlock(
                until=end, epoch=self.epochs.current_epoch,
                commands=tuple(sorted(commands, key=inbound_sort_key))))
            # detlint: disable=DET001 -- coordinator_work_share wall-time split: measures host cost only, never feeds simulated time or the event stream
            mid = perf_counter()
            self._window_seconds += mid - started
            self._cmd_buffer.extend(result.routed)
            self._deliver_outputs(result.outputs)
            self.sim.run(until=end)
            self.sim.advance_clock(end)
            # detlint: disable=DET001 -- coordinator_work_share wall-time split: measures host cost only, never feeds simulated time or the event stream
            self._parent_seconds += perf_counter() - mid
            now = end

    def run(self, duration: float) -> ShardedRunResult:
        """Advance the deployment by ``duration`` and summarise the run."""
        self.advance(self.sim.now + duration)
        return self.result(duration)

    @property
    def coordinator_work_share(self) -> float:
        """Fraction of barrier-loop wall-clock spent in the parent tier.

        With coordination, admission, the reference committee and the
        drivers all in-partition, the parent's share of each window should
        be small (< 20% under the benchmark gate) — it only merges outputs
        and runs epoch control.  Window time is the executor's whole
        exchange, so in process mode it includes the parent draining its
        own partition group, which is partition work, not parent-tier work.
        """
        total = self._window_seconds + self._parent_seconds
        return self._parent_seconds / total if total > 0 else 0.0

    def pending_activity(self) -> bool:
        """Whether any engine component still has events queued."""
        return (self.sim.pending_events > 0 or bool(self._cmd_buffer)
                or sum(self.executor.call("pending_events")) > 0)

    def _deliver_outputs(self, outputs: Tuple[Any, ...]) -> None:
        """Inject partition outputs as parent events at their exact times.

        The ``(time, shard, seq)`` sort is the canonical arrival order: it
        depends only on what the partitions did, never on how they were
        grouped onto workers.
        """
        for item in sorted(outputs, key=lambda it: (it.time, it.shard, it.seq)):
            if isinstance(item, TxDone):
                self.sim.schedule_at(item.time, self._on_tx_done, item)
            elif isinstance(item, AdmitReport):
                self.sim.schedule_at(item.time, self._on_admit_report, item)
            elif isinstance(item, MarginReport):
                self.sim.schedule_at(item.time, self._on_margin_report, item)
            else:  # pragma: no cover - protocol bug guard
                raise SimulationError(f"unknown partition output {item!r}")

    # --------------------------------------------------------------- results
    def _gather(self, method: str) -> Dict[int, Any]:
        """``method``'s per-partition answers from every group, in shard
        order (so whatever is folded over them is grouping-invariant)."""
        merged: Dict[int, Any] = {}
        for reply in self.executor.call("gather", method):
            merged.update(reply)
        return dict(sorted(merged.items()))

    def coordination_stats(self) -> CoordinatorStats:
        """The home coordinators' 2PC statistics, merged.

        Partitions are merged in shard order, so the concatenated latency
        list (kept only under ``retain_tx_records``) is deterministic too.
        """
        merged = CoordinatorStats()
        for stats in self._gather("coordination_stats").values():
            if stats is None:
                continue  # the reference committee coordinates nothing
            for field_ in dataclasses.fields(CoordinatorStats):  # counters, sums, lists
                setattr(merged, field_.name, getattr(merged, field_.name)
                        + getattr(stats, field_.name))
        return merged

    def result(self, duration: float) -> ShardedRunResult:
        stats = self.coordination_stats()
        summaries = self._gather("summary")
        reference = summaries.pop(REFERENCE_SHARD_ID, None)
        return ShardedRunResult(
            duration=duration,
            committed_transactions=stats.committed,
            aborted_transactions=stats.aborted,
            throughput_tps=stats.committed / duration if duration > 0 else 0.0,
            abort_rate=stats.abort_rate,
            mean_latency=stats.mean_latency,
            cross_shard_fraction=(stats.cross_shard / stats.started if stats.started else 0.0),
            per_shard_committed={shard_id: summary["committed"]
                                 for shard_id, summary in summaries.items()},
            reference_committee_transactions=(
                reference["committed"] if reference is not None else 0),
            current_epoch=self.epochs.current_epoch,
            reconfigurations_completed=self.reconfigurations_completed,
        )

    def shard_summaries(self) -> Dict[int, Dict[str, int]]:
        """Per-shard observable outcomes and counters (see
        :meth:`~repro.core.scaleout.ShardPartition.summary`)."""
        summaries = self._gather("summary")
        summaries.pop(REFERENCE_SHARD_ID, None)
        return summaries

    @property
    def events_processed(self) -> int:
        """Simulator events fired so far, over the parent and every partition."""
        return self.sim.events_processed + sum(
            summary["events"] for summary in self._gather("summary").values())

    @property
    def admission(self) -> Optional[AdmissionCounts]:
        """Lock-admission counters summed over the shards' tables (None under
        the ``"abort"`` policy, which has no tables)."""
        if self.config.conflict_policy == "abort":
            return None
        summaries = list(self.shard_summaries().values())
        return AdmissionCounts(*(sum(summary[key] for summary in summaries)
                                 for key in ("wait_timeouts", "wounded", "deadlocks")))

    def fingerprint(self) -> Dict[str, object]:
        """Exact observable outcome of the run so far.

        Commit/abort totals plus per-shard committed counts and view-change
        counts — all integers, so "equal fingerprints" means bit-identical
        outcomes.  Invariant under ``workers`` and the barrier interval for
        a given seed+config.
        """
        stats = self.coordination_stats()
        summaries = self.shard_summaries()
        return {
            "committed": stats.committed,
            "aborted": stats.aborted,
            "started": stats.started,
            "per_shard_committed": {shard_id: summary["committed"]
                                    for shard_id, summary in summaries.items()},
            "view_changes": {shard_id: summary["view_changes"]
                             for shard_id, summary in summaries.items()},
        }

    def audit_clusters(self) -> Dict[int, ConsensusCluster]:
        """The live shard clusters, for observers (the safety auditor).

        Process mode refuses: its replicas live in other address spaces.
        """
        if not self._inline:
            raise ConfigurationError(
                "the safety auditor needs the replicas in-process: audit a "
                "workers=None run (bit-identical to workers=N by the engine's "
                "determinism guarantee) instead")
        return dict(self.shards)

    def throughput_over_time(self, bucket_seconds: float = 5.0) -> List[tuple]:
        """Committed-transaction rate over time, aggregated across shards
        (needs ``retain_tx_records``)."""
        times = sorted(itertools.chain.from_iterable(
            self._gather("commit_times").values()))
        series = TimeSeries.from_samples("commits", [(at, 1.0) for at in times])
        return series.bucketed_rate(bucket_seconds, until=self.sim.now)

    # ------------------------------------------------- epochs/reconfiguration
    @property
    def current_epoch(self) -> int:
        """The epoch the deployment is currently in."""
        return self.epochs.current_epoch

    def perform_reconfiguration(self, strategy: str, at_time: float,
                                state_transfer_seconds: Optional[float] = None,
                                batch_size: Optional[int] = None,
                                batch_interval: Optional[float] = None) -> None:
        """Schedule an explicit epoch transition at ``at_time`` (Figure 12).

        At that moment the full epoch lifecycle runs: beacon randomness,
        committee re-assignment, and the executed migration plan — real
        membership changes, not in-place pauses.  ``swap-all`` moves every
        transitioning node at once (the naive approach; committees lose
        their quorum for the transfer window); ``swap-batch`` moves at most
        ``B`` nodes per committee per batch, spaced at least
        ``batch_interval`` apart, so each committee keeps a quorum and the
        system stays available.

        ``state_transfer_seconds`` overrides the per-node transfer delay;
        by default the destination partition derives it from its shard's
        actual state size via
        :func:`repro.sharding.reconfiguration.state_transfer_seconds` under
        ``config.state_bandwidth_bps``.
        """
        if strategy not in RECONFIGURATION_STRATEGIES:
            raise ConfigurationError(f"unknown reconfiguration strategy {strategy!r}")
        if at_time < self.runtime.now:
            raise ConfigurationError(
                f"cannot reconfigure at {at_time!r}: it is in the past "
                f"(simulated time is {self.runtime.now!r})")
        if batch_interval is None:
            batch_interval = self.config.swap_batch_interval
        self._broadcast("track")
        self.runtime.schedule_at(at_time, self._begin_transition_attempt, strategy,
                             state_transfer_seconds, batch_size, batch_interval)

    def _begin_transition_attempt(self, strategy: str,
                                  transfer_override: Optional[float],
                                  batch_size: Optional[int],
                                  batch_interval: float) -> None:
        """Start the requested transition, deferring while one is running."""
        if self._active_transition is not None:
            self.runtime.schedule(1.0, self._begin_transition_attempt, strategy,
                              transfer_override, batch_size, batch_interval)
            return
        self._start_epoch_transition(strategy, transfer_override, batch_size,
                                     batch_interval)

    def _epoch_tick(self) -> None:
        """The automatic epoch clock (scheduled only when ``epoch_duration`` is set)."""
        if self._active_transition is not None:
            self.epoch_boundaries_skipped += 1
        elif self.epochs.next_epoch_due(self.runtime.now):
            self._start_epoch_transition("swap-batch", None, None,
                                         self.config.swap_batch_interval)
        self.runtime.schedule(self.config.epoch_duration, self._epoch_tick)

    def _start_epoch_transition(self, strategy: str,
                                transfer_override: Optional[float],
                                batch_size: Optional[int],
                                batch_interval: float) -> None:
        """Run the epoch lifecycle: randomness -> assignment -> migration."""
        epoch = self.epochs.current_epoch + 1
        beacon = derive_epoch_randomness(self.config.total_nodes, epoch,
                                         seed=self.config.seed)
        rnd = beacon.rnd if beacon.succeeded else self.config.seed * 1_000_003 + epoch
        new_assignment = assign_committees(sorted(self._replica_of),
                                           self.config.num_shards,
                                           seed=rnd, epoch=epoch)
        plan = plan_reconfiguration(self.assignment, new_assignment,
                                    strategy=strategy, batch_size=batch_size)
        if strategy == "swap-batch" and not plan.preserves_liveness():
            clamp = max(1, min(committee.fault_tolerance()
                               for committee in self.assignment.committees))
            if clamp < plan.batch_size:
                warnings.warn(
                    f"swap-batch size {plan.batch_size} would cost some committee "
                    f"its quorum; clamped to {clamp}", RuntimeWarning, stacklevel=2)
                plan = plan_reconfiguration(self.assignment, new_assignment,
                                            strategy=strategy, batch_size=clamp)
        if not plan.preserves_liveness():
            warnings.warn(
                f"epoch {epoch} {strategy} plan does not preserve liveness: some "
                "committee loses its quorum during the transition",
                RuntimeWarning, stacklevel=2)
        stats = EpochTransitionStats(
            epoch=epoch, strategy=strategy, started_at=self.runtime.now,
            randomness=beacon.rnd, beacon_rounds=beacon.rounds,
            beacon_seconds=beacon.elapsed_seconds,
            nodes_to_move=len(plan.transitioning_nodes), plan=plan,
        )
        self.epoch_transitions.append(stats)
        self.epochs.start_epoch(new_assignment, now=self.runtime.now)
        self.assignment = new_assignment
        transition = _ActiveTransition(
            plan=plan, stats=stats, transfer_override=transfer_override,
            batch_interval=batch_interval,
            old_map=plan.old_assignment.membership_map(),
            new_map=new_assignment.membership_map(),
        )
        self._active_transition = transition
        self._broadcast("prepare")
        # Randomness generation is part of the transition window: the first
        # swap batch starts once the beacon's rnd is locked in.
        self.runtime.schedule(beacon.elapsed_seconds, self._run_migration_step,
                          transition, 0)

    def _run_migration_step(self, transition: _ActiveTransition, index: int) -> None:
        """Emit one swap batch as partition control ops; reports pace the next.

        Ops execute on their partitions at ``t + relay_delay``: the source
        removes the member, the destination admits the joiner (corruption
        decision, transfer sizing from its own state, activation timer) and
        reports the transfer delay.  The next batch starts at
        ``max(t + batch_interval, t_ops + max_transfer)`` once every admit
        of this batch has reported — never before this batch's transfers
        finish, so concurrent absences stay bounded by the batch size.
        """
        plan = transition.plan
        if index >= plan.num_steps:
            self._complete_transition(transition)
            return
        now = self.sim.now
        due = now + self.config.relay_delay
        markers: List[int] = []
        for logical in sorted(plan.nodes_in_step(index)):
            old_shard = transition.old_map[logical]
            new_shard = transition.new_map[logical]
            self._emit(Command(due=due, dest=old_shard, op="remove",
                               node_id=self._replica_of[logical]))
            slot = self._next_slot[new_shard]
            self._next_slot[new_shard] = slot + 1
            new_physical = member_node_id(new_shard, slot)
            marker = next(self._marker_counter)
            markers.append(marker)
            self._emit(Command(due=due, dest=new_shard, op="admit",
                               node_id=new_physical, logical=logical,
                               transfer_override=transition.transfer_override,
                               marker=marker))
            self._replica_of[logical] = new_physical
            transition.stats.nodes_moved += 1
        batch = _BatchState(transition=transition, index=index,
                            started_at=now, outstanding=len(markers))
        for marker in markers:
            self._pending_admits[marker] = batch
        # Every shard samples its active-minus-quorum margin once this
        # batch's ops have applied.
        for shard_id in sorted(self.shards):
            marker = next(self._marker_counter)
            self._margin_sinks[marker] = transition.stats
            self._emit(Command(due=due, dest=shard_id, op="margin",
                               marker=marker))
        if not markers:
            delay = transition.batch_interval if index + 1 < plan.num_steps else 0.0
            self.sim.schedule(delay, self._run_migration_step, transition,
                              index + 1)

    def _on_admit_report(self, report: AdmitReport) -> None:
        batch = self._pending_admits.pop(report.marker)
        batch.outstanding -= 1
        batch.max_transfer = max(batch.max_transfer, report.transfer)
        if batch.outstanding:
            return
        transition = batch.transition
        if batch.index + 1 < transition.plan.num_steps:
            next_time = max(batch.started_at + transition.batch_interval,
                            self.sim.now + batch.max_transfer)
            self.sim.schedule_at(next_time, self._run_migration_step,
                                 transition, batch.index + 1)
        else:
            self.sim.schedule(batch.max_transfer, self._run_migration_step,
                              transition, batch.index + 1)

    def _on_margin_report(self, report: MarginReport) -> None:
        stats = self._margin_sinks.pop(report.marker)
        previous = stats.min_active_margin.get(report.shard)
        if previous is None or report.margin < previous:
            stats.min_active_margin[report.shard] = report.margin

    def _complete_transition(self, transition: _ActiveTransition) -> None:
        self.epochs.complete_transition(self.runtime.now)
        transition.stats.completed_at = self.runtime.now
        self.reconfigurations_completed += 1
        self._active_transition = None


#: The old name of the one engine.  Its last importer is the end-to-end
#: benchmark driver (``benchmarks/e2e/simload.py``); everything else
#: constructs ``ShardedBlockchain`` directly.
build_system = ShardedBlockchain
