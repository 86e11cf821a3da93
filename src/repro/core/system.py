"""The end-to-end sharded blockchain (Figure 1b).

``ShardedBlockchain`` builds, inside one discrete-event simulation:

* ``num_shards`` consensus committees (AHL+ by default), each owning a
  disjoint hash partition of the key space and running the benchmark
  chaincode;
* optionally a **reference committee** running the 2PC state-machine
  chaincode of Section 6.2;
* a coordination layer that takes every transaction through the Figure-5
  flow: BeginTx at the reference committee, PrepareTx at the involved
  committees (acquiring 2PL locks), vote relay, then CommitTx / AbortTx.
  The flow itself is :class:`repro.txn.coordinator.TwoPhaseCommitDriver`;
  ``ShardedBlockchain`` hosts it — it relays the driver's cohorts to the
  committees and turns their commit receipts back into votes and acks.

Clients interact through :meth:`submit_transaction`, which accepts ordinary
benchmark transactions (e.g. Smallbank ``sendPayment``) and hides the
sharding — the usability extension discussed in Section 6.4.

Lock scheduling and fault injection
-----------------------------------
The coordination layer is policy- and fault-pluggable:

* ``ShardedSystemConfig.conflict_policy`` selects how conflicting cross-shard
  lock acquisitions are scheduled.  ``"abort"`` (the default) reproduces the
  seed behaviour bit-for-bit: prepares are sent immediately and a conflicting
  prepare fails at the shard, aborting the transaction.  ``"wait"`` and
  ``"wound-wait"`` route prepares through the lock-admission table
  (:class:`repro.txn.locks.LockAdmissionTable`), so conflicting prepares
  queue (FIFO + timeout + deadlock detection) or are scheduled by
  transaction age (wound-wait) instead of aborting on first conflict.
* ``ShardedSystemConfig.fault_scenario`` attaches a
  :class:`repro.txn.faults.FaultScenario` that is consulted at each protocol
  step (prepare relay, vote relay, decision, ack) to inject shard stalls,
  vote drops, stale replays and coordinator crashes.  Paired with
  ``prepare_timeout`` (deadline-driven prepare re-drives) and the
  coordinator's crash/recovery support, every injected fault is recoverable.

With the default configuration (``abort`` policy, no faults, no prepare
timeout) none of this machinery schedules events or draws randomness — the
message flow is identical to the seed implementation, which
``tests/test_txn_differential.py`` verifies outcome-for-outcome against an
inline seed-faithful copy.

Epochs and live reconfiguration
-------------------------------
The deployment works in epochs (Section 5).  Every system carries an
:class:`~repro.sharding.epochs.EpochSchedule`; epoch 0 is the construction
assignment.  At an epoch boundary — automatic every
``ShardedSystemConfig.epoch_duration`` seconds when ``auto_reconfigure`` is
set, or explicit via :meth:`ShardedBlockchain.perform_reconfiguration` — the
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

With the default configuration (no ``epoch_duration``, no explicit
reconfiguration) none of this schedules events or draws randomness: the
no-epoch run is event-for-event identical to the seed implementation, which
``tests/test_epoch_lifecycle.py`` verifies differentially.

Scale-out
---------
``ShardedSystemConfig.workers`` switches the deployment to the partitioned
engine (build via :func:`repro.core.build_system`; the model is described in
:mod:`repro.core.scaleout`).  It assembles the same parts — the committee
factory of :mod:`repro.core.splitters`, the 2PC driver, the lock-admission
table and the arrival loop — per partition instead of once.  This engine
(``workers=None``) shares one global simulation, and one network jitter RNG,
across all clusters, so its event interleaving — and thus its fingerprints —
are its own; committed baselines pin that path, and it stays bit-identical to
the seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.consensus.base import CommitEvent
from repro.consensus.cluster import ConsensusCluster
from repro.core.adversary import AdversaryState
from repro.core.config import ShardedSystemConfig
from repro.core.splitters import (
    REFERENCE_SHARD_ID,
    build_committee,
    shards_for,
    splitter_for,
)
from repro.errors import ConfigurationError
from repro.ledger.index import LedgerIndex
from repro.ledger.transaction import Transaction, TransactionReceipt
from repro.sharding.assignment import assign_committees
from repro.sharding.beacon_protocol import derive_epoch_randomness
from repro.sharding.committee import CommitteeAssignment
from repro.sharding.epochs import EpochSchedule
from repro.sharding.reconfiguration import (
    STRATEGIES as RECONFIGURATION_STRATEGIES,
    ReconfigurationPlan,
    plan_reconfiguration,
    state_transfer_seconds,
)
from repro.sim.latency import LanLatencyModel
from repro.sim.monitor import Monitor
from repro.sim.network import Network
from repro.runtime.base import as_runtime
from repro.sim.simulator import Simulator
from repro.txn.coordinator import (
    Cohort,
    DistributedTxOutcome,
    DistributedTxRecord,
    TwoPhaseCommitCoordinator,
    TwoPhaseCommitDriver,
)
from repro.txn.locks import LockAdmissionTable
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


class _LockAdmission(LockAdmissionTable):
    """The lock-admission table as the single-loop engine hosts it.

    One table fronts all shards, as the 2PC driver's ``admission`` hook: a
    shard's PrepareTx has its keys namespaced (``s<shard>/<key>``), so
    waits-for cycles that span shards are visible to the one deadlock
    detector.  An admitted prepare is relayed at once; a refused or wounded
    one becomes a NotOK vote at the driver.  Locks are released as each
    shard acknowledges the transaction's commit/abort decision (the moment
    the on-chain locks are gone).
    """

    def __init__(self, system: "ShardedBlockchain") -> None:
        super().__init__(system.runtime, system.config.conflict_policy,
                         system.config.wait_timeout, on_admitted=self._dispatch,
                         on_refused=self._refuse, on_wound=self._wound_victim)
        self.system = system

    def request(self, record: DistributedTxRecord, shard_id: int,
                prepare_tx: Transaction, extra_delay: float = 0.0) -> str:
        """Try to admit a shard's PrepareTx: "granted", "waiting" or "deadlock".

        The wound-wait age is the *submission* time (begin order as
        tie-break), not the admission-request order: the coordination layer
        can reorder transactions across consensus blocks, so an older
        transaction can find its key held by a younger one — and wounds it.
        """
        return self.admit(record.tx_id, shard_id,
                          [f"s{shard_id}/{key}" for key in prepare_tx.keys],
                          (record.started_at, record.begin_seq),
                          (record, prepare_tx, extra_delay))

    def _dispatch(self, tx_id: str, shard_id: int) -> None:
        record, prepare_tx, extra_delay = self.claim(tx_id, shard_id)
        if record.outcome is DistributedTxOutcome.PENDING:
            # Not decided (wounded, timed out elsewhere) meanwhile: the
            # parked PrepareTx got its last lock, relay it now.
            self.system.relay("prepare", record, [(shard_id, prepare_tx)],
                              extra_delay, record.redrives)

    def _refuse(self, tx_id: str, shard_id: int, payload: Tuple,
                reason: str) -> None:
        self.system.driver.prepare_outcome(payload[0], shard_id, False, reason)

    def _wound_victim(self, victim: str) -> None:
        """Wound-wait: an older transaction aborts the younger lock holder."""
        record = self.system.coordinator.records.get(victim)
        if record is None or record.outcome is not DistributedTxOutcome.PENDING:
            return
        # Abort through the normal vote path.  Prefer a participant shard
        # that has not voted yet (an undecided record always has one) so
        # the wound is a first vote, not a conflicting revote; the shard's
        # own later OK vote is then rejected as stale.
        shard_id = next((shard for shard in record.shards
                         if shard not in record.prepare_votes),
                        record.shards[0])
        self.system.driver.prepare_outcome(
            record, shard_id, False, "wounded by an older transaction")


class ShardedBlockchain:
    """A sharded permissioned blockchain deployment inside one simulation."""

    #: The scale-out subclass flips this; the base engine refuses a config
    #: whose ``workers`` it would silently ignore.
    SUPPORTS_WORKERS = False

    def __init__(self, config: ShardedSystemConfig) -> None:
        if config.workers is not None and not self.SUPPORTS_WORKERS:
            raise ConfigurationError(
                "config.workers requires the scale-out engine; build the "
                "system via repro.core.build_system(config)")
        self.config = config
        self.sim = Simulator(seed=config.seed)
        #: All protocol-side scheduling (2PC deadlines, relays, epoch timers)
        #: goes through the runtime seam; ``self.sim`` remains the concrete
        #: simulator for harness-only draining (``advance``/``pending_activity``).
        self.runtime = as_runtime(self.sim)
        self.network = Network(self.runtime, config.latency_model or LanLatencyModel())
        self.monitor = Monitor(max_samples=config.max_series_samples)
        self.coordinator = TwoPhaseCommitCoordinator(
            config.use_reference_committee, retain_records=config.retain_tx_records,
            prepare_timeout=config.prepare_timeout)
        self.splitter = splitter_for(config.benchmark)
        self._receipt_watchers: Dict[str, Callable[[TransactionReceipt], None]] = {}
        self.single_shard_committed = 0
        self.single_shard_aborted = 0
        self.admission: Optional[_LockAdmission] = self._build_admission()

        self.assignment = self._form_committees()
        #: Armed Byzantine adversary (see ``ShardedSystemConfig.adversary``):
        #: corruption placement happens before the clusters are built because
        #: each replica snapshots its shard's strategy at construction.
        self.adversary: Optional[AdversaryState] = (
            AdversaryState.place(config, self.assignment)
            if config.adversary is not None else None)
        self.shards: Dict[int, ConsensusCluster] = {}
        for shard_id in range(config.num_shards):
            self.shards[shard_id] = self._build_shard_cluster(shard_id)
        self.reference: Optional[ConsensusCluster] = self._maybe_build_reference()
        #: The one 2PC driver (:mod:`repro.txn.coordinator`); this class is
        #: its host.  Under an armed adversary a decision's first-contact
        #: member may swallow it (a silent Byzantine replica), so decisions
        #: get a deadline and are re-driven through a rotated member; honest
        #: runs never lose decisions and arm no such timer.
        self.driver = TwoPhaseCommitDriver(
            self, self.runtime, self.splitter, self.shard_of_key,
            fault=self._bind_fault_scenario(), admission=self.admission,
            redrive_decisions=self.adversary is not None)
        self._arm_adversary()
        self._attach_observers()

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
        self._replica_of: Dict[int, int] = self._initial_replica_map()
        #: History of executed epoch transitions (stats + their plans).
        self.epoch_transitions: List[EpochTransitionStats] = []
        #: The commit-time analytics index (None until ``enable_analytics``).
        self.analytics: Optional[LedgerIndex] = None
        self._active_transition: Optional[_ActiveTransition] = None
        self.reconfigurations_completed = 0
        self.epoch_boundaries_skipped = 0
        if config.auto_reconfigure:
            # The only scheduling the epoch machinery does by default-off
            # config: one timer per boundary.  A run that never reaches the
            # first boundary is event-for-event identical to the seed path.
            for cluster in self.shards.values():
                cluster.enable_request_tracking()
            self.runtime.schedule(config.epoch_duration, self._epoch_tick)

    # ---------------------------------------------------------------- set-up
    def _bind_fault_scenario(self):
        """Bind the configured fault scenario to this engine.

        The scale-out engine overrides this to return None: there the fault
        hooks are consulted by per-partition deep copies of the scenario (one
        per home coordinator), never by the parent.
        """
        fault = self.config.fault_scenario
        if fault is not None:
            fault.bind(self)
        return fault

    def _build_admission(self) -> Optional["_LockAdmission"]:
        """Host the lock-admission table (queueing policies only).

        The scale-out engine overrides this to return None: there every
        partition's home coordinator hosts its own shard's table.
        """
        if self.config.conflict_policy != "abort":
            return _LockAdmission(self)
        return None

    def _maybe_build_reference(self) -> Optional[ConsensusCluster]:
        """Build the reference committee's cluster on this simulation.

        The scale-out engine overrides this to return None: there the
        reference committee is partition ``REFERENCE_SHARD_ID``, scheduled
        like any shard partition.
        """
        if self.config.use_reference_committee:
            return self._build_shard_cluster(REFERENCE_SHARD_ID)
        return None

    def _form_committees(self) -> CommitteeAssignment:
        node_ids = list(range(self.config.total_nodes))
        return assign_committees(node_ids, self.config.num_shards, seed=self.config.seed)

    def _arm_adversary(self) -> None:
        """Arm the adversary on this simulation (scale-out arms per partition)."""
        if self.adversary is not None:
            self.adversary.arm(self)

    def _initial_replica_map(self) -> Dict[int, int]:
        """Logical node id -> physical node id of the construction assignment."""
        mapping: Dict[int, int] = {}
        for committee in self.assignment.committees:
            cluster = self.shards[committee.shard_id]
            for logical, replica in zip(committee.members, cluster.replicas):
                mapping[logical] = replica.node_id
        return mapping

    def _build_shard_cluster(self, shard_id: int) -> ConsensusCluster:
        return build_committee(self.config, shard_id, self.runtime,
                               self.network, self.adversary)

    def _attach_observers(self) -> None:
        for shard_id, cluster in self.shards.items():
            cluster.subscribe_commits(self._make_observer(shard_id))
        if self.reference is not None:
            self.reference.subscribe_commits(self._make_observer(REFERENCE_SHARD_ID))

    def _make_observer(self, shard_id: int) -> Callable[[CommitEvent], None]:
        def on_commit(event: CommitEvent) -> None:
            for receipt in event.receipts:
                watcher = self._receipt_watchers.pop(receipt.tx_id, None)
                if watcher is not None:
                    watcher(receipt)
        return on_commit

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
    def submit_transaction(self, tx: Transaction,
                           on_complete: Optional[Callable[[DistributedTxRecord], None]] = None) -> DistributedTxRecord:
        """Submit a benchmark transaction; the system routes and coordinates it.

        Raises :class:`~repro.errors.WorkloadError` (nothing registered) for a
        cross-shard transaction that cannot be split.
        """
        return self.driver.submit(tx, self.shards_for_transaction(tx),
                                  completion=on_complete)

    # ---------------------------------------------- the 2PC driver's host surface
    def relay(self, kind: str, record: DistributedTxRecord, cohort: Cohort,
              extra_delay: float, attempt: int) -> None:
        """Watch for each receipt, then submit the cohort after the relay delay.

        One scheduler event per cohort (same-time events fire back to back
        anyway).  ``attempt`` rotates the receiving replica on retries so a
        lost submission is not re-pinned to the member that swallowed it.
        This and :meth:`submit_reference` are the *complete* set of
        parent-to-shard submission sites.
        """
        for shard_id, tx in cohort:
            self._receipt_watchers[tx.tx_id] = partial(
                self.driver.receipt, kind, record, shard_id)

        def submit_cohort(batch=tuple(cohort)) -> None:
            for shard_id, tx in batch:
                self.shards[shard_id].submit([tx], attempt=attempt)
        self.runtime.schedule(self.config.relay_delay + extra_delay, submit_cohort)

    def submit_reference(self, tx: Transaction, attempt: int) -> None:
        self._receipt_watchers[tx.tx_id] = self.driver.reference_receipt
        self.runtime.schedule(self.config.relay_delay,
                              lambda: self.reference.submit([tx], attempt=attempt))

    def shard_unreachable(self, shard_id: int) -> bool:
        return False  # simulated shards stall or lose messages, never vanish

    def finished(self, record: DistributedTxRecord,
                 on_complete: Optional[Callable[[DistributedTxRecord], None]]) -> None:
        if on_complete is not None:
            on_complete(record)

    # ------------------------------------------------------------------- run
    def advance(self, until: float, max_events: Optional[int] = None) -> None:
        """Advance the deployment to simulated time ``until``.

        The engine-neutral way to drive a system: drivers and the auditor go
        through this instead of touching ``sim.run_batched`` directly, so the
        scale-out engine can substitute its barrier loop.
        """
        self.sim.run_batched(until=until, max_events=max_events)

    def pending_activity(self) -> bool:
        """Whether any engine component still has events queued."""
        return self.sim.pending_events > 0

    def close(self) -> None:
        """Release engine resources (worker processes); idempotent no-op here."""

    def run(self, duration: float, max_events: Optional[int] = None) -> ShardedRunResult:
        """Advance the simulation and summarise the coordinator statistics.

        Uses the batched drain loop (:meth:`Simulator.run_batched`), which is
        observationally equivalent to the one-at-a-time loop but cheaper on
        message-heavy runs.
        """
        self.advance(self.runtime.now + duration, max_events=max_events)
        return self.result(duration)

    def coordination_stats(self):
        """Aggregate 2PC coordination statistics (engine-neutral).

        The legacy engine has exactly one coordinator; the scale-out engine
        overrides this to merge the per-partition home coordinators' stats.
        """
        return self.coordinator.stats

    def result(self, duration: float) -> ShardedRunResult:
        stats = self.coordination_stats()
        summaries = self.shard_summaries()
        return ShardedRunResult(
            duration=duration,
            committed_transactions=stats.committed,
            aborted_transactions=stats.aborted,
            throughput_tps=stats.committed / duration if duration > 0 else 0.0,
            abort_rate=stats.abort_rate,
            mean_latency=stats.mean_latency,
            cross_shard_fraction=(stats.cross_shard / stats.started if stats.started else 0.0),
            per_shard_committed={shard_id: summaries[shard_id]["committed"]
                                 for shard_id in sorted(summaries)},
            reference_committee_transactions=self._reference_committed(),
            current_epoch=self.epochs.current_epoch,
            reconfigurations_completed=self.reconfigurations_completed,
        )

    def _reference_committed(self) -> int:
        """Transactions the reference committee has committed (engine-neutral)."""
        if self.reference is None:
            return 0
        return self.reference.honest_observer().committed_transactions()

    def shard_summaries(self) -> Dict[int, Dict[str, int]]:
        """Per-shard observable outcomes (engine-neutral)."""
        summaries: Dict[int, Dict[str, int]] = {}
        for shard_id, cluster in self.shards.items():
            summaries[shard_id] = {
                "committed": cluster.honest_observer().committed_transactions(),
                "view_changes": int(cluster.monitor.counter_value(
                    f"view_changes.shard{shard_id}")),
            }
        return summaries

    def fingerprint(self) -> Dict[str, object]:
        """Exact observable outcome of the run so far.

        Commit/abort totals plus per-shard committed counts and view-change
        counts — all integers, so "equal fingerprints" means bit-identical
        outcomes.  The scale-out engine guarantees this value is invariant
        under the worker count and the barrier interval for a given
        seed+config.
        """
        stats = self.coordination_stats()
        summaries = self.shard_summaries()
        return {
            "committed": stats.committed,
            "aborted": stats.aborted,
            "started": stats.started,
            "per_shard_committed": {shard_id: summaries[shard_id]["committed"]
                                    for shard_id in sorted(summaries)},
            "view_changes": {shard_id: summaries[shard_id]["view_changes"]
                             for shard_id in sorted(summaries)},
        }

    def audit_clusters(self) -> Dict[int, ConsensusCluster]:
        """The real shard clusters, for the auditor to attach observers to.

        The scale-out engine overrides this to expose its inline partitions'
        clusters (and to reject process-mode audits, where the replicas live
        in other address spaces).
        """
        return dict(self.shards)

    # --------------------------------------------------------------- analytics
    def enable_analytics(self, account_history: bool = True) -> LedgerIndex:
        """Attach a commit-time :class:`LedgerIndex` to this deployment.

        Idempotent — the first call builds the index and subscribes it to
        every committee's commits (through the same engine-neutral
        :meth:`audit_clusters` path the auditor uses, so it works on both
        the legacy engine and the scale-out engine's inline partitions);
        later calls return the same index.  Each shard is registered at its
        chain height at attach time, so an index enabled before the run
        (the normal case) sees every block from height 1.

        The index is a pure observer: enabling it never schedules events,
        so an indexed run commits exactly the same blocks as a bare one.
        """
        if self.analytics is not None:
            return self.analytics
        index = LedgerIndex(account_history=account_history)
        clusters = dict(self.audit_clusters())
        if self.reference is not None:
            clusters[REFERENCE_SHARD_ID] = self.reference
        for shard_id, cluster in clusters.items():
            chain = cluster.honest_observer().blockchain
            index.register_shard(shard_id, origin_height=chain.height,
                                 origin_hash=chain.tip.block_hash)
            cluster.subscribe_commits(
                self._make_index_observer(index, shard_id, cluster))
        for stats in self.epoch_transitions:
            if stats.completed_at is not None:
                index.record_epoch_transition(stats.epoch, stats.strategy,
                                              stats.min_active_margin)
        self.analytics = index
        return index

    def _make_index_observer(self, index: LedgerIndex, shard_id: int,
                             cluster: ConsensusCluster) -> Callable[[CommitEvent], None]:
        def on_commit(event: CommitEvent) -> None:
            # After membership changes the committee fans commits out from
            # *every* member, including Byzantine ones (whose local chains
            # are allowed to be garbage) and reports the same height many
            # times; ingest only honest reports and let the index's
            # first-writer-per-height dedup absorb the duplicates.
            try:
                replica = cluster.replica_by_id(event.replica_id)
            except ConfigurationError:
                return  # a departed member's late report
            if replica.byzantine is not None:
                return
            epoch = self.epochs.epoch_of(event.block.header.timestamp)
            index.ingest_block(shard_id, event.block, event.receipts, epoch=epoch)
        return on_commit

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
        by default it is derived from the destination shard's actual state
        size via :func:`repro.sharding.reconfiguration.state_transfer_seconds`
        under ``config.state_bandwidth_bps``.
        """
        if strategy not in RECONFIGURATION_STRATEGIES:
            raise ConfigurationError(f"unknown reconfiguration strategy {strategy!r}")
        if at_time < self.runtime.now:
            raise ConfigurationError(
                f"cannot reconfigure at {at_time!r}: it is in the past "
                f"(simulated time is {self.runtime.now!r})")
        if batch_interval is None:
            batch_interval = self.config.swap_batch_interval
        for cluster in self.shards.values():
            cluster.enable_request_tracking()
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
        """The automatic epoch clock (scheduled only under ``auto_reconfigure``)."""
        if self._active_transition is not None:
            self.epoch_boundaries_skipped += 1
        elif self.epochs.next_epoch_due(self.runtime.now):
            self._start_epoch_transition(self.config.reconfiguration_strategy,
                                         None, None,
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
        for cluster in self.shards.values():
            cluster.prepare_for_membership_change()
        # Randomness generation is part of the transition window: the first
        # swap batch starts once the beacon's rnd is locked in.
        self.runtime.schedule(beacon.elapsed_seconds, self._run_migration_step,
                          transition, 0)

    def _run_migration_step(self, transition: _ActiveTransition, index: int) -> None:
        """Execute one swap batch; reschedules itself until the plan is done."""
        plan = transition.plan
        if index >= plan.num_steps:
            self._complete_transition(transition)
            return
        max_transfer = 0.0
        for logical in sorted(plan.nodes_in_step(index)):
            max_transfer = max(max_transfer, self._migrate_node(transition, logical))
            transition.stats.nodes_moved += 1
        self._record_membership_margins(transition.stats)
        # The next batch never starts before this batch's transfers finish,
        # so concurrent absences stay bounded by the batch size.
        delay = (max(transition.batch_interval, max_transfer)
                 if index + 1 < plan.num_steps else max_transfer)
        self.runtime.schedule(delay, self._run_migration_step, transition, index + 1)

    def _migrate_node(self, transition: _ActiveTransition, logical: int) -> float:
        """One node leaves its old committee and joins its new one.

        Returns the modelled state-transfer delay after which the new member
        activates (starts serving in the destination committee).
        """
        old_shard = transition.old_map[logical]
        new_shard = transition.new_map[logical]
        source_cluster = self.shards[old_shard]
        dest_cluster = self.shards[new_shard]
        transfer = transition.transfer_override
        if transfer is None:
            transfer = state_transfer_seconds(
                self._shard_state_bytes(dest_cluster),
                bandwidth_bps=self.config.state_bandwidth_bps)
        if self.adversary is not None:
            # Corruption follows the logical node: the strategy must know the
            # joiner's id before admit_member constructs the replica.
            self.adversary.on_migrate(logical, self._replica_of[logical],
                                      source_cluster, dest_cluster)
        source_cluster.remove_member(self._replica_of[logical])
        new_physical = dest_cluster.admit_member()
        self._replica_of[logical] = new_physical
        self.runtime.schedule(transfer, dest_cluster.activate_member, new_physical)
        return transfer

    @staticmethod
    def _shard_state_bytes(cluster: ConsensusCluster) -> int:
        """The destination shard's state size, as a joining node would fetch it.

        Sized from the same member the joiner will install from (including
        the escrowed state of a fully-replaced committee), so a swap-all
        replacement never sees an empty fresh joiner and concludes the
        transfer is free.
        """
        source = cluster.state_source_replica()
        return source.state.size_bytes() if source is not None else 0

    def _record_membership_margins(self, stats: EpochTransitionStats) -> None:
        """Sample each committee's active-members-minus-quorum margin."""
        for shard_id, cluster in self.shards.items():
            if not cluster.replicas:
                continue
            margin = (len(cluster.active_replicas())
                      - cluster.config.quorum_size(len(cluster.replicas)))
            previous = stats.min_active_margin.get(shard_id)
            if previous is None or margin < previous:
                stats.min_active_margin[shard_id] = margin

    def _complete_transition(self, transition: _ActiveTransition) -> None:
        self.epochs.complete_transition(self.runtime.now)
        transition.stats.completed_at = self.runtime.now
        self.reconfigurations_completed += 1
        self._active_transition = None
        if self.analytics is not None:
            # The single wiring point (shared with the scale-out engine) that
            # materializes a finished transition's quorum margins.
            self.analytics.record_epoch_transition(
                transition.stats.epoch, transition.stats.strategy,
                transition.stats.min_active_margin)

    def throughput_over_time(self, bucket_seconds: float = 5.0) -> List[tuple]:
        """Committed-transaction rate over time, aggregated across shards."""
        commits: List[tuple] = []
        for record in self.coordinator.records.values():
            if record.outcome is DistributedTxOutcome.COMMITTED and record.completed_at is not None:
                commits.append((record.completed_at, 1.0))
        from repro.sim.monitor import TimeSeries
        series = TimeSeries.from_samples("commits", commits)
        return series.bucketed_rate(bucket_seconds, until=self.runtime.now)
