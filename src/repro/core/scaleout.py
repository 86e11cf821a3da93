"""Partitions and their executors: where the sharded engine's work runs.

The paper's own structure makes the cut: committees only interact through
the coordination layer, never directly.  So the one engine
(:class:`~repro.core.system.ShardedBlockchain`) is a set of partitions plus
a thin parent, and this module is the partitions and what drains them —
inline in the caller's process, or spread over worker processes, with
bit-identical outcomes either way.

Two-tier architecture
---------------------
* Each shard committee is a :class:`ShardPartition`: its own
  :class:`~repro.sim.simulator.Simulator`, :class:`~repro.sim.network.Network`
  (and therefore its own jitter RNG stream), replicas, chaincode state —
  **and** its share of the coordination layer.  Every cross-shard
  transaction has a deterministic *home partition*
  (:func:`repro.core.homecoord.home_shard` — its first participating shard)
  whose :class:`~repro.core.homecoord.HomeCoordinator` runs the full 2PC
  state machine for it; every partition also plays the participant role
  (local lock admission, prepare/decision execution, voting) for other
  homes' transactions.  The reference committee is partition
  ``REFERENCE_SHARD_ID``, scheduled like any shard.
* Workload generation is in-partition too: each partition draws its own
  stream from a ``(seed, shard_id)`` split and keeps exactly the draws
  whose first key it owns, so the arrival process never touches the parent.
* The parent is a thin barrier orchestrator: it merges window outputs,
  runs the epoch control machinery, forwards API-submitted transactions to
  their homes, and gives the auditor access.

Execution model (conservative synchronous PDES)
-----------------------------------------------
Every cross-partition interaction — votes, decisions, re-drives, client
handoffs, reference receipts, parent control — pays at least
``config.relay_delay`` before the destination acts.  ``relay_delay`` is
therefore a *lookahead*: within a window of that length no partition can
affect another's present, so windows can be executed independently.  The
barrier loop alternates strictly: partitions drain window
``(T, T+relay_delay]`` first (all inbound cross-partition commands
injected at the window start, sorted by the canonical ``(due, src, seq)``
order), then their parent-facing outputs are injected into the parent
sorted by ``(time, shard, seq)``, then the parent drains the same window.
Commands between partitions are exchanged as one batched
:class:`~repro.core.homecoord.WindowBlock` /
:class:`~repro.core.homecoord.WindowResult` exchange per worker per window,
in the primitive form of the :mod:`repro.codec` wire codec (no class is
pickled on the pipe) —
commands held by a worker for its own partitions never leave the process,
but they are *also* only injected at the next window start, so grouping
cannot change injection timing.

Executors
---------
:class:`_PartitionGroup` drains a fixed set of partitions serially in shard
order.  Inline (``workers`` ``None`` or ``1``) one group holds every
partition in the caller's process — the mode in which the replicas are
reachable (``system.shards``, the :class:`~repro.audit.auditor.SafetyAuditor`).
:class:`_ProcessExecutor` (``workers=N``) forks N persistent worker
processes, each serving one group chosen by
:func:`~repro.core.homecoord.assign_partitions` (deterministic load-aware
LPT).  Because partitions are self-contained and all cross-partition effects
are window-batched, the grouping cannot affect outcomes.  Each partition
additionally owns a disjoint transaction-id stream swapped into the
process-global counter around its windows, so even transaction *ids* are
grouping-invariant.

A third drain needs no windows: a live shard process
(:class:`repro.service.shardnode.LivePartition`) runs one partition on the
wall clock, with ``relay_delay`` 0 and each command one socket frame.

Epoch transitions and the adversary cross partition boundaries, so they are
decomposed into partition-local control operations: membership removal runs
on the source partition, admission (including the budget-checked corruption
decision, the state-transfer sizing and the activation timer) on the
destination partition, with reports flowing back to the parent to pace the
next swap batch.  The TEE rollback is armed directly on the partition that
owns the victim shard.

Consequences of the cut: waits-for cycles that span shards are invisible to
any single partition's deadlock detector and resolve through the wait
timeout (per-shard cycles are still detected); wound-wait ages are
``(started_at, begin_seq, home_shard)`` tuples because ``begin_seq`` is only
per-home unique; and a reference-committee round trip pays two relay hops
(home -> reference -> home).
"""

from __future__ import annotations

import itertools
import multiprocessing
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.codec import decode, encode
from repro.core.adversary import AdversaryState
from repro.core.config import ShardedSystemConfig
from repro.core.homecoord import (
    AdmitReport,
    Command,
    HomeCoordinator,
    MarginReport,
    PartitionDriver,
    TxDone,
    WindowBlock,
    WindowResult,
    assign_partitions,
    group_by_dest,
    home_shard,
    inbound_sort_key,
    partition_stream_seed,
    partition_tx_counter,
)
from repro.core.splitters import REFERENCE_SHARD_ID, build_committee
from repro.errors import SimulationError
from repro.ledger.transaction import Transaction, swap_tx_counter
from repro.runtime.base import Runtime
from repro.sharding.assignment import assign_committees
from repro.sharding.reconfiguration import state_transfer_seconds
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.txn.coordinator import (
    CoordinatorStats,
    DistributedTxOutcome,
    DistributedTxRecord,
)
from repro.workloads import vectorized


class ShardPartition:
    """One partition's self-contained sub-simulation (runs wherever its worker is).

    A normal shard partition owns its committee's consensus plus both
    coordination roles (home and participant, via
    :class:`~repro.core.homecoord.HomeCoordinator`) and its split of every
    open-loop driver.  The ``REFERENCE_SHARD_ID`` partition instead runs the
    reference committee's cluster and serves ``ref_submit`` commands from
    the homes.

    By default the partition builds its own :class:`Simulator`, ``sim``,
    and :class:`Network` and is drained window by window: :meth:`inject`,
    :meth:`run_window` and :meth:`summary` belong to that windowed drain and
    read ``sim``; everything else schedules through ``runtime``.  A live
    shard process (:class:`repro.service.shardnode.LivePartition`) passes
    its wall clock and socket network instead, never calls the window
    methods, and overrides the three transport points: :meth:`_send`
    (commands to other partitions), :meth:`_output` (reports to the parent)
    and :meth:`hand_to_committee`.
    """

    def __init__(self, config: ShardedSystemConfig, shard_id: int,
                 runtime: Optional[Runtime] = None,
                 network: Optional[Network] = None) -> None:
        self.config = config
        self.shard_id = shard_id
        self.is_reference = shard_id == REFERENCE_SHARD_ID
        if runtime is None:
            #: The simulator the harness drains window by window.
            self.sim = Simulator(seed=partition_stream_seed(config.seed, shard_id))
            runtime, network = self.sim, Network(self.sim)
        #: What the in-partition protocol code (home coordinator, drivers)
        #: schedules through.
        self.runtime = runtime
        self.network = network
        self.current_epoch = 0
        self._tx_counter = partition_tx_counter(shard_id)
        # The committee assignment and the adversary placement are pure
        # functions of the config, so every partition recomputes them and
        # agrees with every other (and the parent) without state shipping.
        self.adversary: Optional[AdversaryState] = None
        if config.adversary is not None:
            self.adversary = AdversaryState.place(config, assign_committees(
                list(range(config.total_nodes)), config.num_shards,
                seed=config.seed))
        self.cluster = build_committee(config, shard_id, self.runtime,
                                       self.network, self.adversary)
        self._outbox: List[Any] = []
        self._routed: List[Command] = []
        self._outseq = itertools.count()
        self._watchers: Dict[str, Callable[[Any], None]] = {}
        self.drivers: Dict[int, PartitionDriver] = {}
        self.cluster.subscribe_commits(self._on_commit)
        if self.is_reference:
            self.home: Optional[HomeCoordinator] = None
            self._reply_to: Dict[str, int] = {}
        else:
            self.home = HomeCoordinator(self)
            self._remote_inflight: Dict[str, PartitionDriver] = {}
            if (self.adversary is not None
                    and self.adversary.config.tee_rollback_shard == shard_id):
                self.adversary.arm_cluster(self.runtime, self.cluster)

    def add_driver(self, index: int, spec: Dict[str, Any]) -> None:
        """Attach (and start) this partition's split of driver ``index``."""
        driver = PartitionDriver(self, index, spec)
        self.drivers[index] = driver
        self.runtime.schedule(0.0, driver.tick)

    # ------------------------------------------- surface used by HomeCoordinator
    def route(self, command: Command) -> None:
        """Send a coordination command; self-targets never leave the partition."""
        if command.dest == self.shard_id:
            self.runtime.schedule_at(command.due, self.apply, command)
            return
        command.src = self.shard_id
        command.seq = next(self._outseq)
        self._send(command)

    def _send(self, command: Command) -> None:
        """A command for another partition: held for the next window."""
        self._routed.append(command)

    def _output(self, report: Any) -> None:
        """A report for the parent: returned with this window's outputs."""
        self._outbox.append(report)

    def hand_to_committee(self, transactions: List[Transaction], attempt: int) -> None:
        """Submit ``transactions`` to this partition's committee as one request."""
        self.cluster.submit(transactions, attempt=attempt)

    def watch(self, tx_id: str, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback`` with the receipt when ``tx_id`` commits locally."""
        self._watchers[tx_id] = callback

    def emit_tx_done(self, record: DistributedTxRecord) -> None:
        """Report a parent-submitted transaction's completion upward."""
        self._output(TxDone(
            time=self.runtime.now, shard=self.shard_id, seq=next(self._outseq),
            tx_id=record.tx_id,
            committed=record.outcome is DistributedTxOutcome.COMMITTED,
            abort_reason=record.abort_reason, started_at=record.started_at,
            decided_at=record.decided_at, completed_at=record.completed_at))

    def submit_from_driver(self, tx: Transaction, driver: PartitionDriver) -> None:
        """Route a locally generated arrival to its home partition."""
        shards = self.home.shards_for_transaction(tx)
        home = home_shard(shards)
        if home == self.shard_id:
            self.home.submit_transaction(tx, on_complete=driver.on_local_complete)
            return
        self._remote_inflight[tx.tx_id] = driver
        self.route(Command(due=self.runtime.now + self.config.relay_delay,
                           dest=home, op="client", txs=(tx,),
                           tx_id=tx.tx_id, origin=self.shard_id))

    # --------------------------------------------------------------- capture
    def _on_commit(self, event: Any) -> None:
        for receipt in event.receipts:
            if self.is_reference:
                reply_to = self._reply_to.pop(receipt.tx_id, None)
                if reply_to is not None:
                    self.route(Command(
                        due=self.runtime.now + self.config.relay_delay,
                        dest=reply_to, op="ref_receipt", tx_id=receipt.tx_id,
                        receipt=receipt))
                continue
            watcher = self._watchers.pop(receipt.tx_id, None)
            if watcher is not None:
                watcher(receipt)

    # --------------------------------------------------------------- running
    def inject(self, commands: List[Command]) -> None:
        """Schedule inbound cross-partition commands at their exact due times.

        The caller injects them in the canonical ``(due, src, seq)`` order,
        which is the tie-break among same-time commands — so the apply order
        is worker-count-invariant.
        """
        for command in commands:
            self.sim.schedule_at(command.due, self.apply, command)

    def run_window(self, until: float, epoch: int) -> Tuple[List[Any], List[Command]]:
        """Drain events up to ``until``; return (parent outputs, routed commands).

        The partition's disjoint transaction-id stream is swapped into the
        process-global counter for the duration, so every id created here —
        driver arrivals, splitter prepares/decisions, reference votes —
        depends only on this partition's own history.  A partition with
        nothing due inside the window (most windows, for most partitions)
        only moves its clock.
        """
        self.current_epoch = epoch
        next_time = self.sim.next_event_time()
        if next_time is not None and next_time <= until:
            previous = swap_tx_counter(self._tx_counter)
            try:
                self.sim.run(until=until)
            finally:
                self._tx_counter = swap_tx_counter(previous)
        self.sim.advance_clock(until)
        out, self._outbox = self._outbox, []
        routed, self._routed = self._routed, []
        return out, routed

    def apply(self, command: Command) -> None:
        """Carry out one command addressed to this partition."""
        op = command.op
        if op == "prepare2pc":
            self.home.handle_prepare(command)
        elif op == "vote":
            self.home.handle_vote(command)
        elif op == "decision":
            self.home.handle_decision(command)
        elif op == "ack":
            self.home.handle_ack(command)
        elif op == "client":
            self.home.handle_client(command)
        elif op == "client_done":
            driver = self._remote_inflight.pop(command.tx_id)
            driver.on_remote_done(command)
        elif op == "ref_submit":
            tx = command.txs[0]
            self._reply_to[tx.tx_id] = command.reply_to
            self.hand_to_committee([tx], command.attempt)
        elif op == "ref_receipt":
            self.home.handle_ref_receipt(command)
        elif op == "remove":
            if self.adversary is not None:
                self.adversary.retire_physical(self.cluster, command.node_id)
            self.cluster.remove_member(command.node_id)
        elif op == "admit":
            self._apply_admit(command)
        elif op == "margin":
            if self.cluster.replicas:
                self._output(MarginReport(
                    time=self.runtime.now, shard=self.shard_id,
                    seq=next(self._outseq), marker=command.marker,
                    margin=self.cluster.quorum_margin()))
        elif op == "prepare":
            self.cluster.prepare_for_membership_change()
        elif op == "track":
            self.cluster.enable_request_tracking()
        else:  # pragma: no cover - protocol bug guard
            raise SimulationError(f"unknown partition op {op!r}")

    def _apply_admit(self, command: Command) -> None:
        """Admit a migrating joiner: corruption decision, sizing, activation.

        Mirrors the legacy ``_migrate_node`` destination half exactly: the
        corruption decision precedes ``admit_member`` (replicas snapshot
        their strategy at construction), the transfer is sized from this
        cluster's own state source, and activation is a local timer.
        """
        if self.adversary is not None:
            self.adversary.corrupt_joiner_if_budget(command.logical, self.cluster)
        node_id = self.cluster.admit_member()
        if node_id != command.node_id:
            raise SimulationError(
                f"scale-out desync: shard {self.shard_id} admitted {node_id}, "
                f"parent predicted {command.node_id}")
        transfer = command.transfer_override
        if transfer is None:
            source = self.cluster.state_source_replica()
            state_bytes = source.state.size_bytes() if source is not None else 0
            transfer = state_transfer_seconds(
                state_bytes, bandwidth_bps=self.config.state_bandwidth_bps)
        self.runtime.schedule(transfer, self.cluster.activate_member, node_id)
        self._output(AdmitReport(
            time=self.runtime.now, shard=self.shard_id, seq=next(self._outseq),
            marker=command.marker, node_id=node_id, transfer=transfer))

    # --------------------------------------------------------------- summary
    def summary(self) -> Dict[str, int]:
        counters = {
            "committed": self.cluster.honest_observer().committed_transactions(),
            "view_changes": int(self.cluster.monitor.counter_value(
                f"view_changes.shard{self.shard_id}")),
            "pending_events": self.sim.pending_events,
            "events": self.sim.events_processed,
            "degraded_observer_reads": self.cluster.degraded_observer_reads,
        }
        if self.home is not None:
            table = self.home.admission  # None under the "abort" policy
            counters["wounded"] = table.wounded_transactions if table else 0
            counters["deadlocks"] = table.deadlocks_detected if table else 0
            counters["wait_timeouts"] = table.wait_timeouts if table else 0
        if self.adversary is not None:
            counters["migrated_corruptions"] = self.adversary.migrated_corruptions
            counters["suppressed_corruptions"] = self.adversary.suppressed_corruptions
            counters["rollback_events"] = len(self.adversary.rollback_status())
            counters["rollbacks_completed"] = sum(
                1 for event in self.adversary.rollback_events if event.completed)
        return counters

    def coordination_stats(self) -> Optional[CoordinatorStats]:
        return self.home.coordinator.stats if self.home is not None else None

    def driver_stats(self) -> Dict[int, Any]:
        return {index: driver.stats for index, driver in self.drivers.items()}

    def commit_times(self) -> List[float]:
        """Completion times of the committed transactions homed here
        (those whose records are retained)."""
        if self.home is None:
            return []
        return [record.completed_at
                for record in self.home.coordinator.records.values()
                if record.outcome is DistributedTxOutcome.COMMITTED
                and record.completed_at is not None]


# --------------------------------------------------------------------------
# Partition groups and executors.
# --------------------------------------------------------------------------

class _PartitionGroup:
    """A fixed set of partitions drained together, serially in shard order:
    all of them in this process (inline mode, where the group is the
    executor itself) or one group per worker process.

    Commands routed between two partitions of the same group are *held*
    locally instead of travelling through the parent — but they are still
    only injected at the next window start, in the same canonical order
    they would arrive in from the parent, so grouping cannot change what
    any partition observes.
    """

    def __init__(self, config: ShardedSystemConfig, shard_ids: List[int]) -> None:
        self.shard_ids = sorted(shard_ids)
        self.partitions = {shard_id: ShardPartition(config, shard_id)
                           for shard_id in self.shard_ids}
        self._held: List[Command] = []

    def call(self, method: str, *args: Any) -> List[Any]:
        """Executor surface: one reply per group (here, this one)."""
        return [getattr(self, method)(*args)]

    def add_driver(self, index: int, spec: Dict[str, Any]) -> None:
        for shard_id in self.shard_ids:
            partition = self.partitions[shard_id]
            if not partition.is_reference:
                partition.add_driver(index, spec)

    def run_window(self, block: WindowBlock) -> WindowResult:
        inbound = sorted(list(block.commands) + self._held, key=inbound_sort_key)
        self._held = []
        by_dest = group_by_dest(inbound)
        for shard_id in self.shard_ids:
            commands = by_dest.pop(shard_id, None)
            if commands:
                self.partitions[shard_id].inject(commands)
        if by_dest:  # pragma: no cover - protocol bug guard
            raise SimulationError(
                f"commands for partitions {sorted(by_dest)} delivered to a "
                f"group owning {self.shard_ids}")
        outputs: List[Any] = []
        routed_out: List[Command] = []
        for shard_id in self.shard_ids:
            out, routed = self.partitions[shard_id].run_window(
                block.until, block.epoch)
            outputs.extend(out)
            for command in routed:
                if command.dest in self.partitions:
                    self._held.append(command)
                else:
                    routed_out.append(command)
        return WindowResult(outputs=tuple(outputs), routed=tuple(routed_out))

    def gather(self, method: str) -> Dict[int, Any]:
        """Every partition's ``method()`` answer, by shard id."""
        return {shard_id: getattr(self.partitions[shard_id], method)()
                for shard_id in self.shard_ids}

    def pending_events(self) -> int:
        return (sum(p.sim.pending_events for p in self.partitions.values())
                + len(self._held))

    def close(self) -> None:
        """Nothing to release: the partitions live in this process."""


def _worker_main(conn: Any, config: ShardedSystemConfig,
                 shard_ids: List[int]) -> None:
    """Worker process loop: build the owned partition group, then answer
    ``(method, args)`` requests with ``group.method(*args)`` until "stop".
    Arguments and replies cross the pipe in the codec's primitive form."""
    group = _PartitionGroup(config, shard_ids)
    try:
        while True:
            method, args = conn.recv()
            if method == "stop":
                conn.send(None)
                return
            conn.send(encode(getattr(group, method)(*decode(args))))
    except EOFError:  # parent went away; nothing useful left to do
        return


@dataclass
class _WorkerHandle:
    process: Any
    conn: Any
    owned: List[int]


class _ProcessExecutor:
    """Partitions spread over persistent worker processes.

    Grouping comes from :func:`~repro.core.homecoord.assign_partitions`
    (load-aware LPT by default).  Every request is the same RPC — send
    ``(method, args)`` to each worker, read one reply from each — and a
    worker that dies is detected by polling its liveness while waiting for
    the reply, so a crash raises a clear error naming the lost partitions
    instead of hanging on a pipe.
    """

    def __init__(self, config: ShardedSystemConfig, shard_ids: List[int],
                 workers: int) -> None:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = multiprocessing.get_context()
        # Workers inherit numpy from the fork instead of each importing it
        # on its first block draw, inside a timed window.
        vectorized.numpy_available()
        self._workers: List[_WorkerHandle] = []
        for owned in assign_partitions(shard_ids, workers, config):
            if not owned:
                continue
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(target=_worker_main,
                                  args=(child_conn, config, owned),
                                  daemon=True)
            process.start()
            child_conn.close()
            self._workers.append(_WorkerHandle(process, parent_conn, owned))
        self._closed = False

    def _send(self, handle: _WorkerHandle, method: str, *args: Any) -> None:
        try:
            handle.conn.send((method, encode(args)))
        except (OSError, ValueError) as exc:
            raise SimulationError(
                f"scale-out worker owning partitions {handle.owned} is gone "
                f"(exit code {handle.process.exitcode}); cannot send "
                f"{method!r}") from exc

    def _recv(self, handle: _WorkerHandle) -> Any:
        try:
            while not handle.conn.poll(0.25):
                if not handle.process.is_alive():
                    raise SimulationError(
                        f"scale-out worker owning partitions {handle.owned} "
                        f"died mid-run (exit code {handle.process.exitcode}; "
                        "see its stderr)")
            return decode(handle.conn.recv())
        except EOFError as exc:
            raise SimulationError(
                f"scale-out worker owning partitions {handle.owned} closed "
                "its pipe mid-run (see its stderr)") from exc

    def call(self, method: str, *args: Any) -> List[Any]:
        """``group.method(*args)`` on every worker; one reply per worker."""
        for handle in self._workers:
            self._send(handle, method, *args)
        return [self._recv(handle) for handle in self._workers]

    def run_window(self, block: WindowBlock) -> WindowResult:
        by_dest = group_by_dest(block.commands)
        for handle in self._workers:
            commands: List[Command] = []
            for shard_id in handle.owned:
                commands.extend(by_dest.pop(shard_id, ()))
            self._send(handle, "run_window", WindowBlock(
                until=block.until, epoch=block.epoch,
                commands=tuple(commands)))
        if by_dest:  # pragma: no cover - protocol bug guard
            raise SimulationError(
                f"commands for unowned partitions {sorted(by_dest)}")
        outputs: List[Any] = []
        routed: List[Command] = []
        for handle in self._workers:
            result = self._recv(handle)
            outputs.extend(result.outputs)
            routed.extend(result.routed)
        return WindowResult(outputs=tuple(outputs), routed=tuple(routed))

    def close(self) -> None:
        """Stop the workers; join with a timeout and terminate stragglers."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            try:
                self._send(handle, "stop")
                self._recv(handle)
            except SimulationError:
                pass
            handle.conn.close()
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=5.0)
