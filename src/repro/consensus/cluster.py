"""Single-committee harness: build a cluster, drive it with clients, measure.

This module glues one committee's replicas, a network, and client drivers
together, and is the workhorse behind the consensus experiments (Figures 2,
8, 9, 10, 15, 16, 17, 19, 20).

Determinism note: detlint-verified clean — every fan-out path here is
list-based (member rosters, commit subscribers) and set state is
membership-only; the seed-sweep differential suite pins the fingerprints.

Committees are *reconfigurable*: the epoch lifecycle of the sharded system
moves members between committees at epoch boundaries through
:meth:`ConsensusCluster.remove_member` (graceful leave: queued sends flush
and the unproposed backlog is handed to the remaining members),
:meth:`ConsensusCluster.admit_member` (the new epoch's membership is fixed
at the boundary; the joiner counts against the quorum while it fetches
state) and :meth:`ConsensusCluster.activate_member` (state transfer done:
the member adopts the world state and in-flight log tail and starts
serving).  ``has_quorum`` exposes the quorum-aware pause signal: a committee
whose active members fall below the quorum cannot commit and stalls until
activations restore it (``submit`` additionally parks requests while *no*
member is active).  Until the first membership change every path is
bit-identical to the fixed-membership seed cluster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.consensus.ahl import AhlReplica, ahl_config
from repro.consensus.ahl_plus import AhlPlusReplica, ahl_plus_config, ahl_opt1_config
from repro.consensus.ahlr import AhlrReplica, ahlr_config
from repro.consensus.base import CommitEvent, ConsensusConfig, ConsensusReplica
from repro.consensus.ibft import IbftReplica, ibft_config
from repro.consensus.messages import KIND_REQUEST, ClientRequest
from repro.consensus.pbft import PbftReplica, pbft_config
from repro.consensus.raft import RaftReplica, raft_config
from repro.consensus.tendermint import TendermintReplica, tendermint_config
from repro.errors import ConfigurationError
from repro.ledger.chaincode import Chaincode, ChaincodeRegistry
from repro.ledger.state import StateStore
from repro.ledger.transaction import Transaction
from repro.sim.latency import LanLatencyModel, LatencyModel, assign_regions_round_robin
from repro.sim.monitor import Monitor
from repro.runtime.base import Runtime
from repro.sim.network import Message, Network, REQUEST_CHANNEL
from repro.sim.node import SimProcess
from repro.sim.simulator import Simulator

def member_node_id(shard_id: int, slot: int) -> int:
    """Physical node id of a committee's ``slot``-th member (slots never reused).

    The single definition of the cluster's id scheme — the adversary engine
    must predict joiners' ids before their replicas exist, so every site
    (construction, admission, prediction) shares this formula.
    """
    return shard_id * 10_000 + slot


#: Registry of protocol name -> (replica class, default-config factory).
PROTOCOLS: Dict[str, tuple] = {
    "HL": (PbftReplica, pbft_config),
    "AHL": (AhlReplica, ahl_config),
    "AHL+": (AhlPlusReplica, ahl_plus_config),
    "AHL+op1": (AhlPlusReplica, ahl_opt1_config),
    "AHLR": (AhlrReplica, ahlr_config),
    "Tendermint": (TendermintReplica, tendermint_config),
    "IBFT": (IbftReplica, ibft_config),
    "Raft": (RaftReplica, raft_config),
}


class NoopChaincode(Chaincode):
    """A trivial chaincode that writes each argument key (default workload)."""

    name = "noop"

    def invoke(self, state: StateStore, function: str, args: Dict[str, Any]) -> Any:
        for key in args.get("keys", ()):
            state.put(key, args.get("value", 1))
        return {"ok": True}

    def keys_touched(self, function: str, args: Dict[str, Any]):
        return tuple(args.get("keys", ()))


def default_tx_factory(client_id: str, now: float, rng, count: int) -> List[Transaction]:
    """Produce ``count`` no-op transactions, each touching one random key."""
    chaincode = NoopChaincode()
    return [
        chaincode.new_transaction(
            "write",
            {"keys": (f"key-{rng.randrange(100000)}",), "value": rng.randrange(1000)},
            client_id=client_id,
            submitted_at=now,
        )
        for _ in range(count)
    ]


class OpenLoopClient(SimProcess):
    """A BLOCKBENCH-style open-loop client: submits at a fixed rate regardless of completion."""

    def __init__(self, node_id: int, sim: Runtime, network: Network,
                 targets: Sequence[int], rate_tps: float, batch_size: int = 10,
                 tx_factory: Optional[Callable] = None, region: str = "local",
                 stop_at: Optional[float] = None) -> None:
        super().__init__(node_id, sim, network, region=region)
        if rate_tps <= 0 or batch_size <= 0:
            raise ConfigurationError("client rate and batch size must be positive")
        self.targets = list(targets)
        self.rate_tps = rate_tps
        self.batch_size = batch_size
        self.tx_factory = tx_factory or default_tx_factory
        self.stop_at = stop_at
        self.requests_sent = 0
        self.transactions_sent = 0
        self._rng = self.runtime.fork_rng(f"client-{node_id}")
        self._request_counter = itertools.count()

    def start(self) -> None:
        self.runtime.spawn(self._tick)

    def _tick(self) -> None:
        if self.stop_at is not None and self.runtime.now >= self.stop_at:
            return
        transactions = self.tx_factory(f"client-{self.node_id}", self.runtime.now,
                                       self._rng, self.batch_size)
        request = ClientRequest(
            client_id=f"client-{self.node_id}",
            request_id=next(self._request_counter),
            transactions=tuple(transactions),
            submitted_at=self.runtime.now,
        )
        target = self.targets[self._rng.randrange(len(self.targets))]
        message = Message(
            sender=self.node_id, kind=KIND_REQUEST, payload=request,
            size_bytes=512 * len(transactions), channel=REQUEST_CHANNEL,
        )
        self.send(target, message)
        self.requests_sent += 1
        self.transactions_sent += len(transactions)
        interval = self.batch_size / self.rate_tps
        self.runtime.schedule(interval, self._tick)

    def handle_message(self, message: Message) -> None:
        """Open-loop clients ignore replies."""


@dataclass
class ClusterRunResult:
    """Summary statistics of one cluster run."""

    protocol: str
    n: int
    duration: float
    committed_transactions: int
    throughput_tps: float
    avg_latency: float
    p95_latency: float
    view_changes: int
    messages_sent: int
    messages_dropped: int
    queue_drops: int
    blocks_committed: int
    execution_cost_mean: float = 0.0


class ConsensusCluster:
    """One committee of ``n`` replicas running a chosen protocol, plus clients.

    ``runtime`` is the :class:`~repro.sim.simulator.Simulator` or the
    wall-clock runtime everything schedules on; ``None`` builds a fresh
    simulator seeded with ``seed``.  ``network`` defaults to a
    :class:`~repro.sim.network.Network` on that runtime under
    ``latency_model``.
    """

    def __init__(self, protocol: str, n: int,
                 latency_model: Optional[LatencyModel] = None,
                 regions: Optional[Sequence[str]] = None,
                 config_overrides: Optional[Dict[str, Any]] = None,
                 registry_factory: Optional[Callable[[], ChaincodeRegistry]] = None,
                 byzantine: Optional[Any] = None,
                 seed: int = 0,
                 shard_id: int = 0,
                 network: Optional[Network] = None,
                 max_series_samples: Optional[int] = None,
                 runtime: Optional[Runtime] = None) -> None:
        if protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {protocol!r}; available: {sorted(PROTOCOLS)}"
            )
        if n < 1:
            raise ConfigurationError("committee size must be at least 1")
        replica_cls, config_factory = PROTOCOLS[protocol]
        self.protocol = protocol
        self.n = n
        # The scheduling substrate: the given runtime (a simulator, or a
        # wall-clock runtime in service mode) or a fresh simulator.
        # ``self.sim`` is the same simulator (None under a real clock)
        # because harnesses and tests drive it directly.
        self.runtime = runtime if runtime is not None else Simulator(seed=seed)
        self.sim = self.runtime if self.runtime.is_simulated else None
        self.network = network or Network(self.runtime, latency_model or LanLatencyModel())
        # ``max_series_samples`` bounds every per-commit metric series
        # (streaming count/sum + reservoir percentiles) for long runs.
        self.monitor = Monitor(max_samples=max_series_samples)
        self.config: ConsensusConfig = config_factory(**(config_overrides or {}))
        self.byzantine = byzantine
        self.shard_id = shard_id
        self._replica_cls = replica_cls
        self._registry_factory = registry_factory or self._default_registry
        self._regions = list(regions) if regions else None

        node_ids = [member_node_id(shard_id, slot) for slot in range(n)]
        if regions:
            region_map = assign_regions_round_robin(node_ids, list(regions))
            self._client_region = list(regions)[0]
        else:
            region_map = {node_id: "local" for node_id in node_ids}
            self._client_region = "local"

        self.replicas: List[ConsensusReplica] = []
        for node_id in node_ids:
            replica = replica_cls(
                node_id=node_id, sim=self.runtime, network=self.network,
                committee=node_ids, config=self.config,
                registry=self._registry_factory(), monitor=self.monitor,
                region=region_map[node_id], shard_id=shard_id, byzantine=byzantine,
            )
            self.replicas.append(replica)
        self.clients: List[SimProcess] = []
        self._client_id_counter = itertools.count(1_000_000 + shard_id * 1_000)
        #: Next member slot for replicas joining at an epoch boundary; slots
        #: (and hence node ids) are never reused.
        self._next_member_slot = n
        #: Flips on the first leave/join.  Until then every path below is
        #: bit-identical to the fixed-membership cluster (the no-epoch runs).
        self._membership_changed = False
        #: Client requests parked while no active member can take them (only
        #: possible mid-transition); flushed when a member activates.
        self._parked_requests: List[Tuple[Transaction, ...]] = []
        #: Committee-level commit subscriptions (see ``subscribe_commits``),
        #: the member relaying them pre-change, and the members already
        #: carrying the full callback set after the fan-out.
        self._commit_callbacks: List[Callable[[CommitEvent], None]] = []
        self._commit_observer: Optional[ConsensusReplica] = None
        self._fanout_subscribed: set[int] = set()
        #: Members admitted but still fetching state (mirrors each member's
        #: ``syncing_members`` view of the coordinated transition).
        self._syncing: set[int] = set()
        #: Most advanced member that departed — the state provider of last
        #: resort when a whole committee is replaced at once (swap-all): a
        #: real outgoing committee serves its state to the incoming one, so
        #: joiners with no active peer install from the departed state.
        self._state_escrow: Optional[ConsensusReplica] = None
        #: Times ``honest_observer`` had to fall back to a non-honest or
        #: crashed member because no live honest replica existed (see its
        #: docstring); surfaced so result consumers know the committee's
        #: metrics passed through an untrusted reporter.
        self.degraded_observer_reads = 0
        #: Callbacks invoked with each replica admitted at an epoch boundary
        #: (the safety auditor uses this to start observing joiners).
        self._member_admitted_callbacks: List[Callable[[ConsensusReplica], None]] = []

    @staticmethod
    def _default_registry() -> ChaincodeRegistry:
        registry = ChaincodeRegistry()
        registry.register(NoopChaincode())
        return registry

    # ------------------------------------------------------------------ nodes
    @property
    def committee(self) -> List[int]:
        return [replica.node_id for replica in self.replicas]

    def replica_by_id(self, node_id: int) -> ConsensusReplica:
        for replica in self.replicas:
            if replica.node_id == node_id:
                return replica
        raise ConfigurationError(f"no replica with id {node_id}")

    def honest_observer(self) -> ConsensusReplica:
        """An honest replica whose chain and metrics represent the committee.

        Prefers an honest replica that made the most progress: in overload
        scenarios individual replicas (typically the leader) can lag behind
        the committed prefix, and the committee's throughput is what a quorum
        achieved, not what the slowest member saw.

        When *no* honest replica is up (every honest member crashed or is
        mid-state-transfer), the read is **degraded**: it falls back to the
        most-progressed non-crashed member — Byzantine or not — rather than
        blindly to ``replicas[0]``, which could itself be crashed (reporting
        a frozen chain) or Byzantine (skewing committee metrics and routing
        ``leader()`` through the attacker).  Degraded reads are counted in
        ``degraded_observer_reads`` so harnesses can surface that the
        committee's metrics came from an untrusted or stalled member instead
        of silently folding them into the results.
        """
        honest = [r for r in self.replicas if r.byzantine is None and not r.crashed]
        if honest:
            return max(honest, key=lambda replica: (replica.last_executed, -replica.node_id))
        self.degraded_observer_reads += 1
        fallback = [r for r in self.replicas if not r.crashed] or self.replicas
        return max(fallback, key=lambda replica: (replica.last_executed, -replica.node_id))

    def leader(self) -> ConsensusReplica:
        observer = self.honest_observer()
        return self.replica_by_id(observer.leader_id())

    def subscribe_commits(self, callback: Callable[[CommitEvent], None]) -> None:
        """Subscribe to the *committee's* commits, surviving membership changes.

        On a fixed-membership cluster the callback is attached to one honest
        member — the same choice the seed made, so the default path is
        event-identical.  Once membership changes, subscriptions fan out to
        *every* member (see ``_enable_commit_fanout``): commit reporting then
        survives any member's departure, at the cost of duplicate events —
        which every committee-level consumer (receipt watchers, coordinator
        votes/acks) already treats idempotently.
        """
        self._commit_callbacks.append(callback)
        if self._membership_changed:
            for replica in self.replicas:
                replica.on_commit(callback)
            self._fanout_subscribed.update(r.node_id for r in self.replicas)
            return
        if self._commit_observer is None:
            self._commit_observer = self.honest_observer()
            self._fanout_subscribed.add(self._commit_observer.node_id)
        self._commit_observer.on_commit(callback)

    def _enable_commit_fanout(self) -> None:
        """Attach committee-level subscriptions to every member.

        A single observer is not enough once members migrate: the observer
        may depart while peers are already *ahead* of it, and the receipts
        of the blocks in that gap would never be reported — transactions
        would hang.  With the fan-out, any block executed by any member is
        reported at its first execution; duplicates are idempotent no-ops.
        """
        if not self._commit_callbacks:
            return
        for replica in self.replicas:
            if replica.node_id in self._fanout_subscribed:
                continue
            for callback in self._commit_callbacks:
                replica.on_commit(callback)
            self._fanout_subscribed.add(replica.node_id)

    def state_source_replica(self) -> Optional[ConsensusReplica]:
        """The member a joiner fetches state from (or sizes its fetch by).

        The most advanced active honest member; when every member is still
        syncing (a swap-all full replacement), the escrowed state of the
        most advanced *departed* member stands in — exactly what the
        outgoing committee serves to the incoming one in a real deployment.
        """
        candidates = [replica for replica in self.replicas
                      if not replica.crashed and replica.byzantine is None]
        if candidates:
            return max(candidates, key=lambda r: r.last_executed)
        return self._state_escrow

    def enable_request_tracking(self) -> None:
        """Track queued client requests for graceful hand-off.

        Called as soon as this committee may ever change membership (epochs
        armed, or an explicit reconfiguration scheduled), so that a member
        departing later can hand its still-queued requests to the remaining
        committee instead of stranding them.
        """
        for replica in self.replicas:
            replica.track_requests = True

    def prepare_for_membership_change(self) -> None:
        """A transition is about to execute: widen the commit reporting now.

        Fanning the subscriptions out *before* the first departure gives the
        single pre-change observer the whole beacon/migration lead time to
        report any blocks its faster peers executed pre-fan-out, closing the
        receipt gap that would otherwise open if the observer itself (often
        the loaded leader, which lags) were removed mid-catch-up.
        """
        self._membership_changed = True
        self.enable_request_tracking()
        self._enable_commit_fanout()

    # ---------------------------------------------------- membership changes
    def active_replicas(self) -> List[ConsensusReplica]:
        """Members currently serving (joined-but-still-transferring are not)."""
        return [replica for replica in self.replicas if not replica.crashed]

    # detlint: disable=DEAD001 -- oracle: epoch tests check Figure 12's swap keeps quorum
    def has_quorum(self) -> bool:
        """True when enough members are active to make progress.

        This is the quorum-aware pause signal of an epoch transition: while
        a committee lacks it (too many members absent fetching state — the
        swap-all regime) it cannot commit until activations restore the
        quorum; ``swap-batch`` keeps this True throughout by bounding
        concurrent absences to the fault tolerance.  The margins recorded in
        ``EpochTransitionStats.min_active_margin`` are the quantitative form
        of this signal.
        """
        if not self.replicas:
            return False
        return len(self.active_replicas()) >= self.config.quorum_size(len(self.replicas))

    def remove_member(self, node_id: int) -> ConsensusReplica:
        """A member leaves the committee for good (epoch transition).

        Every remaining member drops it from its committee list (shrinking
        the quorum denominator), and the departed replica stops processing
        and leaves the network.  If the departure handed leadership to
        another member, that member is nudged to propose the pending backlog
        instead of waiting for a view-change timeout.
        """
        replica = self.replica_by_id(node_id)
        self._membership_changed = True
        self.enable_request_tracking()
        self._enable_commit_fanout()
        self.replicas.remove(replica)
        replica.leave_committee()
        if (self._state_escrow is None
                or replica.last_executed >= self._state_escrow.last_executed):
            self._state_escrow = replica
        self._syncing.discard(node_id)
        for member in self.replicas:
            if node_id in member.committee:
                member.committee.remove(node_id)
            member.syncing_members.discard(node_id)
        # Hand off the departing member's unproposed backlog — accepted
        # transactions and queued client requests (clients would retry these
        # against the remaining committee); members that already hold a copy
        # dedup on their seen/committed id sets.
        orphaned = replica.handoff_backlog()
        if orphaned:
            self.submit(orphaned)
        for member in self.replicas:
            if not member.crashed and member.is_leader:
                self.runtime.spawn(member._maybe_propose)
                break
        return replica

    def next_member_id(self) -> int:
        """Node id the next :meth:`admit_member` call will assign.

        Exposed so callers that must act *before* the replica object exists —
        the adversary engine corrupts a joiner by adding its id to the shard
        strategy's corrupted set, which each replica consults once at
        construction — can know the id without reaching into the slot
        counter.
        """
        return member_node_id(self.shard_id, self._next_member_slot)

    def on_member_admitted(self, callback: Callable[[ConsensusReplica], None]) -> None:
        """Subscribe to future :meth:`admit_member` calls (epoch joiners)."""
        self._member_admitted_callbacks.append(callback)

    def admit_member(self) -> int:
        """A transitioning node joins the committee (epoch transition).

        The new member is counted in everyone's committee list immediately —
        the new epoch's membership is fixed at the boundary — but stays
        absent (counting against the quorum) until :meth:`activate_member`
        signals that its state transfer finished.  Returns the new member's
        node id; member slots are never reused.
        """
        slot = self._next_member_slot
        self._next_member_slot += 1
        node_id = member_node_id(self.shard_id, slot)
        self._membership_changed = True
        region = self._regions[slot % len(self._regions)] if self._regions else "local"
        committee_ids = self.committee + [node_id]
        replica = self._replica_cls(
            node_id=node_id, sim=self.runtime, network=self.network,
            committee=committee_ids, config=self.config,
            registry=self._registry_factory(), monitor=self.monitor,
            region=region, shard_id=self.shard_id, byzantine=self.byzantine,
        )
        self._syncing.add(node_id)
        replica.track_requests = True
        replica.syncing_members = set(self._syncing)
        for member in self.replicas:
            member.committee.append(node_id)
            member.syncing_members.add(node_id)
        replica.crashed = True
        self.network.crash(node_id)
        self.replicas.append(replica)
        self._enable_commit_fanout()
        for callback in self._member_admitted_callbacks:
            callback(replica)
        return replica.node_id

    def activate_member(self, node_id: int) -> None:
        """The joined member finished its state transfer: it starts serving.

        State, execution cursors and the in-flight log tail are adopted from
        the most advanced active honest member at this moment (the log-replay
        step of a real state transfer), any requests parked while the
        committee had no active member are replayed, and — if the member is
        the current leader — it proposes the backlog right away.
        """
        self._syncing.discard(node_id)
        try:
            replica = self.replica_by_id(node_id)
        except ConfigurationError:
            return  # removed again before activation (back-to-back epochs)
        for member in self.replicas:
            member.syncing_members.discard(node_id)
        source = self.state_source_replica()
        replica.recover()
        if source is not None and source is not replica:
            replica.install_state_from(source)
        if self._parked_requests:
            parked, self._parked_requests = self._parked_requests, []
            for transactions in parked:
                self.submit(transactions)
        if replica.is_leader:
            self.runtime.spawn(replica._maybe_propose)

    # ---------------------------------------------------------------- clients
    def add_open_loop_clients(self, count: int, rate_tps: float, batch_size: int = 10,
                              tx_factory: Optional[Callable] = None) -> List[OpenLoopClient]:
        """Attach ``count`` open-loop clients, each submitting ``rate_tps`` transactions/s."""
        clients = []
        for _ in range(count):
            client = OpenLoopClient(
                node_id=next(self._client_id_counter), sim=self.runtime, network=self.network,
                targets=self.committee, rate_tps=rate_tps, batch_size=batch_size,
                tx_factory=tx_factory, region=self._client_region,
            )
            client.start()
            clients.append(client)
        self.clients.extend(clients)
        return clients

    def submit(self, transactions: Sequence[Transaction], to: Optional[int] = None,
               attempt: int = 0) -> Optional[ConsensusReplica]:
        """Submit transactions as a client request delivered to one replica.

        The request goes through the replica's normal request path (so it is
        forwarded/broadcast according to the protocol), without requiring a
        separate client process.  Returns the replica the request was
        delivered to, or ``None`` when it was parked.

        ``attempt`` is the caller's retry counter: a re-drive of lost work
        (``attempt > 0``) rotates deterministically through the *active*
        members instead of re-pinning to the same first member — which may be
        exactly the Byzantine node that swallowed the original request, in
        which case retrying it forever loses liveness.  ``attempt=0`` (every
        first submission) keeps the seed's behaviour byte-for-byte: the first
        member before any membership change, the first active member after
        one; if the whole committee is mid-transfer the request is parked and
        replayed on the next activation.
        """
        target = to if to is not None else self.committee[0]
        if to is None and (self._membership_changed or attempt):
            active = [replica.node_id for replica in self.replicas
                      if not replica.crashed]
            if not active:
                self._parked_requests.append(tuple(transactions))
                return None
            target = active[attempt % len(active)]
        request = ClientRequest(
            client_id="direct", request_id=next(self._client_id_counter),
            transactions=tuple(transactions), submitted_at=self.runtime.now,
        )
        message = Message(sender=-1, kind=KIND_REQUEST, payload=request,
                          size_bytes=512 * max(1, len(transactions)),
                          channel=REQUEST_CHANNEL)
        message.recipient = target
        replica = self.replica_by_id(target)
        replica.deliver(message)
        return replica

    # -------------------------------------------------------------------- run
    def run(self, duration: float, max_events: Optional[int] = None) -> ClusterRunResult:
        """Run the simulation for ``duration`` seconds and summarise the outcome.

        Sim-only: under a wall-clock runtime the asyncio loop drives time
        itself.
        """
        if self.sim is None:
            raise ConfigurationError("run() needs the simulated runtime")
        self.sim.run(until=self.sim.now + duration, max_events=max_events)
        return self.result(duration)

    def result(self, duration: float) -> ClusterRunResult:
        observer = self.honest_observer()
        committed = observer.committed_transactions()
        latency = self.monitor.series(f"commit_latency.replica{observer.node_id}")
        queue_drops = sum(r.stats.messages_dropped_queue_full for r in self.replicas)
        sorted_latencies = sorted(latency.values())
        p95 = sorted_latencies[int(0.95 * (len(sorted_latencies) - 1))] if sorted_latencies else 0.0
        return ClusterRunResult(
            protocol=self.protocol,
            n=self.n,
            duration=duration,
            committed_transactions=committed,
            throughput_tps=committed / duration if duration > 0 else 0.0,
            avg_latency=latency.mean(),
            p95_latency=p95,
            view_changes=int(self.monitor.counter_value(f"view_changes.shard{self.shard_id}")),
            messages_sent=self.network.stats.messages_sent,
            messages_dropped=self.network.stats.messages_dropped,
            queue_drops=queue_drops,
            blocks_committed=len(observer.blockchain) - 1,
            execution_cost_mean=self.monitor.series(
                f"execution_cost.replica{observer.node_id}").mean(),
        )


def build_cluster(protocol: str, n: int, **kwargs: Any) -> ConsensusCluster:
    """Convenience constructor mirroring :class:`ConsensusCluster`."""
    return ConsensusCluster(protocol, n, **kwargs)
