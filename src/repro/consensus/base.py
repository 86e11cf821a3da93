"""Shared machinery for the PBFT-family consensus replicas.

The paper's HL / AHL / AHL+ / AHLR protocols differ only in quorum size,
attestation requirements and communication pattern; everything else —
batching, pipelining, view changes, execution — is common and lives in
:class:`ConsensusReplica`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set

from repro.crypto.costs import DEFAULT_COSTS, OperationCosts
from repro.errors import ConfigurationError
from repro.ledger.block import Block, build_block
from repro.ledger.blockchain import Blockchain
from repro.ledger.chaincode import ChaincodeRegistry, ExecutionEngine
from repro.ledger.state import StateStore
from repro.ledger.transaction import Transaction, TransactionReceipt
from repro.sim.monitor import Monitor
from repro.sim.network import CONSENSUS_CHANNEL, Message, Network, REQUEST_CHANNEL
from repro.sim.node import SimProcess
from repro.runtime.base import Runtime
from repro.sim.simulator import Simulator
from repro.consensus import messages as m


@dataclass
class ConsensusConfig:
    """Configuration shared by the PBFT-family replicas.

    The flags map directly onto the paper's design points:

    * ``use_attested_log`` — AHL/AHL+/AHLR carry TEE attestations on every
      consensus message, which halves the replication requirement
      (``N = 2f + 1``, quorum ``f + 1``).
    * ``separate_queues`` — optimisation 1 of AHL+ (request and consensus
      messages use separate inbound queues).
    * ``broadcast_requests`` — the original PBFT/Hyperledger behaviour; AHL+
      turns this off (optimisation 2: forward the request to the leader only).
    * ``leader_aggregation`` — optimisation 3 (AHLR): replicas send their
      prepare/commit to the leader, whose enclave verifies and aggregates
      them into a single certificate.
    """

    protocol: str = "pbft"
    batch_size: int = 100
    pipeline_depth: int = 8
    view_change_timeout: float = 10.0
    queue_capacity: Optional[int] = 2000
    separate_queues: bool = False
    broadcast_requests: bool = True
    use_attested_log: bool = False
    leader_aggregation: bool = False
    costs: OperationCosts = field(default_factory=lambda: DEFAULT_COSTS)
    consensus_message_bytes: int = 512
    transaction_bytes: int = 512
    verify_client_signatures: bool = True
    max_blocks: Optional[int] = None
    #: Fixed leader-side cost per proposed block (block assembly, ledger write,
    #: gossip to the ordering service) — calibrated against Hyperledger v0.6.
    proposal_overhead: float = 0.025
    #: Minimum spacing between consecutive blocks (lockstep protocols such as
    #: Tendermint enforce a commit timeout of roughly one second per height).
    min_block_interval: float = 0.0
    #: Blocks between PBFT checkpoint broadcasts; a quorum of checkpoints lets
    #: replicas that missed commit messages catch up (stable checkpoints).
    checkpoint_interval: int = 10
    #: Ledger retention mode for each replica's chain: "full" keeps every
    #: block body, "headers" keeps every header but only the most recent
    #: ``ledger_retain_recent`` bodies (bounded memory for 1M-transaction runs).
    ledger_retention: str = "full"
    ledger_retain_recent: int = 64

    def fault_tolerance(self, n: int) -> int:
        """Number of Byzantine faults an ``n``-node committee tolerates."""
        if self.use_attested_log:
            return (n - 1) // 2
        return (n - 1) // 3

    def quorum_size(self, n: int) -> int:
        """Messages (including the replica's own) needed to progress a phase."""
        f = self.fault_tolerance(n)
        if self.use_attested_log:
            return f + 1
        return 2 * f + 1

    @staticmethod
    def committee_size_for(f: int, use_attested_log: bool) -> int:
        """Smallest committee tolerating ``f`` faults under the given failure model."""
        if f < 0:
            raise ConfigurationError("f must be non-negative")
        return 2 * f + 1 if use_attested_log else 3 * f + 1


class BoundedIdSet(dict):
    """A set of string ids with FIFO eviction beyond ``capacity``.

    Subclasses ``dict`` (insertion-ordered) so the hot-path membership test
    ``tx_id in ids`` stays a C-level lookup; ``capacity=None`` means
    unbounded.  Used to bound the transaction-id dedup sets: ids old enough
    to be evicted belong to long-committed transactions that no live client
    will resubmit.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        super().__init__()
        self.capacity = capacity

    def add(self, item: str) -> None:
        self[item] = None
        if self.capacity is not None and len(self) > self.capacity:
            del self[next(iter(self))]

    def trim(self) -> None:
        """Evict oldest ids down to capacity (amortised batch eviction).

        Hot loops insert with plain ``ids[x] = None`` (a C-level store) and
        call this once per batch instead of paying a method call per id.
        """
        capacity = self.capacity
        if capacity is not None:
            while len(self) > capacity:
                del self[next(iter(self))]

    def discard(self, item: str) -> None:
        self.pop(item, None)


@dataclass
class CommitEvent:
    """Passed to ``on_commit`` subscribers when a replica executes a block."""

    replica_id: int
    block: Block
    receipts: List[TransactionReceipt]
    committed_at: float


@dataclass
class _Instance:
    """Per-sequence-number consensus state."""

    seq: int
    view: int
    block: Optional[Block] = None
    block_digest: Optional[str] = None
    pre_prepared: bool = False
    prepares: Set[int] = field(default_factory=set)
    commits: Set[int] = field(default_factory=set)
    prepared: bool = False
    committed: bool = False
    executed: bool = False
    proposed_at: float = 0.0
    timer: Any = None
    #: Votes that arrived before the pre-prepare fixed this slot's digest,
    #: keyed (phase, replica) -> claimed digest (first claim wins, as a set
    #: add would have).  They are absorbed — and digest-checked — once the
    #: pre-prepare arrives: counting them blindly would let an equivocating
    #: replica's conflicting vote stand in for support of the real block.
    early_votes: Dict[tuple, str] = field(default_factory=dict)


class ConsensusReplica(SimProcess):
    """Base replica for HL / AHL / AHL+ / AHLR.

    Subclasses set the class attributes below (or override hooks) to obtain
    the different protocol variants.

    Parameters
    ----------
    node_id:
        Global node identifier (must appear in ``committee``).
    committee:
        Ordered list of the node ids forming this committee.
    config:
        Protocol configuration.
    registry:
        Chaincodes deployed on this committee's shard.
    monitor:
        Shared metric sink for the committee.
    byzantine:
        Optional attack strategy; when present and applicable to this node,
        the replica misbehaves as the strategy dictates.
    """

    PROTOCOL_NAME = "base"
    #: Capacity of the committed transaction-id dedup set (oldest ids evicted
    #: first; they belong to long-committed transactions no live client will
    #: resubmit).
    COMMITTED_ID_WINDOW = 200_000

    def __init__(self, node_id: int, sim: "Simulator | Runtime", network: Network,
                 committee: Sequence[int], config: ConsensusConfig,
                 registry: Optional[ChaincodeRegistry] = None,
                 monitor: Optional[Monitor] = None,
                 region: str = "local",
                 shard_id: int = 0,
                 byzantine: Optional[Any] = None) -> None:
        super().__init__(
            node_id, sim, network, region=region,
            queue_capacity=config.queue_capacity,
            separate_queues=config.separate_queues,
        )
        if node_id not in committee:
            raise ConfigurationError(f"node {node_id} is not a member of the committee")
        self.committee = list(committee)
        self.config = config
        self.shard_id = shard_id
        self.monitor = monitor or Monitor()
        self.byzantine = byzantine if (byzantine and byzantine.applies_to(node_id)) else None

        self.blockchain = Blockchain(
            shard_id=shard_id,
            retention=config.ledger_retention,
            retain_recent=config.ledger_retain_recent,
        )
        self.state = StateStore(shard_id=shard_id)
        self.registry = registry or ChaincodeRegistry()
        self.engine = ExecutionEngine(self.registry, self.state)

        self.view = 0
        self.next_seq = 1
        self.last_executed = 0
        #: Committee members currently fetching state at an epoch transition.
        #: The transition is a coordinated protocol event — every member
        #: knows the migration plan — so all replicas hold the same set and
        #: agree on skipping these members in the leader rotation until they
        #: activate.  Empty outside transitions (the seed fast path).
        self.syncing_members: Set[int] = set()
        self.pending_txs: Deque[Transaction] = deque()
        # seen_tx_ids is never capacity-evicted: it is self-bounding (ids are
        # discarded on commit, so it tracks pending + in-flight), and
        # FIFO eviction could drop the id of a still-pending transaction —
        # letting the stalled-progress rebroadcast path re-accept a duplicate.
        # Only committed_tx_ids is windowed; its old ids belong to
        # long-committed transactions no live client will resubmit.
        self.seen_tx_ids = BoundedIdSet(None)
        self.committed_tx_ids = BoundedIdSet(self.COMMITTED_ID_WINDOW)
        self.in_flight_tx_ids: Set[str] = set()
        self.instances: Dict[int, _Instance] = {}
        self.view_change_votes: Dict[int, Set[int]] = {}
        self.checkpoint_votes: Dict[int, Set[int]] = {}
        self.stable_checkpoint = 0
        self.view_changes = 0
        self.blocks_proposed = 0
        #: Number of instances in ``self.instances`` with ``committed=False``.
        #: Maintained by _get_instance/_mark_committed/_drop_instance so the
        #: proposal loop never scans the instance table.
        self._outstanding = 0
        #: Highest sequence number garbage-collected below a stable
        #: checkpoint; messages at or below it are dropped on arrival (their
        #: instances were executed and pruned).
        self._gc_horizon = 0
        self._progress_check_pending = False
        self._last_block_time = 0.0
        self._interval_retry_pending = False
        #: Transactions already reflected in the state snapshot this member
        #: installed when it joined mid-run (0 for founding members), and the
        #: snapshot itself (None for founding members, whose chains are
        #: rooted in the genesis state).
        self._committed_before_join = 0
        self._join_state_snapshot = None
        self._on_commit: List[Callable[[CommitEvent], None]] = []

    # ------------------------------------------------------------ membership
    @property
    def n(self) -> int:
        return len(self.committee)

    @property
    def f(self) -> int:
        return self.config.fault_tolerance(self.n)

    @property
    def quorum(self) -> int:
        return self.config.quorum_size(self.n)

    def leader_id(self, view: Optional[int] = None) -> int:
        view = self.view if view is None else view
        if self.syncing_members:
            # Skip members still fetching state (deterministic: everyone
            # holds the same transition plan, so everyone agrees).
            for offset in range(self.n):
                candidate = self.committee[(view + offset) % self.n]
                if candidate not in self.syncing_members:
                    return candidate
        return self.committee[view % self.n]

    def expected_proposer(self, seq: int, view: Optional[int] = None) -> int:
        """The replica allowed to propose sequence number ``seq`` in ``view``.

        Stable-leader protocols (PBFT family) ignore ``seq``; rotating-leader
        protocols (Tendermint, IBFT) override this.
        """
        return self.leader_id(view)

    @property
    def is_leader(self) -> bool:
        return self.leader_id() == self.node_id

    def peers(self) -> List[int]:
        return [peer for peer in self.committee if peer != self.node_id]

    def on_commit(self, callback: Callable[[CommitEvent], None]) -> None:
        """Subscribe to block execution events on this replica."""
        self._on_commit.append(callback)

    def handoff_backlog(self) -> List[Transaction]:
        """Everything this replica would strand by leaving right now.

        Accepted-but-unproposed transactions, client requests still sitting
        in the inbound queue, and the contents of its uncommitted proposals
        (a pre-prepare may not have left the wire yet).  The graceful leave
        hands these to the remaining committee — the simulation equivalent
        of clients retrying against members that are still there.
        Receivers dedup on their seen/committed id sets, and the
        exactly-once filter in ``_apply_block`` makes even a re-proposal
        that races a surviving copy of the original proposal harmless.
        """
        committed = self.committed_tx_ids
        backlog = [tx for tx in self.pending_txs if tx.tx_id not in committed]
        handed = {tx.tx_id for tx in backlog}
        sources = list(self._inbound_requests.values())
        for instance in self.instances.values():
            if not instance.committed and instance.block is not None:
                sources.append(instance.block)
        for source in sources:
            for tx in getattr(source, "transactions", ()):
                tx_id = tx.tx_id
                if tx_id not in committed and tx_id not in handed:
                    handed.add(tx_id)
                    backlog.append(tx)
        return backlog

    def leave_committee(self) -> None:
        """Depart the committee for good (epoch reconfiguration).

        A *graceful* leave: the replica stops processing inbound work (the
        crash flag no-ops its queued handlers and timers), but messages it
        had already signed and queued — e.g. the pre-prepare of a block it
        proposed moments before leaving — still flush out through the
        network layer, exactly as a real node drains its sockets on
        shutdown.  Its id is never reused; stale messages addressed to it
        are counted as drops.
        """
        self.crashed = True
        self.network.unregister(self.node_id)

    def install_state_from(self, source: "ConsensusReplica") -> None:
        """State transfer on joining a committee.

        Called when the modelled transfer delay has elapsed: the new member
        adopts the source's world state snapshot, execution cursors, dedup
        sets, pending backlog and the in-flight consensus log tail (the
        instances after the snapshot point, whose effects the snapshot does
        not yet include), then executes whatever of that tail is already
        committed.  Its ledger starts fresh at the join point — exactly what
        a node that fetched a state snapshot rather than the full history
        holds.
        """
        snapshot = source.state.snapshot()
        self.state.restore(snapshot)
        # Retain the installed snapshot: this member's chain is rooted in it
        # rather than in the genesis state, and the audit's rebuild oracle
        # must replay the chain from the same starting point.  Entries are
        # immutable (replaced per write), so the shallow copy stays faithful.
        self._join_state_snapshot = snapshot
        self.view = source.view
        self.last_executed = source.last_executed
        # The ledger restarts at the join point; carry the source's committed
        # count so committee-level metrics stay continuous across the join.
        self._committed_before_join = source.committed_transactions()
        self.next_seq = max(self.next_seq, source.next_seq)
        self.stable_checkpoint = source.stable_checkpoint
        self._gc_horizon = source.last_executed
        self._last_block_time = self.runtime.now
        committed = BoundedIdSet(self.COMMITTED_ID_WINDOW)
        committed.update(source.committed_tx_ids)
        committed.trim()
        self.committed_tx_ids = committed
        seen = BoundedIdSet(None)
        seen.update(source.seen_tx_ids)
        self.seen_tx_ids = seen
        self.in_flight_tx_ids = set(source.in_flight_tx_ids)
        self.pending_txs = deque(source.pending_txs)
        self.instances = {}
        self._outstanding = 0
        for seq, instance in source.instances.items():
            if seq <= self.last_executed:
                continue
            clone = _Instance(
                seq=seq, view=instance.view, block=instance.block,
                block_digest=instance.block_digest,
                pre_prepared=instance.pre_prepared,
                prepares=set(instance.prepares), commits=set(instance.commits),
                prepared=instance.prepared, committed=instance.committed,
                proposed_at=instance.proposed_at,
            )
            self.instances[seq] = clone
            if not clone.committed:
                self._outstanding += 1
                # The adopted in-flight instance needs a timer of its own:
                # without one this member would never vote for the view
                # change that resolves a stalled slot, and a committee whose
                # stayers alone are short of the view-change quorum would
                # freeze.
                self._start_timer(clone)
        self._try_execute()

    # ------------------------------------------------------------- submission
    def _accept_transactions(self, transactions: Sequence[Transaction]) -> None:
        accepted = False
        seen = self.seen_tx_ids
        committed = self.committed_tx_ids
        pending = self.pending_txs
        for tx in transactions:
            tx_id = tx.tx_id
            if tx_id in seen or tx_id in committed:
                continue
            seen[tx_id] = None
            pending.append(tx)
            accepted = True
        seen.trim()
        if self.is_leader:
            self._maybe_propose()
        elif accepted and not self._progress_check_pending:
            # Liveness guard: if the leader makes no progress on pending work
            # within the timeout (e.g. a silent Byzantine leader), ask for a
            # view change.
            self._progress_check_pending = True
            self.runtime.schedule(
                self.config.view_change_timeout, self._progress_check,
                self.last_executed, self.view,
            )

    def _progress_check(self, executed_then: int, view_then: int) -> None:
        self._progress_check_pending = False
        if self.crashed or self.view != view_then:
            return
        if self.last_executed > executed_then:
            return
        if not self.pending_txs and self._outstanding == 0:
            return
        if not self.config.broadcast_requests and self.pending_txs:
            # PBFT's fallback when the leader ignores a forwarded request: the
            # replica broadcasts the request to everyone so the whole
            # committee learns about the stalled work and can view-change.
            stalled = [tx for tx in list(self.pending_txs)[:200]
                       if tx.tx_id not in self.committed_tx_ids]
            if stalled:
                fallback = Message(
                    sender=self.node_id,
                    kind=m.KIND_FORWARD,
                    payload=m.ClientRequest(
                        client_id=f"replica-{self.node_id}", request_id=0,
                        transactions=tuple(stalled), submitted_at=self.runtime.now,
                    ),
                    size_bytes=self.config.transaction_bytes * len(stalled),
                    channel=REQUEST_CHANNEL,
                )
                self.broadcast(self.peers(), fallback)
        self._request_view_change(self.view + 1)

    # ---------------------------------------------------------------- costs
    def message_cost(self, message: Message) -> float:
        costs = self.config.costs
        kind = message.kind
        if kind in (m.KIND_REQUEST, m.KIND_FORWARD):
            payload: m.ClientRequest = message.payload
            per_tx = costs.sha256 * len(payload.transactions)
            signature = costs.ecdsa_verify if self.config.verify_client_signatures else 0.0
            return signature + per_tx
        if kind == m.KIND_PRE_PREPARE:
            # The attested-log proof doubles as the message signature, so AHL
            # and HL both verify a single ECDSA signature per message.
            payload = message.payload
            ntx = len(payload.block.transactions) if payload.block else 0
            return costs.ecdsa_verify + costs.sha256 * ntx
        if kind in (m.KIND_PREPARE, m.KIND_COMMIT):
            if self._phase_already_complete(message):
                return costs.sha256
            return costs.ecdsa_verify
        if kind == m.KIND_AGGREGATE:
            return costs.ecdsa_verify
        if kind in (m.KIND_VIEW_CHANGE, m.KIND_NEW_VIEW):
            return costs.ecdsa_verify
        if kind == m.KIND_CHECKPOINT:
            return costs.sha256
        return costs.sha256

    def _phase_already_complete(self, message: Message) -> bool:
        payload = message.payload
        seq = getattr(payload, "seq", -1)
        if 0 < seq <= self._gc_horizon:
            # The instance was executed and pruned; both phases completed.
            return True
        instance = self.instances.get(seq)
        if instance is None:
            return False
        if message.kind == m.KIND_PREPARE:
            return instance.prepared or instance.committed
        if message.kind == m.KIND_COMMIT:
            return instance.committed
        return False

    def _signing_cost(self) -> float:
        # In the AHL family the attested append (which the enclave signs)
        # replaces the plain ECDSA message signature.
        if self.config.use_attested_log:
            return self.config.costs.attested_append()
        return self.config.costs.ecdsa_sign

    # ------------------------------------------------------------- messaging
    def _consensus_message(self, kind: str, payload: Any, size: Optional[int] = None) -> Message:
        return Message(
            sender=self.node_id,
            kind=kind,
            payload=payload,
            size_bytes=size or self.config.consensus_message_bytes,
            channel=CONSENSUS_CHANNEL,
        )

    def _broadcast_consensus(self, kind: str, payload: Any, size: Optional[int] = None,
                             include_self: bool = False) -> None:
        """Broadcast a consensus message to the committee.

        ``include_self=True`` delivers a copy to this replica as well (over
        the network loopback, so it pays the same modelled latency as any
        other local delivery) — used by protocols whose handlers treat the
        sender's own vote like everyone else's.
        """
        message = self._consensus_message(kind, payload, size)
        targets = self.committee if include_self else self.peers()
        self.broadcast(targets, message)

    def _attest(self, log_name: str, position: int, body: Any):
        """Hook for AHL-family subclasses: return a log attestation or None."""
        return None

    # ---------------------------------------------------------- proposal path
    def handle_message(self, message: Message) -> None:
        if self.byzantine is not None and self.byzantine.drop_incoming(self, message):
            return
        kind = message.kind
        if kind in (m.KIND_REQUEST, m.KIND_FORWARD):
            self._handle_request(message)
        elif kind == m.KIND_PRE_PREPARE:
            self._handle_pre_prepare(message.payload)
        elif kind == m.KIND_PREPARE:
            self._handle_prepare(message.payload)
        elif kind == m.KIND_COMMIT:
            self._handle_commit(message.payload)
        elif kind == m.KIND_VIEW_CHANGE:
            self._handle_view_change(message.payload)
        elif kind == m.KIND_NEW_VIEW:
            self._handle_new_view(message.payload)
        elif kind == m.KIND_AGGREGATE:
            self._handle_aggregate(message.payload)
        elif kind == m.KIND_CHECKPOINT:
            self._handle_checkpoint(message.payload)
        else:
            self._handle_other(message)

    def _handle_other(self, message: Message) -> None:
        """Subclass hook for additional message kinds."""

    def _handle_request(self, message: Message) -> None:
        request: m.ClientRequest = message.payload
        transactions = list(request.transactions)
        if self.is_leader:
            self._accept_transactions(transactions)
            return
        if self.config.broadcast_requests:
            # Original PBFT / Hyperledger behaviour: the receiving replica
            # broadcasts the request to every other replica.
            if message.kind == m.KIND_REQUEST:
                forward = Message(
                    sender=self.node_id,
                    kind=m.KIND_FORWARD,
                    payload=request,
                    size_bytes=self.config.transaction_bytes * max(1, len(transactions)),
                    channel=REQUEST_CHANNEL,
                )
                self.broadcast(self.peers(), forward)
            self._accept_transactions(transactions)
        else:
            # AHL+ optimisation 2: forward to the leader only.  The replica
            # keeps a local copy so it can detect a leader that makes no
            # progress (and re-propose after a view change).
            forward = Message(
                sender=self.node_id,
                kind=m.KIND_FORWARD,
                payload=request,
                size_bytes=self.config.transaction_bytes * max(1, len(transactions)),
                channel=REQUEST_CHANNEL,
            )
            self.send(self.leader_id(), forward)
            self._accept_transactions(transactions)

    def _maybe_propose(self) -> None:
        if not self.is_leader or self.crashed:
            return
        if self.byzantine is not None and not self.byzantine.leader_should_propose(self):
            return
        while self.pending_txs:
            if self.config.max_blocks is not None and self.blocks_proposed >= self.config.max_blocks:
                return
            if self._outstanding >= self.config.pipeline_depth:
                return
            if self.config.min_block_interval > 0:
                earliest = self._last_block_time + self.config.min_block_interval
                if self.runtime.now < earliest:
                    if not self._interval_retry_pending:
                        self._interval_retry_pending = True
                        self.runtime.schedule_at(earliest, self._interval_retry)
                    return
            batch: List[Transaction] = []
            while self.pending_txs and len(batch) < self.config.batch_size:
                tx = self.pending_txs.popleft()
                if tx.tx_id in self.committed_tx_ids or tx.tx_id in self.in_flight_tx_ids:
                    continue
                batch.append(tx)
            if not batch:
                return
            self._propose_block(batch)

    def _next_proposal_seq(self) -> int:
        """First sequence number this leader may mint.

        A replica that becomes leader mid-stream (after a committee
        membership change or a view change) must neither re-propose numbers
        the committee already decided nor collide with its predecessor's
        still-in-flight proposals, so the cursor skips past every locally
        known instance.  For a stable leader this is exactly ``next_seq``.
        Rotating-leader protocols override this: their proposer of height
        ``h`` is fixed, so they must not skip heights.
        """
        latest_known = max(self.instances, default=0)
        return max(self.next_seq, self.last_executed + 1, latest_known + 1)

    def _propose_block(self, batch: List[Transaction]) -> None:
        seq = self._next_proposal_seq()
        self.next_seq = seq + 1
        for tx in batch:
            self.in_flight_tx_ids.add(tx.tx_id)
        block = build_block(
            height=seq,
            prev_hash="pending",  # the real parent is resolved at execution time
            transactions=tuple(batch),
            proposer=self.node_id,
            view=self.view,
            timestamp=self.runtime.now,
            shard_id=self.shard_id,
        )
        self.blocks_proposed += 1
        instance = self._get_instance(seq)
        instance.block = block
        instance.block_digest = block.header.merkle_root
        instance.pre_prepared = True
        instance.prepares.add(self.node_id)
        instance.commits.add(self.node_id)
        instance.proposed_at = self.runtime.now
        self._start_timer(instance)
        attestation = self._attest("pre-prepare", seq, block.header.merkle_root)
        payload = m.PrePrepare(
            view=self.view, seq=seq, block=block, leader=self.node_id,
            attestation=attestation,
        )
        size = self.config.consensus_message_bytes + self.config.transaction_bytes * len(batch)
        sign_cost = (self._signing_cost() + self.config.costs.sha256 * len(batch)
                     + self.config.proposal_overhead)
        self._last_block_time = self.runtime.now
        self.cpu_execute(sign_cost, self._broadcast_consensus, m.KIND_PRE_PREPARE, payload, size)
        self.monitor.counter(f"blocks_proposed.shard{self.shard_id}").increment()

    def _interval_retry(self) -> None:
        self._interval_retry_pending = False
        if self.is_leader:
            self._maybe_propose()

    # ---------------------------------------------------------- PBFT handlers
    def _get_instance(self, seq: int) -> _Instance:
        instance = self.instances.get(seq)
        if instance is None:
            instance = _Instance(seq=seq, view=self.view)
            self.instances[seq] = instance
            self._outstanding += 1
        return instance

    def _mark_committed(self, instance: _Instance) -> None:
        """Transition an instance to committed exactly once (keeps the
        outstanding-instance counter and the timer consistent)."""
        if instance.committed:
            return
        instance.committed = True
        self._outstanding -= 1
        self._cancel_timer(instance)

    def _drop_instance(self, seq: int) -> None:
        """Remove an instance from the table, releasing its timer and counter slot."""
        instance = self.instances.pop(seq, None)
        if instance is not None:
            self._cancel_timer(instance)
            if not instance.committed:
                self._outstanding -= 1

    def _start_timer(self, instance: _Instance) -> None:
        if instance.timer is not None:
            return
        instance.timer = self.runtime.schedule(
            self.config.view_change_timeout, self._on_instance_timeout, instance.seq, self.view
        )

    def _cancel_timer(self, instance: _Instance) -> None:
        if instance.timer is not None:
            instance.timer.cancel()
            instance.timer = None

    def _handle_pre_prepare(self, payload: m.PrePrepare) -> None:
        if payload.seq <= self._gc_horizon:
            return  # executed and pruned below a stable checkpoint
        if payload.view != self.view:
            return
        if payload.leader != self.expected_proposer(payload.seq, payload.view):
            return
        if not self._attestation_ok(payload.attestation):
            return
        instance = self._get_instance(payload.seq)
        if instance.pre_prepared and instance.block_digest != payload.block.header.merkle_root:
            # Conflicting pre-prepare for the same slot: ignore (equivocation).
            return
        instance.block = payload.block
        instance.block_digest = payload.block.header.merkle_root
        instance.pre_prepared = True
        instance.prepares.add(payload.leader)
        instance.proposed_at = payload.block.header.timestamp
        self._absorb_early_votes(instance)
        self._start_timer(instance)
        self._send_prepare(instance)
        self._check_prepared(instance)

    def _attestation_ok(self, attestation: Any) -> bool:
        """Whether a consensus message's attested-log proof admits it.

        Under the AHL family every pre-prepare, prepare and commit must carry
        a valid attestation: the enclave refuses to bind a second digest to a
        slot, so a message *without* a proof is exactly what an equivocating
        (or rolled-back, still-recovering) host produces — accepting it would
        hand back the equivocation power the attested log removes.  The seed
        implementation only verified attestations that happened to be present,
        which let an attestation-less conflicting vote through; the
        system-wide adversary runs flushed that out.
        """
        if not self.config.use_attested_log:
            return True
        return attestation is not None and attestation.verify()

    def _absorb_early_votes(self, instance: _Instance) -> None:
        """Count buffered votes now that the pre-prepare fixed the digest.

        Votes whose claimed digest conflicts with the agreed block are
        discarded here — the same treatment a post-pre-prepare conflicting
        vote gets on arrival.
        """
        if not instance.early_votes:
            return
        early, instance.early_votes = instance.early_votes, {}
        for (phase, replica), digest in early.items():
            if digest != instance.block_digest:
                continue
            if phase == "prepare":
                instance.prepares.add(replica)
            else:
                instance.commits.add(replica)

    def _send_prepare(self, instance: _Instance) -> None:
        if self.byzantine is not None and self.byzantine.suppress_vote(self, "prepare"):
            return
        instance.prepares.add(self.node_id)
        if self.byzantine is not None and self.byzantine.equivocates():
            self._send_vote_per_recipient("prepare", instance)
            return
        attestation = self._attest("prepare", instance.seq, instance.block_digest)
        payload = m.Prepare(
            view=self.view, seq=instance.seq, block_digest=instance.block_digest,
            replica=self.node_id, attestation=attestation,
        )
        self.cpu_execute(self._signing_cost(), self._dispatch_vote, m.KIND_PREPARE, payload)

    def _dispatch_vote(self, kind: str, payload: Any) -> None:
        """Send a prepare/commit vote according to the communication pattern."""
        if self.config.leader_aggregation and not self.is_leader:
            self.send(self.leader_id(), self._consensus_message(kind, payload))
        else:
            self._broadcast_consensus(kind, payload)

    def _vote_recipients(self) -> List[int]:
        """Destinations of a prepare/commit vote under the communication pattern."""
        if self.config.leader_aggregation and not self.is_leader:
            return [self.leader_id()]
        return self.peers()

    def _send_vote_per_recipient(self, phase: str, instance: _Instance) -> None:
        """Byzantine vote path: the strategy picks a digest per destination.

        The host asks its enclave to attest every digest it wants to claim;
        under the AHL family the enclave binds the slot to the first digest
        and refuses the rest (``rejected_appends`` counts the refusals), so
        conflicting votes leave the host *without* a valid proof and honest
        replicas drop them at :meth:`_attestation_ok`.  Under plain PBFT
        there is no enclave, both digests go out fully signed, and every
        honest recipient pays the verification before discarding the
        mismatch — the asymmetry Figure 8 (right) measures.
        """
        seq = instance.seq
        kind = m.KIND_PREPARE if phase == "prepare" else m.KIND_COMMIT
        pairs: List[tuple] = []
        for recipient in self._vote_recipients():
            digest = self.byzantine.vote_digest_for(self, phase, recipient,
                                                    instance.block_digest)
            attestation = self._attest(phase, seq, digest)
            if phase == "prepare":
                payload: Any = m.Prepare(
                    view=self.view, seq=seq, block_digest=digest,
                    replica=self.node_id, attestation=attestation,
                )
            else:
                payload = m.Commit(
                    view=self.view, seq=seq, block_digest=digest or "",
                    replica=self.node_id, attestation=attestation,
                )
            pairs.append((recipient, payload))
        self.cpu_execute(self._signing_cost(), self._send_vote_pairs, kind, pairs)

    def _send_vote_pairs(self, kind: str, pairs: List[tuple]) -> None:
        for recipient, payload in pairs:
            self.send(recipient, self._consensus_message(kind, payload))

    def _handle_prepare(self, payload: m.Prepare) -> None:
        if payload.seq <= self._gc_horizon:
            return  # executed and pruned below a stable checkpoint
        if payload.view != self.view:
            return
        if not self._attestation_ok(payload.attestation):
            return
        instance = self._get_instance(payload.seq)
        if instance.block_digest is None:
            # No pre-prepare yet: park the vote with its claimed digest and
            # absorb it (digest-checked) when the slot's digest is fixed.
            # Counting it into the bare replica set — as the seed did — let a
            # conflicting-digest vote masquerade as support for the block
            # that later won the slot.
            instance.early_votes.setdefault(("prepare", payload.replica),
                                            payload.block_digest)
            return
        if payload.block_digest != instance.block_digest:
            return  # conflicting vote; ignore
        instance.prepares.add(payload.replica)
        self._check_prepared(instance)

    def _check_prepared(self, instance: _Instance) -> None:
        if instance.prepared or not instance.pre_prepared:
            return
        if len(instance.prepares) >= self.quorum:
            instance.prepared = True
            self._on_prepared(instance)

    def _on_prepared(self, instance: _Instance) -> None:
        self._send_commit(instance)
        self._check_committed(instance)

    def _send_commit(self, instance: _Instance) -> None:
        if self.byzantine is not None and self.byzantine.suppress_vote(self, "commit"):
            return
        instance.commits.add(self.node_id)
        if self.byzantine is not None and self.byzantine.equivocates():
            # The strategy is consulted per destination on commit votes too —
            # the seed only exposed equivocation on the prepare phase.
            self._send_vote_per_recipient("commit", instance)
            return
        attestation = self._attest("commit", instance.seq, instance.block_digest)
        payload = m.Commit(
            view=self.view, seq=instance.seq, block_digest=instance.block_digest or "",
            replica=self.node_id, attestation=attestation,
        )
        self.cpu_execute(self._signing_cost(), self._dispatch_vote, m.KIND_COMMIT, payload)

    def _handle_commit(self, payload: m.Commit) -> None:
        if payload.seq <= self._gc_horizon:
            return  # executed and pruned below a stable checkpoint
        if payload.view != self.view:
            return
        if not self._attestation_ok(payload.attestation):
            return
        instance = self._get_instance(payload.seq)
        if instance.block_digest is None:
            instance.early_votes.setdefault(("commit", payload.replica),
                                            payload.block_digest)
            return
        if payload.block_digest != instance.block_digest:
            return
        instance.commits.add(payload.replica)
        self._check_committed(instance)

    def _check_committed(self, instance: _Instance) -> None:
        if instance.committed or not instance.prepared:
            return
        if len(instance.commits) >= self.quorum:
            self._mark_committed(instance)
            self._try_execute()

    def _handle_aggregate(self, payload: m.AggregateCertificate) -> None:
        """Subclasses using leader aggregation override this."""

    # ------------------------------------------------------------- execution
    def _try_execute(self) -> None:
        while True:
            next_seq = self.last_executed + 1
            instance = self.instances.get(next_seq)
            if instance is None or not instance.committed or instance.executed or instance.block is None:
                return
            instance.executed = True
            self.last_executed = next_seq
            cost = self.config.costs.block_execution(len(instance.block.transactions))
            self.cpu_execute(cost, self._apply_block, instance)

    def _apply_block(self, instance: _Instance) -> None:
        block = instance.block
        assert block is not None
        committed = self.committed_tx_ids
        seen = self.seen_tx_ids
        in_flight = self.in_flight_tx_ids
        fresh: List[Transaction] = []
        for tx in block.transactions:
            tx_id = tx.tx_id
            if tx_id not in committed:
                fresh.append(tx)
            committed[tx_id] = None
            in_flight.discard(tx_id)
            # Once committed, dedup is served by committed_tx_ids; keeping the
            # id in seen_tx_ids too would grow it with run length.
            seen.pop(tx_id, None)
        committed.trim()
        # Re-chain the agreed block onto this replica's tip.  The Merkle root
        # was computed once by the proposer and its digest is what the quorum
        # voted on, so it is reused verbatim (no rebuild) and the ledger skips
        # re-verifying it.
        #
        # Exactly-once execution: a transaction already executed here (only
        # possible when a leader hand-off during an epoch transition raced a
        # still-in-flight proposal) is filtered out of the local chained
        # block instead of being applied twice, and the filtered block's root
        # is built afresh; the common case appends the agreed block verbatim.
        verbatim = len(fresh) == len(block.transactions)
        chained = build_block(
            height=self.blockchain.height + 1,
            prev_hash=self.blockchain.tip.block_hash,
            transactions=block.transactions if verbatim else tuple(fresh),
            proposer=block.header.proposer,
            view=block.header.view,
            timestamp=block.header.timestamp,
            shard_id=self.shard_id,
            merkle_root=block.header.merkle_root if verbatim else None,
        )
        self.blockchain.append(chained, verify_merkle=False)
        receipts = self.engine.execute_block(chained, now=self.runtime.now)
        now = self.runtime.now
        self._last_block_time = now
        latency = now - instance.proposed_at if instance.proposed_at else 0.0
        self.monitor.series(f"commit_latency.replica{self.node_id}").record(now, latency)
        self.monitor.series(f"consensus_cost.replica{self.node_id}").record(now, latency)
        self.monitor.series(f"execution_cost.replica{self.node_id}").record(
            now, self.config.costs.block_execution(len(block.transactions))
        )
        self.monitor.throughput(f"replica{self.node_id}").record_commit(now, len(block.transactions))
        event = CommitEvent(replica_id=self.node_id, block=chained, receipts=receipts, committed_at=now)
        for callback in self._on_commit:
            callback(event)
        # Checkpoint on canonical slots (seq ≡ 0 mod interval): every replica
        # then votes for the *same* checkpoint sequence numbers.  Gating on
        # ``last_executed`` at apply time — evaluated after a whole run of
        # instances was marked executed — made replicas whose apply batches
        # differed (anyone catching up after a membership change) vote for
        # mismatched seqs, so checkpoints never reached quorum and stable
        # checkpoints (and the GC behind them) froze.
        if (self.config.checkpoint_interval > 0
                and instance.seq % self.config.checkpoint_interval == 0):
            checkpoint = m.Checkpoint(seq=instance.seq, replica=self.node_id)
            self._broadcast_consensus(m.KIND_CHECKPOINT, checkpoint)
            self._record_checkpoint_vote(instance.seq, self.node_id)
        if self.is_leader:
            self._maybe_propose()

    # ------------------------------------------------------------ checkpoints
    def _handle_checkpoint(self, payload: m.Checkpoint) -> None:
        self._record_checkpoint_vote(payload.seq, payload.replica)

    def _record_checkpoint_vote(self, seq: int, replica: int) -> None:
        if seq <= self.stable_checkpoint:
            return  # already stable; a vote set for it could never act
        votes = self.checkpoint_votes.setdefault(seq, set())
        votes.add(replica)
        if len(votes) >= self.quorum:
            self._advance_stable_checkpoint(seq)

    def _advance_stable_checkpoint(self, seq: int) -> None:
        """A quorum has executed up to ``seq``: instances at or below it are final.

        This is PBFT's stable-checkpoint rule.  Only instances prepared *in
        the current view* are rescued into the committed set: a prepared
        certificate pins the block a quorum endorsed for the slot in that
        view, but this simulation's simplified view change does not carry
        prepared certificates into new views, so rescuing a stale-view
        certificate could execute a proposal that lost its slot across the
        view change — silent state divergence.  A replica holding only
        stale-view state catches up through the new view's re-proposals
        instead.

        The stable checkpoint also drives garbage collection: instances this
        replica has executed at or below the checkpoint — and the vote sets
        that produced it — are pruned, so the instance table holds only the
        in-flight window.
        """
        self.stable_checkpoint = seq
        for instance in self.instances.values():
            if (instance.seq <= seq and instance.block is not None
                    and instance.prepared and instance.view == self.view
                    and not instance.committed):
                self._mark_committed(instance)
        self._try_execute()
        self._collect_garbage()

    def _collect_garbage(self) -> None:
        """Prune state made obsolete by the stable checkpoint.

        Only the contiguous *executed* prefix is pruned (execution is strictly
        in-order, so every sequence number at or below
        ``min(stable_checkpoint, last_executed)`` has been executed here);
        instances above ``last_executed`` are retained even when the quorum's
        checkpoint is ahead, because this replica may still need their blocks
        to catch up.
        """
        horizon = min(self.stable_checkpoint, self.last_executed)
        if horizon > self._gc_horizon:
            for seq in range(self._gc_horizon + 1, horizon + 1):
                self._drop_instance(seq)
            self._gc_horizon = horizon
        for seq in [s for s in self.checkpoint_votes if s <= self.stable_checkpoint]:
            del self.checkpoint_votes[seq]
        self._prune_view_change_votes()

    def _prune_view_change_votes(self) -> None:
        """Drop vote sets for views at or below the current one — a view
        change to a view we already left (or are in) can never act."""
        for view in [v for v in self.view_change_votes if v <= self.view]:
            del self.view_change_votes[view]

    # ------------------------------------------------------------ view change
    def _on_instance_timeout(self, seq: int, view_at_start: int) -> None:
        if self.crashed or view_at_start != self.view:
            return
        instance = self.instances.get(seq)
        if instance is None or instance.committed:
            return
        self._request_view_change(self.view + 1)

    def _request_view_change(self, new_view: int) -> None:
        if new_view <= self.view:
            return
        payload = m.ViewChange(new_view=new_view, last_executed=self.last_executed,
                               replica=self.node_id)
        votes = self.view_change_votes.setdefault(new_view, set())
        votes.add(self.node_id)
        self.cpu_execute(self.config.costs.ecdsa_sign, self._broadcast_consensus,
                         m.KIND_VIEW_CHANGE, payload)
        self._check_view_change(new_view)
        # Escalate if this view change does not complete either (PBFT's
        # exponential back-off is approximated by a fixed re-check interval).
        self.runtime.schedule(self.config.view_change_timeout, self._escalate_view_change, new_view)

    def _escalate_view_change(self, requested_view: int) -> None:
        if self.crashed or self.view >= requested_view:
            return
        has_stalled_work = bool(self.pending_txs) or self._outstanding > 0
        if has_stalled_work:
            self._request_view_change(requested_view + 1)

    def _handle_view_change(self, payload: m.ViewChange) -> None:
        if payload.new_view <= self.view:
            return
        votes = self.view_change_votes.setdefault(payload.new_view, set())
        votes.add(payload.replica)
        self._check_view_change(payload.new_view)

    def _check_view_change(self, new_view: int) -> None:
        votes = self.view_change_votes.get(new_view, set())
        if len(votes) < self.quorum:
            return
        if new_view <= self.view:
            return
        self._enter_view(new_view)

    def _enter_view(self, new_view: int) -> None:
        self.view = new_view
        self.view_changes += 1
        self._prune_view_change_votes()
        self.monitor.counter(f"view_changes.shard{self.shard_id}").increment()
        # Reset progress on uncommitted instances; they will be re-proposed.
        for instance in self.instances.values():
            if not instance.committed:
                self._cancel_timer(instance)
                instance.prepares.clear()
                instance.commits.clear()
                instance.early_votes.clear()
                instance.pre_prepared = False
                instance.prepared = False
                instance.view = new_view
        if self.is_leader:
            payload = m.NewView(new_view=new_view, leader=self.node_id)
            self.cpu_execute(self.config.costs.ecdsa_sign, self._broadcast_consensus,
                             m.KIND_NEW_VIEW, payload)
            # Re-propose every surviving uncommitted block *at its original
            # slot* (PBFT's new-view rule).  Proposing the backlog at fresh
            # tail sequence numbers instead would leave permanent execution
            # holes whenever later slots had already committed out of order
            # — every replica would stall at the first hole forever.
            for instance in sorted((i for i in self.instances.values()
                                    if not i.committed), key=lambda i: i.seq):
                if instance.block is None:
                    self._drop_instance(instance.seq)
                else:
                    self._repropose(instance)
            self._maybe_propose()

    def _repropose(self, instance: _Instance) -> None:
        """Re-propose an uncommitted block at its original sequence number."""
        instance.pre_prepared = True
        instance.prepares = {self.node_id}
        instance.commits = {self.node_id}
        instance.proposed_at = self.runtime.now
        self.next_seq = max(self.next_seq, instance.seq + 1)
        for tx in instance.block.transactions:
            self.in_flight_tx_ids.add(tx.tx_id)
        self._start_timer(instance)
        attestation = self._attest("pre-prepare", instance.seq,
                                   instance.block.header.merkle_root)
        payload = m.PrePrepare(view=self.view, seq=instance.seq,
                               block=instance.block, leader=self.node_id,
                               attestation=attestation)
        size = (self.config.consensus_message_bytes
                + self.config.transaction_bytes * len(instance.block.transactions))
        sign_cost = self._signing_cost() + self.config.proposal_overhead
        self.cpu_execute(sign_cost, self._broadcast_consensus,
                         m.KIND_PRE_PREPARE, payload, size)

    def _handle_new_view(self, payload: m.NewView) -> None:
        if payload.new_view < self.view:
            return
        if payload.leader != self.leader_id(payload.new_view):
            return
        if payload.new_view > self.view:
            self.view = payload.new_view
            for instance in list(self.instances.values()):
                if not instance.committed:
                    self._drop_instance(instance.seq)
            self._prune_view_change_votes()

    # ---------------------------------------------------------------- metrics
    def committed_transactions(self) -> int:
        """Total transactions executed on this replica's committee position.

        For a member that joined mid-run this includes the transactions its
        state snapshot already reflected (``_committed_before_join``), so
        per-shard counts do not collapse when an observer role passes to a
        joiner whose own ledger starts at the join point.
        """
        return self._committed_before_join + self.blockchain.total_transactions()

    def commit_latencies(self) -> List[float]:
        return self.monitor.series(f"commit_latency.replica{self.node_id}").values()
