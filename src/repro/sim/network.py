"""Simulated message-passing network.

Nodes register with a :class:`Network`; :meth:`Network.send` computes a
delivery delay from the configured :class:`~repro.sim.latency.LatencyModel`
and schedules ``node.deliver(message)`` on the simulator.  The network keeps
aggregate statistics (messages, bytes, drops) and supports fault injection:
random message loss, per-link blocking, and network partitions.

Delivery events
---------------
A BFT committee of N exchanges O(N^2) messages per block and each message is
two simulator events (its arrival here, then its CPU completion on the
node), so this module is written for the cost of one message, not for
folding messages together.  A census of a whole run found nothing to fold:
the LAN model jitters every delay, so no two copies of a broadcast ever
share a delivery time.  What the code does instead:

* :meth:`Network.broadcast` reads what is constant per broadcast once — the
  clock, the source region, whether any fault is installed at all, the
  latency callable — stamps each copy at construction and updates the
  statistics once, while drop and jitter randomness is still drawn per
  recipient in visit order.  It is observably one :meth:`Network.send` of a
  fresh copy per recipient (``tests/test_sim_network.py`` holds it to that
  under every fault shape).
* Every surviving message is one arrival event, :meth:`Network._deliver`,
  which checks the recipient (crashed, departed) and hands the message to
  the node in place.  Copies that share a delivery time fire in the order
  they were sent, because equal-time events fire in scheduling order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Set, Tuple

from repro.errors import NetworkError
from repro.runtime.base import Runtime
from repro.sim.latency import LatencyModel, LanLatencyModel

#: Channel label for consensus-protocol messages.
CONSENSUS_CHANNEL = "consensus"
#: Channel label for client request messages.
REQUEST_CHANNEL = "request"


@dataclass
class Message:
    """A network message.

    Attributes
    ----------
    sender / recipient:
        Node identifiers.  ``recipient`` is filled in by the network on send.
    kind:
        Message type tag, e.g. ``"pre-prepare"`` or ``"PrepareTx"``.
    payload:
        Arbitrary content; protocols put dataclasses or dicts here.
    size_bytes:
        Wire size used by the latency/bandwidth model.
    channel:
        Logical queue at the receiver (consensus vs request); used by the
        AHL+ queue-separation optimisation.
    """

    sender: int
    kind: str
    payload: Any = None
    size_bytes: int = 512
    channel: str = CONSENSUS_CHANNEL
    recipient: int = -1
    sent_at: float = field(default=0.0, compare=False)
    msg_id: int = field(default=-1, compare=False)


@dataclass
class NetworkStats:
    """Aggregate network statistics for a simulation run."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    per_kind_sent: Dict[str, int] = field(default_factory=dict)

    def record_send(self, message: Message) -> None:
        self.messages_sent += 1
        self.bytes_sent += message.size_bytes
        self.per_kind_sent[message.kind] = self.per_kind_sent.get(message.kind, 0) + 1


class Network:
    """Point-to-point simulated network with latency, loss and partitions.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.runtime.base.Runtime` — the
        :class:`~repro.sim.simulator.Simulator` or a wall-clock runtime.
        Under a wall-clock runtime each delay is waited out for real
        (``call_later``), which is why live shards pass a zero-delay model.
    latency_model:
        Converts (source region, destination region, size) into a delay;
        ``None`` is the :class:`~repro.sim.latency.LanLatencyModel`.
    drop_rate:
        Probability that any given message is silently lost.
    """

    def __init__(self, sim: Runtime, latency_model: Optional[LatencyModel] = None,
                 drop_rate: float = 0.0) -> None:
        self.runtime = sim
        self.latency_model = latency_model or LanLatencyModel()
        self.drop_rate = drop_rate
        self.stats = NetworkStats()
        self._nodes: Dict[int, Any] = {}
        self._regions: Dict[int, str] = {}
        self._blocked_links: Set[Tuple[int, int]] = set()
        self._crashed: Set[int] = set()
        self._departed: Set[int] = set()
        self._partition: Optional[Dict[int, int]] = None
        self._msg_counter = itertools.count()
        self._rng = self.runtime.fork_rng("network")

    # ---------------------------------------------------------- registration
    def register(self, node: Any, region: str = "local") -> None:
        """Register a node object exposing ``node_id`` and ``deliver(message)``."""
        node_id = node.node_id
        if node_id in self._nodes:
            raise NetworkError(f"node {node_id} is already registered")
        self._nodes[node_id] = node
        self._regions[node_id] = region

    def unregister(self, node_id: int) -> None:
        """Remove a node (e.g. a replica leaving its committee at an epoch
        boundary).  Unlike a node that never existed — sending to one is a
        programming error and raises — a *departed* node is a legitimate
        stale destination: messages to it are admitted and then counted as
        drops.  The departure is graceful: messages the node had already
        handed to the network layer (queued sends) still go out, so a block
        proposal signed just before leaving is not torn in half.
        """
        self._nodes.pop(node_id, None)
        self._regions.pop(node_id, None)
        self._departed.add(node_id)

    def region_of(self, node_id: int) -> str:
        return self._regions.get(node_id, "local")

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._nodes)

    def node(self, node_id: int) -> Any:
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise NetworkError(f"unknown node {node_id}") from exc

    # -------------------------------------------------------- fault injection
    def crash(self, node_id: int) -> None:
        """Crash a node: it no longer receives any message."""
        self._crashed.add(node_id)

    def recover(self, node_id: int) -> None:
        """Recover a crashed node."""
        self._crashed.discard(node_id)

    # detlint: disable=DEAD001 -- fault-injection seam: one dead link
    def block_link(self, src: int, dst: int) -> None:
        """Drop every message from ``src`` to ``dst``."""
        self._blocked_links.add((src, dst))

    # detlint: disable=DEAD001 -- fault-injection seam: heals block_link
    def unblock_link(self, src: int, dst: int) -> None:
        self._blocked_links.discard((src, dst))

    # detlint: disable=DEAD001 -- fault-injection seam: network partition
    def set_partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Partition the network: only nodes in the same group can communicate."""
        mapping: Dict[int, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                mapping[node_id] = index
        self._partition = mapping

    # detlint: disable=DEAD001 -- fault-injection seam: heals set_partition
    def heal_partition(self) -> None:
        self._partition = None

    def _link_ok(self, src: int, dst: int) -> bool:
        if dst in self._crashed or src in self._crashed:
            return False
        if (src, dst) in self._blocked_links:
            return False
        if self._partition is not None:
            if self._partition.get(src) != self._partition.get(dst):
                return False
        return True

    # --------------------------------------------------------------- sending
    def _admit(self, src: int, dst: int, message: Message) -> Optional[float]:
        """Record the send and return the delivery delay, or None if dropped."""
        message.sender = src
        message.recipient = dst
        message.sent_at = self.runtime.now
        message.msg_id = next(self._msg_counter)
        self.stats.record_send(message)
        if not self._link_ok(src, dst):
            self.stats.messages_dropped += 1
            return None
        if self.drop_rate > 0 and self._rng.random() < self.drop_rate:
            self.stats.messages_dropped += 1
            return None
        return self.latency_model.delay(
            self.region_of(src), self.region_of(dst), message.size_bytes, self._rng
        )

    def send(self, src: int, dst: int, message: Message) -> None:
        """Send ``message`` from ``src`` to ``dst`` with modelled delay."""
        if dst not in self._nodes:
            if dst in self._departed:
                if self._admit(src, dst, message) is not None:
                    self.stats.messages_dropped += 1  # recorded, then dropped
                return
            raise NetworkError(f"cannot send to unknown node {dst}")
        delay = self._admit(src, dst, message)
        if delay is not None:
            self.runtime.schedule(delay, self._deliver, message)

    def broadcast(self, src: int, dst_ids: Iterable[int], message: Message) -> None:
        """Send a copy of ``message`` to every node in ``dst_ids``.

        Equivalent to one :meth:`send` of a fresh copy per recipient, in
        order — same ``msg_id``s, same statistics, same rng draws, one
        scheduled event per surviving copy — except that a departed
        recipient's copy travels and is dropped on arrival.  What is
        constant per broadcast (clock, source region, whether any fault is
        installed, the latency callable) is read once; drop and jitter
        randomness is drawn per recipient.

        Set-typed ``dst_ids`` are canonicalized to sorted order first: the
        per-recipient rng draws (drop, latency jitter) consume the stream in
        visit order, so arbitrary set order would make the same seed produce
        different delivery schedules.
        """
        if isinstance(dst_ids, (set, frozenset)):
            dst_ids = sorted(dst_ids)
        nodes, departed, regions = self._nodes, self._departed, self._regions
        kind, payload, channel = message.kind, message.payload, message.channel
        size = message.size_bytes
        now = self.runtime.now
        src_region = regions.get(src, "local")
        fault_free = not (self._crashed or self._blocked_links) and self._partition is None
        drop_rate, rng, delay_of = self.drop_rate, self._rng, self.latency_model.delay
        next_id = self._msg_counter.__next__
        schedule, deliver = self.runtime.schedule, self._deliver
        sent = dropped = 0
        unknown: Optional[int] = None
        for dst in dst_ids:
            if dst not in nodes and dst not in departed:
                # Messages to earlier recipients must still be delivered (the
                # per-send path had already scheduled them before raising).
                unknown = dst
                break
            copy = Message(src, kind, payload, size, channel, dst, now, next_id())
            sent += 1
            if not (fault_free or self._link_ok(src, dst)) or (
                    drop_rate > 0 and rng.random() < drop_rate):
                dropped += 1
                continue
            schedule(delay_of(src_region, regions.get(dst, "local"), size, rng), deliver, copy)
        if sent:
            stats = self.stats
            stats.messages_sent += sent
            stats.messages_dropped += dropped
            stats.bytes_sent += sent * size
            stats.per_kind_sent[kind] = stats.per_kind_sent.get(kind, 0) + sent
        if unknown is not None:
            raise NetworkError(f"cannot send to unknown node {unknown}")

    def _deliver(self, message: Message) -> None:
        recipient = message.recipient
        node = None if recipient in self._crashed else self._nodes.get(recipient)
        if node is None:
            self.stats.messages_dropped += 1
        else:
            self.stats.messages_delivered += 1
            node.deliver(message)

    # ----------------------------------------------------------------- misc
    def delay_bound(self, size_bytes: int = 1024) -> float:
        """Upper bound on one-way delay, used to derive the synchrony bound Delta."""
        return self.latency_model.delay_bound(size_bytes)
