"""Base class for simulated nodes (processes).

A :class:`SimProcess` models the two resources that dominate the paper's
throughput results:

* a **serial CPU**: every message handled and every block executed occupies
  the CPU for a cost derived from the Table-2 cost model, so a node that must
  verify ``O(N)`` signatures per block gets slower as the committee grows;
* **bounded inbound queues**: Hyperledger v0.6 uses a single queue for both
  request and consensus messages, so a flood of requests causes consensus
  messages to be dropped.  The AHL+ optimisation splits the queue in two.
  ``queue_capacity`` and ``separate_queues`` model exactly this behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Union

from repro.runtime.base import Runtime, as_runtime
from repro.sim.network import CONSENSUS_CHANNEL, Message, Network, REQUEST_CHANNEL
from repro.sim.simulator import Simulator


@dataclass
class NodeStats:
    """Per-node statistics."""

    messages_received: int = 0
    messages_processed: int = 0
    messages_dropped_queue_full: int = 0
    cpu_busy_seconds: float = 0.0
    dropped_by_channel: Dict[str, int] = field(default_factory=dict)


class SimProcess:
    """A simulated node with a serial CPU and bounded inbound queues.

    Subclasses implement :meth:`handle_message` and use :meth:`cpu_execute`
    to account for processing costs.

    Parameters
    ----------
    node_id:
        Unique integer identifier.
    sim / network:
        Scheduling substrate — a :class:`Simulator` or any
        :class:`~repro.runtime.base.Runtime` — and the message transport.
        The node registers itself with the network.  All timing goes through
        ``self.runtime``; ``self.sim`` remains available (the underlying
        simulator, or ``None`` under a wall-clock runtime) for sim-only
        harness code.
    region:
        Region label used by WAN latency models.
    queue_capacity:
        Maximum number of messages waiting for the CPU; ``None`` means
        unbounded.  When the queue is full new messages are dropped.
    separate_queues:
        When True (the AHL+ optimisation), request and consensus messages
        are queued separately so requests cannot crowd out consensus traffic.
    """

    def __init__(self, node_id: int, sim: Union[Simulator, Runtime], network: Network,
                 region: str = "local", queue_capacity: Optional[int] = None,
                 separate_queues: bool = False) -> None:
        self.node_id = node_id
        self.runtime = as_runtime(sim)
        self.network = network
        self.region = region
        self.queue_capacity = queue_capacity
        self.separate_queues = separate_queues
        self.stats = NodeStats()
        self.crashed = False
        self._cpu_free_at = 0.0
        self._queue_depth: Dict[str, int] = {}
        #: Request messages admitted to the queue but not yet processed,
        #: keyed by network message id.  Only populated when
        #: ``track_requests`` is enabled (nodes that may gracefully leave a
        #: committee mid-run hand these off instead of stranding them); the
        #: default path pays a single predictable branch per message.
        self.track_requests = False
        self._inbound_requests: Dict[int, Any] = {}
        #: Key source for locally-injected messages that never crossed the
        #: network (msg_id still -1): a per-node negative counter.  Network
        #: ids are >= 0, so the two ranges cannot collide.
        self._local_request_key = -2
        network.register(self, region=region)

    @property
    def sim(self) -> Optional[Simulator]:
        """The underlying simulator (``None`` under a wall-clock runtime).

        Protocol code must use ``self.runtime``; this exists for sim-only
        harnesses and tests that drive the simulator directly.
        """
        return self.runtime.simulator

    # --------------------------------------------------------------- delivery
    def deliver(self, message: Message) -> None:
        """Called by the network when a message arrives at this node.

        Straight-line on purpose — a committee of N handles O(N^2) arrivals
        per block: queue admission, request tracking, the Table-2 charge and
        the serial-CPU arithmetic of :meth:`cpu_execute` in one frame.
        """
        if self.crashed:
            return
        stats = self.stats
        stats.messages_received += 1
        channel = message.channel
        if not self.separate_queues:
            key = "shared"
        else:
            key = REQUEST_CHANNEL if channel == REQUEST_CHANNEL else CONSENSUS_CHANNEL
        depths = self._queue_depth
        depth = depths.get(key, 0)
        if self.queue_capacity is not None and depth >= self.queue_capacity:
            stats.messages_dropped_queue_full += 1
            stats.dropped_by_channel[channel] = stats.dropped_by_channel.get(channel, 0) + 1
            return
        depths[key] = depth + 1
        req_key: Optional[int] = None
        if self.track_requests and channel == REQUEST_CHANNEL:
            # Key by the deterministic network msg_id, not id(message): heap
            # addresses differ between runs and processes.  The key is
            # captured here and threaded through to the pop, so a message
            # object re-sent (and re-stamped) mid-flight still clears its
            # original entry.
            if message.msg_id < 0:
                message.msg_id = self._local_request_key
                self._local_request_key -= 1
            req_key = message.msg_id
            self._inbound_requests[req_key] = message.payload
        cost = self.message_cost(message)
        if cost < 0.0:
            cost = 0.0
        runtime = self.runtime
        finish = runtime.now
        if self._cpu_free_at > finish:
            finish = self._cpu_free_at
        finish += cost
        self._cpu_free_at = finish
        stats.cpu_busy_seconds += cost
        runtime.schedule_at(finish, self._process_message, message, key, req_key)

    def _process_message(self, message: Message, key: str,
                         req_key: Optional[int] = None) -> None:
        self._queue_depth[key] = self._queue_depth.get(key, 1) - 1
        self.stats.messages_processed += 1
        if req_key is not None:
            self._inbound_requests.pop(req_key, None)
        if not self.crashed:
            self.handle_message(message)

    # --------------------------------------------------------------- CPU model
    def cpu_execute(self, cost: float, fn: Callable[..., Any], *args: Any) -> float:
        """Schedule ``fn(*args)`` after the CPU has spent ``cost`` seconds on it.

        Work is serialised: if the CPU is already busy, the new work starts
        when the current work finishes.  Returns the completion time.
        """
        start = max(self.runtime.now, self._cpu_free_at)
        finish = start + max(cost, 0.0)
        self._cpu_free_at = finish
        self.stats.cpu_busy_seconds += max(cost, 0.0)
        self.runtime.schedule_at(finish, fn, *args)
        return finish

    # ------------------------------------------------------------- overrides
    def message_cost(self, message: Message) -> float:
        """CPU cost of handling ``message``; subclasses refine this."""
        return 0.0

    def handle_message(self, message: Message) -> None:
        """Protocol logic; subclasses must override."""
        raise NotImplementedError

    # ------------------------------------------------------------------ misc
    def crash(self) -> None:
        """Crash this node (stops receiving and processing)."""
        self.crashed = True
        self.network.crash(self.node_id)

    def recover(self) -> None:
        """Recover from a crash."""
        self.crashed = False
        self.network.recover(self.node_id)

    def send(self, dst: int, message: Message) -> None:
        """Convenience wrapper around :meth:`Network.send`."""
        self.network.send(self.node_id, dst, message)

    def broadcast(self, dst_ids, message: Message) -> None:
        """Convenience wrapper around :meth:`Network.broadcast`."""
        self.network.broadcast(self.node_id, dst_ids, message)
