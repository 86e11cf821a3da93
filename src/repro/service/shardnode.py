"""One shard as a real process: the simulated engine's partition on the wall clock.

Each shard process runs a :class:`LivePartition`: the same
:class:`~repro.core.scaleout.ShardPartition` the simulated engine builds
(committee plus :class:`~repro.core.homecoord.HomeCoordinator`) on an
:class:`~repro.runtime.wallclock.AsyncioRuntime` and a
:class:`~repro.service.socketnet.SocketNetwork`.  Replicas talk through the
network's in-memory half; the rest are TCP frames to or from the process's
one node, the :class:`ShardAgent`:

* ``svc-submit`` ``(tx,)``: a transaction homed here, answered with
  ``svc-done`` (its ``TxDone``) once the home coordinator is through;
* ``svc-command``: one 2PC :class:`~repro.core.homecoord.Command` between
  shards, applied as it arrives (its ``due`` is on the sender's clock);
* ``svc-peers``: every shard's address, from the gateway before it reports
  ready.  Links to the other shards open at once, so a dead peer is seen
  as EOF and the home's driver answers for it;
* ``svc-block``: each committed block's height and size, for ``/health``;
* ``svc-balance-query``/``-reply``, the boot ``svc-pong``, ``svc-shutdown``.

A payload of the wrong shape for its kind is a ``FrameError``: it closes
its connection before anything reaches the committee or the coordinator.
A closed link reads as a dead peer, so the gateway answers ``400`` for any
transaction a shard would refuse (:func:`is_wire_tx`) instead of framing it.
The agent is the partition's only way into its committee, and a hand-over
is *not* a request: the agent is a batching client clocked by the
committee's own CPU.  While none of its requests waits at the receiving
replica, transactions are handed over in the same call; otherwise they wait
in the agent until that replica's serial CPU has handled the previous
request and finished what it started (the leader's proposal), and then
leave as one request — so under load a block carries what arrived during
one leader-CPU cycle, and there is no batch size or timeout to tune.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Any, Dict, List, Optional

from repro.consensus.base import CommitEvent, ConsensusReplica
from repro.consensus.cluster import ConsensusCluster
from repro.core.config import ShardedSystemConfig
from repro.core.homecoord import (
    PARENT, Command, partition_stream_seed, partition_tx_counter,
)
from repro.core.scaleout import ShardPartition
from repro.core.splitters import release_routed_table
from repro.errors import SimulationError, WorkloadError
from repro.ledger.transaction import Transaction, swap_tx_counter
from repro.runtime.wallclock import AsyncioRuntime
from repro.service.frames import FrameError
from repro.service.socketnet import SocketNetwork
from repro.sim.network import Message, REQUEST_CHANNEL

#: Node id of the gateway's control-plane agent in every SocketNetwork.
GATEWAY_NODE_ID = 990_000
#: Shard ``s``'s agent is ``SHARD_AGENT_BASE + s`` — far above any replica
#: id (``shard_id * 10_000 + slot``) or client id the cluster mints.
SHARD_AGENT_BASE = 980_000

KIND_SUBMIT = "svc-submit"
KIND_COMMAND = "svc-command"
KIND_DONE = "svc-done"
KIND_PEERS = "svc-peers"
KIND_BLOCK = "svc-block"
KIND_BALANCE_QUERY = "svc-balance-query"
KIND_BALANCE_REPLY = "svc-balance-reply"
KIND_PONG = "svc-pong"
KIND_SHUTDOWN = "svc-shutdown"


def shard_agent_id(shard_id: int) -> int:
    """Node id of shard ``shard_id``'s control-plane agent."""
    return SHARD_AGENT_BASE + shard_id


def agent_shard(node_id: int) -> Optional[int]:
    """The shard whose agent ``node_id`` is (None for any other node)."""
    return node_id - SHARD_AGENT_BASE if SHARD_AGENT_BASE <= node_id < GATEWAY_NODE_ID else None


def is_wire_tx(value: Any) -> bool:
    """Whether ``value`` is a transaction of the shape a shard accepts."""
    return (type(value) is Transaction and type(value.args) is dict
            and type(value.keys) is tuple and all(type(text) is str for text in (
                value.tx_id, value.chaincode, value.function, value.client_id, *value.keys)))


#: The service's dict payloads, either way: each kind's fields and their types.
_DICT_FIELDS = {
    KIND_BALANCE_QUERY: {"query_id": int, "key": str},
    KIND_BALANCE_REPLY: {"query_id": int, "key": str, "shard_id": int},
    KIND_BLOCK: {"shard_id": int, "height": int, "txs": int},
    KIND_PONG: {"shard_id": int, "host": str, "port": int},
}


def dict_payload_ok(kind: str, payload: Any) -> bool:
    """Whether ``payload`` is a dict with the fields a ``kind`` frame carries."""
    fields = _DICT_FIELDS.get(kind)
    return fields is not None and type(payload) is dict and all(
        type(payload.get(name)) is of_type for name, of_type in fields.items())


def _is_command(value: Any, shard_id: int) -> bool:
    if (type(value) is not Command or value.dest != shard_id
            or type(value.tx_id) is not str or type(value.attempt) is not int):
        return False
    if value.op in ("prepare2pc", "decision"):
        return (type(value.home) is int and type(value.priority) is tuple
                and type(value.txs) is tuple and len(value.txs) == 1 and is_wire_tx(value.txs[0]))
    return (value.op in ("vote", "ack") and type(value.origin) is int
            and type(value.ok) is bool and type(value.reason) in (str, type(None)))


def _payload_ok(kind: str, payload: Any, shard_id: int) -> bool:
    """Whether ``payload`` has the shape of a ``kind`` frame to ``shard_id``."""
    if kind == KIND_SUBMIT:
        return type(payload) is tuple and len(payload) == 1 and is_wire_tx(payload[0])
    if kind == KIND_COMMAND:
        return _is_command(payload, shard_id)
    if kind == KIND_PEERS:
        return type(payload) is dict and all(
            type(shard) is int and type(addr) is tuple and len(addr) == 2
            and type(addr[0]) is str and type(addr[1]) is int for shard, addr in payload.items())
    if kind == KIND_BALANCE_QUERY:
        return dict_payload_ok(kind, payload)
    return kind == KIND_SHUTDOWN


class ShardAgent:
    """The shard process's network node and its committee's batching client:
    2PC frames go on to ``partition`` (None: a bare batching client), and
    every committed block is reported to the gateway."""

    def __init__(self, shard_id: int, cluster: ConsensusCluster,
                 network: SocketNetwork, stop: asyncio.Event,
                 partition: Optional["LivePartition"] = None) -> None:
        self.shard_id = shard_id
        self.node_id = shard_agent_id(shard_id)
        self.cluster = cluster
        self.network = network
        self.partition = partition
        self._stop = stop
        self.submits_received = 0
        #: Transactions not yet handed to the committee, in arrival order,
        #: and whether a request of ours still occupies its replica's CPU.
        self._buffer: List[Transaction] = []
        self._request_waiting = False
        network.register(self)
        cluster.subscribe_commits(self._report_block)

    def deliver(self, message: Message) -> None:
        kind, payload = message.kind, message.payload
        if not _payload_ok(kind, payload, self.shard_id):
            raise FrameError(f"malformed {kind!r} payload for shard {self.shard_id}")
        if kind == KIND_SUBMIT:
            self.partition.submit_from_gateway(payload[0])
        elif kind == KIND_COMMAND:
            self.partition.apply(payload)  # now: its due is on the sender's clock
        elif kind == KIND_PEERS:
            for shard_id, (host, port) in sorted(payload.items()):
                if shard_id != self.shard_id:
                    self.network.add_peer(shard_agent_id(shard_id), host, port)
                    self.network.connect(shard_agent_id(shard_id))
        elif kind == KIND_BALANCE_QUERY:
            self.send(GATEWAY_NODE_ID, KIND_BALANCE_REPLY, {
                "query_id": payload["query_id"], "key": payload["key"],
                "value": self.cluster.honest_observer().state.get(payload["key"]),
                "shard_id": self.shard_id})
        else:  # KIND_SHUTDOWN
            if self._buffer:
                self._hand_over()
            self._stop.set()

    def hand(self, transactions: List[Transaction]) -> None:
        """Queue ``transactions`` for the committee, in arrival order."""
        self.submits_received += len(transactions)
        self._buffer.extend(transactions)
        if not self._request_waiting:
            self._hand_over()

    def _hand_over(self) -> None:
        """Everything buffered becomes one client request to the committee."""
        transactions, self._buffer = self._buffer, []
        replica = self.cluster.submit(transactions)
        # Parked (None): the cluster replays it itself, nobody to clock on.
        self._request_waiting = replica is not None
        if replica is not None:
            stats = replica.stats
            self._await_handled(replica, stats.messages_received
                                - stats.messages_dropped_queue_full)

    def _await_handled(self, replica: ConsensusReplica, admitted: int) -> None:
        """Zero-cost markers on the replica's serial CPU: release once it has
        handled our request (the ``admitted``-th message it took in) and
        finished what that started — the leader's proposal."""
        if replica.stats.messages_processed < admitted:
            # Also re-queues when a real clock fires the marker before the
            # request it was queued behind (same-instant timers are unordered).
            replica.cpu_execute(0.0, self._await_handled, replica, admitted)
        else:
            replica.cpu_execute(0.0, self._cpu_released)

    def _cpu_released(self) -> None:
        self._request_waiting = False
        if self._buffer:
            self._hand_over()

    def _report_block(self, event: CommitEvent) -> None:
        if event.receipts:
            self.send(GATEWAY_NODE_ID, KIND_BLOCK, {
                "shard_id": self.shard_id, "height": event.block.header.height,
                "txs": len(event.receipts)})

    def send(self, node_id: int, kind: str, payload: Any) -> None:
        message = Message(sender=self.node_id, kind=kind, payload=payload,
                          size_bytes=512, channel=REQUEST_CHANNEL)
        self.network.send(self.node_id, node_id, message)


class LivePartition(ShardPartition):
    """A :class:`~repro.core.scaleout.ShardPartition` whose transport is frames.

    Seeded by the partition's rule, so it forks its simulated twin's rng
    streams.  Commands for other partitions leave as ``svc-command``, reports
    for the parent (the gateway) as ``svc-done``; the committee is reached
    through the agent's batching, so a re-drive's ``attempt`` (one request
    carries many transactions) does not rotate the first contact.
    """

    def __init__(self, config: ShardedSystemConfig, shard_id: int,
                 stop: asyncio.Event, listen_host: str = "127.0.0.1") -> None:
        runtime = AsyncioRuntime(seed=partition_stream_seed(config.seed, shard_id))
        super().__init__(config, shard_id, runtime,
                         SocketNetwork(runtime, listen_host=listen_host))
        self.agent = ShardAgent(shard_id, self.cluster, self.network, stop, self)
        self.network.on_peer_down = self._on_peers_down

    def _send(self, command: Command) -> None:
        self.agent.send(shard_agent_id(command.dest), KIND_COMMAND, command)

    def _output(self, report: Any) -> None:
        self.agent.send(GATEWAY_NODE_ID, KIND_DONE, report)

    def hand_to_committee(self, transactions: List[Transaction], attempt: int) -> None:
        self.agent.hand(transactions)

    def submit_from_gateway(self, tx: Transaction) -> None:
        """A transaction the gateway routed here, refused unless homed here."""
        try:
            self.home.submit_transaction(tx, origin=PARENT)
        except (SimulationError, WorkloadError) as exc:
            raise FrameError(f"{tx.tx_id} cannot be coordinated here: {exc}") from exc

    def _on_peers_down(self, node_ids: List[int], exc: Exception) -> None:
        for shard_id in map(agent_shard, node_ids):
            if shard_id is not None:
                self.home.shard_lost(shard_id)


async def _shard_main(spec: Dict[str, Any]) -> None:
    stop = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        asyncio.get_running_loop().add_signal_handler(sig, stop.set)
    shard_id = int(spec["shard_id"])
    # The one partition of this process keeps its id stream installed for
    # the process's life (the simulated engine swaps it in per window), so
    # its prepare and decision ids never collide with another home's.
    swap_tx_counter(partition_tx_counter(shard_id))
    host = spec.get("host", "127.0.0.1")
    partition = LivePartition(ShardedSystemConfig(**spec["config"]), shard_id,
                              stop, listen_host=host)
    port = await partition.network.start()
    partition.network.add_peer(GATEWAY_NODE_ID, spec["gateway_host"],
                               int(spec["gateway_port"]))
    # This process builds one committee; the other shards' slices can go.
    release_routed_table()
    # The gateway's boot barrier waits for exactly this pong from every shard.
    partition.agent.send(GATEWAY_NODE_ID, KIND_PONG,
                         {"shard_id": shard_id, "host": host, "port": port})
    await stop.wait()
    await partition.network.close()


def run_shard_node(spec: Dict[str, Any]) -> None:
    """``multiprocessing`` (spawn) entry point: host one shard until shutdown.

    ``spec`` is a plain dict — its ``"config"`` entry the deployment's
    :class:`~repro.core.config.ShardedSystemConfig` fields — so the parent
    never pickles live objects across the process boundary.
    """
    asyncio.run(_shard_main(spec))
