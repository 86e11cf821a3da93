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

The codec refuses a wire object whose fields do not match their
annotations, :data:`PAYLOADS` a payload of the wrong shape for its kind, and
the agent a command that is no peer op for this shard; each refusal is a
``FrameError`` that closes its connection before anything reaches the
committee or the coordinator.  A closed link reads as a dead peer, so the
gateway refuses (``400``/``413``) what a shard or the frame cap would.
A live shard charges nothing modelled (:data:`LIVE_CONSENSUS`): no Table-2
operation costs, no ``proposal_overhead`` and no delay on the network's
in-memory half, so the real hashing, MACs, codec and sockets set its
latency.  The sim twin keeps the model.  Transactions reach the committee
as the sim partition's do, one request each; the leader keeps one block in
flight and proposes the next no sooner than :data:`BLOCK_INTERVAL` (20 ms)
after its last block, so each block carries whatever arrived meanwhile and
the protocol's clock, not the CPU the host happens to spare, sets the pace.
Every in-memory hop and zero charge is then a zero delay, which the runtime
runs with ``call_soon``; only protocol timers such as this one wait on
asyncio's timer heap.
"""

from __future__ import annotations

import asyncio
import dataclasses
import signal
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.codec import checker
from repro.consensus.base import CommitEvent
from repro.core.config import ShardedSystemConfig
from repro.core.homecoord import (
    PARENT, Command, TxDone, partition_stream_seed, partition_tx_counter,
)
from repro.core.scaleout import ShardPartition
from repro.core.splitters import release_routed_table
from repro.crypto.costs import OperationCosts
from repro.errors import SimulationError, WorkloadError
from repro.ledger.transaction import Transaction, swap_tx_counter
from repro.runtime.wallclock import AsyncioRuntime
from repro.service.frames import FrameError
from repro.service.socketnet import SocketNetwork
from repro.sim.latency import LanLatencyModel
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

#: Seconds a live leader waits after its last block before proposing the
#: next: a commit timeout, as in Tendermint (Fabric's batch timeout plays
#: the same part).  A cross-shard transaction waits out about one per 2PC
#: phase, so it sets closed-loop latency (≈ 2 × 20 ms + ≈ 3 ms of real
#: work).  It is still a few times what a round of real work costs, so the
#: protocol sets a shard's pace; without it the pace followed the CPU a
#: shared host happened to spare, and closed-loop throughput varied by a
#: third between identical runs.  A flood with 48 transactions in flight
#: runs into the same limit at short intervals: it asks more of a 2-vCPU
#: host than the host can serve, and its throughput follows the host's
#: speed.  Of 10, 15 and 20 ms, 20 is the shortest whose flood throughput
#: moved less than a quarter of the 30 ms median as the host's speed
#: drifted (10 ms: 934–1 337 tx/s over ten runs, against 785–842 at 30 ms).
BLOCK_INTERVAL = 0.02
#: The consensus overrides every live committee runs with, on top of the
#: deployment's: nothing modelled is charged, and the leader keeps one block
#: in flight, cutting the next from what arrived meanwhile.
LIVE_CONSENSUS: Dict[str, Any] = {
    "costs": OperationCosts(**{field.name: 0.0
                               for field in dataclasses.fields(OperationCosts)}),
    "proposal_overhead": 0.0,
    "pipeline_depth": 1,
    "min_block_interval": BLOCK_INTERVAL,
}
#: The in-memory half's latency on a live shard: none, the hop is a call.
NO_DELAY = LanLatencyModel(base_latency=0.0, bandwidth_bps=float("inf"),
                           jitter_fraction=0.0)


def shard_agent_id(shard_id: int) -> int:
    """Node id of shard ``shard_id``'s control-plane agent."""
    return SHARD_AGENT_BASE + shard_id


def agent_shard(node_id: int) -> Optional[int]:
    """The shard whose agent ``node_id`` is (None for any other node)."""
    return node_id - SHARD_AGENT_BASE if SHARD_AGENT_BASE <= node_id < GATEWAY_NODE_ID else None


#: What a frame of each kind carries, either way (a decoded wire object is well-typed).
PAYLOADS: Dict[str, Callable[[Any], bool]] = {
    KIND_SUBMIT: checker(Tuple[Transaction]),
    KIND_COMMAND: checker(Command),
    KIND_DONE: checker(TxDone),
    KIND_PEERS: checker(Dict[int, Tuple[str, int]]),
    KIND_BLOCK: checker({"shard_id": int, "height": int, "txs": int}),
    KIND_PONG: checker({"shard_id": int, "host": str, "port": int}),
    KIND_BALANCE_QUERY: checker({"query_id": int, "key": str}),
    KIND_BALANCE_REPLY: checker({"query_id": int, "key": str, "value": Any, "shard_id": int}),
    KIND_SHUTDOWN: checker(None),
}
#: The kinds a shard accepts.
_SHARD_KINDS = frozenset({KIND_SUBMIT, KIND_COMMAND, KIND_PEERS, KIND_BALANCE_QUERY, KIND_SHUTDOWN})
#: The 2PC ops one shard sends another, and how many transactions each carries.
_PEER_OPS = {"prepare2pc": 1, "decision": 1, "vote": 0, "ack": 0}


class ShardAgent:
    """The shard process's network node: frames go on to ``partition``, and
    every committed block is reported to the gateway."""

    def __init__(self, partition: "LivePartition", stop: asyncio.Event) -> None:
        self.shard_id = partition.shard_id
        self.node_id = shard_agent_id(self.shard_id)
        self.network = partition.network
        self.partition = partition
        self._stop = stop
        self.network.register(self)
        partition.cluster.subscribe_commits(self._report_block)

    def deliver(self, message: Message) -> None:
        kind, payload = message.kind, message.payload
        if kind not in _SHARD_KINDS or not PAYLOADS[kind](payload):
            raise FrameError(f"malformed {kind!r} payload for shard {self.shard_id}")
        if kind == KIND_SUBMIT:
            self.partition.submit_from_gateway(payload[0])
        elif kind == KIND_COMMAND:
            if payload.dest != self.shard_id or _PEER_OPS.get(payload.op) != len(payload.txs):
                raise FrameError(f"no {payload.op!r} command for shard {self.shard_id}")
            self.partition.apply(payload)  # now: its due is on the sender's clock
        elif kind == KIND_PEERS:
            for shard_id, (host, port) in sorted(payload.items()):
                if shard_id != self.shard_id:
                    self.network.add_peer(shard_agent_id(shard_id), host, port)
                    self.network.connect(shard_agent_id(shard_id))
        elif kind == KIND_BALANCE_QUERY:
            self.send(GATEWAY_NODE_ID, KIND_BALANCE_REPLY, {
                "query_id": payload["query_id"], "key": payload["key"],
                "value": self.partition.cluster.honest_observer().state.get(payload["key"]),
                "shard_id": self.shard_id})
        else:  # KIND_SHUTDOWN
            self._stop.set()

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
    for the parent (the gateway) as ``svc-done``.  Its committee runs with
    :data:`LIVE_CONSENSUS` and its replicas talk with :data:`NO_DELAY`.
    """

    def __init__(self, config: ShardedSystemConfig, shard_id: int,
                 stop: asyncio.Event, listen_host: str = "127.0.0.1") -> None:
        runtime = AsyncioRuntime(seed=partition_stream_seed(config.seed, shard_id))
        config = dataclasses.replace(config, consensus_overrides={
            **config.consensus_overrides, **LIVE_CONSENSUS})
        super().__init__(config, shard_id, runtime,
                         SocketNetwork(runtime, NO_DELAY, listen_host=listen_host))
        self.agent = ShardAgent(self, stop)
        self.network.on_peer_down = self._on_peers_down

    def _send(self, command: Command) -> None:
        self.agent.send(shard_agent_id(command.dest), KIND_COMMAND, command)

    def _output(self, report: Any) -> None:
        self.agent.send(GATEWAY_NODE_ID, KIND_DONE, report)

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
