"""One shard as a real process: AsyncioRuntime + SocketNetwork + the
unchanged :class:`~repro.consensus.cluster.ConsensusCluster`.

Each shard process hosts its whole committee locally — the replicas talk to
each other through the in-memory half of the :class:`SocketNetwork` exactly
as they do in the simulator — and exposes one control-plane object, the
:class:`ShardAgent`, to the gateway over TCP frames.  The agent speaks a
four-verb protocol:

* ``svc-submit`` — a tuple of transactions, kept in arrival order and handed
  to the committee through the unchanged ``ConsensusCluster.submit`` request
  path.  A frame is *not* a request: the agent is a batching client clocked
  by the committee's own CPU.  While none of its requests waits at the
  receiving replica a frame is handed over in the same call; otherwise the
  transactions wait in the agent until that replica's serial CPU has handled
  the previous request and finished what it started (the leader's proposal),
  and then leave as one request — so under load a block carries what arrived
  during one leader-CPU cycle, and there is no batch size or timeout to tune.
* ``svc-balance-query`` — read a key from the honest observer's world state
  (answered with ``svc-balance-reply``).
* ``svc-pong`` — sent once, unprompted: the boot announcement carrying the
  ``(host, port)`` the shard bound, which is the gateway's readiness signal.
* ``svc-shutdown`` — drain and exit cleanly.

Every committed receipt flows back to the gateway as a ``svc-receipts``
frame (one per block, carrying the block's height) — the gateway's 2PC
coordinator consumes them exactly where the sim's
:meth:`ShardPartition._on_commit` consumes ``CommitEvent`` receipts.

``run_shard_node(spec)`` is the picklable ``multiprocessing`` (spawn
context) entry point; ``spec`` is a plain dict so the parent never has to
pickle live objects across the fork boundary.  Its ``"config"`` entry holds
the :class:`~repro.core.config.ShardedSystemConfig` fields of the
deployment, from which :func:`repro.core.splitters.build_committee` builds
the committee — the same definition the simulated engines use.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Any, Dict, List

from repro.consensus.base import CommitEvent, ConsensusReplica
from repro.consensus.cluster import ConsensusCluster
from repro.core.config import ShardedSystemConfig
from repro.core.splitters import build_committee, release_routed_table
from repro.ledger.transaction import Transaction, TransactionReceipt
from repro.runtime.wallclock import AsyncioRuntime
from repro.service.socketnet import SocketNetwork
from repro.sim.network import Message, REQUEST_CHANNEL

#: Node id of the gateway's control-plane agent in every SocketNetwork.
GATEWAY_NODE_ID = 990_000
#: Shard ``s``'s agent is ``SHARD_AGENT_BASE + s`` — far above any replica
#: id (``shard_id * 10_000 + slot``) or client id the cluster mints.
SHARD_AGENT_BASE = 980_000

KIND_SUBMIT = "svc-submit"
KIND_RECEIPTS = "svc-receipts"
KIND_BALANCE_QUERY = "svc-balance-query"
KIND_BALANCE_REPLY = "svc-balance-reply"
KIND_PONG = "svc-pong"
KIND_SHUTDOWN = "svc-shutdown"


def shard_agent_id(shard_id: int) -> int:
    """Node id of shard ``shard_id``'s control-plane agent."""
    return SHARD_AGENT_BASE + shard_id


class ShardAgent:
    """The shard process's gateway-facing control plane.

    A plain network node (``node_id`` + ``deliver``) registered in the
    shard's :class:`SocketNetwork`; the gateway reaches it over TCP frames,
    the local committee's commits reach it through ``subscribe_commits``.
    """

    def __init__(self, shard_id: int, cluster: ConsensusCluster,
                 network: SocketNetwork, stop: asyncio.Event) -> None:
        self.shard_id = shard_id
        self.node_id = shard_agent_id(shard_id)
        self.cluster = cluster
        self.network = network
        self._stop = stop
        self.submits_received = 0
        self.requests_handed = 0
        self.receipts_sent = 0
        #: Transactions not yet handed to the committee, in arrival order,
        #: and whether a request of ours still occupies its replica's CPU.
        self._buffer: List[Transaction] = []
        self._request_waiting = False
        network.register(self)
        cluster.subscribe_commits(self._on_commit)

    # ------------------------------------------------------------- inbound
    def deliver(self, message: Message) -> None:
        if message.kind == KIND_SUBMIT:
            self.submits_received += len(message.payload)
            self._buffer.extend(message.payload)
            if not self._request_waiting:
                self._hand_over()
        elif message.kind == KIND_BALANCE_QUERY:
            self._answer_balance(message.payload)
        elif message.kind == KIND_SHUTDOWN:
            if self._buffer:
                self._hand_over()
            self._stop.set()

    def _hand_over(self) -> None:
        """Everything buffered becomes one client request to the committee."""
        transactions, self._buffer = self._buffer, []
        self.requests_handed += 1
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

    def _answer_balance(self, query: Dict[str, Any]) -> None:
        observer = self.cluster.honest_observer()
        self._send_to_gateway(KIND_BALANCE_REPLY, {
            "query_id": query["query_id"],
            "key": query["key"],
            "value": observer.state.get(query["key"]),
            "shard_id": self.shard_id,
        })

    # ------------------------------------------------------------ outbound
    def _on_commit(self, event: CommitEvent) -> None:
        receipts: List[TransactionReceipt] = list(event.receipts)
        if not receipts:
            return
        self.receipts_sent += len(receipts)
        self._send_to_gateway(KIND_RECEIPTS, {
            "shard_id": self.shard_id,
            "height": event.block.header.height,
            "receipts": receipts,
        }, size_bytes=512 * len(receipts))

    def _send_to_gateway(self, kind: str, payload: Any,
                         size_bytes: int = 512) -> None:
        message = Message(sender=self.node_id, kind=kind, payload=payload,
                          size_bytes=size_bytes, channel=REQUEST_CHANNEL)
        self.network.send(self.node_id, GATEWAY_NODE_ID, message)


async def _shard_main(spec: Dict[str, Any]) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)

    shard_id = int(spec["shard_id"])
    config = ShardedSystemConfig(**spec["config"])
    # Seeded exactly like the sim's shard cluster (config.seed + shard_id)
    # so both runtimes fork the same per-label rng streams.
    runtime = AsyncioRuntime(loop=loop, seed=config.seed + shard_id)
    host = spec.get("host", "127.0.0.1")
    network = SocketNetwork(runtime, listen_host=host)
    port = await network.start()
    network.add_peer(GATEWAY_NODE_ID, spec["gateway_host"], int(spec["gateway_port"]))

    # The same committee (chaincode, initial slice) sim mode builds — the
    # differential oracle needs byte-identical behaviour on both sides.
    cluster = build_committee(config, shard_id, runtime, network)
    # This process builds one committee; the other shards' slices can go.
    release_routed_table()
    agent = ShardAgent(shard_id, cluster, network, stop)
    # Announce readiness and where to reach this shard: the gateway's boot
    # barrier waits for exactly this pong from every shard.
    agent._send_to_gateway(KIND_PONG, {"shard_id": shard_id,
                                       "host": host, "port": port})
    await stop.wait()
    await network.close()


def run_shard_node(spec: Dict[str, Any]) -> None:
    """``multiprocessing`` entry point: host one shard until shutdown."""
    asyncio.run(_shard_main(spec))
