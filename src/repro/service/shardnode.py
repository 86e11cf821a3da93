"""One shard as a real process: AsyncioRuntime + SocketNetwork + the
unchanged :class:`~repro.consensus.cluster.ConsensusCluster`.

Each shard process hosts its whole committee locally — the replicas talk to
each other through the in-memory half of the :class:`SocketNetwork` exactly
as they do in the simulator — and exposes one control-plane object, the
:class:`ShardAgent`, to the gateway over TCP frames.  The agent speaks a
four-verb protocol:

* ``svc-submit`` — a tuple of transactions; handed to the committee through
  the unchanged ``ConsensusCluster.submit`` request path.
* ``svc-balance-query`` — read a key from the honest observer's world state
  (answered with ``svc-balance-reply``).
* ``svc-ping`` / ``svc-pong`` — liveness and readiness.
* ``svc-shutdown`` — drain and exit cleanly.

Every committed receipt flows back to the gateway as a ``svc-receipts``
frame — the gateway's 2PC coordinator consumes them exactly where the sim's
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

from repro.consensus.base import CommitEvent
from repro.consensus.cluster import ConsensusCluster
from repro.core.config import ShardedSystemConfig
from repro.core.splitters import build_committee
from repro.ledger.transaction import TransactionReceipt
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
KIND_PING = "svc-ping"
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
        self.receipts_sent = 0
        network.register(self)
        cluster.subscribe_commits(self._on_commit)

    # ------------------------------------------------------------- inbound
    def deliver(self, message: Message) -> None:
        if message.kind == KIND_SUBMIT:
            self.submits_received += len(message.payload)
            self.cluster.submit(list(message.payload))
        elif message.kind == KIND_BALANCE_QUERY:
            self._answer_balance(message.payload)
        elif message.kind == KIND_PING:
            self._send_to_gateway(KIND_PONG, {
                "shard_id": self.shard_id,
                "ping_id": message.payload.get("ping_id"),
                "height": self.cluster.honest_observer().blockchain.height,
            })
        elif message.kind == KIND_SHUTDOWN:
            self._stop.set()

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
    network = SocketNetwork(runtime, listen_host=spec.get("host", "127.0.0.1"))
    await network.start(int(spec["port"]))
    network.add_peer(GATEWAY_NODE_ID, spec["gateway_host"], int(spec["gateway_port"]))

    # The same committee (chaincode, initial slice) sim mode builds — the
    # differential oracle needs byte-identical behaviour on both sides.
    cluster = build_committee(config, shard_id, runtime, network)
    agent = ShardAgent(shard_id, cluster, network, stop)
    # Announce readiness: the gateway's wait_ready polls with pings, but an
    # unprompted pong cuts one round-trip from the boot barrier.
    agent._send_to_gateway(KIND_PONG, {"shard_id": shard_id, "ping_id": None,
                                       "height": 0})
    await stop.wait()
    await network.close()


def run_shard_node(spec: Dict[str, Any]) -> None:
    """``multiprocessing`` entry point: host one shard until shutdown."""
    asyncio.run(_shard_main(spec))
