"""``repro-serve``: boot an N-shard wall-clock cluster on localhost.

One process per shard (``multiprocessing`` spawn context — specs are plain
dicts, never live objects) plus the gateway in the parent process.  The
lifecycle is::

    repro-serve --shards 2 --committee 4 --protocol AHL --port 8080
    {"event": "ready", "endpoint": "http://127.0.0.1:8080", ...}
    ...
    SIGTERM / SIGINT
    {"event": "drained", "submitted": N, "committed": C, ...}  → exit 0

Shutdown is graceful: admissions stop first (new ``POST /tx`` gets 503),
in-flight transactions drain up to ``--drain-timeout`` seconds, shard
processes are asked to exit over their frame links, and only stragglers are
terminated.  The machine-readable stdout lines are what the shutdown tests
and the CI smoke job consume.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import signal
from typing import Any, Dict, List, Optional

from repro.runtime.wallclock import AsyncioRuntime
from repro.service.gateway import GatewayHttp, GatewayService
from repro.service.shardnode import KIND_SHUTDOWN, run_shard_node


class ServiceCluster:
    """An N-shard cluster: shard processes + gateway, one object to boot/stop."""

    def __init__(self, num_shards: int = 2, committee_size: int = 4,
                 protocol: str = "AHL", seed: int = 0,
                 benchmark: str = "smallbank", num_keys: int = 10_000,
                 http_host: str = "127.0.0.1", http_port: int = 0,
                 max_inflight: int = 256, prepare_timeout: float = 5.0,
                 consensus_overrides: Optional[Dict[str, Any]] = None) -> None:
        self.num_shards = num_shards
        self.http_host = http_host
        self.http_port = http_port
        self.max_inflight = max_inflight
        #: The fields of the ShardedSystemConfig each shard partition is
        #: built from.  No reference committee: the trusted coordinator, until
        #: R runs as a process.  No relay delay: the socket is the hop.  No
        #: retained 2PC records: the gateway keeps the one ``/tx/{id}`` reads.
        self.config: Dict[str, Any] = {
            "num_shards": num_shards,
            "committee_size": committee_size,
            "protocol": protocol,
            "seed": seed,
            "benchmark": benchmark,
            "num_keys": num_keys,
            "consensus_overrides": dict(consensus_overrides or {}),
            "use_reference_committee": False,
            "prepare_timeout": prepare_timeout,
            "relay_delay": 0.0,
            "retain_tx_records": False,
        }
        self.runtime: Optional[AsyncioRuntime] = None
        self.service: Optional[GatewayService] = None
        self.http: Optional[GatewayHttp] = None
        self.processes: List[multiprocessing.process.BaseProcess] = []

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self.runtime = AsyncioRuntime(loop=loop, seed=self.config["seed"])
        self.service = GatewayService(
            self.runtime, self.num_shards, benchmark=self.config["benchmark"],
            max_inflight=self.max_inflight)
        gateway_port = await self.service.start(0)
        ctx = multiprocessing.get_context("spawn")
        # Each shard binds a port of its own and announces it with its first
        # pong; the gateway registers the peer then (GatewayService._on_pong).
        for shard_id in range(self.num_shards):
            spec = {
                "shard_id": shard_id,
                "config": self.config,
                "gateway_host": "127.0.0.1",
                "gateway_port": gateway_port,
            }
            process = ctx.Process(target=run_shard_node, args=(spec,), daemon=True)
            process.start()
            self.processes.append(process)
        self.http = GatewayHttp(self.service, self.http_host, self.http_port)
        self.http_port = await self.http.start()

    async def wait_ready(self, timeout: float = 60.0) -> None:
        assert self.service is not None
        await self.service.wait_ready(timeout)

    @property
    def endpoint(self) -> str:
        return f"http://{self.http_host}:{self.http_port}"

    async def stop(self, timeout: float = 5.0) -> None:
        if self.http is not None:
            await self.http.close()
        if self.service is not None:
            for shard_id in range(self.num_shards):
                if self.service.shard_state(shard_id) == "up":
                    self.service._send_frame(shard_id, KIND_SHUTDOWN, None)
            deadline = asyncio.get_running_loop().time() + timeout
            while (any(p.is_alive() for p in self.processes)
                   and asyncio.get_running_loop().time() < deadline):
                await asyncio.sleep(0.05)
            await self.service.close()
        for process in self.processes:
            if process.is_alive():
                process.terminate()
            process.join(timeout=1.0)


# ----------------------------------------------------------------- console
def _parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the sharded-blockchain stack as a localhost cluster.")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--committee", type=int, default=4)
    parser.add_argument("--protocol", default="AHL")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--benchmark", default="smallbank",
                        choices=("smallbank", "kvstore"))
    parser.add_argument("--num-keys", type=int, default=10_000)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="HTTP port (0 picks a free one; printed on ready)")
    parser.add_argument("--max-inflight", type=int, default=256)
    parser.add_argument("--prepare-timeout", type=float, default=5.0)
    parser.add_argument("--drain-timeout", type=float, default=10.0)
    return parser.parse_args(argv)


async def _amain(args: argparse.Namespace) -> int:
    cluster = ServiceCluster(
        num_shards=args.shards, committee_size=args.committee,
        protocol=args.protocol, seed=args.seed, benchmark=args.benchmark,
        num_keys=args.num_keys, http_host=args.host, http_port=args.port,
        max_inflight=args.max_inflight, prepare_timeout=args.prepare_timeout)
    await cluster.start()
    try:
        await cluster.wait_ready()
    except TimeoutError as exc:
        print(json.dumps({"event": "failed", "error": str(exc)}), flush=True)
        await cluster.stop()
        return 1
    # Handlers first: whoever reads "ready" may signal at once, and an
    # unhandled SIGTERM would kill this process without draining.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    print(json.dumps({
        "event": "ready",
        "endpoint": cluster.endpoint,
        "shard_pids": [process.pid for process in cluster.processes],
        "shards": args.shards,
        "committee": args.committee,
        "protocol": args.protocol,
        "seed": args.seed,
        "benchmark": args.benchmark,
    }), flush=True)
    await stop.wait()
    assert cluster.service is not None
    summary = await cluster.service.drain(args.drain_timeout)
    await cluster.stop()
    print(json.dumps({"event": "drained", **summary}), flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    return asyncio.run(_amain(_parse_args(argv)))


if __name__ == "__main__":
    raise SystemExit(main())
