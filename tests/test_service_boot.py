"""Boot barrier: readiness is an event, shards bind their own ports.

Each shard process binds port 0, then announces ``(host, port)`` with its
first pong; the gateway registers the peer on that pong and ``wait_ready``
returns the moment the last shard has announced itself.  There is no
sleep-and-poll step to quantise the boot and no bind-close-reuse port race
to lose a shard process (about one boot in 450 used to hang on it).
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.runtime.wallclock import AsyncioRuntime
from repro.service.gateway import GatewayService
from repro.service.serve import ServiceCluster

BOOTS = 50
SLOWEST_BOOT_S = 5.0


async def _boot_once() -> float:
    cluster = ServiceCluster(num_shards=2, committee_size=4, protocol="AHL",
                             seed=3, num_keys=50)
    started = time.perf_counter()
    await cluster.start()
    try:
        await cluster.wait_ready(timeout=30.0)
        elapsed = time.perf_counter() - started
        assert cluster.service.health()["status"] == "ok"
        return elapsed
    finally:
        await cluster.stop()
        assert not any(process.is_alive() for process in cluster.processes)


def test_fifty_back_to_back_boots_all_reach_ready():
    boots = [asyncio.run(_boot_once()) for _ in range(BOOTS)]
    assert max(boots) < SLOWEST_BOOT_S, sorted(boots)[-5:]


def test_a_shard_that_never_announces_is_a_timeout_not_a_hang():
    async def scenario() -> None:
        runtime = AsyncioRuntime(loop=asyncio.get_running_loop())
        service = GatewayService(runtime, num_shards=2)
        await service.start()
        try:
            service._on_pong({"shard_id": 0, "host": "127.0.0.1", "port": 1})
            assert service.shard_state(0) == "up"
            assert service.shard_state(1) == "starting"
            with pytest.raises(TimeoutError, match=r"\[1\]"):
                await service.wait_ready(timeout=0.2)
        finally:
            await service.close()

    asyncio.run(scenario())


STOPS = 20
SLOWEST_STOP_S = 0.5


async def _boot_then_time_stop() -> float:
    cluster = ServiceCluster(num_shards=2, committee_size=4, protocol="AHL",
                             seed=3, num_keys=50)
    await cluster.start()
    try:
        await cluster.wait_ready(timeout=30.0)
    finally:
        started = time.perf_counter()
        await cluster.stop()
        elapsed = time.perf_counter() - started
    assert not any(process.is_alive() for process in cluster.processes)
    return elapsed


def test_twenty_back_to_back_stops_never_wait_out_a_link_timeout():
    # A shard-to-shard link whose peer exited before it connected sleeps
    # between connect retries; stop() used to wait 2 s for it to read the
    # close marker it would never read.
    stops = [asyncio.run(_boot_then_time_stop()) for _ in range(STOPS)]
    assert max(stops) < SLOWEST_STOP_S, sorted(stops)[-5:]
