"""Persistent HTTP connections between ``ServiceClient`` and the gateway.

The gateway answers request after request on one connection until the
client closes it, asks for ``Connection: close`` or speaks HTTP/1.0; every
4xx/5xx answer closes it.  The client keeps one connection per thread,
replaces one the gateway has hung up, and never re-sends a request that may
have reached the gateway.  The gateways here have no shard processes.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import pytest

from repro.runtime.wallclock import AsyncioRuntime
from repro.service.client import ServiceClient
from repro.service.gateway import GatewayHttp, GatewayService
from repro.service.shardnode import KIND_PONG, shard_agent_id
from repro.sim.network import Message

HEALTH = b"GET /health HTTP/1.1\r\nHost: gateway\r\n\r\n"


class _CountingHttp(GatewayHttp):
    """A gateway front end that counts the connections it accepts."""

    accepts = 0

    async def _handle(self, reader, writer):
        self.accepts += 1
        await super()._handle(reader, writer)


# ------------------------------------------------------------ raw connections
async def _read_response(reader: asyncio.StreamReader):
    """Read one response; returns (status, lower-cased headers, JSON body)."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=5.0)
    status_line, *header_lines = head.decode("latin-1").strip().split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, json.loads(body)


async def _still_open(reader: asyncio.StreamReader) -> bool:
    """True when the gateway neither hangs up nor writes within 0.2 s."""
    try:
        await asyncio.wait_for(reader.read(1), timeout=0.2)
    except asyncio.TimeoutError:
        return True
    return False


def _raw_session(script):
    """Run ``script(reader, writer, http)`` on one raw gateway connection."""
    async def scenario():
        runtime = AsyncioRuntime(loop=asyncio.get_running_loop())
        service = GatewayService(runtime, num_shards=2)
        http = GatewayHttp(service, port=0)
        port = await http.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            return await script(reader, writer, http)
        finally:
            writer.close()
            await http.close()
            await service.close()

    return asyncio.run(scenario())


def test_two_requests_on_one_connection_get_two_answers():
    async def script(reader, writer, _http):
        writer.write(HEALTH + HEALTH)
        first = await _read_response(reader)
        second = await _read_response(reader)
        return first, second, await _still_open(reader)

    first, second, still_open = _raw_session(script)
    assert (first[0], second[0]) == (200, 200)
    assert "connection" not in first[1] and "connection" not in second[1]
    assert still_open


CLOSING_REQUESTS = {
    "bad-content-length": (b"POST /tx HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    "unknown-route": (b"GET /nowhere HTTP/1.1\r\n\r\n", 404),
    "connection-close": (b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n", 200),
    "http-1.0": (b"GET /health HTTP/1.0\r\n\r\n", 200),
}


@pytest.mark.parametrize("name", sorted(CLOSING_REQUESTS))
def test_connection_closes_after_error_or_close_request(name):
    request, expected = CLOSING_REQUESTS[name]

    async def script(reader, writer, _http):
        writer.write(HEALTH)
        kept = await _read_response(reader)
        writer.write(request)
        answer = await _read_response(reader)
        rest = await asyncio.wait_for(reader.read(), timeout=5.0)
        return kept, answer, rest

    kept, (status, headers, _body), rest = _raw_session(script)
    assert kept[0] == 200 and "connection" not in kept[1]
    assert status == expected
    assert headers["connection"] == "close"
    assert rest == b""


def test_close_hangs_up_an_idle_keep_alive_client_within_a_second():
    async def script(reader, writer, http):
        writer.write(HEALTH)
        await _read_response(reader)
        attached = await _still_open(reader)
        await asyncio.wait_for(http.close(), timeout=1.0)
        rest = await asyncio.wait_for(reader.read(), timeout=1.0)
        return attached, rest

    attached, rest = _raw_session(script)
    assert attached
    assert rest == b""


# ---------------------------------------------------------- ServiceClient
class _ThreadedGateway:
    """A shard-less gateway on an event-loop thread, for blocking clients."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.service = self.call(self._service())
        self.http = self.start_http(0)
        self.client = ServiceClient(f"http://127.0.0.1:{self.http.port}")

    def call(self, coroutine, timeout: float = 10.0):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(timeout)

    async def _service(self) -> GatewayService:
        return GatewayService(AsyncioRuntime(loop=self.loop), num_shards=2)

    def start_http(self, port: int, cls=_CountingHttp) -> GatewayHttp:
        http = cls(self.service, port=port)
        self.call(http.start())
        return http

    def __enter__(self) -> "_ThreadedGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.call(self.http.close())
        self.call(self.service.close())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=5.0)
        self.loop.close()


def test_client_uses_one_connection_per_thread():
    with _ThreadedGateway() as gateway:
        for _ in range(20):
            assert gateway.client.health()["status"] == "degraded"
        assert gateway.http.accepts == 1

        shared = ServiceClient(f"127.0.0.1:{gateway.http.port}")
        threads = [threading.Thread(target=lambda: [shared.health() for _ in range(10)])
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert gateway.http.accepts == 3


def test_client_replaces_a_connection_the_gateway_dropped():
    with _ThreadedGateway() as gateway:
        gateway.client.health()
        gateway.client.health()
        assert gateway.http.accepts == 1
        # Restart the HTTP front end on the same port: the old one hangs up
        # the client's idle connection.
        port = gateway.http.port
        gateway.call(gateway.http.close())
        gateway.call(asyncio.sleep(0.05))
        gateway.http = gateway.start_http(port)
        assert gateway.client.health()["status"] == "degraded"
        assert gateway.http.accepts == 1


class _DropAfterAdmission(_CountingHttp):
    """Admits ``POST /tx``, then loses the connection before answering."""

    async def _route(self, method, path, query, body):
        answer = await super()._route(method, path, query, body)
        if path == "/tx":
            raise ConnectionResetError("connection lost after admission")
        return answer


def test_a_post_whose_connection_dies_is_raised_not_resent():
    with _ThreadedGateway() as gateway:
        gateway.call(gateway.http.close())
        gateway.http = gateway.start_http(gateway.http.port, cls=_DropAfterAdmission)

        async def sink_shards():
            async def swallow(reader, writer):
                await reader.read()
                writer.close()

            server = await asyncio.start_server(swallow, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            for shard in range(2):  # each announces itself, as a booted shard does
                gateway.service.deliver(Message(
                    sender=shard_agent_id(shard), kind=KIND_PONG,
                    payload={"shard_id": shard, "host": "127.0.0.1", "port": port}))
            return server

        sink = gateway.call(sink_shards())
        try:
            gateway.client.health()
            with pytest.raises((ConnectionError, http.client.HTTPException)):
                gateway.client.submit("sendPayment",
                                      {"from": "0", "to": "1", "amount": 1})
            assert gateway.http.accepts == 1
            assert gateway.service.submitted == 1
            assert gateway.client.health()["submitted"] == 1
            assert gateway.service.submitted == 1
        finally:
            gateway.call(gateway.service.close())
            gateway.loop.call_soon_threadsafe(sink.close)
