"""Malformed HTTP requests to the gateway: a ``400``, and nothing admitted.

A non-numeric or negative ``Content-Length`` used to escape ``_handle`` as a
``ValueError`` and drop the connection without a response; so did a bad
``POST /tx?wait=1&timeout=...`` — and that one was parsed only after the
transaction had been admitted — and a JSON body that is not an object,
whose ``TypeError`` escaped the same way.  The gateway here has no shard processes:
nothing in these requests may get far enough to need one.  Where a request
must pass the boot barrier, a listening socket announces itself as every
shard and records the kinds of the frames it receives.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import codec
from repro.runtime.wallclock import AsyncioRuntime
from repro.service import frames, gateway
from repro.service.gateway import GatewayHttp, GatewayService
from repro.service.shardnode import KIND_PONG, KIND_SUBMIT, shard_agent_id
from repro.sim.network import Message

PAYMENT = json.dumps({"function": "sendPayment",
                      "args": {"from": "0", "to": "1", "amount": 1}})


async def _announce_sink_shards(service: GatewayService, count: int):
    """One listening socket that announces itself as the first ``count``
    shards (all of them pass the gateway's boot barrier); returns it and the
    kinds of the frames it receives, in order."""
    kinds = []

    async def sink(reader, writer):
        while (message := await frames.read_frame(reader)) is not None:
            kinds.append(message.kind)
        writer.close()

    server = await asyncio.start_server(sink, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    for shard in range(count):
        service.deliver(Message(
            sender=shard_agent_id(shard), kind=KIND_PONG,
            payload={"shard_id": shard, "host": "127.0.0.1", "port": port}))
    return server, kinds


def _exchange_raw(head: str, body: str = "", announced: int = 0):
    """Send one raw request after ``announced`` of the two shards announced
    themselves; return (raw response, gateway service, frame kinds the
    shards received — None if none announced)."""
    async def scenario():
        runtime = AsyncioRuntime(loop=asyncio.get_running_loop())
        service = GatewayService(runtime, num_shards=2)
        server, kinds = ((await _announce_sink_shards(service, announced))
                         if announced else (None, None))
        http = GatewayHttp(service, port=0)
        port = await http.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(head.encode() + b"\r\n\r\n" + body.encode())
            response = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
        finally:
            await http.close()
            await service.close()
            if server is not None:
                server.close()
                await server.wait_closed()
        return response, service, kinds

    return asyncio.run(scenario())


def _exchange(head: str, body: str = ""):
    """Send one raw request; return (status, JSON body, transactions begun)."""
    response, service, _ = _exchange_raw(head, body)
    assert response, "connection dropped without a response"
    status_line, _, rest = response.partition(b"\r\n")
    return (int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2]),
            service.submitted)


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_bad_content_length_is_a_400(length):
    status, payload, started = _exchange(
        f"POST /tx HTTP/1.1\r\nContent-Length: {length}", PAYMENT)
    assert status == 400
    assert "Content-Length" in payload["error"]
    assert started == 0


@pytest.mark.parametrize("timeout", ["abc", "-1", "nan"])
def test_bad_wait_timeout_is_a_400_before_admission(timeout):
    status, payload, started = _exchange(
        f"POST /tx?wait=1&timeout={timeout} HTTP/1.1\r\n"
        f"Content-Length: {len(PAYMENT)}", PAYMENT)
    assert status == 400
    assert "timeout" in payload["error"]
    assert started == 0


@pytest.mark.parametrize("body", ["[]", '"x"', "7", "null"])
def test_non_object_json_body_is_a_400_before_admission(body):
    status, payload, started = _exchange(
        f"POST /tx HTTP/1.1\r\nContent-Length: {len(body)}", body)
    assert status == 400
    assert "JSON object" in payload["error"]
    assert started == 0


@pytest.mark.parametrize("head, status", [
    (f"GET /health HTTP/1.1\r\nX-Padding: {'a' * 70_000}", 400),
    (f"GET /{'a' * 70_000} HTTP/1.1", 400),
    ("POST /tx HTTP/1.1\r\nContent-Length: 70000000", 413),
], ids=["long-header", "long-request-line", "body-over-frame-cap"])
def test_oversized_request_is_answered_not_dropped(head, status):
    status_code, payload, started = _exchange(head)
    assert status_code == status
    assert payload["error"]
    assert started == 0


@pytest.mark.parametrize("function", [7, None, ["sendPayment"]])
def test_a_transaction_its_home_would_refuse_is_a_400_before_admission(function):
    """A non-string ``function`` makes a transaction the home shard refuses
    as a malformed frame, closing the gateway's link to it — which the
    gateway cannot tell from the shard dying.  So it never leaves the gateway."""
    body = json.dumps({"function": function,
                       "args": {"from": "0", "to": "1", "amount": 1}})
    status, payload, started = _exchange(
        f"POST /tx HTTP/1.1\r\nContent-Length: {len(body)}", body)
    assert status == 400
    assert "must be strings" in payload["error"]
    assert started == 0


def test_a_body_whose_frame_would_exceed_the_cap_is_a_413_before_admission(monkeypatch):
    """A body under the frame cap can still encode to a ``svc-submit`` frame
    over it (a compact ``0.5`` is 4 bytes of JSON and 9 encoded).  The
    gateway's own write would then fail its link to the home shard, which it
    cannot tell from the shard dying — so the frame is sized at admission."""
    monkeypatch.setattr(frames, "MAX_FRAME_BYTES", 4096)
    monkeypatch.setattr(gateway, "MAX_FRAME_BYTES", 4096)
    body = json.dumps({"function": "sendPayment",
                       "args": {"from": "0", "to": "1", "amount": 1, "pad": [0.5] * 700}},
                      separators=(",", ":"))
    assert len(body) < 4096
    response, service, kinds = _exchange_raw(
        f"POST /tx HTTP/1.1\r\nContent-Length: {len(body)}", body, announced=2)
    assert response.startswith(b"HTTP/1.1 413 ")
    assert b"cap" in response
    assert service.submitted == service.in_flight == 0
    assert KIND_SUBMIT not in kinds
    assert not service._down  # the link to the home shard survived


@pytest.mark.parametrize("announced", [0, 1])
@pytest.mark.parametrize("head, body", [
    (f"POST /tx HTTP/1.1\r\nContent-Length: {len(PAYMENT)}", PAYMENT),
    ("GET /balance/acc_0 HTTP/1.1", ""),
], ids=["post-tx", "get-balance"])
def test_a_request_before_every_shard_announced_itself_is_a_503(head, body, announced):
    """A gateway whose shards have not all ponged has no route to some of
    them: a submit used to be registered and then fail to send, leaking an
    in-flight slot and dropping the connection without an answer."""
    response, service, kinds = _exchange_raw(head, body, announced)
    assert response.startswith(b"HTTP/1.1 503 ")
    assert b"\r\nRetry-After: 1\r\n" in response
    assert f"shards {list(range(announced, 2))} have not announced".encode() in response
    assert service.submitted == service.in_flight == 0
    assert not kinds  # nothing was sent to the shard that did announce


def test_a_submit_is_encoded_once(monkeypatch):
    """Admission sizes the ``svc-submit`` frame by encoding it, and the link
    writes those very bytes."""
    encodes = []
    real_dumps = codec.dumps

    def counting_dumps(payload):
        encodes.append(getattr(payload, "kind", type(payload).__name__))
        return real_dumps(payload)

    monkeypatch.setattr(codec, "dumps", counting_dumps)

    async def scenario():
        runtime = AsyncioRuntime(loop=asyncio.get_running_loop())
        service = GatewayService(runtime, num_shards=2)
        server, kinds = await _announce_sink_shards(service, 2)
        try:
            tx = service.build_transaction("sendPayment",
                                           {"from": "0", "to": "1", "amount": 1})
            service.submit_transaction(tx)
            for _ in range(250):
                if KIND_SUBMIT in kinds:
                    break
                await asyncio.sleep(0.02)
        finally:
            await service.close()
            server.close()
            await server.wait_closed()
        return kinds

    kinds = asyncio.run(scenario())
    assert kinds.count(KIND_SUBMIT) == 1
    assert encodes.count(KIND_SUBMIT) == 1
