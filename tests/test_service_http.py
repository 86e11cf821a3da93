"""Malformed HTTP requests to the gateway: a ``400``, and nothing admitted.

A non-numeric or negative ``Content-Length`` used to escape ``_handle`` as a
``ValueError`` and drop the connection without a response; so did a bad
``POST /tx?wait=1&timeout=...`` — and that one was parsed only after the
transaction had been admitted — and a JSON body that is not an object,
whose ``TypeError`` escaped the same way.  The gateway here has no shard processes:
nothing in these requests may get far enough to need one.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.runtime.wallclock import AsyncioRuntime
from repro.service.gateway import GatewayHttp, GatewayService

PAYMENT = json.dumps({"function": "sendPayment",
                      "args": {"from": "0", "to": "1", "amount": 1}})


def _exchange(head: str, body: str = ""):
    """Send one raw request; return (status, JSON body, transactions begun)."""
    async def scenario():
        runtime = AsyncioRuntime(loop=asyncio.get_running_loop())
        service = GatewayService(runtime, num_shards=2)
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
        return response, service.submitted

    response, started = asyncio.run(scenario())
    assert response, "connection dropped without a response"
    status_line, _, rest = response.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2]), started


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
