"""Fuzzing the two decoders of outside input: frames and HTTP requests.

``read_frame`` turns socket bytes into a wire object, ``None`` (clean EOF)
or ``FrameError``; ``GatewayHttp._read_request`` turns them into a parsed
request, ``None`` or ``BadRequest``.  No input may end any other way — no
other exception escapes, and nothing hangs.
"""

from __future__ import annotations

import asyncio
import pickle
import struct

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import codec
from repro.service.frames import FrameError, read_frame
from repro.service.gateway import BadRequest, GatewayHttp, _read_line

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def _run(coroutine):
    async def bounded():
        return await asyncio.wait_for(coroutine, timeout=5.0)

    return asyncio.run(bounded())


_primitives = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=12) | st.binary(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)

#: Raw bytes; bytes behind a valid length prefix; pickles of arbitrary
#: primitive structures (tag-shaped or not), whole or cut short.
_frames = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(_frame),
    st.tuples(_primitives, st.integers(0, 8)).map(
        lambda pair: _frame(pickle.dumps(pair[0])[:len(pickle.dumps(pair[0])) - pair[1]])),
    st.tuples(st.sampled_from(["", "Command", "Transaction", "TxStatus", "Message"]),
              st.lists(_primitives, max_size=8)).map(
        lambda pair: _frame(pickle.dumps((pair[0], *pair[1])))),
)


@FUZZ
@given(_frames)
def test_read_frame_ends_as_a_wire_object_none_or_frame_error(data):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        try:
            return await read_frame(reader)
        except FrameError:
            return FrameError

    result = _run(scenario())
    if result is not FrameError and result is not None:
        codec.encode(result)  # a wire object: it encodes again


_token = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=20)
_requests = st.one_of(
    st.binary(max_size=200),
    st.binary(min_size=65, max_size=300),  # past the reader's 64-byte limit
    st.builds(
        lambda method, target, version, headers, length, body: (
            f"{method} {target} {version}\r\n"
            + "".join(f"{name}: {value}\r\n" for name, value in headers)
            + ("" if length is None else f"Content-Length: {length}\r\n")
            + "\r\n").encode("latin-1") + body,
        st.sampled_from(["GET", "POST", "get", ""]) | _token,
        st.sampled_from(["/health", "/tx?wait=1&timeout=2", "/tx/abc"]) | _token,
        st.sampled_from(["HTTP/1.1", "HTTP/1.0"]) | _token,
        st.lists(st.tuples(_token, _token), max_size=4),
        st.none() | st.integers(-5, 2**40).map(str) | _token,
        st.binary(max_size=40)),
)


@FUZZ
@given(_requests)
def test_read_request_ends_as_a_request_none_or_bad_request(data):
    http = GatewayHttp(service=None)

    async def scenario():
        reader = asyncio.StreamReader(limit=64)
        reader.feed_data(data)
        reader.feed_eof()
        try:
            return await http._read_request(await _read_line(reader), reader)
        except BadRequest:
            return BadRequest

    result = _run(scenario())
    if result is not BadRequest and result is not None:
        method, path, query, body, keep_alive = result
        assert isinstance(body, bytes) and isinstance(keep_alive, bool)
