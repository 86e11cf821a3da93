"""Malformed frames on the service wire: ``FrameError`` and a closed connection.

Regression tests for ``service/frames.py::read_frame`` (an undecodable body
used to escape as ``UnpicklingError`` / ``EOFError``) and
``SocketNetwork._handle_inbound`` (a well-formed pickle of a non-``Message``
used to kill the connection task with ``AttributeError``): every malformed
input must end as ``FrameError`` / a closed connection, never as a task that
dies with an unretrieved exception — and the listener keeps serving.
"""

from __future__ import annotations

import asyncio
import pickle
import struct

import pytest

from repro.runtime import AsyncioRuntime
from repro.service.frames import FrameError, read_frame, write_frame
from repro.service.socketnet import SocketNetwork
from repro.sim.network import Message


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


MALFORMED = {
    "garbage": _frame(b"garbage-not-pickle"),
    "empty-body": _frame(b""),
    "truncated-pickle": _frame(pickle.dumps({"k": list(range(50))})[:-7]),
    "truncated-body": _frame(pickle.dumps("payload"))[:-3],
    "truncated-header": b"\x00\x00",
    "oversized": struct.pack(">I", 0xFFFFFFFF) + b"x",
}


class TestReadFrame:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_input_raises_frame_error(self, name):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(MALFORMED[name])
            reader.feed_eof()
            with pytest.raises(FrameError):
                await read_frame(reader)

        asyncio.run(scenario())

    def test_well_formed_frames_and_clean_eof(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(_frame(pickle.dumps({"a": 1})) + _frame(pickle.dumps(1)))
            reader.feed_eof()
            return [await read_frame(reader) for _ in range(3)]

        assert asyncio.run(scenario()) == [{"a": 1}, 1, None]


class _Sink:
    """A local network node that records what it is delivered."""

    node_id = 7

    def __init__(self) -> None:
        self.delivered = []

    def deliver(self, message: Message) -> None:
        self.delivered.append(message)


class TestSocketNetworkInbound:
    @pytest.mark.parametrize("name", sorted(MALFORMED) + ["type-confused"])
    def test_malformed_frame_closes_the_connection_and_listener_survives(self, name):
        # A valid pickle that is not a Message must be refused like garbage.
        data = MALFORMED.get(name, _frame(pickle.dumps(1)))

        async def scenario():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
            network = SocketNetwork(AsyncioRuntime(seed=0))
            sink = _Sink()
            network.register(sink)
            port = await network.start(0)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(data)
                writer.write_eof()
                # The listener must hang up (EOF), not hang or crash.
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
                writer.close()

                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                await write_frame(writer, Message(sender=1, kind="after",
                                                  payload="still-alive",
                                                  recipient=sink.node_id))
                for _ in range(100):
                    if sink.delivered:
                        break
                    await asyncio.sleep(0.02)
                writer.close()
            finally:
                await network.close()
            await asyncio.sleep(0)  # let done-callbacks report task deaths
            return sink.delivered, unhandled

        delivered, unhandled = asyncio.run(scenario())
        assert [message.payload for message in delivered] == ["still-alive"]
        assert unhandled == [], f"connection task died: {unhandled}"
