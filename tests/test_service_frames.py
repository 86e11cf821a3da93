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


class _RecordingWriter:
    """A stand-in ``StreamWriter`` that records every write."""

    def __init__(self, fail_drain: bool = False) -> None:
        self.peer = None  # the link's reader, made once a loop runs
        self.fail_drain = fail_drain
        self.writes = []
        self.closed = False

    def write(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    async def drain(self) -> None:
        if self.fail_drain:
            self.peer.feed_eof()  # the peer's death is also seen as EOF
            raise ConnectionResetError("peer died mid-batch")

    def close(self) -> None:
        self.closed = True


def _link_to_fake_peer(monkeypatch, fail_drain: bool = False) -> _RecordingWriter:
    """Make the next outgoing link connect to a recording writer."""
    writer = _RecordingWriter(fail_drain)

    async def open_connection(host, port):
        writer.peer = asyncio.StreamReader()
        return writer.peer, writer

    monkeypatch.setattr(asyncio, "open_connection", open_connection)
    return writer


async def _decode(data: bytes):
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    decoded = []
    while (message := await read_frame(reader)) is not None:
        decoded.append(message)
    return decoded


PEER = 9


def _send(network: SocketNetwork, count: int) -> None:
    for index in range(count):
        network.send(1, PEER, Message(sender=1, kind="batch", payload=index))


class TestBatchedWrites:
    def test_messages_queued_in_one_turn_leave_in_one_write(self, monkeypatch):
        writer = _link_to_fake_peer(monkeypatch)

        async def scenario():
            network = SocketNetwork(AsyncioRuntime(seed=0))
            network.add_peer(PEER, "127.0.0.1", 1)
            _send(network, 5)
            for _ in range(100):
                if writer.writes:
                    break
                await asyncio.sleep(0.01)
            await network.close()
            return [await _decode(data) for data in writer.writes]

        batches = asyncio.run(scenario())
        assert len(batches) == 1
        assert [message.payload for message in batches[0]] == [0, 1, 2, 3, 4]
        assert {message.recipient for message in batches[0]} == {PEER}

    def test_close_flushes_what_was_queued_before_it(self, monkeypatch):
        writer = _link_to_fake_peer(monkeypatch)

        async def scenario():
            network = SocketNetwork(AsyncioRuntime(seed=0))
            network.add_peer(PEER, "127.0.0.1", 1)
            _send(network, 3)
            await network.close()
            return [await _decode(data) for data in writer.writes]

        batches = asyncio.run(scenario())
        assert [[message.payload for message in batch] for batch in batches] == [[0, 1, 2]]
        assert writer.closed

    def test_peer_dying_mid_batch_is_reported_once_and_counts_the_unsent(
            self, monkeypatch):
        writer = _link_to_fake_peer(monkeypatch, fail_drain=True)

        async def scenario():
            network = SocketNetwork(AsyncioRuntime(seed=0))
            downs = []
            network.on_peer_down = lambda node_ids, exc: downs.append(node_ids)
            network.add_peer(PEER, "127.0.0.1", 1)
            _send(network, 4)
            for _ in range(100):
                if downs:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)  # room for a second, wrong report
            _send(network, 1)  # to a link already down
            await network.close()
            return downs, network.stats.messages_dropped

        downs, dropped = asyncio.run(scenario())
        assert downs == [[PEER]]
        assert len(writer.writes) == 1
        assert dropped == 5
