"""Malformed frames on the service wire: ``FrameError`` and a closed connection.

Regression tests for ``service/frames.py::read_frame`` (an undecodable body
used to escape as ``UnpicklingError`` / ``EOFError``) and
``SocketNetwork._handle_inbound`` (a well-formed pickle of a non-``Message``
used to kill the connection task with ``AttributeError``): every malformed
input must end as ``FrameError`` / a closed connection, never as a task that
dies with an unretrieved exception — and the listener keeps serving.  A shard
holds a well-formed frame to the same rule when its payload has the wrong
shape for its kind (``TestShardPayloadShapes``), and so does the gateway
(``TestGatewayPayloadShapes``).
"""

from __future__ import annotations

import asyncio
import pickle
import struct

import pytest

from repro.core.config import ShardedSystemConfig
from repro.core.homecoord import Command, TxDone
from repro.core.splitters import benchmark_for
from repro.runtime import AsyncioRuntime
from repro.service.frames import FrameError, read_frame, write_frame
from repro.service.gateway import GatewayService
from repro.service.shardnode import (
    GATEWAY_NODE_ID, KIND_BALANCE_QUERY, KIND_BALANCE_REPLY, KIND_BLOCK,
    KIND_COMMAND, KIND_DONE, KIND_PEERS, KIND_PONG, KIND_SUBMIT, LivePartition,
    shard_agent_id,
)
from repro.service.socketnet import SocketNetwork
from repro.sim.network import Message
from repro.workloads.generator import shard_of_key
from repro.workloads.smallbank import account_key


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


# ------------------------------------------------- shard payload shapes
class _GatewaySink:
    """Stands in for the gateway inside the shard's own network."""

    node_id = GATEWAY_NODE_ID

    def __init__(self) -> None:
        self.done = []

    def deliver(self, message: Message) -> None:
        if message.kind == KIND_DONE:
            self.done.append(message.payload)


def _payment(src: str, dst: str):
    return benchmark_for("smallbank").chaincode().new_transaction(
        "sendPayment", {"from": src, "to": dst, "amount": 1})


def _accounts_on(shard: int):
    return [str(i) for i in range(50) if shard_of_key(account_key(str(i)), 2) == shard]


BAD_PAYLOADS = {
    "balance-query-without-query-id": (KIND_BALANCE_QUERY, {"key": "x"}),
    "submit-of-a-non-transaction": (KIND_SUBMIT, (1,)),
    "submit-of-two-transactions": (KIND_SUBMIT, ("tx", "tx")),
    "submit-homed-at-another-shard": (
        KIND_SUBMIT, (_payment(*_accounts_on(1)[:2]),)),
    "command-with-a-control-op": (KIND_COMMAND, Command(due=0.0, dest=0, op="remove")),
    "command-for-another-shard": (KIND_COMMAND, Command(
        due=0.0, dest=1, op="ack", tx_id="tx-1", origin=1)),
    "vote-without-a-tx-id": (KIND_COMMAND, Command(
        due=0.0, dest=0, op="vote", tx_id=7, origin=1)),
    "prepare-without-its-transaction": (KIND_COMMAND, Command(
        due=0.0, dest=0, op="prepare2pc", tx_id="tx-1", home=1)),
    "peer-table-of-strings": (KIND_PEERS, {1: "nowhere"}),
    "unknown-kind": ("svc-teleport", None),
}


class TestShardPayloadShapes:
    """A frame whose payload has the wrong shape for its kind closes its
    connection before anything reaches the committee or the home
    coordinator; the shard keeps serving."""

    @pytest.mark.parametrize("name", sorted(BAD_PAYLOADS))
    def test_bad_payload_closes_the_connection_and_the_shard_still_commits(self, name):
        kind, payload = BAD_PAYLOADS[name]
        config = ShardedSystemConfig(num_shards=2, committee_size=4, protocol="AHL",
                                     use_reference_committee=False, relay_delay=0.0,
                                     retain_tx_records=False, num_keys=50, seed=0)
        good = _payment(*_accounts_on(0)[:2])

        def frame(kind, payload):
            return Message(sender=GATEWAY_NODE_ID, kind=kind, payload=payload,
                           recipient=shard_agent_id(0))

        async def scenario():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
            partition = LivePartition(config, 0, asyncio.Event())
            sink = _GatewaySink()
            partition.network.register(sink)
            port = await partition.network.start(0)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                await write_frame(writer, frame(kind, payload))
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
                writer.close()

                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                await write_frame(writer, frame(KIND_SUBMIT, (good,)))
                for _ in range(300):
                    if sink.done:
                        break
                    await asyncio.sleep(0.05)
                writer.close()
            finally:
                await partition.network.close()
            await asyncio.sleep(0)
            return sink.done, unhandled

        done, unhandled = asyncio.run(scenario())
        assert unhandled == [], f"the loop reported: {unhandled}"
        assert [(report.tx_id, report.committed) for report in done] == [(good.tx_id, True)]


# ----------------------------------------------- gateway payload shapes
def _done(tx_id: str, **fields) -> TxDone:
    values = dict(time=0.0, shard=0, seq=0, tx_id=tx_id, committed=True,
                  abort_reason=None, started_at=0.0, decided_at=0.0,
                  completed_at=0.0)
    values.update(fields)
    return TxDone(**values)


def _block(**fields):
    return {"shard_id": 0, "height": 3, "txs": 2, **fields}


#: name -> (kind, payload given the id of the one pending transaction)
BAD_GATEWAY_PAYLOADS = {
    "block-of-an-unknown-shard": (KIND_BLOCK, lambda _: _block(shard_id=2)),
    "block-of-a-negative-shard": (KIND_BLOCK, lambda _: _block(shard_id=-1)),
    "block-with-a-string-height": (KIND_BLOCK, lambda _: _block(height="3")),
    "block-without-a-count": (KIND_BLOCK, lambda _: {"shard_id": 0, "height": 3}),
    "done-that-is-a-dict": (KIND_DONE, lambda tx_id: {"tx_id": tx_id, "committed": True}),
    "done-with-a-string-outcome": (KIND_DONE, lambda tx_id: _done(tx_id, committed="yes")),
    "pong-without-a-host": (KIND_PONG, lambda _: {"shard_id": 0, "port": 1}),
    "balance-reply-of-a-string-shard": (KIND_BALANCE_REPLY, lambda _: {
        "query_id": 0, "key": "k", "value": 1, "shard_id": "0"}),
    "unknown-kind": ("svc-teleport", lambda _: None),
}


class TestGatewayPayloadShapes:
    """A shard-bound frame kind of the wrong shape reaching the gateway
    closes its connection and changes nothing; the gateway keeps serving."""

    @pytest.mark.parametrize("name", sorted(BAD_GATEWAY_PAYLOADS))
    def test_bad_payload_closes_the_connection_and_changes_nothing(self, name):
        kind, payload = BAD_GATEWAY_PAYLOADS[name]
        tx = _payment(*_accounts_on(0)[:2])

        def frame(kind, payload):
            return Message(sender=shard_agent_id(0), kind=kind, payload=payload,
                           recipient=GATEWAY_NODE_ID)

        async def scenario():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
            service = GatewayService(AsyncioRuntime(loop=loop), num_shards=2)
            port = await service.start(0)
            home = _Sink()  # the home shard's agent, swallowing the submit
            home.node_id = shard_agent_id(0)
            service.network.register(home)
            record, _ = service.submit_transaction(tx)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                await write_frame(writer, frame(kind, payload(tx.tx_id)))
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
                writer.close()
                before = (list(service.blocks), record.outcome.value, service.in_flight)

                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                await write_frame(writer, frame(KIND_BLOCK, _block()))
                await write_frame(writer, frame(KIND_DONE, _done(tx.tx_id)))
                for _ in range(100):
                    if not service.in_flight:
                        break
                    await asyncio.sleep(0.02)
                writer.close()
                after = (list(service.blocks), record.outcome.value, service.in_flight)
            finally:
                await service.close()
            await asyncio.sleep(0)
            return before, after, unhandled

        before, after, unhandled = asyncio.run(scenario())
        assert unhandled == [], f"the loop reported: {unhandled}"
        assert before == ([0, 0], "pending", 1)
        assert after == ([3, 0], "committed", 0)
