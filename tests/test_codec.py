"""The wire codec (``repro.codec``): what crosses the service socket and the
scale-out pipe.

Every registered class round-trips with every field set; a decoded
``Transaction`` re-derives its digest; sets and unregistered types are
refused at encode; unknown tags, wrong arities, globals and fields that do
not match their annotations are refused at decode — and a frame whose body
would run code ends as ``FrameError`` without running it.
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import pickle
import struct
import typing
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro import codec
from repro.codec import CodecError, WIRE_CLASSES, WIRE_ENUMS, decode, encode
from repro.core.driver import DriverStats
from repro.core.homecoord import (
    AdmitReport, Command, MarginReport, TxDone, WindowBlock, WindowResult,
)
from repro.ledger.transaction import Transaction, TransactionReceipt, TxStatus
from repro.service.frames import FrameError, encode_frame, read_frame
from repro.sim.network import Message
from repro.txn.coordinator import CoordinatorStats

TX = Transaction(tx_id="tx-7-abc", chaincode="smallbank", function="sendPayment",
                 args={"from": "1", "to": "2", "amount": 5, "deltas": [("a", -1)]},
                 client_id="c9", keys=("acc_1", "acc_2"), submitted_at=1.25)
RECEIPT = TransactionReceipt(tx_id="tx-7-abc", status=TxStatus.FAILED,
                             result={"prepared": ["acc_1"]}, error="locked",
                             block_height=4, shard_id=1, committed_at=2.5)
COMMAND = Command(due=0.5, dest=4, op="decision", src=2, seq=11, txs=(TX,),
                  tx_id="tx-9", home=1, origin=2, ok=False, reason="wounded",
                  attempt=2, priority=(0.1, 3, 1), committed=True, latency=0.25,
                  epoch=5, node_id=8, logical=3, transfer_override=1.5, marker=6,
                  reply_to=0, receipt=RECEIPT)
TX_DONE = TxDone(time=3.0, shard=1, seq=4, tx_id="tx-9", committed=True,
                 abort_reason="none", started_at=1.0, decided_at=2.0,
                 completed_at=2.5)

#: One instance of every registered class, every field off its default.
SAMPLES = {
    Message: Message(sender=3, kind="svc-submit", payload=(TX,), size_bytes=64,
                     channel="request", recipient=9, sent_at=0.5, msg_id=12),
    Transaction: TX,
    TransactionReceipt: RECEIPT,
    TxStatus: TxStatus.COMMITTED,
    Command: COMMAND,
    TxDone: TX_DONE,
    AdmitReport: AdmitReport(time=1.0, shard=2, seq=3, marker=4, node_id=5,
                             transfer=0.75),
    MarginReport: MarginReport(time=1.0, shard=2, seq=3, marker=4, margin=-1),
    WindowBlock: WindowBlock(until=0.25, epoch=3, commands=(COMMAND, COMMAND)),
    WindowResult: WindowResult(outputs=(TX_DONE,), routed=(COMMAND,)),
    CoordinatorStats: CoordinatorStats(
        started=1, committed=2, aborted=3, cross_shard=4, latency_sum=5.5,
        latency_count=6, latencies=[0.5, 1.5], duplicate_votes=7,
        duplicate_acks=8, equivocations=9, stale_messages=10,
        coordinator_crashes=11, redriven_transactions=12),
    DriverStats: DriverStats(
        submitted=1, committed=2, aborted=3, in_flight=4, max_in_flight=5,
        dropped_arrivals=6, latency_sum=7.5, latency_count=8,
        abort_reasons={"lock-conflict": 2}, epoch_committed={0: 1, 1: 1},
        epoch_aborted={1: 3}),
}


def _default(field: dataclasses.Field):
    if field.default is not dataclasses.MISSING:
        return field.default
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return dataclasses.MISSING


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def _read(data: bytes):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(scenario())


class TestRoundTrip:
    def test_samples_cover_every_registered_class_with_every_field_set(self):
        assert set(SAMPLES) == set(WIRE_CLASSES) | set(WIRE_ENUMS)
        for cls in WIRE_CLASSES:
            sample = SAMPLES[cls]
            for field in dataclasses.fields(cls):
                assert getattr(sample, field.name) != _default(field), \
                    f"{cls.__name__}.{field.name} is left at its default"

    @pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
    def test_every_registered_class_round_trips_equal(self, cls):
        sample = SAMPLES[cls]
        for clone in (decode(encode(sample)), codec.loads(codec.dumps(sample))):
            assert type(clone) is cls
            assert clone == sample
            if dataclasses.is_dataclass(cls):
                # compare=False fields (Message.sent_at/msg_id) travel too
                for field in dataclasses.fields(cls):
                    assert getattr(clone, field.name) == getattr(sample, field.name)

    def test_containers_keep_their_types(self):
        value = {"t": (1, (2.5, None)), "l": [b"x", ("y",)], 3: {"k": True}, "e": ()}
        assert decode(encode(value)) == value
        assert type(decode(encode(value))["l"][1]) is tuple

    def test_a_decoded_transaction_re_derives_its_digest(self):
        tx = Transaction.create("cc", "f", {"k": "v"}, client_id="c", keys=("k",),
                                submitted_at=1.5)
        assert "_digest" in tx.__dict__
        received = codec.loads(codec.dumps(tx))
        assert received == tx and "_digest" not in received.__dict__
        assert received.digest == tx.digest

    def test_a_frame_round_trips_a_message(self):
        message = SAMPLES[Message]
        assert _read(encode_frame(message)) == message


class TestRefusals:
    @pytest.mark.parametrize("value", [
        {1, 2}, frozenset({"a"}), object(), 1j, bytearray(b"x"),
        Message(sender=1, kind="k", payload={"keys": {"a", "b"}}),
        WindowResult(outputs=({3},)),
    ], ids=["set", "frozenset", "object", "complex", "bytearray",
            "set-in-payload", "set-in-output"])
    def test_encode_refuses_sets_and_unregistered_types(self, value):
        with pytest.raises(CodecError):
            encode(value)

    def test_encode_refuses_a_subclass_of_a_wire_class(self):
        @dataclasses.dataclass
        class Sneaky(Command):
            extra: int = 0

        with pytest.raises(CodecError):
            encode(Sneaky(due=0.0, dest=0, op="vote"))

    @pytest.mark.parametrize("form", [
        ("Popen", "ls"), ("os.system", "id"), ("Command", 0.5), (), (1, 2),
        ("TxStatus", "no-such-status"), {1, 2}, frozenset(), bytearray(b"x"),
    ], ids=["unknown-tag", "dotted-tag", "wrong-arity", "empty-tuple",
            "untagged-tuple", "bad-enum-value", "set", "frozenset", "bytearray"])
    def test_decode_refuses_what_it_did_not_encode(self, form):
        with pytest.raises(Exception) as excinfo:
            decode(form)
        assert isinstance(excinfo.value, (CodecError, ValueError))

    def test_shared_references_cannot_blow_up_a_small_body(self):
        value = [0]
        for _ in range(60):
            value = [value, value]  # 2**60 leaves, a few hundred bytes
        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(body) < 1000
        with pytest.raises(CodecError):
            codec.loads(body)


class _Exec:
    def __reduce__(self):
        return (exec, ("import repro; repro.PWNED = True",))


class TestCodeExecution:
    """A frame is data: a body that names a global ends as FrameError, and
    nothing it names runs."""

    @pytest.mark.parametrize("body", [
        pickle.dumps(_Exec(), protocol=0),
        pickle.dumps(_Exec(), protocol=pickle.HIGHEST_PROTOCOL),
        pickle.dumps(("", _Exec()), protocol=pickle.HIGHEST_PROTOCOL),
        b"cbuiltins\nexec\n(S'import repro; repro.PWNED = True'\ntR.",
        b"cos\nsystem\n.",
    ], ids=["reduce-exec-p0", "reduce-exec-p5", "nested-reduce-exec",
            "global-reduce-exec", "bare-global"])
    def test_a_body_naming_a_global_is_a_frame_error(self, body):
        import repro

        with pytest.raises(FrameError):
            _read(_frame(body))
        assert not hasattr(repro, "PWNED")


#: Per field annotation of a wire class: primitive-form values of another type.
WRONG_TYPED = {
    int: ["7", 7.5, None, True],
    float: ["0.5", None, False, [0.5]],
    str: [7, None, b"x", ["k"]],
    bool: [1, "yes", None],
    Optional[str]: [7, b"x", False],
    Optional[int]: ["3", 2.5, True],
    Optional[float]: ["0.5", [0.5], True],
    TxStatus: ["committed", 1],
    Dict[str, Any]: [["k"], {1: "v"}, ("k",)],
    Dict[str, int]: [{"k": "v"}, {1: 1}, [("k", 1)]],
    Dict[int, int]: [{"0": 1}, {0: 1.5}, []],
    List[float]: [(0.5,), [0.5, "1"], None],
    Tuple[str, ...]: [("a", 1), ["a"], "a"],
    Tuple[float, ...]: [(0.5, "x"), [0.5], (None,)],
    Tuple[Any, ...]: [[TX_DONE], "x"],
    Tuple[Transaction, ...]: [(1,), [TX], (TX, "tx")],
    Tuple[Command, ...]: [(TX,), [COMMAND], (COMMAND, None)],
}
#: (class, field, annotation) of every field of every wire class not annotated Any.
TYPED_FIELDS = [(cls, field.name, typing.get_type_hints(cls)[field.name])
                for cls in WIRE_CLASSES for field in dataclasses.fields(cls)
                if typing.get_type_hints(cls)[field.name] is not Any]


class TestTypedDecode:
    def test_every_field_annotation_has_wrong_typed_values(self):
        assert {hint for _, _, hint in TYPED_FIELDS} <= set(WRONG_TYPED)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(TYPED_FIELDS).flatmap(lambda case: st.tuples(
        st.just(case), st.sampled_from(WRONG_TYPED[case[2]]))))
    def test_a_field_of_the_wrong_type_is_refused(self, case):
        (cls, name, _), value = case
        bad = copy.copy(SAMPLES[cls])
        object.__setattr__(bad, name, value)
        with pytest.raises(CodecError):
            decode(encode(bad))
        with pytest.raises(FrameError):
            _read(encode_frame(bad))
