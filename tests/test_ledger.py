"""Tests for the ledger substrate: blocks, chains, state, chaincode execution."""

from __future__ import annotations

import collections
import contextlib
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import hashing
from repro.errors import ChaincodeError, InvalidBlockError
from repro.ledger.block import GENESIS_PREV_HASH, BlockHeader, build_block, make_genesis_block
from repro.ledger.blockchain import Blockchain, ForkableChain
from repro.ledger.chaincode import Chaincode, ChaincodeRegistry, ExecutionEngine
from repro.ledger.state import StateStore
from repro.ledger.transaction import Transaction, TxStatus, swap_tx_counter

from digest_oracle import count_calls, json_args, loose, numbers, seed_digest_of, texts


def make_txs(count, prefix="k"):
    return tuple(
        Transaction.create("noop", "put", {"key": f"{prefix}{i}"}, keys=(f"{prefix}{i}",))
        for i in range(count)
    )


class CounterChaincode(Chaincode):
    name = "counter"

    def invoke(self, state: StateStore, function: str, args):
        if function == "increment":
            key = args["key"]
            state.put(key, state.get(key, 0) + 1)
            return state.get(key)
        if function == "fail":
            raise ChaincodeError("intentional failure")
        raise ChaincodeError(f"unknown function {function!r}")


class TestBlocks:
    def test_genesis_block_shape(self):
        genesis = make_genesis_block(shard_id=3)
        assert genesis.height == 0
        assert genesis.prev_hash == GENESIS_PREV_HASH
        assert genesis.header.shard_id == 3
        assert len(genesis) == 0

    def test_block_hash_changes_with_content(self):
        txs = make_txs(3)
        one = build_block(1, "p" * 64, txs, proposer=0)
        two = build_block(1, "p" * 64, txs[:2], proposer=0)
        assert one.block_hash != two.block_hash

    def test_merkle_root_verification(self):
        block = build_block(1, "p" * 64, make_txs(5), proposer=0)
        assert block.verify_merkle_root()

    def test_transaction_ids_are_unique(self):
        txs = make_txs(100)
        assert len({tx.tx_id for tx in txs}) == 100

    @given(st.integers() | numbers, texts | loose, texts | loose, st.integers() | numbers,
           st.integers() | numbers, numbers, st.integers() | numbers)
    def test_header_template_is_digest_of_the_header_dict(
            self, height, prev_hash, merkle_root, proposer, view, timestamp, shard_id):
        """Exact field types take the template; bool/int timestamps, non-finite
        floats and every other type fall through — same hash either way."""
        header = BlockHeader(height, prev_hash, merkle_root, proposer, view, timestamp, shard_id)
        assert header.block_hash == seed_digest_of({
            "height": height, "prev_hash": prev_hash, "merkle_root": merkle_root,
            "proposer": proposer, "view": view, "timestamp": timestamp,
            "shard_id": shard_id})


@contextlib.contextmanager
def tx_counter_at(seq):
    """Mint ids from ``seq`` inside the block, then put the process's stream back."""
    previous = swap_tx_counter(itertools.count(seq))
    try:
        yield
    finally:
        swap_tx_counter(previous)


class TestTransactionDigests:
    @given(texts, texts, st.none() | json_args, texts | loose, st.integers(0, 2**70))
    def test_create_is_the_seed_id_and_content_digest(
            self, chaincode, function, args, client_id, seq):
        with tx_counter_at(seq):
            tx = Transaction.create(chaincode, function, args, client_id=client_id)
        args = args or {}
        assert tx.tx_id == "tx-%d-%s" % (
            seq, seed_digest_of((chaincode, function, args, client_id, seq))[:8])
        assert tx.digest == seed_digest_of({
            "tx_id": tx.tx_id, "chaincode": chaincode, "function": function, "args": args})
        # Nothing but the fields and the 64-char digest is kept per transaction.
        assert set(tx.__dict__) <= {"tx_id", "chaincode", "function", "args", "client_id",
                                    "keys", "submitted_at", "_digest"}

    def test_create_falls_through_for_mapping_args_and_non_str_names(self):
        for chaincode, args in (("cc", collections.OrderedDict(b=1, a=(2, "x"))),
                                (7, {"a": 1}), (None, {})):
            with tx_counter_at(5):
                tx = Transaction.create(chaincode, "f", args)
            assert "_digest" not in tx.__dict__
            assert tx.tx_id == "tx-5-" + seed_digest_of((chaincode, "f", args, "client", 5))[:8]
            assert tx.digest == seed_digest_of({
                "tx_id": tx.tx_id, "chaincode": chaincode, "function": "f", "args": dict(args)})

    def test_create_canonicalises_args_once(self, monkeypatch):
        counts = collections.Counter()
        count_calls(monkeypatch, hashing, "canonical_json", counts)
        tx = Transaction.create("smallbank", "sendPayment",
                                {"from": "1", "to": "2", "amount": 3})
        assert tx.digest and counts["canonical_json"] == 1

    def test_direct_construction_hashes_lazily_through_the_general_path(self):
        tx = Transaction("tx-1-abc", "cc", "f", {"k": [1, 2.5]})
        assert "_digest" not in tx.__dict__
        assert tx.digest == seed_digest_of({
            "tx_id": "tx-1-abc", "chaincode": "cc", "function": "f", "args": {"k": [1, 2.5]}})

    def test_pickling_carries_fields_only(self):
        """The digest cache does not cross a pipe or a socket: the receiver
        re-derives it from the fields it was actually sent."""
        tx = Transaction.create("cc", "f", {"k": "v"}, client_id="c", keys=("k",),
                                submitted_at=1.5)
        assert "_digest" in tx.__dict__
        received = pickle.loads(pickle.dumps(tx))
        assert received == tx and "_digest" not in received.__dict__
        assert received.digest == tx.digest


class TestBlockchain:
    def test_append_and_query(self):
        chain = Blockchain()
        block = build_block(1, chain.tip.block_hash, make_txs(2), proposer=0)
        chain.append(block)
        assert chain.height == 1
        assert chain.header_at(1).block_hash == block.block_hash
        assert chain.total_transactions() == 2
        assert chain.verify_suffix(0)

    def test_append_with_wrong_height_rejected(self):
        chain = Blockchain()
        block = build_block(5, chain.tip.block_hash, (), proposer=0)
        with pytest.raises(InvalidBlockError):
            chain.append(block)

    def test_append_with_wrong_prev_hash_rejected(self):
        chain = Blockchain()
        block = build_block(1, "0" * 64 + "bad"[:0], (), proposer=0)
        block = build_block(1, "f" * 64, (), proposer=0)
        with pytest.raises(InvalidBlockError):
            chain.append(block)

    def test_header_at_out_of_range(self):
        with pytest.raises(InvalidBlockError):
            Blockchain().header_at(5)

    @given(st.integers(min_value=1, max_value=20))
    def test_chain_of_any_length_verifies(self, length):
        chain = Blockchain()
        for height in range(1, length + 1):
            chain.append(build_block(height, chain.tip.block_hash, make_txs(1, prefix=str(height)),
                                     proposer=height % 3))
        assert chain.height == length
        assert chain.verify_suffix(0)


class TestForkableChain:
    def test_longest_chain_wins(self):
        chain = ForkableChain()
        genesis = chain.best_tip
        a1 = build_block(1, genesis.block_hash, (), proposer=1, timestamp=1)
        b1 = build_block(1, genesis.block_hash, (), proposer=2, timestamp=2)
        chain.add_block(a1)
        chain.add_block(b1)
        assert chain.height == 1
        a2 = build_block(2, a1.block_hash, (), proposer=1, timestamp=3)
        assert chain.add_block(a2) is True
        assert chain.best_tip.block_hash == a2.block_hash
        assert chain.stale_blocks() == 1
        assert 0 < chain.stale_rate() < 1

    def test_unknown_parent_rejected(self):
        chain = ForkableChain()
        orphan = build_block(1, "f" * 64, (), proposer=1)
        with pytest.raises(InvalidBlockError):
            chain.add_block(orphan)

    def test_duplicate_block_ignored(self):
        chain = ForkableChain()
        block = build_block(1, chain.best_tip.block_hash, (), proposer=1)
        assert chain.add_block(block) is True
        assert chain.add_block(block) is False

    def test_main_chain_is_hash_linked(self):
        chain = ForkableChain()
        for height in range(1, 6):
            block = build_block(height, chain.best_tip.block_hash, (), proposer=0,
                                timestamp=height)
            chain.add_block(block)
        main = chain.main_chain()
        for parent, child in zip(main, main[1:]):
            assert child.prev_hash == parent.block_hash

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=10**6),
                              st.integers(min_value=1, max_value=8)),
                    min_size=1, max_size=60),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_on_main_marker_matches_main_chain_under_reorgs(self, branch_plan, seed):
        """``_on_main`` must stay exactly the main-chain hash set.

        The marker is maintained incrementally (O(1) tip extension, junction
        walk on reorg); this drives randomized *deep* reorgs — each step
        grows a branch of several blocks off an arbitrary known block, so
        reorgs can retire and adopt long segments at once — and re-derives
        the expected set from a from-scratch ``main_chain()`` walk.
        """
        rng = random.Random(seed)
        chain = ForkableChain()
        known = [chain.best_tip]
        step = 0
        for choice, branch_length in branch_plan:
            parent = known[choice % len(known)]
            for _ in range(branch_length):
                step += 1
                block = build_block(parent.height + 1, parent.block_hash, (),
                                    proposer=rng.randrange(5),
                                    timestamp=float(step))
                chain.add_block(block)
                known.append(block)
                parent = block
            assert chain._on_main == {b.block_hash for b in chain.main_chain()}
            assert chain.stale_blocks() == chain.total_blocks() - len(chain._on_main)


class TestStateStore:
    def test_put_get_delete_and_versions(self):
        state = StateStore()
        assert state.get("x") is None
        assert state.put("x", 1) == 1
        assert state.put("x", 2) == 2
        assert state.get("x") == 2
        assert state.version("x") == 2
        assert state.delete("x") is True
        assert state.delete("x") is False
        assert state.version("x") == 0

    def test_snapshot_restore(self):
        state = StateStore()
        state.put("a", 1)
        snapshot = state.snapshot()
        state.put("a", 2)
        state.put("b", 3)
        state.restore(snapshot)
        assert state.get("a") == 1
        assert not state.exists("b")

    def test_size_bytes_positive(self):
        state = StateStore()
        state.put("key", "value")
        assert state.size_bytes() > 0

    @given(st.dictionaries(st.text(min_size=1, max_size=8), st.integers(), max_size=30))
    def test_store_reflects_last_writes(self, mapping):
        state = StateStore()
        for key, value in mapping.items():
            state.put(key, value)
        for key, value in mapping.items():
            assert state.get(key) == value
        assert len(state) == len(mapping)


class TestExecutionEngine:
    def _engine(self):
        registry = ChaincodeRegistry()
        registry.register(CounterChaincode())
        return ExecutionEngine(registry, StateStore())

    def test_successful_execution_produces_committed_receipt(self):
        engine = self._engine()
        tx = Transaction.create("counter", "increment", {"key": "c"})
        receipt = engine.execute_transaction(tx)
        assert receipt.status is TxStatus.COMMITTED
        assert receipt.ok and receipt.result == 1

    def test_chaincode_failure_produces_failed_receipt(self):
        engine = self._engine()
        tx = Transaction.create("counter", "fail", {})
        receipt = engine.execute_transaction(tx)
        assert receipt.status is TxStatus.FAILED
        assert "intentional" in receipt.error

    def test_unknown_chaincode_fails_gracefully(self):
        engine = self._engine()
        tx = Transaction.create("missing", "noop", {})
        receipt = engine.execute_transaction(tx)
        assert receipt.status is TxStatus.FAILED

    def test_block_execution_is_sequential_and_complete(self):
        engine = self._engine()
        txs = tuple(Transaction.create("counter", "increment", {"key": "c"}) for _ in range(5))
        block = build_block(1, "0" * 64, txs, proposer=0)
        receipts = engine.execute_block(block)
        assert len(receipts) == 5
        assert engine.state.get("c") == 5
        assert all(receipt.block_height == 1 for receipt in receipts)

    def test_registry_lookup_errors(self):
        registry = ChaincodeRegistry()
        with pytest.raises(ChaincodeError):
            registry.get("nope")
        registry.register(CounterChaincode())
        assert "counter" in registry
