"""Tests for the workloads: Zipf generator, KVStore, Smallbank, workload mixes."""

from __future__ import annotations

import collections
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.homecoord import partition_stream_seed, partition_tx_counter
from repro.errors import ChaincodeError, WorkloadError
from repro.ledger.state import StateStore
from repro.ledger.transaction import swap_tx_counter
from repro.workloads.generator import WorkloadGenerator, shard_of_key
from repro.workloads.kvstore import KVStoreChaincode, KVStoreWorkload
from repro.workloads.smallbank import (
    SmallbankChaincode,
    SmallbankWorkload,
    account_key,
    initial_balances,
    lock_key,
)
from repro.workloads.zipf import ZipfGenerator

from digest_oracle import count_creates


class TestZipf:
    def test_uniform_when_coefficient_zero(self):
        generator = ZipfGenerator(population=100, coefficient=0.0, seed=1)
        samples = [generator.sample() for _ in range(2000)]
        assert min(samples) >= 0 and max(samples) < 100
        # Roughly uniform: the most popular rank should not dominate.
        top_share = samples.count(max(set(samples), key=samples.count)) / len(samples)
        assert top_share < 0.1

    def test_skew_concentrates_on_low_ranks(self):
        skewed = ZipfGenerator(population=1000, coefficient=1.5, seed=1)
        samples = [skewed.sample() for _ in range(2000)]
        head_share = sum(1 for value in samples if value < 10) / len(samples)
        assert head_share > 0.5

    def test_distinct_sampling(self):
        generator = ZipfGenerator(population=10, coefficient=2.0, seed=1)
        values = generator.sample_many(10, distinct=True)
        assert sorted(values) == list(range(10))
        with pytest.raises(WorkloadError):
            generator.sample_many(11, distinct=True)

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            ZipfGenerator(population=0)
        with pytest.raises(WorkloadError):
            ZipfGenerator(population=5, coefficient=-1)

    @given(st.integers(min_value=1, max_value=500), st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=30, deadline=None)
    def test_samples_always_in_range(self, population, coefficient):
        generator = ZipfGenerator(population, coefficient, seed=3)
        for _ in range(20):
            assert 0 <= generator.sample() < population


class TestKVStore:
    def test_put_get_roundtrip(self):
        chaincode = KVStoreChaincode()
        state = StateStore()
        chaincode.invoke(state, "put", {"key": "k", "value": "v"})
        assert chaincode.invoke(state, "get", {"key": "k"}) == "v"

    def test_multi_put_writes_all_keys(self):
        chaincode = KVStoreChaincode()
        state = StateStore()
        chaincode.invoke(state, "multi_put", {"writes": [("a", 1), ("b", 2), ("c", 3)]})
        assert state.get("b") == 2

    def test_prepare_commit_cycle_with_locks(self):
        chaincode = KVStoreChaincode()
        state = StateStore()
        writes = [("a", 1), ("b", 2)]
        chaincode.invoke(state, "prepare_multi_put", {"tx_id": "t1", "writes": writes})
        assert state.get("L_a") == "t1"
        with pytest.raises(ChaincodeError):
            chaincode.invoke(state, "prepare_multi_put", {"tx_id": "t2", "writes": [("a", 9)]})
        chaincode.invoke(state, "commit_multi_put", {"tx_id": "t1", "writes": writes})
        assert state.get("a") == 1
        assert state.get("L_a") is None

    def test_abort_releases_only_own_locks(self):
        chaincode = KVStoreChaincode()
        state = StateStore()
        chaincode.invoke(state, "prepare_multi_put", {"tx_id": "t1", "writes": [("a", 1)]})
        chaincode.invoke(state, "abort_multi_put", {"tx_id": "other", "writes": [("a", 1)]})
        assert state.get("L_a") == "t1"
        chaincode.invoke(state, "abort_multi_put", {"tx_id": "t1", "writes": [("a", 1)]})
        assert state.get("L_a") is None

    def test_unknown_function_rejected(self):
        with pytest.raises(ChaincodeError):
            KVStoreChaincode().invoke(StateStore(), "frobnicate", {})

    def test_workload_generates_requested_update_count(self):
        workload = KVStoreWorkload(num_keys=100, updates_per_transaction=3, seed=1)
        tx = workload.next_transaction()
        assert tx.function == "multi_put"
        assert len(tx.keys) == 3
        assert len(set(tx.keys)) == 3

    def test_workload_single_update_uses_put(self):
        workload = KVStoreWorkload(num_keys=100, updates_per_transaction=1, seed=1)
        assert workload.next_transaction().function == "put"


class TestSmallbank:
    def _funded_state(self):
        state = StateStore()
        for key, balance in initial_balances(10).items():
            state.put(key, balance)
        return state

    def test_send_payment_moves_funds(self):
        chaincode = SmallbankChaincode()
        state = self._funded_state()
        chaincode.invoke(state, "sendPayment", {"from": "1", "to": "2", "amount": 100})
        assert state.get(account_key("1")) == 9900
        assert state.get(account_key("2")) == 10100

    def test_send_payment_insufficient_funds_aborts(self):
        chaincode = SmallbankChaincode()
        state = self._funded_state()
        with pytest.raises(ChaincodeError):
            chaincode.invoke(state, "sendPayment", {"from": "1", "to": "2", "amount": 10**9})
        assert state.get(account_key("1")) == 10000  # untouched

    def test_prepare_checks_funds_and_locks(self):
        chaincode = SmallbankChaincode()
        state = self._funded_state()
        chaincode.invoke(state, "preparePayment",
                         {"tx_id": "t", "accounts": ["1"], "amount": 50, "debit": "1"})
        assert state.get(lock_key("1")) == "t"
        with pytest.raises(ChaincodeError):
            chaincode.invoke(state, "preparePayment",
                             {"tx_id": "u", "accounts": ["1"], "amount": 1, "debit": "1"})

    def test_commit_applies_deltas_and_releases_locks(self):
        chaincode = SmallbankChaincode()
        state = self._funded_state()
        chaincode.invoke(state, "preparePayment",
                         {"tx_id": "t", "accounts": ["1", "2"], "amount": 50, "debit": "1"})
        chaincode.invoke(state, "commitPayment",
                         {"tx_id": "t", "deltas": [("1", -50), ("2", 50)]})
        assert state.get(account_key("1")) == 9950
        assert state.get(account_key("2")) == 10050
        assert state.get(lock_key("1")) is None

    def test_money_conservation_across_prepare_commit(self):
        chaincode = SmallbankChaincode()
        state = self._funded_state()
        total_before = sum(state.get(account_key(str(i))) for i in range(10))
        chaincode.invoke(state, "preparePayment",
                         {"tx_id": "t", "accounts": ["3", "4"], "amount": 123, "debit": "3"})
        chaincode.invoke(state, "commitPayment",
                         {"tx_id": "t", "deltas": [("3", -123), ("4", 123)]})
        total_after = sum(state.get(account_key(str(i))) for i in range(10))
        assert total_before == total_after

    def test_workload_transactions_use_distinct_accounts(self):
        workload = SmallbankWorkload(num_accounts=50, seed=2)
        for _ in range(20):
            tx = workload.next_transaction()
            assert tx.args["from"] != tx.args["to"]
            assert len(tx.keys) == 2

    def test_query_unknown_account_fails(self):
        with pytest.raises(ChaincodeError):
            SmallbankChaincode().invoke(StateStore(), "query", {"account": "ghost"})


class TestWorkloadGenerator:
    def test_shard_of_key_deterministic_and_in_range(self):
        for key in ("a", "acc_7", "kv_123"):
            shard = shard_of_key(key, 8)
            assert 0 <= shard < 8
            assert shard == shard_of_key(key, 8)

    def test_mix_tracks_cross_shard_fraction(self):
        generator = WorkloadGenerator(benchmark="smallbank", num_shards=4, num_keys=200, seed=1)
        generator.batch(200)
        assert generator.mix.total == 200
        assert 0.4 < generator.mix.cross_shard_fraction <= 1.0

    def test_kvstore_generator_issues_three_updates(self):
        generator = WorkloadGenerator(benchmark="kvstore", num_shards=4, num_keys=500, seed=1)
        tx = generator.next_transaction()
        assert len(tx.keys) == 3

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(benchmark="tpcc")


#: (benchmark, shard) -> first id, 50th id, digest of the 50 ``id:content
#: digest`` pairs, ids consumed, digest of the RNG state afterwards — captured
#: at the parent of the commit that put the ownership test before
#: materialisation, when every foreign draw was still built, hashed and dropped.
SCALAR_SHARD_STREAMS = {
    ("smallbank", 0): ("tx-10000000000-356ea582", "tx-10000000192-0e9e418e",
                       "b5cab4ca7ad66f21", 193, "15971c3d18406ba5"),
    ("smallbank", 1): ("tx-20000000000-4f2ea185", "tx-20000000215-af87fd0a",
                       "4a42a40637052320", 216, "64332ebbaff76912"),
    ("smallbank", 2): ("tx-30000000008-d026314a", "tx-30000000207-6816150c",
                       "2731f1004f8fbaec", 208, "8ecb34bc7ac81d0c"),
    ("smallbank", 3): ("tx-40000000000-e2265fa5", "tx-40000000195-dfaaef4c",
                       "8c20e5ad1871ca8d", 196, "56111bfb532c8e74"),
    ("kvstore", 0): ("tx-10000000013-91e5bc05", "tx-10000000187-87d4747f",
                     "8b389ec4c0320662", 188, "a7409ab809d9bb21"),
    ("kvstore", 1): ("tx-20000000021-5fad8d5e", "tx-20000000195-380cb706",
                     "96b1d67e0c1e352e", 196, "308b1a2caa9f9aa8"),
    ("kvstore", 2): ("tx-30000000005-9e5d133b", "tx-30000000230-d54f22fa",
                     "2b7ceb33f2182a1c", 231, "e21ad3b8f3fd46ca"),
    ("kvstore", 3): ("tx-40000000002-4596f21d", "tx-40000000214-1ec313b6",
                     "77c7a28bc41ee83d", 215, "9943fa1fd15f3099"),
}


@pytest.mark.parametrize("workload,shard", sorted(SCALAR_SHARD_STREAMS))
def test_scalar_shard_stream_burns_ids_instead_of_materialising(workload, shard, monkeypatch):
    """Same ids, same counter position, same RNG state — one create per accepted draw."""
    created = collections.Counter()
    count_creates(monkeypatch, created)
    generator = WorkloadGenerator(benchmark=workload, num_shards=4, num_keys=20_000,
                                  seed=partition_stream_seed(7 * 7919 + 1, shard))
    counter = partition_tx_counter(shard)
    previous = swap_tx_counter(counter)
    try:
        txs = [generator.next_transaction_for_shard(
                   shard, client_id=f"open-loop@s{shard}", now=0.02 * index)
               for index in range(50)]
    finally:
        swap_tx_counter(previous)
    consumed = next(counter) - (shard + 1) * 10**10
    pairs = ",".join(f"{tx.tx_id}:{tx.digest}" for tx in txs)
    state = repr(generator._workload._rng.getstate())
    assert (txs[0].tx_id, txs[-1].tx_id, hashlib.sha256(pairs.encode()).hexdigest()[:16],
            consumed, hashlib.sha256(state.encode()).hexdigest()[:16]
            ) == SCALAR_SHARD_STREAMS[workload, shard]
    assert created["create"] == 50 < consumed
    assert all(shard_of_key(tx.keys[0], 4) == shard for tx in txs)


class TestRecordReplay:
    """Satellite of the service PR: a recorded stream replays identically."""

    def _record(self, tmp_path, count=12, **kwargs):
        path = tmp_path / "stream.jsonl"
        generator = WorkloadGenerator(seed=kwargs.pop("seed", 3), **kwargs)
        generator.start_recording(str(path))
        recorded = [generator.next_transaction(client_id=f"c{i % 2}")
                    for i in range(count)]
        assert generator.stop_recording() == count
        return path, recorded

    def test_replay_rematerializes_the_same_invocations(self, tmp_path):
        path, recorded = self._record(tmp_path, benchmark="smallbank",
                                      num_shards=2, num_keys=40)
        replay = WorkloadGenerator.replay(str(path))
        assert len(replay) == len(recorded)
        replayed = [replay.next_transaction() for _ in range(len(replay))]
        assert replay.exhausted
        # Fresh tx ids, identical invocations (the differential contract).
        for original, copy in zip(recorded, replayed):
            assert copy.function == original.function
            assert copy.args == original.args
            assert copy.client_id == original.client_id
            assert copy.keys == original.keys
            assert copy.tx_id != original.tx_id

    def test_replay_header_round_trips_the_generator_spec(self, tmp_path):
        path, _ = self._record(tmp_path, benchmark="kvstore", num_shards=4,
                               num_keys=300, zipf_coefficient=0.8)
        replay = WorkloadGenerator.replay(str(path))
        assert (replay.benchmark, replay.num_shards, replay.num_keys,
                replay.zipf_coefficient) == ("kvstore", 4, 300, 0.8)
        assert replay.chaincode.name == "kvstore"
        replay.next_transaction()
        replay.rewind()
        assert not replay.exhausted

    def test_replay_of_missing_or_empty_recording_fails_loudly(self, tmp_path):
        with pytest.raises((WorkloadError, OSError)):
            WorkloadGenerator.replay(str(tmp_path / "nope.jsonl"))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(WorkloadError):
            WorkloadGenerator.replay(str(empty))

    def test_recording_does_not_perturb_the_stream(self, tmp_path):
        """Recording is observation only: the generated stream is unchanged."""
        plain = WorkloadGenerator(benchmark="smallbank", num_shards=2,
                                  num_keys=40, seed=9)
        silent = [plain.next_transaction() for _ in range(8)]
        taped = WorkloadGenerator(benchmark="smallbank", num_shards=2,
                                  num_keys=40, seed=9)
        taped.start_recording(str(tmp_path / "t.jsonl"))
        recorded = [taped.next_transaction() for _ in range(8)]
        taped.stop_recording()
        assert [t.args for t in silent] == [t.args for t in recorded]
