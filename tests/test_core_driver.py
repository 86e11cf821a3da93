"""Tests for the streaming open-loop driver and engine determinism."""

from __future__ import annotations

import dataclasses

import pytest

from engine_harness import tx_records
from repro.core.config import ShardedSystemConfig
from repro.core.driver import OpenLoopDriver, split_evenly
from repro.core.system import ShardedBlockchain
from repro.errors import ConfigurationError
from repro.workloads.generator import WorkloadGenerator


def _run_sharded(seed: int, retain: bool = True, transactions: int = 120):
    config = ShardedSystemConfig(num_shards=2, committee_size=4, seed=seed,
                                 num_keys=4_000, retain_tx_records=retain)
    system = ShardedBlockchain(config)
    driver = OpenLoopDriver(system, rate_tps=120.0, max_transactions=transactions,
                            batch_size=4)
    stats = driver.run_to_completion(drain_timeout=60.0)
    return system, driver, stats


class TestOpenLoopDriver:
    def test_submits_exactly_max_transactions(self):
        _, driver, stats = _run_sharded(seed=5)
        assert stats.submitted == 120
        assert stats.completed == stats.submitted
        assert stats.committed + stats.aborted == 120
        assert stats.committed > 0
        assert stats.in_flight == 0

    def test_identical_seeds_give_identical_results(self):
        """Seed-for-seed determinism of the full ShardedRunResult."""
        system_a, _, stats_a = _run_sharded(seed=11)
        system_b, _, stats_b = _run_sharded(seed=11)
        result_a = system_a.result(duration=system_a.sim.now)
        result_b = system_b.result(duration=system_b.sim.now)
        assert dataclasses.asdict(result_a) == dataclasses.asdict(result_b)
        assert dataclasses.asdict(stats_a) == dataclasses.asdict(stats_b)
        assert system_a.events_processed == system_b.events_processed

    def test_different_seeds_diverge(self):
        _, _, stats_a = _run_sharded(seed=1)
        _, _, stats_b = _run_sharded(seed=2)
        # Commit counts may coincide, but the full trace should not.
        a = (stats_a.committed, stats_a.aborted, stats_a.mean_latency)
        b = (stats_b.committed, stats_b.aborted, stats_b.mean_latency)
        assert a != b

    def test_record_pruning_bounds_memory_without_changing_results(self):
        system_keep, _, stats_keep = _run_sharded(seed=9, retain=True)
        system_prune, _, stats_prune = _run_sharded(seed=9, retain=False)
        assert stats_keep.committed == stats_prune.committed
        assert stats_keep.aborted == stats_prune.aborted
        assert len(tx_records(system_keep)) == 120
        assert len(tx_records(system_prune)) == 0
        # Nothing else outlives a completed transaction either.
        assert all(partition.home.driver.in_flight == 0
                   for partition in system_prune.partitions.values()
                   if partition.home is not None)

    def test_max_in_flight_drops_arrivals_instead_of_queueing(self):
        config = ShardedSystemConfig(num_shards=2, committee_size=4, seed=3,
                                     num_keys=4_000)
        system = ShardedBlockchain(config)
        driver = OpenLoopDriver(system, rate_tps=5_000.0, max_transactions=500,
                                batch_size=10, max_in_flight=20)
        driver.start()
        system.advance(2.0)
        assert driver.stats.max_in_flight <= 20
        assert driver.dropped_arrivals > 0

    def test_split_evenly_distributes_remainder(self):
        assert [split_evenly(100, index, 3) for index in range(3)] == [34, 33, 33]
        assert split_evenly(None, 1, 3) is None

    def test_invalid_parameters_rejected(self):
        config = ShardedSystemConfig(num_shards=1, committee_size=1, seed=0)
        system = ShardedBlockchain(config)
        with pytest.raises(ConfigurationError):
            OpenLoopDriver(system, rate_tps=0.0)
        with pytest.raises(ConfigurationError):
            OpenLoopDriver(system, rate_tps=10.0, batch_size=0)
        with pytest.raises(ConfigurationError):
            OpenLoopDriver(system, rate_tps=10.0, max_in_flight=0)
        with pytest.raises(ConfigurationError):
            OpenLoopDriver(system, rate_tps=10.0).run_to_completion()


class TestWorkloadStreaming:
    def test_stream_matches_batch_for_equal_seeds(self):
        eager = WorkloadGenerator(benchmark="smallbank", num_shards=4, seed=21)
        lazy = WorkloadGenerator(benchmark="smallbank", num_shards=4, seed=21)
        batch = eager.batch(50)
        stream = list(lazy.stream(50))
        assert [tx.args for tx in batch] == [tx.args for tx in stream]
        assert eager.mix.cross_shard_fraction == lazy.mix.cross_shard_fraction

    def test_stream_is_lazy(self):
        generator = WorkloadGenerator(benchmark="kvstore", num_shards=2, seed=1)
        stream = generator.stream()  # unbounded
        first = next(stream)
        second = next(stream)
        assert first.tx_id != second.tx_id
        assert generator.mix.total == 2
