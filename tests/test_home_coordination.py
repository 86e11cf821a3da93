"""Unit tests for the distributed-coordination building blocks.

Covers the pure functions the engine's determinism argument rests
on — home-partition assignment, load-aware worker grouping, batched-RPC
framing — plus the worker-lifecycle regression: a worker process dying
mid-window must raise a clear error naming its partitions instead of
hanging the parent on a pipe read.
"""

from __future__ import annotations

import pytest

from repro.core.config import ShardedSystemConfig
from repro.core.homecoord import (
    Command,
    assign_partitions,
    group_by_dest,
    home_shard,
    inbound_sort_key,
    partition_stream_seed,
    partition_tx_counter,
    partition_weights,
)
from repro.core.system import ShardedBlockchain
from repro.core.system import REFERENCE_SHARD_ID
from repro.errors import SimulationError


class TestHomeShard:
    def test_is_first_participating_shard(self):
        assert home_shard([2, 0, 1]) == 0
        assert home_shard((5, 3)) == 3
        assert home_shard({7}) == 7

    def test_pure_and_order_insensitive(self):
        """Same participant set, any ordering or container: same home."""
        for shards in ([1, 4, 2], [4, 2, 1], (2, 1, 4), {1, 2, 4}):
            assert home_shard(shards) == 1

    def test_stable_under_epoch_migrations(self):
        """Reconfigurations move *nodes*, never keys, so the participating
        shard set of a transaction — and therefore its home — is epoch-
        invariant.  Guard the property the re-drive path relies on: homes
        computed before and after a migration agree."""
        shards = [0, 2]
        before = home_shard(shards)
        after = home_shard(list(reversed(shards)))
        assert before == after == 0

    def test_disjoint_id_streams(self):
        streams = [partition_tx_counter(shard) for shard in range(4)]
        firsts = [next(stream) for stream in streams]
        assert len(set(firsts)) == 4
        assert all(b - a >= 10_000_000_000 for a, b in zip(firsts, firsts[1:]))

    def test_stream_seeds_distinct_per_shard(self):
        seeds = {partition_stream_seed(13, shard) for shard in range(16)}
        assert len(seeds) == 16


class TestAssignPartitions:
    def test_weights_are_deterministic(self):
        config = ShardedSystemConfig(num_shards=4, num_keys=800)
        assert partition_weights(config) == partition_weights(config)

    def test_weights_cover_reference_partition(self):
        config = ShardedSystemConfig(num_shards=4, num_keys=800)
        weights = partition_weights(config)
        assert REFERENCE_SHARD_ID in weights
        no_ref = ShardedSystemConfig(num_shards=4, num_keys=800,
                                     use_reference_committee=False)
        assert REFERENCE_SHARD_ID not in partition_weights(no_ref)

    def test_low_shards_weighted_heavier_for_coordination(self):
        """home = min(shards) skews 2PC work toward low shard ids; the
        weights must reflect that so LPT spreads the homes out."""
        config = ShardedSystemConfig(num_shards=8, num_keys=1600)
        weights = partition_weights(config)
        homes = [(2 * (8 - shard) - 1) / 64 for shard in range(8)]
        shares = [weights[shard] - homes[shard] for shard in range(8)]
        assert all(abs(share) < 1.0 for share in shares)
        assert weights[0] - shares[0] > weights[7] - shares[7]

    def test_load_assignment_deterministic_and_covering(self):
        config = ShardedSystemConfig(num_shards=6, num_keys=1200)
        shard_ids = list(range(6)) + [REFERENCE_SHARD_ID]
        groups = assign_partitions(shard_ids, 3, config)
        assert groups == assign_partitions(shard_ids, 3, config)
        assert sorted(sid for group in groups for sid in group) == sorted(shard_ids)
        assert len(groups) == 3

    def test_more_workers_than_partitions(self):
        config = ShardedSystemConfig(num_shards=2, num_keys=400,
                                     use_reference_committee=False)
        groups = assign_partitions([0, 1], 5, config)
        assert sorted(sid for group in groups for sid in group) == [0, 1]
        assert sum(1 for group in groups if group) == 2


class TestRpcFraming:
    def test_inbound_sort_is_canonical(self):
        """(due, src, seq): parent commands (src=-1) sort before partition
        commands at the same due time; emission order breaks same-src ties."""
        commands = [
            Command(due=0.004, dest=0, op="vote", src=2, seq=7),
            Command(due=0.002, dest=0, op="client", src=1, seq=9),
            Command(due=0.004, dest=0, op="track", src=-1, seq=0),
            Command(due=0.004, dest=0, op="vote", src=2, seq=3),
        ]
        ordered = sorted(commands, key=inbound_sort_key)
        assert [(c.due, c.src, c.seq) for c in ordered] == [
            (0.002, 1, 9), (0.004, -1, 0), (0.004, 2, 3), (0.004, 2, 7)]

    def test_group_by_dest_preserves_order(self):
        commands = [Command(due=float(i), dest=i % 2, op="vote", seq=i)
                    for i in range(6)]
        grouped = group_by_dest(commands)
        assert [c.seq for c in grouped[0]] == [0, 2, 4]
        assert [c.seq for c in grouped[1]] == [1, 3, 5]

    def test_one_block_per_worker_per_window(self):
        """The barrier RPC is batched: each window sends each worker exactly
        one message and reads exactly one reply."""
        config = ShardedSystemConfig(num_shards=3, committee_size=4,
                                     num_keys=400, seed=13, workers=2)
        system = ShardedBlockchain(config)
        executor = system.executor
        sends = {id(handle): 0 for handle in executor._workers}
        for handle in executor._workers:
            original = handle.conn.send

            def counting_send(message, _original=original,
                              _key=id(handle), _sends=sends):
                if message[0] == "run_window":
                    _sends[_key] += 1
                return _original(message)

            handle.conn.send = counting_send
        windows = 5
        system.advance(system.sim.now + windows * system.config.relay_delay)
        assert all(count == windows for count in sends.values())
        system.close()


class TestWorkerLifecycle:
    def test_dead_worker_raises_named_error_instead_of_hanging(self):
        """Kill one worker mid-run: the next window must fail fast with an
        error naming the lost partitions, and close() must still return."""
        config = ShardedSystemConfig(num_shards=3, committee_size=4,
                                     num_keys=400, seed=13, workers=2)
        system = ShardedBlockchain(config)
        system.advance(system.sim.now + 2 * system.config.relay_delay)
        victim = system.executor._workers[0]
        victim.process.kill()
        victim.process.join(timeout=10.0)
        with pytest.raises(SimulationError) as excinfo:
            system.advance(system.sim.now + 10 * system.config.relay_delay)
        message = str(excinfo.value)
        assert str(victim.owned) in message or "closed its pipe" in message
        system.close()
        assert all(not handle.process.is_alive()
                   for handle in system.executor._workers)

    def test_close_terminates_workers(self):
        config = ShardedSystemConfig(num_shards=2, committee_size=4,
                                     num_keys=400, seed=7, workers=2)
        system = ShardedBlockchain(config)
        system.advance(system.sim.now + system.config.relay_delay)
        processes = [handle.process for handle in system.executor._workers]
        assert all(process.is_alive() for process in processes)
        system.close()
        assert all(not process.is_alive() for process in processes)
        system.close()  # idempotent
