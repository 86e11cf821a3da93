"""The runtime seam: the Simulator is the simulated runtime, AsyncioRuntime
honours the same contract on a real clock, and the unchanged consensus
stack commits through either.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random

import pytest

from repro.consensus.base import ConsensusConfig
from repro.consensus.cluster import ConsensusCluster, NoopChaincode
from repro.core.config import ShardedSystemConfig
from repro.core.scaleout import ShardPartition
from repro.core.splitters import benchmark_for
from repro.crypto.costs import DEFAULT_COSTS
from repro.errors import SimulationError
from repro.runtime import AsyncioRuntime
from repro.runtime.base import Runtime, derive_label_rng
from repro.service.serve import ServiceCluster
from repro.service.shardnode import (
    BLOCK_INTERVAL, GATEWAY_NODE_ID, KIND_BLOCK, LivePartition,
)
from repro.sim.simulator import Simulator


class TestRuntimeSeam:
    def test_protocol_declares_only_what_both_runtimes_honour(self):
        members = ({name for name in vars(Runtime) if not name.startswith("_")}
                   | set(Runtime.__annotations__))
        assert members == {"is_simulated", "now", "schedule", "schedule_at", "spawn",
                           "fork_rng"}
        for runtime_cls in (Simulator, AsyncioRuntime):
            assert all(hasattr(runtime_cls, name) for name in members)
            assert not hasattr(runtime_cls, "is_last_scheduled")


class TestSimulatorRuntime:
    def test_is_simulated(self):
        assert Simulator(seed=1).is_simulated is True

    def test_spawn_fires_now_after_events_already_queued_for_now(self):
        sim = Simulator(seed=1)
        fired = []
        sim.schedule(1.0, fired.append, "later")
        sim.schedule(0.5, fired.append, "queued-first")

        def at_half():
            fired.append("at-half")
            sim.spawn(lambda: fired.append(("spawned", sim.now)))
            sim.schedule_at(0.5, fired.append, "queued-after-spawn")

        sim.schedule(0.5, at_half)
        sim.spawn(fired.append, "spawned-at-zero")
        sim.run()
        assert fired == ["spawned-at-zero", "queued-first", "at-half",
                         ("spawned", 0.5), "queued-after-spawn", "later"]

    def test_spawn_handle_cancels(self):
        sim = Simulator(seed=1)
        fired = []
        handle = sim.spawn(fired.append, "cancelled")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_fork_rng_parity_across_runtimes(self):
        """Same seed + label sequence -> identical streams on both clocks."""
        sim = Simulator(seed=5)

        async def forked():
            wall = AsyncioRuntime(seed=5)
            return [wall.fork_rng("network").random(),
                    wall.fork_rng("client-3").random(),
                    wall.fork_rng("network").random()]  # second fork: #1

        wall_draws = asyncio.run(forked())
        sim_draws = [sim.fork_rng("network").random(),
                     sim.fork_rng("client-3").random(),
                     sim.fork_rng("network").random()]
        assert wall_draws == sim_draws
        assert derive_label_rng(5, "network", 0).random() == sim_draws[0]
        assert derive_label_rng(5, "network", 1).random() == sim_draws[2]
        # Distinct labels and fork counts give distinct streams.
        assert len(set(sim_draws)) == 3

    def test_fork_rng_derivation(self):
        assert (derive_label_rng(7, "x", 0).random()
                == random.Random("7:x").random())
        assert (derive_label_rng(7, "x", 2).random()
                == random.Random("7:x#2").random())

    def test_cluster_runs_on_a_given_simulator(self):
        sim = Simulator(seed=4)
        cluster = ConsensusCluster(protocol="AHL", n=4, runtime=sim,
                                   config_overrides={"batch_size": 4})
        assert cluster.sim is cluster.runtime is sim
        assert cluster.network.runtime is sim
        assert all(replica.runtime is sim for replica in cluster.replicas)
        cluster.add_open_loop_clients(1, rate_tps=40.0, batch_size=4)
        result = cluster.run(3.0)
        assert result.committed_transactions > 0
        assert sim.now == pytest.approx(3.0)


class TestAsyncioRuntime:
    def test_contract_on_a_real_loop(self):
        async def scenario():
            runtime = AsyncioRuntime(seed=0)
            assert runtime.is_simulated is False
            start = runtime.now
            assert start < 0.25  # epoch-rebased clock starts near zero

            fired = []
            runtime.schedule(0.01, fired.append, "scheduled")
            cancelled = runtime.schedule(0.01, fired.append, "cancelled")
            cancelled.cancel()
            runtime.spawn(fired.append, "spawned")
            runtime.schedule_at(runtime.now - 5.0, fired.append, "past-clamped")
            with pytest.raises(SimulationError):
                runtime.schedule(-0.1, fired.append, "negative")
            await asyncio.sleep(0.1)
            assert runtime.now > start
            return fired

        fired = asyncio.run(scenario())
        assert "spawned" in fired and "scheduled" in fired
        assert "past-clamped" in fired
        assert "cancelled" not in fired

    def test_consensus_commits_on_the_wall_clock(self):
        """The unchanged cluster + Network reach commit on AsyncioRuntime."""
        async def scenario():
            runtime = AsyncioRuntime(seed=4)
            cluster = ConsensusCluster(protocol="AHL", n=4, runtime=runtime,
                                       config_overrides={"batch_size": 4})
            assert cluster.sim is None
            committed = asyncio.get_running_loop().create_future()

            def on_commit(event):
                if not committed.done():
                    committed.set_result(event)

            cluster.subscribe_commits(on_commit)
            chaincode = NoopChaincode()
            txs = [chaincode.new_transaction("write", {"keys": (f"k{i}",),
                                                       "value": i})
                   for i in range(4)]
            cluster.submit(txs)
            event = await asyncio.wait_for(committed, timeout=30.0)
            return event, cluster

        event, cluster = asyncio.run(scenario())
        assert len(event.receipts) == 4
        assert all(receipt.ok for receipt in event.receipts)
        observer = cluster.honest_observer()
        assert observer.state.get("k2") == 2

    def test_live_partition_forks_the_same_streams_as_its_sim_twin(self):
        """A live shard partition is seeded by the partition's rule
        (``partition_stream_seed``), like the partition the simulated
        engine drains — not by ``seed + shard_id``."""
        config = ShardedSystemConfig(num_shards=2, committee_size=4, protocol="AHL",
                                     use_reference_committee=False, num_keys=50,
                                     seed=9)

        async def live_draws():
            rng = LivePartition(config, 1, asyncio.Event()).runtime.fork_rng("probe")
            return [rng.random() for _ in range(3)]

        sim_rng = ShardPartition(config, 1).runtime.fork_rng("probe")
        assert asyncio.run(live_draws()) == [sim_rng.random() for _ in range(3)]

    def test_live_partition_charges_nothing_modelled_and_its_sim_twin_keeps_the_model(self):
        config = ShardedSystemConfig(num_shards=2, committee_size=4, protocol="AHL",
                                     use_reference_committee=False, num_keys=50,
                                     seed=9, consensus_overrides={"batch_size": 50})

        async def live_partition():
            return LivePartition(config, 0, asyncio.Event())

        live = asyncio.run(live_partition())
        for replica in live.cluster.replicas:
            costs = replica.config.costs
            assert all(getattr(costs, field.name) == 0.0
                       for field in dataclasses.fields(costs))
            assert replica.config.proposal_overhead == 0.0
            assert replica.config.pipeline_depth == 1
            assert replica.config.min_block_interval == BLOCK_INTERVAL > 0.0
            assert replica.config.batch_size == 50  # the deployment's own overrides stay
        rng = random.Random(0)
        assert live.network.latency_model.delay("local", "local", 1 << 20, rng) == 0.0
        assert live.network.delay_bound(1 << 20) == 0.0
        # The config is the deployment's, untouched: the sim twin keeps the model.
        assert config.consensus_overrides == {"batch_size": 50}
        sim = ShardPartition(config, 0)
        for replica in sim.cluster.replicas:
            assert replica.config.costs is DEFAULT_COSTS
            assert replica.config.proposal_overhead == ConsensusConfig.proposal_overhead > 0
            assert replica.config.pipeline_depth == ConsensusConfig.pipeline_depth
            assert replica.config.min_block_interval == ConsensusConfig.min_block_interval
        assert sim.network.latency_model.delay("local", "local", 512, rng) > 0.0

    def test_live_shard_retains_a_bounded_ledger(self):
        """``repro-serve``'s shard config keeps headers only: after more blocks
        than ``ledger_retain_recent`` every replica holds at most that many bodies."""
        config = ShardedSystemConfig(**ServiceCluster(num_shards=1, num_keys=100).config)
        retain = ConsensusConfig.ledger_retain_recent
        chaincode = benchmark_for("smallbank").chaincode()

        class Gateway:
            node_id = GATEWAY_NODE_ID
            blocks = 0

            def deliver(self, message):
                self.blocks += message.kind == KIND_BLOCK

        gateway = Gateway()

        async def scenario():
            partition = LivePartition(config, 0, asyncio.Event())
            partition.network.register(gateway)
            for index in range(retain + 6):
                committed = asyncio.get_running_loop().create_future()
                tx = chaincode.new_transaction(
                    "deposit", {"account": str(index % 100), "amount": 1},
                    client_id="test")
                partition.watch(tx.tx_id, committed.set_result)
                partition.hand_to_committee([tx], 0)
                await asyncio.wait_for(committed, timeout=10.0)
            await asyncio.sleep(0.05)  # followers apply the last block
            return partition

        partition = asyncio.run(scenario())
        assert gateway.blocks == retain + 6  # one block per transaction, reported
        for replica in partition.cluster.replicas:
            assert replica.blockchain.height == retain + 6
            assert len(replica.blockchain.blocks()) <= retain
        assert partition.cluster.monitor.max_samples == 512

    def test_run_requires_the_simulated_runtime(self):
        async def scenario():
            cluster = ConsensusCluster(protocol="AHL", n=4,
                                       runtime=AsyncioRuntime(seed=0))
            from repro.errors import ConfigurationError
            with pytest.raises(ConfigurationError):
                cluster.run(1.0)

        asyncio.run(scenario())
