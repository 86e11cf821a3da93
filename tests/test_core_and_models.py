"""Tests for the sharded system, client API, splitters, baselines and perfmodel."""

from __future__ import annotations

import pytest

from repro.baselines.omniledger_sizing import omniledger_committee_size, ours_committee_size
from repro.baselines.randhound import RandHoundConfig, randhound_running_time, simulate_randhound
from repro.core.client_api import attach_clients
from repro.core.config import ShardedSystemConfig
from repro.core.splitters import KVStoreSplitter, SmallbankSplitter, splitter_for
from repro.core.system import ShardedBlockchain, build_system
from repro.errors import ConfigurationError, WorkloadError
from repro.perfmodel.throughput import committee_latency, committee_throughput, sharded_throughput
from repro.txn.coordinator import DistributedTxOutcome
from repro.workloads.smallbank import SmallbankChaincode, account_key

FAST_OVERRIDES = {"batch_size": 20, "view_change_timeout": 5.0}


def small_system(num_shards=2, committee_size=3, use_reference=True, benchmark="smallbank",
                 zipf=0.0, seed=0):
    config = ShardedSystemConfig(
        num_shards=num_shards, committee_size=committee_size, protocol="AHL+",
        use_reference_committee=use_reference, benchmark=benchmark, num_keys=200,
        zipf_coefficient=zipf, consensus_overrides=dict(FAST_OVERRIDES), seed=seed,
    )
    return ShardedBlockchain(config)


class TestConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedSystemConfig(num_shards=0)
        with pytest.raises(ConfigurationError):
            ShardedSystemConfig(benchmark="tpcc")

    def test_for_adversary_uses_small_committees_with_ahl(self):
        config = ShardedSystemConfig.for_adversary(648, 0.25, protocol="AHL+")
        # At N = 648 the hypergeometric correction makes committees slightly
        # smaller than the paper's large-network figure of ~80 nodes.
        assert 50 <= config.committee_size <= 90
        assert config.num_shards == 648 // config.committee_size
        assert config.total_nodes <= 648


class TestSplitters:
    def test_smallbank_splitter_partitions_accounts(self):
        splitter = SmallbankSplitter()
        chaincode = SmallbankChaincode()
        tx = chaincode.new_transaction("sendPayment", {"from": "1", "to": "2", "amount": 5})
        def shard_of(key):
            return 0 if key == account_key("1") else 1
        shards = splitter.shards_touched(tx, shard_of)
        assert shards == [0, 1]
        prepares = splitter.prepare_transactions(tx, shard_of)
        assert set(prepares) == {0, 1}
        assert prepares[0].function == "preparePayment"
        commits = splitter.commit_transactions(tx, shard_of)
        deltas = dict(commits[0].args["deltas"])
        assert deltas == {"1": -5}
        aborts = splitter.abort_transactions(tx, shard_of)
        assert aborts[1].function == "abortPayment"

    def test_kvstore_splitter_groups_writes_by_shard(self):
        splitter = KVStoreSplitter()
        tx = splitter.chaincode.new_transaction(
            "multi_put", {"writes": [("a", 1), ("b", 2), ("c", 3)]})
        def shard_of(key):
            return {"a": 0, "b": 1, "c": 1}[key]
        prepares = splitter.prepare_transactions(tx, shard_of)
        assert len(prepares[1].args["writes"]) == 2

    def test_splitter_for_unknown_benchmark(self):
        with pytest.raises(WorkloadError):
            splitter_for("tpcc")
        assert isinstance(splitter_for("smallbank"), SmallbankSplitter)


class TestShardedBlockchain:
    def test_single_shard_transaction_commits(self):
        system = small_system(num_shards=2, use_reference=False)
        chaincode = SmallbankChaincode()
        # Find two accounts in the same shard.
        accounts = [str(i) for i in range(50)]
        same = None
        for a in accounts:
            for b in accounts:
                if a != b and system.shard_of_key(account_key(a)) == system.shard_of_key(account_key(b)):
                    same = (a, b)
                    break
            if same:
                break
        tx = chaincode.new_transaction("sendPayment", {"from": same[0], "to": same[1], "amount": 5})
        outcomes = []
        system.submit_transaction(tx, on_complete=lambda record: outcomes.append(record.outcome))
        system.run(20.0)
        assert outcomes == [DistributedTxOutcome.COMMITTED]

    def test_cross_shard_transaction_commits_and_preserves_money(self):
        system = small_system(num_shards=2, use_reference=True)
        chaincode = SmallbankChaincode()
        accounts = [str(i) for i in range(50)]
        pair = None
        for a in accounts:
            for b in accounts:
                if a != b and system.shard_of_key(account_key(a)) != system.shard_of_key(account_key(b)):
                    pair = (a, b)
                    break
            if pair:
                break
        tx = chaincode.new_transaction("sendPayment", {"from": pair[0], "to": pair[1], "amount": 7})
        outcomes = []
        system.submit_transaction(tx, on_complete=lambda record: outcomes.append(record.outcome))
        system.run(30.0)
        assert outcomes == [DistributedTxOutcome.COMMITTED]
        shard_a = system.shards[system.shard_of_key(account_key(pair[0]))].honest_observer()
        shard_b = system.shards[system.shard_of_key(account_key(pair[1]))].honest_observer()
        assert shard_a.state.get(account_key(pair[0])) == 10_000 - 7
        assert shard_b.state.get(account_key(pair[1])) == 10_000 + 7
        # Locks are released after commit.
        assert shard_a.state.get(f"L_{account_key(pair[0])}") is None

    @pytest.mark.parametrize("use_reference,workers",
                             [(True, None), (False, None), (False, 1)])
    def test_unsplittable_cross_shard_transaction_registers_nothing(
            self, use_reference, workers):
        """The sim-side twin of the gateway's malformed-request regression:
        a payment with no amount is refused before it is forwarded to its
        home partition, so no coordinator ever starts it and no event or
        command is queued for it — inline or with the partitions in a worker."""
        system = build_system(ShardedSystemConfig(
            num_shards=2, committee_size=3, num_keys=200, workers=workers,
            use_reference_committee=use_reference,
            consensus_overrides=dict(FAST_OVERRIDES)))
        pair = next((a, b) for a in map(str, range(50)) for b in map(str, range(50))
                    if system.shard_of_key(account_key(a)) != system.shard_of_key(account_key(b)))
        tx = SmallbankChaincode().new_transaction(
            "sendPayment", {"from": pair[0], "to": pair[1]})
        with pytest.raises(WorkloadError, match="cannot split"):
            system.submit_transaction(tx, on_complete=lambda record: None)
        assert system.coordination_stats().started == 0
        assert not system._remote_txs  # no shadow record awaits a completion
        assert not system.pending_activity()
        system.close()

    def test_closed_loop_clients_drive_throughput(self):
        system = small_system(num_shards=2, use_reference=False)
        attach_clients(system, count=3, outstanding=6)
        result = system.run(15.0)
        assert result.committed_transactions > 0
        assert result.throughput_tps > 0
        assert 0.0 <= result.abort_rate <= 1.0
        assert result.cross_shard_fraction > 0

    def test_reference_committee_orders_coordination_transactions(self):
        system = small_system(num_shards=2, use_reference=True)
        attach_clients(system, count=2, outstanding=4)
        result = system.run(15.0)
        assert result.reference_committee_transactions > 0

    def test_contention_increases_abort_rate(self):
        uniform = small_system(num_shards=2, use_reference=False, zipf=0.0, seed=3)
        attach_clients(uniform, count=3, outstanding=6)
        low = uniform.run(12.0).abort_rate
        skewed_system = ShardedBlockchain(ShardedSystemConfig(
            num_shards=2, committee_size=3, protocol="AHL+", use_reference_committee=False,
            benchmark="smallbank", num_keys=20, zipf_coefficient=1.8,
            consensus_overrides=dict(FAST_OVERRIDES), seed=3))
        attach_clients(skewed_system, count=3, outstanding=6, zipf_coefficient=1.8)
        high = skewed_system.run(12.0).abort_rate
        assert high >= low

    def test_reconfiguration_swap_all_hurts_more_than_swap_batch(self):
        """The real migration path shows the paper's Figure-12 ordering.

        Under a fixed open-loop load, swap-all (every transitioning node
        leaves at once, committees lose their quorum) troughs during the
        transfer window while swap-batch tracks the baseline; membership
        actually changes in both cases.
        """
        from repro.core.driver import OpenLoopDriver

        def run_with(strategy):
            system = ShardedBlockchain(ShardedSystemConfig(
                num_shards=3, committee_size=4, protocol="AHL+",
                use_reference_committee=False, benchmark="smallbank", num_keys=200,
                consensus_overrides=dict(FAST_OVERRIDES), prepare_timeout=8.0, seed=0))
            driver = OpenLoopDriver(system, rate_tps=25.0).start()
            if strategy:
                system.perform_reconfiguration(strategy, at_time=10.0,
                                               state_transfer_seconds=8.0,
                                               batch_interval=2.0)
            system.run(32.0)
            series = system.throughput_over_time(bucket_seconds=2.0)
            trough = min(rate for time_s, rate in series if 10.0 <= time_s <= 26.0)
            moved = sum(t.nodes_moved for t in system.epoch_transitions)
            return driver.stats.committed, trough, moved

        baseline, baseline_trough, _ = run_with(None)
        swap_all, all_trough, all_moved = run_with("swap-all")
        swap_batch, batch_trough, batch_moved = run_with("swap-batch")
        # Real migrations ran in both strategies (swap-batch staggers its
        # batches, so within the short horizon it may still be mid-plan).
        assert all_moved > 0 and batch_moved > 0
        # swap-all loses quorum for the transfer window: a deep trough and
        # fewer completions despite identical arrivals.
        assert all_trough <= 0.5 * baseline_trough
        assert swap_all < baseline
        # swap-batch keeps every committee live and tracks the baseline.
        assert batch_trough >= 0.6 * baseline_trough
        assert swap_batch >= 0.9 * baseline

    def test_unknown_reconfiguration_strategy_rejected(self):
        system = small_system()
        with pytest.raises(ConfigurationError):
            system.perform_reconfiguration("teleport", at_time=1.0)

    def test_reconfiguration_in_the_past_rejected(self):
        system = small_system()
        system.sim.schedule(2.0, lambda: None)
        system.sim.run()
        with pytest.raises(ConfigurationError):
            system.perform_reconfiguration("swap-batch", at_time=1.0)


class TestBaselinesAndPerfModel:
    def test_omniledger_committees_much_larger_than_ours(self):
        assert omniledger_committee_size(10_000, 0.25) > 600
        assert ours_committee_size(10_000, 0.25) < 100

    def test_randhound_cost_grows_with_network(self):
        small = randhound_running_time(64, round_trip=0.05)
        large = randhound_running_time(512, round_trip=0.05)
        assert large > small
        report = simulate_randhound(128, round_trip=0.05, failure_rate=0.5, seed=1)
        assert report["running_time"] >= randhound_running_time(128, 0.05)
        with pytest.raises(ConfigurationError):
            RandHoundConfig(group_size=1)

    def test_beacon_faster_than_randhound_like_figure11(self):
        from repro.sharding.beacon_protocol import analytical_running_time

        ours = analytical_running_time(512, delta=4.5)
        theirs = randhound_running_time(512, round_trip=0.01)
        assert theirs > ours

    def test_committee_throughput_decreases_with_n(self):
        small = committee_throughput("AHL+", 7)
        large = committee_throughput("AHL+", 79)
        assert small > large > 0

    def test_larger_quorum_costs_more(self):
        assert committee_throughput("AHL+", 31) > committee_throughput("HL", 31) * 0.8
        assert committee_latency("AHL+", 31) < committee_latency("AHL+", 79)

    def test_sharded_throughput_scales_with_shards(self):
        one = sharded_throughput("AHL+", committee_size=27, num_shards=6)
        two = sharded_throughput("AHL+", committee_size=27, num_shards=36)
        assert two > one * 4

    def test_smaller_committees_give_more_total_throughput(self):
        """Figure 14: the 12.5% adversary (27-node committees) beats 25% (79-node)."""
        small_committees = sharded_throughput("AHL+", committee_size=27, num_shards=36)
        large_committees = sharded_throughput("AHL+", committee_size=79, num_shards=12)
        assert small_committees > 2 * large_committees

    def test_reference_committee_caps_throughput(self):
        without = sharded_throughput("AHL+", 27, 12, reference_committee=False)
        with_r = sharded_throughput("AHL+", 27, 12, reference_committee=True)
        assert with_r <= without

    def test_perfmodel_matches_des_within_factor_two(self):
        """Validation: the analytical model tracks the simulator at small N."""
        from repro.consensus.cluster import ConsensusCluster

        n = 7
        cluster = ConsensusCluster(protocol="AHL+", n=n,
                                   config_overrides={"batch_size": 100,
                                                     "view_change_timeout": 5.0})
        cluster.add_open_loop_clients(6, rate_tps=400, batch_size=10)
        des = cluster.run(5.0).throughput_tps
        model = committee_throughput("AHL+", n, batch_size=100)
        assert des > 0
        assert 0.4 <= model / des <= 2.5
