"""Tests for the live epoch lifecycle: seed equivalence, executed migrations,
auto epochs, and the reconfiguration-layer bugfixes that rode along."""

from __future__ import annotations

import warnings

import pytest

from engine_harness import tx_records
from repro.core.client_api import attach_clients
from repro.core.config import ShardedSystemConfig
from repro.core.driver import OpenLoopDriver
from repro.core.system import ShardedBlockchain
from repro.errors import ConfigurationError
from repro.sharding.assignment import assign_committees
from repro.sharding.beacon_protocol import derive_epoch_randomness
from repro.sharding.reconfiguration import (
    plan_reconfiguration,
    state_transfer_seconds,
)

FAST = {"batch_size": 20, "view_change_timeout": 5.0}


def build_system(seed=5, num_shards=2, committee_size=4, **kwargs):
    config = ShardedSystemConfig(
        num_shards=num_shards, committee_size=committee_size, protocol="AHL+",
        use_reference_committee=False, benchmark="smallbank", num_keys=200,
        consensus_overrides=dict(FAST), seed=seed, **kwargs)
    return ShardedBlockchain(config)


def fingerprint(system):
    """Everything observable about a finished run, for differential checks."""
    result = system.result(1.0)
    return {
        "events": system.events_processed,
        "now": system.sim.now,
        "messages_sent": {shard_id: cluster.network.stats.messages_sent
                          for shard_id, cluster in system.shards.items()},
        "messages_delivered": {shard_id: cluster.network.stats.messages_delivered
                               for shard_id, cluster in system.shards.items()},
        "committed": result.committed_transactions,
        "aborted": result.aborted_transactions,
        "per_shard": result.per_shard_committed,
        # Transaction ids embed a process-global counter, so two systems
        # built in one process number them differently; the begin-ordered
        # outcome sequence is the id-independent equivalent.
        "outcomes": [record.outcome.name for record in tx_records(system)],
        "last_executed": {shard_id: sorted(r.last_executed for r in cluster.replicas)
                         for shard_id, cluster in system.shards.items()},
    }


class TestSeedEquivalence:
    def test_no_epoch_run_is_event_identical_to_seed_path(self):
        """Armed-but-never-due epochs leave the run bit-identical to the seed.

        The epoch machinery's only default-path footprint is one pending
        timer that never fires inside the horizon and one "track" control
        command per shard partition (request tracking switched on, which
        sends nothing); everything observable — event counts, clock, message
        counts, per-transaction outcomes, per-replica execution cursors —
        must match the unarmed system.
        """
        seed_system = build_system()
        attach_clients(seed_system, count=3, outstanding=6)
        seed_system.run(12.0)

        epoch_system = build_system(epoch_duration=1e9)
        attach_clients(epoch_system, count=3, outstanding=6)
        epoch_system.run(12.0)

        seed_run, epoch_run = fingerprint(seed_system), fingerprint(epoch_system)
        # The delivered "track" commands are the only extra events.
        assert epoch_run.pop("events") == (seed_run.pop("events")
                                           + epoch_system.config.num_shards)
        assert seed_run == epoch_run
        assert epoch_system.current_epoch == 0
        assert epoch_system.reconfigurations_completed == 0

    def test_epoch_bookkeeping_draws_nothing_at_construction(self):
        system = build_system(epoch_duration=1e9)
        assert system.epochs.current_epoch == 0
        assert system.epochs.records[-1].transition_completed_at is not None
        # One armed boundary timer and the buffered per-shard "track"
        # commands are the only scheduled footprint.
        assert system.sim.pending_events == 1
        assert [command.op for command in system._cmd_buffer] == ["track"] * 2


class TestExecutedMigration:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_migration_matches_plan_and_keeps_quorum(self, seed):
        """The executed swap-batch migration implements its plan exactly.

        Every logical node ends up embodied by a replica in the shard its
        new committee assignment names, committees return to full size with
        every member active, and no committee ever had fewer active members
        than its quorum (the paper's liveness criterion for B <= f).
        """
        system = build_system(seed=seed, num_shards=2, committee_size=5)
        attach_clients(system, count=3, outstanding=6)
        system.perform_reconfiguration("swap-batch", at_time=5.0,
                                       state_transfer_seconds=2.0,
                                       batch_interval=1.0)
        system.run(30.0)

        assert system.reconfigurations_completed == 1
        assert system.current_epoch == 1
        assert system.epochs.records[-1].transition_completed_at is not None
        [transition] = system.epoch_transitions
        assert transition.strategy == "swap-batch"
        assert transition.completed_at is not None
        assert transition.nodes_moved == transition.nodes_to_move
        assert transition.nodes_moved == len(transition.plan.transitioning_nodes)
        # Quorum was preserved at every sampled point of the transition.
        assert transition.min_active_margin
        assert all(margin >= 0 for margin in transition.min_active_margin.values())

        # The live membership equals the new assignment, modulo the logical
        # -> physical replica binding maintained by the system.
        assert system.assignment is system.epochs.records[-1].assignment
        for committee in system.assignment.committees:
            cluster = system.shards[committee.shard_id]
            expected = sorted(system._replica_of[node] for node in committee.members)
            actual = sorted(replica.node_id for replica in cluster.replicas)
            assert actual == expected
            assert len(cluster.replicas) == 5
            assert all(not replica.crashed for replica in cluster.replicas)
            assert not cluster._syncing
            assert cluster.quorum_margin() >= 0

    def test_system_stays_live_after_transition(self):
        """Work submitted after the migration commits in the new committees."""
        system = build_system(seed=3, num_shards=2, committee_size=4)
        driver = OpenLoopDriver(system, rate_tps=20.0).start()
        system.perform_reconfiguration("swap-batch", at_time=4.0,
                                       state_transfer_seconds=2.0,
                                       batch_interval=1.0)
        system.run(20.0)
        committed_mid = driver.stats.committed
        system.run(10.0)
        assert system.reconfigurations_completed == 1
        assert driver.stats.committed > committed_mid

    def test_state_transfer_derived_from_destination_state_size(self):
        """Without an override, the transfer delay comes from the actual
        destination shard state via ``state_transfer_seconds``."""
        bandwidth = 50_000.0
        system = build_system(seed=1, num_shards=2, committee_size=4,
                              state_bandwidth_bps=bandwidth)
        sizes = {shard_id: cluster.replicas[0].state.size_bytes()
                 for shard_id, cluster in system.shards.items()}
        expected_max = max(state_transfer_seconds(size, bandwidth_bps=bandwidth)
                           for size in sizes.values())
        assert expected_max > 0.5  # the delay is material at this bandwidth
        system.perform_reconfiguration("swap-all", at_time=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system.run(4.0)
        [transition] = system.epoch_transitions
        # swap-all: one step, completion = start + beacon + max transfer.
        assert transition.completed_at == pytest.approx(
            1.0 + transition.beacon_seconds + expected_max, rel=0.2)

    def test_full_committee_replacement_installs_from_escrowed_state(self):
        """A wholesale swap-all replacement must not boot empty members.

        At this seed the epoch-1 assignment swaps both committees in their
        entirety, so at activation time no active peer holds the shard
        state; joiners install from the departed members' escrowed state
        (what a real outgoing committee serves to its successors) and the
        deployment keeps committing afterwards.
        """
        system = build_system(seed=22, num_shards=2, committee_size=3)
        driver = OpenLoopDriver(system, rate_tps=15.0).start()
        system.perform_reconfiguration("swap-all", at_time=5.0,
                                       state_transfer_seconds=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system.run(25.0)
        [transition] = system.epoch_transitions
        assert transition.nodes_to_move == 6  # everyone moved
        assert transition.nodes_moved == 6
        for cluster in system.shards.values():
            assert cluster.quorum_margin() >= 0
            for replica in cluster.replicas:
                assert len(replica.state) > 0  # escrow install, not a cold boot
                assert replica._committed_before_join > 0
        committed_before = driver.stats.committed
        assert committed_before > 0
        system.run(10.0)
        assert driver.stats.committed > committed_before

    def test_swap_all_loses_quorum_where_swap_batch_does_not(self):
        def margins(strategy, seed=0):
            system = build_system(seed=seed, num_shards=3, committee_size=4)
            attach_clients(system, count=2, outstanding=4)
            system.perform_reconfiguration(strategy, at_time=2.0,
                                           state_transfer_seconds=2.0,
                                           batch_interval=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                system.run(25.0)
            return system.epoch_transitions[0].min_active_margin

        batch = margins("swap-batch")
        assert all(margin >= 0 for margin in batch.values())
        everyone = margins("swap-all")
        assert min(everyone.values()) < 0


class TestAutomaticEpochs:
    def test_automatic_epochs_run_and_driver_buckets_by_epoch(self):
        system = build_system(seed=2, num_shards=2, committee_size=5,
                              epoch_duration=10.0)
        driver = OpenLoopDriver(system, rate_tps=20.0).start()
        system.run(35.0)
        assert system.current_epoch >= 2
        assert system.reconfigurations_completed >= 2
        for transition in system.epoch_transitions:
            assert transition.strategy == "swap-batch"
            assert transition.randomness is not None
        # Per-epoch completion stats cover every epoch the run lived through
        # and add up to the totals.
        stats = driver.stats
        assert sum(stats.epoch_committed.values()) == stats.committed
        assert sum(stats.epoch_aborted.values()) == stats.aborted
        assert set(stats.epoch_committed) <= set(range(system.current_epoch + 1))
        assert len(stats.epoch_committed) >= 2

    def test_epoch_duration_alone_arms_swap_batch_transitions(self):
        """Setting ``epoch_duration`` is the whole switch: no other epoch knob
        is needed for the boundary timer to run swap-batch migrations."""
        config = ShardedSystemConfig(
            num_shards=2, committee_size=5, use_reference_committee=False,
            num_keys=200, consensus_overrides=dict(FAST), seed=2,
            epoch_duration=4.0, swap_batch_interval=0.5)
        system = ShardedBlockchain(config)
        assert system.sim.pending_events == 1  # the armed boundary timer
        attach_clients(system, count=2, outstanding=4)
        system.run(14.0)
        assert system.reconfigurations_completed >= 1
        for transition in system.epoch_transitions:
            assert transition.strategy == transition.plan.strategy == "swap-batch"

    def test_beacon_randomness_is_deterministic_and_epoch_dependent(self):
        first = derive_epoch_randomness(12, epoch=1, seed=9)
        again = derive_epoch_randomness(12, epoch=1, seed=9)
        other_epoch = derive_epoch_randomness(12, epoch=2, seed=9)
        assert first.rnd == again.rnd
        assert first.elapsed_seconds == again.elapsed_seconds
        assert (first.rnd, first.elapsed_seconds) != \
            (other_epoch.rnd, other_epoch.elapsed_seconds)


class TestReconfigurationValidation:
    def test_oversized_swap_batch_is_clamped_with_a_warning(self):
        system = build_system(seed=4, num_shards=2, committee_size=4)
        attach_clients(system, count=2, outstanding=4)
        system.perform_reconfiguration("swap-batch", at_time=2.0,
                                       state_transfer_seconds=1.0,
                                       batch_interval=1.0, batch_size=10)
        with pytest.warns(RuntimeWarning, match="clamped"):
            system.run(20.0)
        [transition] = system.epoch_transitions
        assert transition.plan.batch_size == 1  # f = 1 for attested n = 4
        assert all(margin >= 0 for margin in transition.min_active_margin.values())

    def test_swap_all_warns_when_liveness_is_lost(self):
        system = build_system(seed=0, num_shards=3, committee_size=4)
        attach_clients(system, count=2, outstanding=4)
        system.perform_reconfiguration("swap-all", at_time=2.0,
                                       state_transfer_seconds=1.0)
        with pytest.warns(RuntimeWarning, match="liveness"):
            system.run(15.0)

    def test_config_knob_validation(self):
        with pytest.raises(ConfigurationError):
            ShardedSystemConfig(epoch_duration=-1.0)
        with pytest.raises(ConfigurationError):
            ShardedSystemConfig(state_bandwidth_bps=0.0)


class TestSatelliteBugfixes:
    def test_preserves_liveness_matches_reference_and_hoists_the_scan(self, monkeypatch):
        nodes = list(range(60))
        old = assign_committees(nodes, 6, seed=1, epoch=0)
        new = assign_committees(nodes, 6, seed=2, epoch=1)
        for strategy, batch in (("swap-batch", 2), ("swap-batch", 7), ("swap-all", None)):
            plan = plan_reconfiguration(old, new, strategy=strategy, batch_size=batch)

            def reference(plan=plan, resilience=0.5):
                for committee in plan.old_assignment.committees:
                    f = committee.fault_tolerance(resilience)
                    if plan.max_concurrent_departures().get(committee.shard_id, 0) > f:
                        return False
                return True

            assert plan.preserves_liveness() == reference()
            calls = {"n": 0}
            original = type(plan).max_concurrent_departures

            def counting(self):
                calls["n"] += 1
                return original(self)

            monkeypatch.setattr(type(plan), "max_concurrent_departures", counting)
            plan.preserves_liveness()
            monkeypatch.undo()
            assert calls["n"] == 1  # hoisted out of the per-committee loop

    def test_timeseries_from_samples_keeps_exact_aggregates(self):
        from repro.sim.monitor import TimeSeries

        samples = [(0.0, 2.0), (1.0, 3.0), (2.5, 5.0)]
        series = TimeSeries.from_samples("commits", samples)
        assert series.count() == 3
        assert series.total() == 10.0
        assert series.mean() == pytest.approx(10.0 / 3.0)
        assert series.bucketed_rate(1.0, until=2.5) == \
            TimeSeries.from_samples("other", samples).bucketed_rate(1.0, until=2.5)

        # Bounded series no longer mis-report count through the deleted
        # ``max(_count, len(samples))`` crutch.
        bounded = TimeSeries("x", max_samples=2)
        for index in range(5):
            bounded.record(float(index), 1.0)
        assert bounded.count() == 5
        assert len(bounded.samples) == 2
        assert bounded.total() == 5.0

    def test_throughput_over_time_uses_exact_aggregates(self):
        system = build_system(seed=6)
        attach_clients(system, count=2, outstanding=4)
        result = system.run(8.0)
        series = system.throughput_over_time(bucket_seconds=2.0)
        assert sum(rate * 2.0 for _, rate in series) == \
            pytest.approx(result.committed_transactions)
