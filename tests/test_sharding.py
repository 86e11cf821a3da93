"""Tests for shard formation: sizing, assignment, beacon protocol, reconfiguration."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CommitteeSizeError, ShardingError
from repro.sharding.assignment import assign_committees, permutation_from_seed
from repro.sharding.beacon_protocol import (
    BeaconProtocol,
    recommended_q_bits,
    repeat_probability,
)
from repro.sharding.cross_shard import (
    cross_shard_probability,
    distribution_over_shards,
    expected_shards_touched,
    probability_cross_shard,
)
from repro.sharding.epochs import EpochSchedule
from repro.sharding.reconfiguration import plan_reconfiguration, swap_batch_size
from repro.sharding.sizing import (
    faulty_committee_probability,
    minimum_committee_size,
    transition_failure_probability,
)


class TestCommitteeSizing:
    def test_paper_headline_numbers(self):
        """Section 5.2: 25% adversary needs 600+ nodes with PBFT, ~80 with AHL+.

        The paper's quoted sizes correspond to a large network (sampling
        without replacement approaches the binomial limit); 10,000 nodes
        reproduces them.
        """
        pbft = minimum_committee_size(10_000, 0.25, resilience=1 / 3, max_size=1500)
        ahl = minimum_committee_size(10_000, 0.25, resilience=1 / 2)
        assert pbft > 600
        assert 60 <= ahl <= 100
        assert ahl < pbft / 6

    def test_figure14_committee_sizes(self):
        """12.5% adversary needs ~27-node committees, 25% needs ~79-node committees."""
        small = minimum_committee_size(10_000, 0.125, resilience=1 / 2)
        large = minimum_committee_size(10_000, 0.25, resilience=1 / 2)
        assert 20 <= small <= 35
        assert 70 <= large <= 90

    def test_probability_decreases_with_committee_size(self):
        previous = 1.0
        for size in (11, 21, 41, 81):
            probability = faulty_committee_probability(1000, 0.25, size, resilience=0.5)
            assert probability <= previous + 1e-12
            previous = probability

    def test_probability_bounds(self):
        assert 0.0 <= faulty_committee_probability(100, 0.2, 10) <= 1.0
        assert faulty_committee_probability(100, 0.0, 10, resilience=0.5) == 0.0

    def test_impossible_target_raises(self):
        with pytest.raises(CommitteeSizeError):
            minimum_committee_size(30, 0.45, resilience=1 / 3, failure_target=2 ** -30,
                                   max_size=25)

    def test_transition_failure_bound_grows_with_smaller_batches_swapped_more_often(self):
        base = transition_failure_probability(1600, 0.25, 80, num_shards=10, swap_batch=6)
        larger_batch = transition_failure_probability(1600, 0.25, 80, num_shards=10, swap_batch=40)
        assert base >= larger_batch  # fewer intermediate committees with larger batches
        assert base < 1e-3

    @given(st.integers(min_value=50, max_value=400), st.floats(min_value=0.0, max_value=0.3),
           st.integers(min_value=5, max_value=49))
    @settings(max_examples=30, deadline=None)
    def test_hypergeometric_probability_is_a_probability(self, network, fraction, committee):
        committee = min(committee, network)
        probability = faulty_committee_probability(network, fraction, committee, resilience=0.5)
        assert 0.0 <= probability <= 1.0


class TestAssignment:
    def test_permutation_is_deterministic_in_seed(self):
        nodes = list(range(20))
        assert permutation_from_seed(nodes, 7) == permutation_from_seed(nodes, 7)
        assert permutation_from_seed(nodes, 7) != permutation_from_seed(nodes, 8)

    def test_assignment_partitions_all_nodes(self):
        nodes = list(range(23))
        assignment = assign_committees(nodes, num_shards=4, seed=1)
        assert sorted(node for committee in assignment.committees
                      for node in committee.members) == nodes
        sizes = [committee.size for committee in assignment.committees]
        assert max(sizes) - min(sizes) <= 1

    def test_membership_and_transitioning_nodes(self):
        nodes = list(range(12))
        old = assign_committees(nodes, 3, seed=1, epoch=0)
        new = assign_committees(nodes, 3, seed=2, epoch=1)
        moving = new.transitioning_nodes(old)
        for node in moving:
            assert old.shard_of(node) != new.shard_of(node)
        staying = set(nodes) - set(moving)
        for node in staying:
            assert old.shard_of(node) == new.shard_of(node)

    def test_too_many_shards_rejected(self):
        with pytest.raises(ShardingError):
            assign_committees([1, 2], num_shards=3, seed=0)

    @given(st.integers(min_value=4, max_value=60), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_every_node_lands_in_exactly_one_committee(self, n_nodes, shards, seed):
        shards = min(shards, n_nodes)
        assignment = assign_committees(list(range(n_nodes)), shards, seed)
        seen = [node for committee in assignment.committees
                for node in committee.members]
        assert len(seen) == n_nodes
        assert len(set(seen)) == n_nodes


class TestBeaconProtocol:
    def test_all_nodes_agree_on_the_same_rnd(self):
        protocol = BeaconProtocol(network_size=16, q_bits=0, delta=1.0, seed=3)
        outcome = protocol.run_epoch(epoch=0)
        assert outcome.succeeded
        assert protocol.agreement_reached(outcome.epoch)
        assert outcome.rounds == 1

    def test_q_filter_reduces_certificates(self):
        filtered = BeaconProtocol(network_size=32, q_bits=3, delta=1.0, seed=4).run_epoch()
        unfiltered = BeaconProtocol(network_size=32, q_bits=0, delta=1.0, seed=4).run_epoch()
        assert filtered.certificates_broadcast <= unfiltered.certificates_broadcast
        assert unfiltered.certificates_broadcast == 32

    def test_retry_when_no_certificate(self):
        # With an extreme filter no node wins the first epochs; the protocol
        # must retry with increasing epoch numbers and eventually succeed.
        protocol = BeaconProtocol(network_size=4, q_bits=2, delta=0.5, seed=5)
        outcome = protocol.run_epoch(epoch=0, max_rounds=64)
        assert outcome.succeeded
        assert outcome.rounds >= 1

    def test_recommended_q_bits_and_repeat_probability(self):
        bits = recommended_q_bits(512)
        assert bits >= 1
        assert repeat_probability(512, bits) < 2 ** -8

    def test_elapsed_time_is_multiple_of_delta(self):
        protocol = BeaconProtocol(network_size=8, q_bits=0, delta=2.0, seed=6)
        outcome = protocol.run_epoch()
        assert outcome.elapsed_seconds >= 2.0


class TestReconfiguration:
    def _assignments(self, n_nodes=24, shards=3):
        old = assign_committees(list(range(n_nodes)), shards, seed=1, epoch=0)
        new = assign_committees(list(range(n_nodes)), shards, seed=9, epoch=1)
        return old, new

    def test_swap_batch_size_is_log_n(self):
        assert swap_batch_size(80) == round(math.log2(80))
        assert swap_batch_size(2) >= 1

    def test_swap_all_moves_everyone_in_one_step(self):
        old, new = self._assignments()
        plan = plan_reconfiguration(old, new, strategy="swap-all")
        assert plan.num_steps == 1
        assert sorted(plan.nodes_in_step(0)) == sorted(plan.transitioning_nodes)

    def test_swap_batch_limits_concurrent_departures(self):
        old, new = self._assignments()
        plan = plan_reconfiguration(old, new, strategy="swap-batch", batch_size=2)
        departures = plan.max_concurrent_departures()
        assert all(count <= 2 for count in departures.values())

    def test_batched_plan_preserves_liveness_where_swap_all_may_not(self):
        old, new = self._assignments(n_nodes=30, shards=3)
        batched = plan_reconfiguration(old, new, strategy="swap-batch", batch_size=2)
        assert batched.preserves_liveness(resilience=0.5)

    def test_unknown_strategy_rejected(self):
        old, new = self._assignments()
        with pytest.raises(ShardingError):
            plan_reconfiguration(old, new, strategy="teleport")


class TestCrossShardProbability:
    def test_distribution_sums_to_one(self):
        for d in (1, 2, 3, 5):
            for k in (1, 2, 4, 9):
                total = sum(distribution_over_shards(d, k).values())
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_single_argument_never_cross_shard(self):
        assert probability_cross_shard(1, 16) == 0.0
        assert cross_shard_probability(1, 16, 1) == 1.0

    def test_two_arguments_two_shards(self):
        # P[both keys in the same shard] = 1/2.
        assert probability_cross_shard(2, 2) == pytest.approx(0.5)

    def test_probability_grows_with_shards(self):
        values = [probability_cross_shard(3, k) for k in (2, 4, 8, 32)]
        assert values == sorted(values)
        assert values[-1] > 0.9  # "a vast majority of transactions are distributed"

    def test_expected_shards_touched_bounds(self):
        assert expected_shards_touched(3, 8) <= 3
        assert expected_shards_touched(3, 8) > 1
        assert expected_shards_touched(0, 8) == 0.0

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=12))
    @settings(max_examples=50, deadline=None)
    def test_distribution_is_valid_for_any_parameters(self, d, k):
        distribution = distribution_over_shards(d, k)
        assert all(p >= 0 for p in distribution.values())
        assert sum(distribution.values()) == pytest.approx(1.0, abs=1e-9)


class TestEpochSchedule:
    def test_epoch_progression(self):
        schedule = EpochSchedule(epoch_duration=100.0)
        assert schedule.next_epoch_due(0.0)
        first = assign_committees(list(range(8)), 2, seed=1, epoch=0)
        schedule.start_epoch(first, now=0.0)
        assert schedule.current_epoch == 0
        assert not schedule.next_epoch_due(50.0)
        assert schedule.next_epoch_due(100.0)
        second = assign_committees(list(range(8)), 2, seed=2, epoch=1)
        schedule.start_epoch(second, now=100.0)
        assert schedule.records[0].assignment is first
        assert schedule.records[-1].assignment is second

    def test_non_monotonic_epoch_rejected(self):
        schedule = EpochSchedule()
        schedule.start_epoch(assign_committees(list(range(4)), 2, seed=1, epoch=3), now=0.0)
        with pytest.raises(ShardingError):
            schedule.start_epoch(assign_committees(list(range(4)), 2, seed=1, epoch=3), now=1.0)
