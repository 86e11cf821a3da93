"""Tests for latency models (Table 3) and the metric monitor."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.latency import (
    GCP_REGIONS,
    GCP_REGION_LATENCY_MS,
    LanLatencyModel,
    WanLatencyModel,
    assign_regions_round_robin,
    gcp_latency_model,
)
from repro.sim.monitor import Monitor, TimeSeries

from engine_harness import uniform_latency


class TestLatencyModels:
    def test_table3_matrix_is_complete_and_symmetric_enough(self):
        # Table 3 in the paper is measured, so it is only approximately
        # symmetric; entries must exist for every ordered pair though.
        for src in GCP_REGIONS:
            for dst in GCP_REGIONS:
                assert dst in GCP_REGION_LATENCY_MS[src]
                if src != dst:
                    forward = GCP_REGION_LATENCY_MS[src][dst]
                    backward = GCP_REGION_LATENCY_MS[dst][src]
                    assert forward == pytest.approx(backward, rel=0.15)

    def test_wan_one_way_delay_is_half_rtt(self):
        model = gcp_latency_model(jitter_fraction=0.0)
        delay = model.delay("us-west1-b", "europe-west1-b", size_bytes=0)
        assert delay == pytest.approx(138.9 / 2 / 1000, rel=1e-6)

    def test_wan_intra_region_uses_floor(self):
        model = gcp_latency_model(jitter_fraction=0.0)
        assert model.delay("us-west1-b", "us-west1-b", 0) > 0

    def test_wan_unknown_region_raises(self):
        model = WanLatencyModel({"a": {"a": 1.0}})
        with pytest.raises(ConfigurationError):
            model.delay("a", "b", 0)

    def test_lan_bandwidth_term_scales_with_size(self):
        model = LanLatencyModel(base_latency=0.001, bandwidth_bps=1e6, jitter_fraction=0.0)
        small = model.delay("local", "local", 1000)
        large = model.delay("local", "local", 100_000)
        assert large > small

    def test_infinite_bandwidth_lan_is_size_independent(self):
        model = uniform_latency(0.05)
        assert model.delay("x", "y", 10) == 0.05
        assert model.delay("x", "y", 100_000) == 0.05
        assert model.delay_bound() == 0.05

    def test_gcp_model_region_subset(self):
        model = gcp_latency_model(num_regions=4)
        assert len(model.regions) == 4
        with pytest.raises(ConfigurationError):
            gcp_latency_model(num_regions=0)

    def test_round_robin_region_assignment(self):
        mapping = assign_regions_round_robin([10, 11, 12, 13, 14], ["r1", "r2"])
        assert mapping == {10: "r1", 11: "r2", 12: "r1", 13: "r2", 14: "r1"}
        with pytest.raises(ConfigurationError):
            assign_regions_round_robin([1], [])

    def test_delay_bound_dominates_typical_delay(self):
        model = gcp_latency_model(jitter_fraction=0.1)
        bound = model.delay_bound(1024)
        for src in model.regions:
            for dst in model.regions:
                assert model.delay(src, dst, 1024) <= bound * 1.2


class TestMonitor:
    def test_counters_accumulate(self):
        monitor = Monitor()
        monitor.counter("x").increment()
        monitor.counter("x").increment(2)
        assert monitor.counter_value("x") == 3
        assert monitor.counter_value("missing") == 0

    def test_time_series_statistics(self):
        series = TimeSeries("s")
        for time, value in [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]:
            series.record(time, value)
        assert series.mean() == pytest.approx(3.0)
        assert series.percentile(0) == 1.0
        assert series.percentile(100) == 5.0

    def test_bucketed_rate(self):
        series = TimeSeries("s")
        series.record(0.5, 10)
        series.record(1.5, 20)
        buckets = series.bucketed_rate(1.0, until=2.0)
        assert buckets[0] == (0.0, 10.0)
        assert buckets[1] == (1.0, 20.0)
