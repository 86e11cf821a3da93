"""Tests for the experiment harness (registry, result formatting, fast experiments)."""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.common import ExperimentResult
from repro.experiments import (
    appendix_b_cross_shard,
    fig11_shard_formation,
    fig14_sharding_gcp,
    table1_comparison,
    table2_enclave_costs,
    table3_region_latency,
)


class TestRegistry:
    def test_every_paper_table_and_figure_is_registered(self):
        expected = {
            "table1", "table2", "table3",
            "fig02", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
            "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
            "appendix_b",
        }
        assert expected == set(EXPERIMENTS)

class TestResultFormatting:
    def test_format_table_renders_all_rows(self):
        result = ExperimentResult("x", "demo", columns=["a", "b"])
        result.add_row(a=1, b=2.5)
        result.add_row(a="text", b=None)
        table = result.format_table()
        assert "demo" in table and "text" in table and "2.50" in table

class TestFastExperiments:
    def test_table1_is_static(self):
        result = table1_comparison.run()
        assert len(result.rows) == 4
        assert any(row["system"] == "Ours" for row in result.rows)

    def test_table2_matches_paper_costs(self):
        result = table2_enclave_costs.run(repetitions=10)
        for row in result.rows:
            assert row["model_us"] == pytest.approx(row["paper_us"], rel=0.01)

    def test_table3_matches_matrix(self):
        result = table3_region_latency.run()
        assert len(result.rows) == 64
        for row in result.rows:
            if row["src"] == row["dst"]:
                assert row["paper_rtt_ms"] == 0.0

    def test_appendix_b_analytic_matches_empirical(self):
        result = appendix_b_cross_shard.run(argument_counts=(2, 3), shard_counts=(2, 8),
                                            samples=1500, seed=1)
        for row in result.rows:
            assert row["empirical_probability"] == pytest.approx(
                row["analytic_probability"], abs=0.07)

    def test_fig11_committee_sizes_have_the_paper_shape(self):
        result = fig11_shard_formation.run(byzantine_fractions=(0.1, 0.25),
                                           network_sizes=(32, 64), simulate_up_to=32)
        ours = {row["x"]: row["value"] for row in result.rows
                if row["panel"] == "committee_size" and row["series"] == "Ours (2f+1)"}
        theirs = {row["x"]: row["value"] for row in result.rows
                  if row["panel"] == "committee_size" and row["series"] == "OmniLedger (3f+1)"}
        assert ours[0.25] < theirs[0.25]
        formation = [row for row in result.rows if row["panel"] == "formation_time"]
        assert formation
        for n in (32, 64):
            our_time = next(row["value"] for row in formation
                            if row["x"] == n and row["series"] == "Ours-cluster")
            their_time = next(row["value"] for row in formation
                              if row["x"] == n and row["series"] == "RandHound-cluster")
            assert our_time > 0 and their_time > 0

    def test_fig14_model_scales_linearly_with_shards(self):
        result = fig14_sharding_gcp.run(network_sizes=(162, 324, 648), des_duration=5.0,
                                        des_validation_shards=2, des_committee_size=3)
        model_small_adv = [row for row in result.rows
                           if row["source"] == "model" and row["adversary"] == 0.125]
        throughputs = [row["throughput_tps"] for row in model_small_adv]
        assert throughputs == sorted(throughputs)
        # 12.5% adversary should beat 25% at the same network size.
        for n in (162, 324, 648):
            small = next(row["throughput_tps"] for row in result.rows
                         if row["source"] == "model" and row["adversary"] == 0.125
                         and row["n_total"] == n)
            large = next(row["throughput_tps"] for row in result.rows
                         if row["source"] == "model" and row["adversary"] == 0.25
                         and row["n_total"] == n)
            assert small > large
        assert any(row["source"] == "des" for row in result.rows)
