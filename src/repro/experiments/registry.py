"""Registry of all experiments (one per table/figure of the paper)."""

from __future__ import annotations

from typing import Callable, Dict

from repro.experiments import (
    appendix_b_cross_shard,
    fig02_bft_comparison,
    fig08_ahl_cluster,
    fig09_ahl_gcp,
    fig10_optimizations,
    fig11_shard_formation,
    fig12_reconfiguration,
    fig13_sharding_local,
    fig14_sharding_gcp,
    fig15_latency,
    fig16_view_changes,
    fig17_cost_breakdown,
    fig18_kvstore_vs_smallbank,
    fig19_clients_gcp,
    fig20_clients_cluster,
    fig21_poet_throughput,
    fig22_poet_stale_rate,
    table1_comparison,
    table2_enclave_costs,
    table3_region_latency,
)
from repro.experiments.common import ExperimentResult

#: experiment id -> run() callable.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1_comparison.run,
    "table2": table2_enclave_costs.run,
    "table3": table3_region_latency.run,
    "fig02": fig02_bft_comparison.run,
    "fig08": fig08_ahl_cluster.run,
    "fig09": fig09_ahl_gcp.run,
    "fig10": fig10_optimizations.run,
    "fig11": fig11_shard_formation.run,
    "fig12": fig12_reconfiguration.run,
    "fig13": fig13_sharding_local.run,
    "fig14": fig14_sharding_gcp.run,
    "fig15": fig15_latency.run,
    "fig16": fig16_view_changes.run,
    "fig17": fig17_cost_breakdown.run,
    "fig18": fig18_kvstore_vs_smallbank.run,
    "fig19": fig19_clients_gcp.run,
    "fig20": fig20_clients_cluster.run,
    "fig21": fig21_poet_throughput.run,
    "fig22": fig22_poet_stale_rate.run,
    "appendix_b": appendix_b_cross_shard.run,
}
