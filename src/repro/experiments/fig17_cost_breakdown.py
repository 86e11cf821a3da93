"""Figure 17 (Appendix C): consensus versus execution cost per block.

The paper shows that the consensus cost per block is an order of magnitude
larger than the execution cost, and that the gap widens with the committee
size.  We report the mean per-block consensus time (proposal to commit, the
cluster's ``avg_latency``) and the mean per-block execution time measured at
an honest replica.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import ExperimentResult, ExperimentScale, run_consensus_point

PROTOCOLS = ("HL", "AHL", "AHL+", "AHLR")


def run(scale: Optional[ExperimentScale] = None,
        network_sizes: Optional[Sequence[int]] = None) -> ExperimentResult:
    """Reproduce Figure 17 (cost breakdown)."""
    scale = scale or ExperimentScale.quick()
    network_sizes = network_sizes or scale.network_sizes
    result = ExperimentResult(
        experiment_id="fig17",
        title="Consensus and execution cost breakdown",
        columns=["protocol", "n", "consensus_cost_s", "execution_cost_s", "ratio"],
        paper_reference="Figure 17",
        notes="Expected shape: consensus cost >> execution cost, gap grows with N.",
    )
    for protocol in PROTOCOLS:
        for n in network_sizes:
            point = run_consensus_point(protocol, n, scale)
            consensus = point.avg_latency
            execution = point.execution_cost_mean
            result.add_row(protocol=protocol, n=n,
                           consensus_cost_s=consensus,
                           execution_cost_s=execution,
                           ratio=(consensus / execution if execution else None))
    return result
