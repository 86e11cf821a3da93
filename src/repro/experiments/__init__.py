"""Experiment harness: one module per table/figure of the paper's evaluation.

Every module exposes a ``run(...)`` function returning an
:class:`~repro.experiments.common.ExperimentResult` whose rows mirror the
series plotted in the paper.  The benchmark suite under ``benchmarks/`` calls
these functions (with scaled-down parameters so they finish in CI time) and
prints the resulting tables; ``repro.experiments.registry`` lists them all.
"""

from repro.experiments.common import ExperimentResult, ExperimentScale
from repro.experiments.registry import EXPERIMENTS

__all__ = ["ExperimentResult", "ExperimentScale", "EXPERIMENTS"]
