"""Appendix B: probability that a transaction is cross-shard (Equation 3).

Analytic table plus a Monte-Carlo cross-check using the actual key-to-shard
hash mapping used by the sharded system.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.experiments.common import ExperimentResult
from repro.sharding.cross_shard import expected_shards_touched, probability_cross_shard
from repro.workloads.generator import shard_of_key


def _empirical_cross_shard(d: int, k: int, samples: int, rng: random.Random) -> float:
    cross = 0
    for _ in range(samples):
        keys = [f"key-{rng.randrange(10_000_000)}" for _ in range(d)]
        shards = {shard_of_key(key, k) for key in keys}
        if len(shards) > 1:
            cross += 1
    return cross / samples


def run(argument_counts: Sequence[int] = (2, 3, 5),
        shard_counts: Sequence[int] = (2, 4, 8, 16, 36),
        samples: int = 2000, seed: int = 0) -> ExperimentResult:
    """Reproduce the Appendix-B analysis (analytic and empirical)."""
    rng = random.Random(seed)
    result = ExperimentResult(
        experiment_id="appendix_b",
        title="Probability of cross-shard transactions",
        columns=["arguments", "shards", "analytic_probability", "empirical_probability",
                 "expected_shards_touched"],
        paper_reference="Appendix B (Equation 3)",
        notes="A vast majority of multi-argument transactions are cross-shard once k > 4.",
    )
    for d in argument_counts:
        for k in shard_counts:
            result.add_row(
                arguments=d, shards=k,
                analytic_probability=probability_cross_shard(d, k),
                empirical_probability=_empirical_cross_shard(d, k, samples, rng),
                expected_shards_touched=expected_shards_touched(d, k),
            )
    return result

