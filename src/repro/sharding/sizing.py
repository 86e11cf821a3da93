"""Committee sizing (Section 5.2, Equations 1 and 2).

Shard formation assigns nodes to committees by a random permutation, i.e.
sampling without replacement, so the number of Byzantine nodes that land in a
committee of size ``n`` follows the hypergeometric distribution.  Equation 1
is the probability that a committee exceeds its fault threshold ``f``;
Equation 2 bounds (by a union bound) the probability that any intermediate
committee during an epoch transition is faulty.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.errors import CommitteeSizeError, ConfigurationError

#: The failure-probability target used throughout the paper.
DEFAULT_FAILURE_TARGET = 2.0 ** -20


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _hypergeom_pmf(x: int, total: int, byzantine: int, sample: int) -> float:
    """P[X = x] for X ~ Hypergeometric(total, byzantine, sample)."""
    if x < 0 or x > sample or x > byzantine or sample - x > total - byzantine:
        return 0.0
    log_p = (_log_comb(byzantine, x)
             + _log_comb(total - byzantine, sample - x)
             - _log_comb(total, sample))
    return math.exp(log_p)


def faulty_committee_probability(network_size: int, byzantine_fraction: float,
                                 committee_size: int,
                                 fault_threshold: Optional[int] = None,
                                 resilience: float = 1.0 / 3.0) -> float:
    """Equation 1: probability a committee holds more than its tolerated faults.

    Parameters
    ----------
    network_size:
        Total number of nodes ``N``.
    byzantine_fraction:
        Fraction ``s`` of the network controlled by the adversary.
    committee_size:
        Committee size ``n``.
    fault_threshold:
        Number of faults ``f`` the committee tolerates.  When omitted it is
        derived from ``resilience`` as ``floor((n - 1) * resilience)``.
    resilience:
        1/3 for plain PBFT, 1/2 for the AHL family.

    Returns
    -------
    float
        ``P[X >= f + 1]`` — the probability that the committee is faulty.
        (The paper writes ``P[X >= f]`` with ``f`` denoting the first
        violating count; we use the standard convention that ``f`` faults are
        tolerated and ``f + 1`` break the committee.)
    """
    if not 0 <= byzantine_fraction < 1:
        raise ConfigurationError("byzantine_fraction must be in [0, 1)")
    if committee_size < 1 or committee_size > network_size:
        raise ConfigurationError("committee size must be in [1, network_size]")
    byzantine_total = int(math.floor(byzantine_fraction * network_size))
    if fault_threshold is None:
        fault_threshold = int(math.floor((committee_size - 1) * resilience))
    threshold = fault_threshold + 1
    probability = 0.0
    upper = min(committee_size, byzantine_total)
    for x in range(threshold, upper + 1):
        probability += _hypergeom_pmf(x, network_size, byzantine_total, committee_size)
    return min(1.0, probability)


def minimum_committee_size(network_size: int, byzantine_fraction: float,
                           resilience: float = 1.0 / 3.0,
                           failure_target: float = DEFAULT_FAILURE_TARGET,
                           max_size: Optional[int] = None) -> int:
    """Smallest committee size whose faulty probability is below ``failure_target``.

    With ``resilience = 1/3`` (plain PBFT) and a 25% adversary this exceeds
    600 nodes; with ``resilience = 1/2`` (AHL+) it drops to roughly 80 nodes
    (Section 5.2).
    """
    if failure_target <= 0 or failure_target >= 1:
        raise ConfigurationError("failure_target must be in (0, 1)")
    limit = max_size if max_size is not None else network_size
    limit = min(limit, network_size)
    for size in range(1, limit + 1):
        probability = faulty_committee_probability(
            network_size, byzantine_fraction, size, resilience=resilience
        )
        if probability <= failure_target:
            return size
    raise CommitteeSizeError(
        f"no committee size up to {limit} achieves failure probability "
        f"<= {failure_target} for N={network_size}, s={byzantine_fraction}"
    )


def committee_size_table(byzantine_fractions: Sequence[float],
                         network_size: int = 10_000,
                         failure_target: float = DEFAULT_FAILURE_TARGET) -> List[dict]:
    """Committee sizes for PBFT (1/3) vs AHL+ (1/2) across adversarial powers (Figure 11 left)."""
    rows = []
    for fraction in byzantine_fractions:
        row = {"byzantine_fraction": fraction}
        for label, resilience in (("omniledger_pbft", 1.0 / 3.0), ("ours_ahl_plus", 1.0 / 2.0)):
            try:
                row[label] = minimum_committee_size(
                    network_size, fraction, resilience=resilience,
                    failure_target=failure_target,
                )
            except CommitteeSizeError:
                row[label] = None
        rows.append(row)
    return rows


def transition_failure_probability(network_size: int, byzantine_fraction: float,
                                   committee_size: int, num_shards: int,
                                   swap_batch: int,
                                   resilience: float = 1.0 / 2.0) -> float:
    """Equation 2: union bound on safety violation during one epoch transition.

    The expected number of intermediate committees per shard is
    ``n * (k - 1) / (k * B)``; each is faulty with the Equation-1 probability.
    """
    if num_shards < 1 or swap_batch < 1:
        raise ConfigurationError("num_shards and swap_batch must be positive")
    per_committee = faulty_committee_probability(
        network_size, byzantine_fraction, committee_size, resilience=resilience
    )
    intermediate_committees = committee_size * (num_shards - 1) / (num_shards * swap_batch)
    return min(1.0, per_committee * max(0.0, intermediate_committees))
