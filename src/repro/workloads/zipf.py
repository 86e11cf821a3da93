"""Zipf-distributed key selection.

Figure 13 (right) varies the workload's Zipf coefficient between 0 (uniform)
and ~2 (highly skewed) to study the abort rate of the cross-shard commit
protocol under contention.
"""

from __future__ import annotations

import bisect
import random
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.errors import WorkloadError
from repro.workloads import vectorized


@lru_cache(maxsize=8)
def _zipf_cdf(population: int, coefficient: float) -> Tuple[float, ...]:
    """The Zipf(``coefficient``) CDF over ``population`` ranks.

    Shared by every generator of the same shape in the process (each
    partition's driver builds one), hence immutable and bounded: a handful
    of shapes are live at a time, at ~8 bytes per rank.
    """
    weights = [1.0 / ((rank + 1) ** coefficient) for rank in range(population)]
    total = sum(weights)
    cdf: List[float] = []
    cumulative = 0.0
    for weight in weights:
        cumulative += weight / total
        cdf.append(cumulative)
    cdf[-1] = 1.0
    return tuple(cdf)


class ZipfGenerator:
    """Draws integers in ``[0, population)`` with Zipf(s) popularity.

    ``coefficient = 0`` degenerates to the uniform distribution.  The
    implementation precomputes the CDF, so draws are O(log population).
    """

    def __init__(self, population: int, coefficient: float = 0.0,
                 rng: Optional[random.Random] = None, seed: int = 0) -> None:
        if population < 1:
            raise WorkloadError("population must be at least 1")
        if coefficient < 0:
            raise WorkloadError("the Zipf coefficient must be non-negative")
        self.population = population
        self.coefficient = coefficient
        self._rng = rng or random.Random(seed)
        self._cdf = _zipf_cdf(population, coefficient)
        #: numpy copy of the CDF, built lazily on the first block draw.
        self._cdf_array = None

    def sample(self) -> int:
        """Draw one rank (0 = most popular)."""
        u = self._rng.random()
        return bisect.bisect_left(self._cdf, u)

    def sample_block(self, count: int) -> List[int]:
        """Draw ``count`` ranks, bit-identical to ``count`` :meth:`sample` calls.

        The uniforms come from :func:`repro.workloads.vectorized.bulk_uniforms`
        (numpy MT19937 fast path with an exact scalar fallback) and the CDF
        inversion from ``np.searchsorted``, which computes exactly
        ``bisect_left`` — so the rank stream, and the generator state left
        behind, are the same whether numpy is installed or not.
        """
        if count <= 0:
            return []
        uniforms = vectorized.bulk_uniforms(self._rng, count)
        if isinstance(uniforms, list):
            return [bisect.bisect_left(self._cdf, u) for u in uniforms]
        if self._cdf_array is None:
            self._cdf_array = vectorized.np.asarray(self._cdf)
        return vectorized.bulk_bisect_left(self._cdf, uniforms, self._cdf_array)

    def sample_many(self, count: int, distinct: bool = False) -> List[int]:
        """Draw ``count`` ranks, optionally forcing them to be distinct."""
        if not distinct:
            return [self.sample() for _ in range(count)]
        if count > self.population:
            raise WorkloadError("cannot draw more distinct values than the population")
        seen: set[int] = set()
        result: List[int] = []
        # Rejection sampling; falls back to scanning when the key space is tight.
        attempts = 0
        while len(result) < count:
            value = self.sample()
            attempts += 1
            if value not in seen:
                seen.add(value)
                result.append(value)
            if attempts > 50 * count:
                for value in range(self.population):
                    if value not in seen:
                        seen.add(value)
                        result.append(value)
                        if len(result) == count:
                            break
        return result
