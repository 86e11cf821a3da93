"""Metric collection for simulation runs.

:class:`Monitor` is a small container of named counters and time series
shared by the components of one simulation.  A consensus committee records
two series per replica — ``commit_latency`` (proposal to commit) and
``execution_cost`` (modelled execution time per block) — and counts view
changes; everything else a report needs (throughput, abort rates,
stale-block rates) is read from the ledgers and drivers themselves.

Two storage modes are supported:

* **unbounded** (the default) — every sample is retained, all statistics are
  exact; right for the paper-figure experiments, whose runs are short.
* **bounded** (``max_samples=N``) — series keep running count/sum plus a
  fixed-size reservoir for percentiles.  Memory is O(N) per series
  regardless of run length (the 1M-transaction benchmark runs this way);
  means and totals stay exact, percentiles become reservoir approximations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class Counter:
    """A named monotonically increasing counter."""

    name: str
    value: float = 0.0

    def increment(self, amount: float = 1.0) -> None:
        self.value += amount


class TimeSeries:
    """A named series of (time, value) samples.

    With ``max_samples=None`` every sample is kept and all statistics are
    exact.  With a bound, ``count``/``total``/``mean`` remain exact (running
    aggregates) while ``samples`` holds a uniform reservoir (Vitter's
    algorithm R, deterministically seeded by the series name) used for
    percentiles and rate estimates.
    """

    def __init__(self, name: str, max_samples: Optional[int] = None) -> None:
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be positive")
        self.name = name
        self.max_samples = max_samples
        self.samples: List[Tuple[float, float]] = []
        self._count = 0
        self._sum = 0.0
        self._rng = random.Random(name) if max_samples is not None else None

    @classmethod
    def from_samples(cls, name: str, samples: Sequence[Tuple[float, float]]) -> "TimeSeries":
        """Build an exact series from pre-collected ``(time, value)`` samples.

        This is the supported way to wrap an existing sample list (e.g. to
        reuse :meth:`bucketed_rate`): the running ``_count``/``_sum``
        aggregates are initialised from the samples, so ``count()``,
        ``total()`` and ``mean()`` stay exact.  Assigning ``.samples``
        directly bypasses the aggregates and is not supported.
        """
        series = cls(name)
        series.samples = list(samples)
        series._count = len(series.samples)
        series._sum = sum(value for _, value in series.samples)
        return series

    def record(self, time: float, value: float) -> None:
        self._count += 1
        self._sum += value
        if self.max_samples is None or len(self.samples) < self.max_samples:
            self.samples.append((time, value))
        else:
            slot = self._rng.randrange(self._count)
            if slot < self.max_samples:
                self.samples[slot] = (time, value)

    # ------------------------------------------------------------- aggregates
    def count(self) -> int:
        """Number of samples recorded (exact, even in bounded mode)."""
        return self._count

    def total(self) -> float:
        """Sum of recorded values (exact, even in bounded mode)."""
        return self._sum

    def values(self) -> List[float]:
        return [value for _, value in self.samples]

    def times(self) -> List[float]:
        return [time for time, _ in self.samples]

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, pct: float) -> float:
        """Percentile over retained samples (exact unbounded, reservoir-approx bounded)."""
        values = sorted(self.values())
        if not values:
            return 0.0
        index = min(len(values) - 1, int(round((pct / 100.0) * (len(values) - 1))))
        return values[index]

    def bucketed_rate(self, bucket_seconds: float, until: Optional[float] = None) -> List[Tuple[float, float]]:
        """Aggregate sample values into rate-per-second buckets of the given width.

        In bounded mode the reservoir is scaled by ``count / len(samples)``
        so the rates remain unbiased estimates of the full stream.
        """
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        if not self.samples and until is None:
            return []
        horizon = until if until is not None else max(t for t, _ in self.samples)
        scale = 1.0
        if self.max_samples is not None and self.samples and self._count > len(self.samples):
            scale = self._count / len(self.samples)
        buckets: Dict[int, float] = {}
        for time, value in self.samples:
            buckets[int(time // bucket_seconds)] = buckets.get(int(time // bucket_seconds), 0.0) + value
        result = []
        for index in range(int(horizon // bucket_seconds) + 1):
            total = buckets.get(index, 0.0)
            result.append((index * bucket_seconds, total * scale / bucket_seconds))
        return result


class Monitor:
    """A collection of named counters and time series.

    ``max_samples`` switches every series created by this monitor to
    bounded storage (see the module docstring); the default keeps every
    sample.
    """

    def __init__(self, max_samples: Optional[int] = None) -> None:
        self.max_samples = max_samples
        self._counters: Dict[str, Counter] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(name, max_samples=self.max_samples)
        return self._series[name]

    def counter_value(self, name: str) -> float:
        return self._counters[name].value if name in self._counters else 0.0
