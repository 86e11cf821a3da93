"""Baselines the paper compares against.

* :mod:`repro.baselines.randhound` — a cost model of RandHound,
  OmniLedger's distributed randomness protocol, used by the Figure-11
  comparison.

Committee sizing under the classic ``3f + 1`` failure model (OmniLedger /
Elastico) is :func:`repro.sharding.sizing.minimum_committee_size` with
resilience 1/3.
"""

from repro.baselines.randhound import RandHoundConfig, randhound_running_time

__all__ = [
    "RandHoundConfig",
    "randhound_running_time",
]
