"""Network latency models.

The paper evaluates on two environments:

* an in-house cluster of 100 servers (LAN latencies well under a millisecond);
* Google Cloud Platform instances spread across 8 regions, whose pairwise
  round-trip latencies are reported in Table 3 of the paper.

:data:`GCP_REGION_LATENCY_MS` reproduces Table 3 verbatim.  Latency models
convert a (source region, destination region, message size) triple into a
one-way delivery delay, optionally with jitter and a bandwidth term.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Optional, Sequence

from repro.errors import ConfigurationError

#: The 8 GCP regions used in the paper's large-scale experiments (Table 3).
GCP_REGIONS: tuple[str, ...] = (
    "us-west1-b",
    "us-west2-a",
    "us-east1-b",
    "us-east4-b",
    "asia-east1-b",
    "asia-southeast1-b",
    "europe-west1-b",
    "europe-west2-a",
)

#: Table 3 of the paper: pairwise latency in milliseconds between GCP regions.
GCP_REGION_LATENCY_MS: Dict[str, Dict[str, float]] = {
    "us-west1-b": {
        "us-west1-b": 0.0, "us-west2-a": 24.7, "us-east1-b": 66.7, "us-east4-b": 59.0,
        "asia-east1-b": 120.2, "asia-southeast1-b": 150.8,
        "europe-west1-b": 138.9, "europe-west2-a": 132.7,
    },
    "us-west2-a": {
        "us-west1-b": 24.7, "us-west2-a": 0.0, "us-east1-b": 62.9, "us-east4-b": 60.5,
        "asia-east1-b": 129.5, "asia-southeast1-b": 160.5,
        "europe-west1-b": 140.4, "europe-west2-a": 136.1,
    },
    "us-east1-b": {
        "us-west1-b": 66.7, "us-west2-a": 62.9, "us-east1-b": 0.0, "us-east4-b": 12.7,
        "asia-east1-b": 183.8, "asia-southeast1-b": 216.6,
        "europe-west1-b": 93.1, "europe-west2-a": 88.2,
    },
    "us-east4-b": {
        "us-west1-b": 59.1, "us-west2-a": 60.4, "us-east1-b": 12.7, "us-east4-b": 0.0,
        "asia-east1-b": 176.6, "asia-southeast1-b": 208.4,
        "europe-west1-b": 81.9, "europe-west2-a": 75.6,
    },
    "asia-east1-b": {
        "us-west1-b": 118.7, "us-west2-a": 129.5, "us-east1-b": 184.9, "us-east4-b": 176.6,
        "asia-east1-b": 0.0, "asia-southeast1-b": 50.5,
        "europe-west1-b": 255.5, "europe-west2-a": 252.5,
    },
    "asia-southeast1-b": {
        "us-west1-b": 150.8, "us-west2-a": 160.5, "us-east1-b": 216.7, "us-east4-b": 208.3,
        "asia-east1-b": 50.6, "asia-southeast1-b": 0.0,
        "europe-west1-b": 288.8, "europe-west2-a": 283.8,
    },
    "europe-west1-b": {
        "us-west1-b": 138.9, "us-west2-a": 140.5, "us-east1-b": 93.2, "us-east4-b": 81.8,
        "asia-east1-b": 255.7, "asia-southeast1-b": 288.7,
        "europe-west1-b": 0.0, "europe-west2-a": 7.1,
    },
    "europe-west2-a": {
        "us-west1-b": 132.1, "us-west2-a": 134.9, "us-east1-b": 88.1, "us-east4-b": 76.6,
        "asia-east1-b": 252.1, "asia-southeast1-b": 283.9,
        "europe-west1-b": 7.1, "europe-west2-a": 0.0,
    },
}

#: Name of the single region used by the LAN (local-cluster) model.
LOCAL_REGION = "local"


class LatencyModel(ABC):
    """Maps a (source region, destination region, size) triple to a one-way delay."""

    @abstractmethod
    def delay(self, src_region: str, dst_region: str, size_bytes: int,
              rng: Optional[random.Random] = None) -> float:
        """Return the one-way delivery delay in seconds."""

    def delay_bound(self, size_bytes: int = 1024) -> float:
        """Conservative upper bound on the one-way delay (no jitter)."""
        raise NotImplementedError


class LanLatencyModel(LatencyModel):
    """Local-cluster model: sub-millisecond base latency plus a bandwidth term.

    Parameters
    ----------
    base_latency:
        One-way propagation delay in seconds (default 0.3 ms, typical for a
        datacenter network).
    bandwidth_bps:
        Link bandwidth in bits per second (default 1 Gbps).
    jitter_fraction:
        Uniform jitter applied as a fraction of the base latency.
    """

    def __init__(self, base_latency: float = 0.0003, bandwidth_bps: float = 1e9,
                 jitter_fraction: float = 0.1) -> None:
        if base_latency < 0 or bandwidth_bps <= 0 or jitter_fraction < 0:
            raise ConfigurationError("invalid LAN latency parameters")
        self.base_latency = base_latency
        self.bandwidth_bps = bandwidth_bps
        self.jitter_fraction = jitter_fraction

    def delay(self, src_region: str, dst_region: str, size_bytes: int,
              rng: Optional[random.Random] = None) -> float:
        transfer = (size_bytes * 8) / self.bandwidth_bps
        jitter = 0.0
        if rng is not None and self.jitter_fraction > 0:
            jitter = rng.uniform(0, self.jitter_fraction) * self.base_latency
        return self.base_latency + transfer + jitter

    def delay_bound(self, size_bytes: int = 1024) -> float:
        return self.base_latency * (1 + self.jitter_fraction) + (size_bytes * 8) / self.bandwidth_bps


class UniformLatencyModel(LatencyModel):
    """Fixed one-way latency for every pair of nodes (useful in tests)."""

    def __init__(self, latency: float = 0.01, jitter_fraction: float = 0.0) -> None:
        if latency < 0 or jitter_fraction < 0:
            raise ConfigurationError("invalid uniform latency parameters")
        self.latency = latency
        self.jitter_fraction = jitter_fraction

    def delay(self, src_region: str, dst_region: str, size_bytes: int,
              rng: Optional[random.Random] = None) -> float:
        jitter = 0.0
        if rng is not None and self.jitter_fraction > 0:
            jitter = rng.uniform(0, self.jitter_fraction) * self.latency
        return self.latency + jitter

    def delay_bound(self, size_bytes: int = 1024) -> float:
        return self.latency * (1 + self.jitter_fraction)


class WanLatencyModel(LatencyModel):
    """Wide-area model backed by a region-to-region latency matrix.

    The matrix values are interpreted as round-trip latencies in milliseconds
    (as reported in Table 3); the one-way delay is half the matrix entry plus
    a bandwidth term and optional jitter.
    """

    def __init__(self, matrix_ms: Dict[str, Dict[str, float]],
                 bandwidth_bps: float = 2.5e8, jitter_fraction: float = 0.1,
                 intra_region_ms: float = 0.5) -> None:
        if not matrix_ms:
            raise ConfigurationError("latency matrix must not be empty")
        self.matrix_ms = matrix_ms
        self.bandwidth_bps = bandwidth_bps
        self.jitter_fraction = jitter_fraction
        self.intra_region_ms = intra_region_ms

    @property
    def regions(self) -> tuple[str, ...]:
        return tuple(self.matrix_ms.keys())

    def _rtt_ms(self, src_region: str, dst_region: str) -> float:
        try:
            rtt = self.matrix_ms[src_region][dst_region]
        except KeyError as exc:
            raise ConfigurationError(
                f"no latency entry for {src_region!r} -> {dst_region!r}"
            ) from exc
        if src_region == dst_region:
            return max(rtt, self.intra_region_ms)
        return rtt

    def delay(self, src_region: str, dst_region: str, size_bytes: int,
              rng: Optional[random.Random] = None) -> float:
        one_way = self._rtt_ms(src_region, dst_region) / 2.0 / 1000.0
        transfer = (size_bytes * 8) / self.bandwidth_bps
        jitter = 0.0
        if rng is not None and self.jitter_fraction > 0:
            jitter = rng.uniform(0, self.jitter_fraction) * one_way
        return one_way + transfer + jitter

    def delay_bound(self, size_bytes: int = 1024) -> float:
        worst = max(max(row.values()) for row in self.matrix_ms.values())
        return (worst / 2.0 / 1000.0) * (1 + self.jitter_fraction) + (size_bytes * 8) / self.bandwidth_bps


def gcp_latency_model(num_regions: int = 8, bandwidth_bps: float = 2.5e8,
                      jitter_fraction: float = 0.1) -> WanLatencyModel:
    """Build a :class:`WanLatencyModel` from the first ``num_regions`` Table-3 regions."""
    if not 1 <= num_regions <= len(GCP_REGIONS):
        raise ConfigurationError(
            f"num_regions must be between 1 and {len(GCP_REGIONS)}, got {num_regions}"
        )
    selected = GCP_REGIONS[:num_regions]
    matrix = {
        src: {dst: GCP_REGION_LATENCY_MS[src][dst] for dst in selected}
        for src in selected
    }
    return WanLatencyModel(matrix, bandwidth_bps=bandwidth_bps, jitter_fraction=jitter_fraction)


def assign_regions_round_robin(node_ids: Sequence[int], regions: Sequence[str]) -> Dict[int, str]:
    """Assign nodes to regions round-robin, as the paper spreads instances evenly."""
    if not regions:
        raise ConfigurationError("at least one region is required")
    return {node_id: regions[i % len(regions)] for i, node_id in enumerate(node_ids)}
