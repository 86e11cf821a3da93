"""Shared infrastructure for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.consensus.cluster import ClusterRunResult, ConsensusCluster
from repro.sim.latency import LanLatencyModel, LatencyModel, gcp_latency_model, GCP_REGIONS


@dataclass
class ExperimentScale:
    """Knobs that trade fidelity for runtime.

    ``quick`` is the default used by the benchmark suite; ``paper`` follows
    the paper's parameter grid more closely (minutes-to-hours of wall clock).
    """

    name: str = "quick"
    duration: float = 5.0
    clients: int = 6
    client_rate_tps: float = 300.0
    batch_size: int = 100
    network_sizes: Sequence[int] = (7, 19, 31)
    view_change_timeout: float = 5.0
    queue_capacity: int = 400

    @staticmethod
    def quick() -> "ExperimentScale":
        return ExperimentScale()


@dataclass
class ExperimentResult:
    """A table of results for one figure or table of the paper."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: str = ""
    paper_reference: str = ""
    #: Free-form per-run extras that do not fit the tabular shape (e.g. the
    #: per-strategy migration counts of the reconfiguration experiment).
    metadata: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def format_table(self, float_digits: int = 2) -> str:
        """Human-readable fixed-width table (what the benchmark harness prints)."""
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.{float_digits}f}"
            if value is None:
                return "-"
            return str(value)

        widths = {col: len(col) for col in self.columns}
        rendered_rows = []
        for row in self.rows:
            rendered = {col: fmt(row.get(col)) for col in self.columns}
            rendered_rows.append(rendered)
            for col, text in rendered.items():
                widths[col] = max(widths[col], len(text))
        header = "  ".join(col.ljust(widths[col]) for col in self.columns)
        divider = "  ".join("-" * widths[col] for col in self.columns)
        lines = [f"== {self.experiment_id}: {self.title} ==", header, divider]
        for rendered in rendered_rows:
            lines.append("  ".join(rendered[col].ljust(widths[col]) for col in self.columns))
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)


def cluster_latency_model(environment: str = "cluster", num_regions: int = 8) -> LatencyModel:
    """Latency model for 'cluster' (LAN) or 'gcp' (Table-3 WAN) environments."""
    if environment == "cluster":
        return LanLatencyModel()
    if environment == "gcp":
        return gcp_latency_model(num_regions=num_regions)
    raise ValueError(f"unknown environment {environment!r}")


def gcp_regions(num_regions: int = 8) -> Sequence[str]:
    return GCP_REGIONS[:num_regions]


def run_consensus_point(protocol: str, n: int, scale: ExperimentScale,
                        environment: str = "cluster", num_regions: int = 8,
                        byzantine=None, clients: Optional[int] = None,
                        client_rate: Optional[float] = None,
                        config_overrides: Optional[Dict[str, Any]] = None,
                        seed: int = 0) -> ClusterRunResult:
    """Run one (protocol, N) single-committee measurement and return its stats."""
    overrides: Dict[str, Any] = {
        "batch_size": scale.batch_size,
        "view_change_timeout": scale.view_change_timeout,
        "queue_capacity": scale.queue_capacity,
    }
    overrides.update(config_overrides or {})
    cluster = ConsensusCluster(
        protocol=protocol,
        n=n,
        latency_model=cluster_latency_model(environment, num_regions),
        regions=gcp_regions(num_regions) if environment == "gcp" else None,
        config_overrides=overrides,
        byzantine=byzantine,
        seed=seed,
    )
    cluster.add_open_loop_clients(
        clients if clients is not None else scale.clients,
        rate_tps=client_rate if client_rate is not None else scale.client_rate_tps,
        batch_size=10,
    )
    return cluster.run(scale.duration)
