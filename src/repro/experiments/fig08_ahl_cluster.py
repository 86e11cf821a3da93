"""Figure 8: AHL+ versus HL / AHL / AHLR on the local cluster.

Left panel: throughput without failures as N grows — HL and AHL livelock at
large N (consensus messages dropped from the shared queue), while AHL+ and
AHLR keep several hundred tps.  Right panel: throughput as the number of
tolerated failures ``f`` grows, with Byzantine nodes sending conflicting
messages; note that HL needs ``N = 3f + 1`` nodes while the AHL family needs
``N = 2f + 1``.

The failure panel runs on the **real system path**: a one-shard
:class:`~repro.core.system.ShardedBlockchain` with the system-wide adversary
knob placing ``f`` per-recipient equivocators (committee order, seeded), an
open-loop driver, and the :class:`~repro.audit.SafetyAuditor` attached — so
every reported point is a run the auditor certified fork-free, atomic and
money-conserving, not just a throughput number.  Each row carries the
audit verdict and the enclave's equivocation-refusal count (zero for HL,
which has no attested log and must verify-and-discard the conflicting votes
instead).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.audit import SafetyAuditor
from repro.consensus.base import ConsensusConfig
from repro.core.adversary import AdversaryConfig
from repro.core.config import ShardedSystemConfig
from repro.core.driver import OpenLoopDriver
from repro.core.system import ShardedBlockchain
from repro.experiments.common import ExperimentResult, ExperimentScale, run_consensus_point

PROTOCOLS = ("HL", "AHL", "AHL+", "AHLR")


def committee_size_for(protocol: str, f: int) -> int:
    """The smallest committee tolerating ``f`` faults under the protocol's model."""
    return 3 * f + 1 if protocol == "HL" else 2 * f + 1


def run_adversarial_point(protocol: str, f: int, scale: ExperimentScale,
                          strategy: str = "equivocate", seed: int = 0,
                          settle_seconds: float = 120.0) -> dict:
    """One (protocol, f) measurement of the failure panel on the full system.

    Builds a one-shard deployment of the minimum committee tolerating ``f``
    faults, corrupts ``f`` members through the adversary knob, drives it with
    a fixed open-loop Smallbank load for ``scale.duration`` seconds, then
    drains in-flight work and audits the run.
    """
    n = committee_size_for(protocol, f)
    config = ShardedSystemConfig(
        num_shards=1, committee_size=n, protocol=protocol,
        use_reference_committee=False, benchmark="smallbank", num_keys=1_000,
        prepare_timeout=scale.view_change_timeout,
        consensus_overrides={
            "batch_size": scale.batch_size,
            "view_change_timeout": scale.view_change_timeout,
            "queue_capacity": scale.queue_capacity,
        },
        seed=seed,
        adversary=AdversaryConfig(strategy=strategy, corrupted_per_shard=f),
    )
    system = ShardedBlockchain(config)
    auditor = SafetyAuditor(system)
    total_txs = int(scale.client_rate_tps * scale.duration)
    driver = OpenLoopDriver(system, rate_tps=scale.client_rate_tps,
                            max_transactions=total_txs, batch_size=10)
    driver.start()
    system.run(scale.duration)
    # Throughput is what committed inside the measurement window; the settle
    # phase that follows only drains the backlog so the quiescent invariants
    # (money conservation) can be audited — counting it would credit a
    # saturated protocol with work it finished after the bell.
    committed_in_window = driver.stats.committed
    auditor.settle(max_seconds=settle_seconds)
    report = auditor.check()
    observer = system.shards[0].honest_observer()
    return {
        "committed": committed_in_window,
        "committed_after_drain": driver.stats.committed,
        "aborted": driver.stats.aborted,
        "throughput_tps": committed_in_window / scale.duration,
        "avg_latency_s": driver.stats.mean_latency,
        "view_changes": system.shard_summaries()[0]["view_changes"],
        "queue_drops": sum(r.stats.messages_dropped_queue_full
                           for r in system.shards[0].replicas),
        "violations": len(report.violations),
        "equivocation_refusals": report.equivocation_refusals,
        "observer_height": observer.blockchain.height,
    }


def run(scale: Optional[ExperimentScale] = None,
        network_sizes: Optional[Sequence[int]] = None,
        failure_counts: Sequence[int] = (1, 3, 5),
        high_load_rate: float = 600.0) -> ExperimentResult:
    """Reproduce Figure 8 (both panels) on the LAN model."""
    scale = scale or ExperimentScale.quick()
    network_sizes = network_sizes or scale.network_sizes
    result = ExperimentResult(
        experiment_id="fig08",
        title="AHL+ performance on the local cluster",
        columns=["panel", "protocol", "n", "f", "throughput_tps", "avg_latency_s",
                 "view_changes", "queue_drops", "violations", "equivocation_refusals"],
        paper_reference="Figure 8",
        notes=("Expected shape: all protocols comparable at small N; HL/AHL collapse at "
               "large N under load (queue drops / view changes) while AHL+ sustains "
               "throughput; AHL+ >= AHLR.  Failure panel (real system path, audited): "
               "AHL-family committees of 2f+1 sustain committed throughput under f "
               "per-recipient equivocators — the enclave refuses the second digest — "
               "while HL pays for 3f+1 replicas verifying and discarding them."),
    )
    for protocol in PROTOCOLS:
        for n in network_sizes:
            point = run_consensus_point(protocol, n, scale, client_rate=high_load_rate)
            config = ConsensusConfig(use_attested_log=(protocol != "HL"))
            result.add_row(panel="no_failures", protocol=protocol, n=n,
                           f=config.fault_tolerance(n),
                           throughput_tps=point.throughput_tps,
                           avg_latency_s=point.avg_latency,
                           view_changes=point.view_changes,
                           queue_drops=point.queue_drops,
                           violations=None, equivocation_refusals=None)
    for protocol in PROTOCOLS:
        for f in failure_counts:
            point = run_adversarial_point(protocol, f, scale)
            result.add_row(panel="with_failures", protocol=protocol,
                           n=committee_size_for(protocol, f), f=f,
                           throughput_tps=point["throughput_tps"],
                           avg_latency_s=point["avg_latency_s"],
                           view_changes=point["view_changes"],
                           queue_drops=point["queue_drops"],
                           violations=point["violations"],
                           equivocation_refusals=point["equivocation_refusals"])
    return result
