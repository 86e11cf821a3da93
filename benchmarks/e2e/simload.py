"""The three simulated-time workloads: one engine episode, checks, layer metrics.

An *episode* builds a fresh system, drives a fixed number of open-loop
transactions to completion and tears the system down.  Episode sizes are
fixed (never derived from host speed), so everything measured on the
simulated clock is a pure function of the seed.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import procstat
from repro.audit.auditor import SafetyAuditor
from repro.core import OpenLoopDriver, ShardedSystemConfig, build_system
from repro.core.driver import DriverStats
from repro.ledger.transaction import rebase_tx_counter
from repro.workloads.smallbank import DEFAULT_BALANCE, initial_balances
from tracer import CODEC_LAYER, PIPE_LAYER, TraceSnapshot, Tracer

#: System seed of every simulated cluster.  ``--seed`` feeds only the
#: workload generators (through the driver's ``stream_index``).
SYSTEM_SEED = 7
#: Size of the audited determinism probe run once per benchmark run.
VERIFY_TXNS = 400
#: ``setup_s`` is the median of this many set-ups per run: the episodes' own
#: plus build-and-discard extras (a set-up is 0.15-0.4 s, so one burst of host
#: noise would otherwise move the mean of three by a quarter).
SETUP_SAMPLES = 8

LOCK_ABORTS = ("lock-conflict", "wait-timeout", "deadlock", "wounded")


@dataclass(frozen=True)
class SimSpec:
    """One simulated workload: cluster config, arrival process, episode size."""

    config: Dict[str, Any]
    rate_tps: float
    batch_size: int
    txns: int
    vectorized: bool = False

    @property
    def workers(self) -> Optional[int]:
        return self.config.get("workers")


_CLUSTER_4X4 = dict(num_shards=4, committee_size=4, protocol="AHL+",
                    use_reference_committee=True, num_keys=20_000)

SPECS: Dict[str, SimSpec] = {
    "sim_uniform": SimSpec(
        config=dict(_CLUSTER_4X4, zipf_coefficient=0.0),
        rate_tps=200.0, batch_size=4, txns=3_000),
    # Same cluster and key space, but Zipf-skewed and queueing on conflicts.
    # wait_timeout=5 (not the 15 the issue sketched): a 15-sim-second episode
    # then reaches the timeout steady state instead of only filling queues.
    "sim_contended": SimSpec(
        config=dict(_CLUSTER_4X4, zipf_coefficient=0.85,
                    conflict_policy="wait", wait_timeout=5.0),
        rate_tps=200.0, batch_size=4, txns=3_000),
    "scaleout_w2": SimSpec(
        config=dict(num_shards=8, committee_size=11, protocol="AHL+",
                    use_reference_committee=False, relay_delay=0.02,
                    num_keys=20_000, zipf_coefficient=0.0,
                    workers=min(2, os.cpu_count() or 1)),
        rate_tps=300.0, batch_size=8, txns=3_000, vectorized=True),
}


@dataclass
class SimEpisode:
    """Everything one episode measured (host time unless prefixed ``sim``)."""

    setup_s: float
    wall_s: float
    cpu_s: float
    worker_cpu_s: float
    peak_rss_mb: float
    sim_s: float
    txns: int
    stats: DriverStats
    latencies: List[float]
    fingerprint: Dict[str, Any]
    cross_shard: int
    redriven: int
    duplicate_votes: int
    problems: List[str] = field(default_factory=list)
    parent_work_share: float = 0.0
    trace: Optional[TraceSnapshot] = None
    #: Counts read off the live clusters (in-process engines only).
    blocks: int = 0
    chain_txs: int = 0
    consensus_msgs: int = 0
    net_msgs: int = 0
    net_bytes: int = 0
    view_changes: int = 0
    lock_wait_timeouts: int = 0
    lock_wounded: int = 0
    lock_deadlocks: int = 0

    @property
    def unanswered(self) -> int:
        return self.txns - self.stats.committed - self.stats.aborted


def _set_up(spec: SimSpec, stream: int, txns: int,
            workers: Optional[int]) -> Tuple[Any, OpenLoopDriver, float]:
    """Build the system and register its driver; returns (system, driver, seconds)."""
    config = dict(spec.config, seed=SYSTEM_SEED, retain_tx_records=True)
    if workers is not None:
        config["workers"] = workers
    rebase_tx_counter(0)  # transaction ids restart, so same seed ⇒ same run
    gc.collect()
    started = time.perf_counter()
    system = build_system(ShardedSystemConfig(**config))
    try:
        driver = OpenLoopDriver(system, rate_tps=spec.rate_tps, max_transactions=txns,
                                batch_size=spec.batch_size, stream_index=stream,
                                vectorized=spec.vectorized)
        driver.start()
        # On the scale-out engine this is the first RPC: it forks the workers
        # and waits until every partition group is built, so set-up — not the
        # timed region — pays for the spawn.
        system.pending_activity()
    except BaseException:
        system.close()
        raise
    return system, driver, time.perf_counter() - started


def set_up_only(spec: SimSpec, stream: int) -> float:
    """One more ``setup_s`` sample: build, start, tear down, nothing timed after."""
    system, _driver, setup_s = _set_up(spec, stream, spec.txns, None)
    system.close()
    return setup_s


def run_episode(spec: SimSpec, stream: int, txns: Optional[int] = None,
                workers: Optional[int] = None, audit: bool = False,
                tracer: Optional[Tracer] = None) -> SimEpisode:
    """Build, drive ``txns`` transactions to completion, check, tear down."""
    txns = txns if txns is not None else spec.txns
    system, driver, setup_s = _set_up(spec, stream, txns, workers)
    try:
        # Attached after set-up so setup_s is the same with and without it;
        # nothing has been scheduled to run yet.
        auditor = SafetyAuditor(system) if audit else None
        worker_pids = [child.pid for child in multiprocessing.active_children()]
        worker_cpu = procstat.total_cpu_seconds(worker_pids)
        own_cpu = time.process_time()
        if tracer is not None:
            tracer.reset()
        timed = time.perf_counter()
        stats = driver.run_to_completion()
        wall_s = time.perf_counter() - timed
        snapshot = tracer.snapshot() if tracer is not None else None
        own_cpu = time.process_time() - own_cpu
        worker_cpu = procstat.total_cpu_seconds(worker_pids) - worker_cpu
        rss = procstat.total_peak_rss_mb([os.getpid(), *worker_pids])
        coord = system.coordination_stats()
        episode = SimEpisode(
            setup_s=setup_s, wall_s=wall_s, cpu_s=own_cpu + worker_cpu,
            worker_cpu_s=worker_cpu, peak_rss_mb=rss, sim_s=system.sim.now,
            txns=txns, stats=stats, latencies=list(coord.latencies),
            fingerprint=system.fingerprint(), cross_shard=coord.cross_shard,
            redriven=coord.redriven_transactions,
            duplicate_votes=coord.duplicate_votes, trace=snapshot,
            parent_work_share=getattr(system, "coordinator_work_share", 0.0))
        if (stats.submitted != txns or coord.started != txns
                or coord.committed + coord.aborted != coord.started
                or (stats.committed, stats.aborted) != (coord.committed, coord.aborted)):
            episode.problems.append(
                f"counts do not add up: submitted {stats.submitted}/{txns}, coordinator "
                f"started {coord.started} = {coord.committed} committed + {coord.aborted} "
                f"aborted, driver saw {stats.committed}+{stats.aborted}")
        if len(episode.latencies) != coord.committed + coord.aborted:
            episode.problems.append("a completed transaction has no latency sample")
        idle = [shard for shard, count in episode.fingerprint["per_shard_committed"].items()
                if count == 0]
        if idle:
            episode.problems.append(f"shards {idle} committed nothing (lost partition?)")
        if (system.config.workers or 1) <= 1:
            _inspect_clusters(system, episode)
        if auditor is not None:
            settled = auditor.settle()
            report = auditor.check()
            if not (settled and report.ok):
                episode.problems.append(f"auditor: settled={settled} {report.summary()}")
        return episode
    finally:
        system.close()


def _inspect_clusters(system: Any, episode: SimEpisode) -> None:
    """Counts and the money check that need the replicas in this process."""
    clusters = dict(system.audit_clusters())
    balances = initial_balances(system.config.num_keys)
    total = sum(clusters[system.shard_of_key(key)].honest_observer().state.get(key, 0)
                for key in balances)
    if total != len(balances) * DEFAULT_BALANCE:
        episode.problems.append(
            f"money not conserved: {total} != {len(balances) * DEFAULT_BALANCE}")
    if system.reference is not None:
        clusters["reference"] = system.reference
    networks = {id(cluster.network): cluster.network for cluster in clusters.values()}
    for network in networks.values():
        episode.net_msgs += network.stats.messages_sent
        episode.net_bytes += network.stats.bytes_sent
        episode.consensus_msgs += sum(
            count for kind, count in network.stats.per_kind_sent.items()
            if kind not in ("request", "forward-request"))
    for cluster in clusters.values():
        observer = cluster.honest_observer()
        episode.blocks += observer.blockchain.height
        episode.chain_txs += observer.committed_transactions()
    episode.view_changes = sum(episode.fingerprint["view_changes"].values())
    admission = getattr(system, "admission", None)
    if admission is not None:
        episode.lock_wait_timeouts = admission.wait_timeouts
        episode.lock_wounded = admission.wounded_transactions
        episode.lock_deadlocks = admission.deadlocks_detected


def verify(spec: SimSpec, stream: int, scale: float) -> List[str]:
    """The once-per-run output check: audited probe ≡ unaudited same-seed rerun.

    A short run with the :class:`SafetyAuditor` attached (chains, cross-shard
    atomicity, money, attested slots) must settle clean, and a rerun of the
    same seed — on the scale-out workload, across worker processes while the
    audited twin ran inline — must reproduce its fingerprint bit for bit.
    """
    txns = max(50, int(VERIFY_TXNS * scale))
    inline = 1 if spec.workers is not None else None
    audited = run_episode(spec, stream, txns=txns, workers=inline, audit=True)
    rerun = run_episode(spec, stream, txns=txns)
    problems = [f"verify (audited): {p}" for p in audited.problems]
    problems += [f"verify (rerun): {p}" for p in rerun.problems]
    if audited.fingerprint != rerun.fingerprint:
        problems.append(f"same-seed rerun diverged: {audited.fingerprint} != "
                        f"{rerun.fingerprint}")
    return problems


def layer_metrics(spec: SimSpec, traced: SimEpisode, untraced: SimEpisode,
                  parent: Optional[SimEpisode] = None,
                  parent_untraced: Optional[SimEpisode] = None) -> Dict[str, float]:
    """Per-layer metrics of one traced in-process episode.

    ``traced`` ran every layer in this process (the inline twin on the
    scale-out workload) and ``untraced`` is the same seed without wrappers,
    which is what sizes the tracing overhead.  ``parent`` is the traced
    multi-process episode whose pipe/codec spans and worker CPU are reported
    beside it.
    """
    snap = traced.trace
    assert snap is not None
    snap.fit_overhead(traced.wall_s - untraced.wall_s)
    committed = max(traced.stats.committed, 1)
    blocks = max(traced.blocks, 1)
    self_s = snap.layer_self_s()
    events = snap.calls_matching("event:")
    aborts = traced.stats.abort_reasons
    metrics = {f"{layer}.self_s": seconds for layer, seconds in self_s.items()
               if layer not in (PIPE_LAYER, CODEC_LAYER)}
    metrics.update({
        "sim.events.calls": events,
        "sim.events_per_committed": events / committed,
        "sim.events_per_wall_s": events / untraced.wall_s,
        "sim.network.msgs_per_committed": traced.net_msgs / committed,
        "sim.network.bytes_per_committed": traced.net_bytes / committed,
        "crypto.hashing.calls_per_committed":
            snap.calls_matching("crypto.hashing.") / committed,
        "crypto.merkle.builds_per_block":
            snap.calls("crypto.merkle.MerkleTree._build") / blocks,
        "crypto.signatures.calls_per_committed":
            (snap.calls("crypto.signatures.KeyPair.sign")
             + snap.calls("crypto.signatures.verify_signature")) / committed,
        "tee.attested_log.appends_per_block":
            snap.calls("tee.attested_log.AttestedAppendOnlyLog.append") / blocks,
        "consensus.blocks": traced.blocks,
        "consensus.txs_per_block": traced.chain_txs / blocks,
        "consensus.msgs_per_block": traced.consensus_msgs / blocks,
        "consensus.view_changes": traced.view_changes,
        "txn.coordinator.cross_shard_share": traced.cross_shard / traced.txns,
        "txn.coordinator.redriven": traced.redriven,
        "txn.coordinator.duplicate_votes": traced.duplicate_votes,
        "txn.locks.acquires": snap.calls("txn.locks.LockManager.acquire"),
        "txn.locks.conflict_share":
            sum(aborts.get(reason, 0) for reason in LOCK_ABORTS) / traced.txns,
        "txn.locks.wait_timeouts": traced.lock_wait_timeouts,
        "txn.locks.wounded": traced.lock_wounded,
        "txn.locks.deadlocks": traced.lock_deadlocks,
        "workloads.gen_share": self_s.get("workloads.generator", 0.0) / untraced.wall_s,
        "sim.committed_tps": traced.stats.committed / traced.sim_s,
        "trace.overhead_ratio": traced.wall_s / untraced.wall_s,
        "trace.unattributed_share": 1.0 - snap.attributed_s / traced.wall_s,
        # Layer self times + unattributed time, over the untraced wall: 1 when
        # the fitted tracing overhead explains the whole traced-untraced gap.
        "trace.accounted_share":
            (sum(self_s.values()) + traced.wall_s - snap.attributed_s) / untraced.wall_s,
    })
    if parent is not None and parent_untraced is not None and parent.trace is not None:
        parent_self = parent.trace.layer_self_s()
        windows = max(parent.trace.calls("core.scaleout._ProcessExecutor.run_window"), 1)
        speedup = untraced.wall_s / parent_untraced.wall_s
        metrics.update({
            "core.scaleout.parent_work_share": parent_untraced.parent_work_share,
            "core.scaleout.barrier_windows": windows,
            "core.scaleout.pipe_bytes_per_window": parent.trace.codec_bytes / windows,
            "core.scaleout.codec_s": parent_self.get(CODEC_LAYER, 0.0),
            "core.scaleout.pipe_wait_s": parent_self.get(PIPE_LAYER, 0.0),
            "core.scaleout.worker_cpu_s": parent_untraced.worker_cpu_s,
            "core.scaleout.speedup_vs_inline": speedup,
            "core.scaleout.parallel_efficiency": speedup / (spec.workers or 1),
        })
    return metrics
