"""End-to-end benchmark over the three run modes: sim, scale-out, live service.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--scale F] [-o FILE]

Runs the named workload (default: all five), prints every metric by name
with its unit, checks the program's outputs, and ends with one JSON line per
workload: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json`` from untraced runs;
``--trace 1`` installs the layer wrappers of ``tracer.py`` and reports the
per-layer metrics.  Exit code 0 iff every check passed.

A run is a sequence of *episodes* (fresh system, fixed work, teardown)
repeated until ``--seconds`` of timed region have been measured.  Rates are
totals over all episodes (committed ÷ timed seconds, CPU ÷ committed),
latency percentiles pool every episode's samples; set-up is the median of 8
builds (sim) or the mean of the episodes' boots (service).
See README.md in this directory for the workloads and the metric tables.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SIM_WORKLOADS = ("sim_uniform", "sim_contended", "scaleout_w2")
SERVICE_WORKLOADS = ("service_closed", "service_flood")


def percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def median_of(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over the episodes that reported the key."""
    keys = {key for metrics in dicts for key in metrics}
    return {key: statistics.median(m[key] for m in dicts if key in m) for key in keys}


def end_to_end(result: "Result", setups: List[float], setup_s: float, committed: List[int],
               wall_s: List[float], cpu_s: List[float], peak_rss_mb: List[float],
               latencies_ms: List[float]) -> None:
    """Fill in the end-to-end metrics from per-episode lists (same rule everywhere)."""
    result.metrics = {
        "setup_s": setup_s,
        "committed_per_wall_s": sum(committed) / sum(wall_s),
        "cpu_s_per_ktx": 1e3 * sum(cpu_s) / sum(committed),
        "committed_share": sum(committed) / result.attempted,
        "peak_rss_mb": max(peak_rss_mb),
        "latency_p50_ms": percentile(latencies_ms, 0.50),
        "latency_p95_ms": percentile(latencies_ms, 0.95),
    }
    result.samples = {"episodes": len(committed), "latencies": len(latencies_ms)}
    result.per_episode = {"setup_s": setups, "wall_s": wall_s, "cpu_s": cpu_s,
                          "committed": [float(count) for count in committed]}


class Result:
    """What one workload run reports."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        #: Raw per-episode inputs of the end-to-end metrics (written by -o).
        self.per_episode: Dict[str, List[float]] = {}

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0


# ------------------------------------------------------------ sim workloads
def run_sim(name: str, seed: int, seconds: float, scale: float, trace: bool) -> Result:
    import simload
    from tracer import Tracer

    spec = simload.SPECS[name]
    txns = max(50, int(spec.txns * scale))
    result = Result(name)
    stream = seed * 64  # episode i of run `seed` draws workload stream seed*64+i
    # Output check first: it doubles as the untimed warm-up.
    result.problems += simload.verify(spec, stream + 63, scale)

    def episode(index: int, **kwargs: Any) -> "simload.SimEpisode":
        ep = simload.run_episode(spec, stream + index, txns=txns, **kwargs)
        result.attempted += ep.txns
        result.failed += ep.unanswered
        result.problems += [f"episode {index}: {p}" for p in ep.problems]
        return ep

    if not trace:
        episodes = []
        while sum(ep.wall_s for ep in episodes) < seconds:
            episodes.append(episode(len(episodes)))
        setups = [ep.setup_s for ep in episodes]
        while len(setups) < simload.SETUP_SAMPLES:
            setups.append(simload.set_up_only(spec, stream + len(setups)))
        end_to_end(result, setups, statistics.median(setups),
                   committed=[ep.stats.committed for ep in episodes],
                   wall_s=[ep.wall_s for ep in episodes],
                   cpu_s=[ep.cpu_s for ep in episodes],
                   peak_rss_mb=[ep.peak_rss_mb for ep in episodes],
                   latencies_ms=[lat * 1e3 for ep in episodes for lat in ep.latencies])
        return result

    tracer = Tracer()
    snapshots = {}
    if spec.workers is None:
        baseline = episode(0)
        tracer.install()
        try:
            traced = []
            while sum(ep.wall_s for ep in traced) < seconds:
                traced.append(episode(len(traced), tracer=tracer))
        finally:
            tracer.uninstall()
        if traced[0].fingerprint != baseline.fingerprint:
            result.problems.append("tracing changed the run's fingerprint")
        result.metrics = median_of([
            simload.layer_metrics(spec, ep, baseline) for ep in traced])
        snapshots = {f"episode{i}": ep.trace for i, ep in enumerate(traced)}
    else:
        # Scale-out: the parent's pipe/codec spans come from the multi-process
        # run, every other layer from its inline (workers=1) twin.
        parallel = episode(0)
        inline = episode(0, workers=1)
        tracer.install()
        try:
            parallel_traced = episode(0, tracer=tracer)
            inline_traced = episode(0, workers=1, tracer=tracer)
        finally:
            tracer.uninstall()
        fingerprints = [ep.fingerprint for ep in
                        (parallel, inline, parallel_traced, inline_traced)]
        if any(fp != fingerprints[0] for fp in fingerprints):
            result.problems.append(f"workers={spec.workers} and its inline twin diverged "
                                   f"(traced or not): {fingerprints}")
        result.metrics = simload.layer_metrics(
            spec, inline_traced, inline, parent=parallel_traced, parent_untraced=parallel)
        snapshots = {"parallel": parallel_traced.trace, "inline": inline_traced.trace}
    if not 0.98 < result.metrics["trace.accounted_share"] < 1.02:
        result.problems.append("layer self times + unattributed time do not add up to "
                               "the untraced wall within 2 %")
    if result.metrics["trace.unattributed_share"] >= 0.25:
        result.problems.append("a quarter of the timed wall is outside every traced layer")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"trace_{name}_seed{seed}.json"), snapshots)
    result.samples = {"traced_episodes": len(snapshots)}
    return result


# -------------------------------------------------------- service workloads
def run_service(name: str, seed: int, seconds: float, scale: float, trace: bool) -> Result:
    import svcload

    result = Result(name)
    episodes = []
    while sum(ep.wall_s for ep in episodes) < seconds:
        ep = svcload.run_episode(name, SRC, seed * 64 + len(episodes), scale,
                                 with_ladder=trace)
        result.attempted += ep.attempted
        result.failed += ep.failed
        result.problems += [f"episode {len(episodes)}: {p}" for p in ep.problems]
        episodes.append(ep)
    latencies = [ms for ep in episodes for ms in ep.latencies_ms]
    if trace:
        result.samples = {"episodes": len(episodes), "latencies": len(latencies),
                          "boot_retries": sum(ep.boot_retries for ep in episodes)}
        result.metrics = median_of([svcload.layer_metrics(ep) for ep in episodes])
        result.metrics.update(svcload.frame_codec_probe(seed))
        # Nothing is wrapped in-process here: the service is measured from
        # outside (HTTP probes and /proc), so tracing costs nothing.
        result.metrics["trace.overhead_ratio"] = 1.0
        if "service.single_shard_latency_ms" in result.metrics:
            health = result.metrics["service.http.health_rtt_ms"]
            rungs = [health, health + result.metrics["service.frames.balance_rtt_ms"],
                     result.metrics["service.single_shard_latency_ms"],
                     result.metrics["service.cross_shard_latency_ms"]]
            if rungs != sorted(rungs):
                result.problems.append(
                    "latency ladder out of order (health < balance < single-shard < "
                    f"cross-shard expected): {rungs} ms")
        return result
    setups = [ep.setup_s for ep in episodes]
    # The mean, not the median: readiness is polled every 0.2 s, so boots fall
    # on a few discrete steps and the median of three flips between them
    # where the mean moves smoothly.
    end_to_end(result, setups, statistics.fmean(setups),
               committed=[ep.committed for ep in episodes],
               wall_s=[ep.wall_s for ep in episodes],
               cpu_s=[ep.gateway_cpu_s + ep.shards_cpu_s for ep in episodes],
               peak_rss_mb=[ep.peak_rss_mb for ep in episodes],
               latencies_ms=latencies)
    result.samples["boot_retries"] = sum(ep.boot_retries for ep in episodes)
    return result


# ------------------------------------------------------------------ report
def report(result: Result, contract: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """Attach units from BENCHMARK.json; every contracted metric must appear."""
    declared = contract["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    unknown = sorted(set(result.metrics) - set(units))
    if unknown:
        result.problems.append(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for name, unit in units.items():
        if name not in result.metrics and not trace:
            result.problems.append(f"end-to-end metric {name} was not measured")
        # A layer metric a workload does not exercise reads 0.
        metrics[name] = {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
    print(f"== {result.workload} ({'per-layer, traced' if trace else 'end-to-end'}; "
          f"{result.samples})")
    for name, entry in metrics.items():
        print(f"  {name:44s} {entry['value']:>14.4f} {entry['unit']}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    return {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds only the workload generators")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="timed seconds to measure per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every episode (smoke tests use 0.1)")
    parser.add_argument("-o", "--output", default=None,
                        help="also write results + env block to this JSON file")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program under test is missing: no {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import procstat

    load_at_start = procstat.loadavg_1min()
    runners: Dict[str, Callable[..., Result]] = {
        **{name: run_sim for name in SIM_WORKLOADS},
        **{name: run_service for name in SERVICE_WORKLOADS}}
    lines, document = [], {}
    for name in [args.workload] if args.workload else names:
        result = runners[name](name, args.seed, args.seconds, args.scale, bool(args.trace))
        line = report(result, contract, bool(args.trace))
        lines.append(line)
        document[name] = dict(line, samples=result.samples, problems=result.problems,
                              per_episode=result.per_episode)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump({"env": procstat.env_block(ROOT, args.seed, load_at_start),
                       "trace": bool(args.trace), "seconds": args.seconds,
                       "scale": args.scale, "workloads": document}, handle, indent=1)
    for line in lines:
        print(json.dumps(line))
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    raise SystemExit(main())
