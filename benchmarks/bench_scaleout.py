"""Scale-out benchmark: the engine vs itself, across worker counts.

This is the harness behind the CI ``bench-scaleout`` job.  It drives the
same seeded Smallbank workload through the engine's partitions
(:mod:`repro.core.scaleout`) once inline (``workers=1``) and once across
worker processes (``workers=4``), and gates on the engine's whole contract:

1. **Determinism** — the ``workers=4`` run must produce a **bit-identical**
   commit/abort/view-change fingerprint to the ``workers=1`` run of the same
   seed.  This is the hard gate; a violation means the barrier exchange
   leaked ordering.
2. **Speedup** — ``workers=4`` must be ≥ 2.4x faster in wall-clock time than
   ``workers=1`` on runners with ≥ 4 cpus.  With 2PC coordination, lock
   admission and workload generation all living inside the partitions
   (``repro.core.homecoord``), the serial fraction is the parent's barrier
   merge only, so near-linear scaling is the expectation, not the
   aspiration.  2-cpu hosts are floor-limited to 1.5x by Amdahl's law;
   single-cpu hosts only report.  ``SCALEOUT_MIN_SPEEDUP`` overrides the
   ≥4-cpu floor.
3. **Coordinator work share** — the parent tier's share of barrier-loop
   wall-clock must stay < 20% on ≥4-cpu runners.  This is the tentpole
   metric of the distributed-coordination design: the parent only merges
   window outputs and runs epoch/adversary control.
4. **Safety** — a :class:`~repro.audit.auditor.SafetyAuditor` attached to an
   inline run of the same config must settle and report zero violations.
   (Process-mode replicas live in other address spaces, so the audit runs on
   the ``workers=1`` twin — bit-identical to ``workers=4`` by gate 1.)
5. **Throughput regression** — simulated committed tps must stay within 80%
   of the committed baseline (``BENCH_scaleout_baseline.json``), and the
   measured speedup is reported relative to the baseline's
   (``speedup_vs_baseline``).

Usage::

    PYTHONPATH=src python benchmarks/bench_scaleout.py --mode quick -o BENCH_scaleout.json
    PYTHONPATH=src python benchmarks/bench_scaleout.py --mode full  -o BENCH_scaleout.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from repro.audit.auditor import SafetyAuditor
from repro.core import OpenLoopDriver, ShardedSystemConfig, build_system
from repro.ledger.transaction import rebase_tx_counter

MODES = {
    # mode: (transactions, rate tps, shards, keys) — the key space scales
    # with the offered load so 2PC lock contention stays moderate.  Full mode
    # is the nightly soak: a million transactions across 16 shards.
    "quick": (6_000, 2_000.0, 8, 20_000),
    "full": (1_000_000, 8_000.0, 16, 200_000),
}

# Sized so shard-side consensus dominates: 11-member committees (consensus
# cost grows ~quadratically with the committee), no parent-resident reference
# committee, and a relay delay that keeps the barrier-window count low.
# ``max_series_samples`` bounds the monitor's time-series memory so the
# million-transaction full mode runs in constant space.
WORKLOAD = dict(committee_size=11, zipf_coefficient=0.0,
                use_reference_committee=False, relay_delay=0.02,
                retain_tx_records=False, max_series_samples=512)


def _make_system(workers: int, num_shards: int, num_keys: int, seed: int):
    config = ShardedSystemConfig(seed=seed, workers=workers,
                                 num_shards=num_shards, num_keys=num_keys,
                                 **WORKLOAD)
    return build_system(config)


def _make_driver(system, transactions: int, rate_tps: float):
    # Workload generation happens inside the partitions (each worker draws
    # its own per-shard split of the driver's stream); ``vectorized`` selects
    # numpy block-sampling for the per-partition generators.
    return OpenLoopDriver(system, rate_tps=rate_tps,
                          max_transactions=transactions, batch_size=8,
                          vectorized=True)


def run_workers(workers: int, num_shards: int, num_keys: int, transactions: int,
                rate_tps: float, seed: int, audit: bool = False) -> dict:
    """One run at ``workers``; returns fingerprint + timings (+ audit)."""
    rebase_tx_counter(0)
    start = time.perf_counter()
    system = _make_system(workers, num_shards, num_keys, seed)
    auditor = SafetyAuditor(system) if audit else None
    driver = _make_driver(system, transactions, rate_tps)
    stats = driver.run_to_completion(drain_timeout=120.0)
    wall = time.perf_counter() - start
    result = {
        "workers": workers,
        "seed": seed,
        "transactions": transactions,
        "committed": stats.committed,
        "aborted": stats.aborted,
        "fingerprint": system.fingerprint(),
        "sim_seconds": round(system.sim.now, 2),
        "committed_tps_sim": (round(stats.committed / system.sim.now, 1)
                              if system.sim.now else 0.0),
        "committed_tps_wall": round(stats.committed / wall, 1),
        "wall_seconds": round(wall, 2),
        "coordinator_work_share": round(system.coordinator_work_share, 4),
    }
    if auditor is not None:
        settled = auditor.settle()
        report = auditor.check()
        result["audit"] = {
            "settled": settled,
            "ok": report.ok,
            "violations": [str(violation) for violation in report.violations],
            "blocks_audited": report.blocks_audited,
            "transactions_audited": report.transactions_audited,
        }
    system.close()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="quick")
    parser.add_argument("-o", "--output", default=None,
                        help="write results JSON to this path")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=4,
                        help="worker count of the parallel run")
    parser.add_argument("--baseline", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH_scaleout_baseline.json"),
        help="committed reference numbers used by the regression gate")
    args = parser.parse_args(argv)

    transactions, rate, num_shards, num_keys = MODES[args.mode]
    workload = dict(WORKLOAD, num_keys=num_keys)
    cpus = os.cpu_count() or 1
    print(f"[bench] mode={args.mode} python={platform.python_version()} "
          f"cpus={cpus} shards={num_shards} txns={transactions} "
          f"workload={workload}")

    # The parallel run goes first: its workers fork from a pristine parent
    # heap.  Forking *after* an inline run would make every child fault-in
    # copies of the dead inline system's pages (CPython refcounting writes
    # to every object it touches, defeating copy-on-write) and bill that
    # memory churn to the parallel run's wall clock.
    parallel = run_workers(args.workers, num_shards, num_keys, transactions,
                           rate, args.seed)
    print(f"[bench] workers={args.workers}: {parallel['committed']} committed / "
          f"{parallel['aborted']} aborted, {parallel['wall_seconds']}s wall, "
          f"{parallel['committed_tps_wall']} committed/s wall")
    inline = run_workers(1, num_shards, num_keys, transactions, rate, args.seed)
    print(f"[bench] workers=1: {inline['committed']} committed / "
          f"{inline['aborted']} aborted, {inline['wall_seconds']}s wall, "
          f"{inline['committed_tps_wall']} committed/s wall")

    fingerprint_match = inline["fingerprint"] == parallel["fingerprint"]
    speedup = (inline["wall_seconds"] / parallel["wall_seconds"]
               if parallel["wall_seconds"] else 0.0)
    work_share = parallel["coordinator_work_share"]
    print(f"[bench] fingerprints: {'IDENTICAL' if fingerprint_match else 'DIVERGED'}")
    print(f"[bench] speedup at {args.workers} workers: {speedup:.2f}x "
          f"({inline['wall_seconds']}s -> {parallel['wall_seconds']}s)")
    print(f"[bench] parent coordinator work share: {work_share:.1%} of the "
          f"barrier loop")

    audited = run_workers(1, num_shards, num_keys, transactions, rate,
                          args.seed, audit=True)
    audit = audited["audit"]
    print(f"[bench] audit (inline twin): settled={audit['settled']} "
          f"ok={audit['ok']} ({audit['blocks_audited']} blocks, "
          f"{audit['transactions_audited']} tx positions)")

    reference = None
    if os.path.exists(args.baseline):
        with open(args.baseline, encoding="utf-8") as handle:
            reference = json.load(handle)
    if reference is not None and reference.get("mode") != args.mode:
        reference = None
    speedup_vs_baseline = (round(speedup / reference["speedup"], 2)
                           if reference and reference.get("speedup") else None)

    report = {
        "benchmark": "scaleout",
        "mode": args.mode,
        "python": platform.python_version(),
        "cpus": cpus,
        "num_shards": num_shards,
        "workload": workload,
        "runs": {"inline": inline, "parallel": parallel, "audited": audited},
        "fingerprint_match": fingerprint_match,
        "speedup": round(speedup, 2),
        "coordinator_work_share": work_share,
        "speedup_vs_baseline": speedup_vs_baseline,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"[bench] wrote {args.output}")

    # ------------------------------------------------------------------ gates
    if not fingerprint_match:
        print(f"[bench] FAIL: workers={args.workers} fingerprint diverged from "
              f"workers=1:\n  {inline['fingerprint']}\n  "
              f"{parallel['fingerprint']}", file=sys.stderr)
        return 1
    if inline["committed"] == 0:
        print("[bench] FAIL: nothing committed", file=sys.stderr)
        return 1
    if not audit["settled"] or not audit["ok"]:
        print(f"[bench] FAIL: safety audit violations: {audit['violations']}",
              file=sys.stderr)
        return 1

    if cpus >= 4:
        min_speedup = float(os.environ.get("SCALEOUT_MIN_SPEEDUP", "2.4"))
    elif cpus >= 2:
        min_speedup = 1.5  # Amdahl cap: 2 cpus can't reach 2.4x
    else:
        min_speedup = None
    if min_speedup is not None:
        print(f"[bench] gate: speedup {speedup:.2f}x vs floor {min_speedup}x "
              f"({cpus} cpus)")
        if speedup < min_speedup:
            print(f"[bench] FAIL: speedup {speedup:.2f}x below {min_speedup}x "
                  f"at {args.workers} workers on {cpus} cpus", file=sys.stderr)
            return 1
    else:
        print(f"[bench] speedup gate skipped: single-cpu host ({cpus} cpu)")

    if cpus >= 4:
        print(f"[bench] gate: coordinator work share {work_share:.1%} vs "
              f"ceiling 20.0%")
        if work_share >= 0.20:
            print(f"[bench] FAIL: parent coordinator work share {work_share:.1%}"
                  f" >= 20% of the barrier loop — the parent tier is doing "
                  f"partition work", file=sys.stderr)
            return 1

    if reference:
        committed_tps = inline["committed_tps_sim"]
        floor = 0.8 * reference["runs"]["inline"]["committed_tps_sim"]
        print(f"[bench] gate: {committed_tps} committed tps (sim) vs floor "
              f"{floor:.1f}")
        if committed_tps < floor:
            print(f"[bench] FAIL: simulated throughput {committed_tps} below "
                  f"{floor:.1f} (>20% regression vs committed baseline)",
                  file=sys.stderr)
            return 1
        if speedup_vs_baseline is not None:
            print(f"[bench] speedup vs committed baseline: "
                  f"{speedup_vs_baseline}x (baseline {reference['speedup']}x "
                  f"on {reference.get('cpus', '?')} cpus)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
