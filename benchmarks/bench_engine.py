"""Simulation-engine benchmark: end-to-end sharded runs.

This is the harness behind the CI ``benchmark-smoke`` job.  An open-loop
driver streams transactions into a :class:`~repro.core.system.ShardedBlockchain`
at a fixed arrival rate.  The run is executed twice with the same seed and
the harness asserts identical commit/abort counts (seed-for-seed
determinism); events/sec and committed tx/sec of wall clock are reported.

Results are written as JSON (``BENCH_ci.json`` in CI) so the performance
trajectory accumulates run over run.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py --mode quick -o BENCH_ci.json
    PYTHONPATH=src python benchmarks/bench_engine.py --mode full  -o BENCH_ci.json

``quick`` finishes in well under a minute; ``full`` drives 100k transactions
through an 8-shard deployment (a few minutes of wall clock).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from repro.core.config import ShardedSystemConfig
from repro.core.driver import OpenLoopDriver
from repro.core.system import ShardedBlockchain


def run_end_to_end(transactions: int, shards: int, committee: int, rate_tps: float,
                   seed: int, num_keys: int, max_in_flight: int) -> dict:
    """One open-loop sharded run; returns stats + wall-clock measurements."""
    config = ShardedSystemConfig(
        num_shards=shards,
        committee_size=committee,
        num_keys=num_keys,
        seed=seed,
        retain_tx_records=False,
    )
    start = time.perf_counter()
    system = ShardedBlockchain(config)
    driver = OpenLoopDriver(system, rate_tps=rate_tps, max_transactions=transactions,
                            batch_size=8, max_in_flight=max_in_flight)
    stats = driver.run_to_completion(drain_timeout=600.0)
    wall = time.perf_counter() - start
    return {
        "transactions": transactions,
        "shards": shards,
        "committee_size": committee,
        "rate_tps": rate_tps,
        "seed": seed,
        "submitted": stats.submitted,
        "committed": stats.committed,
        "aborted": stats.aborted,
        "abort_rate": round(stats.abort_rate, 4),
        "mean_latency_s": round(stats.mean_latency, 4),
        "max_in_flight": stats.max_in_flight,
        "in_flight_cap": max_in_flight,
        "dropped_arrivals": driver.dropped_arrivals,
        "sim_time_s": round(system.sim.now, 2),
        "sim_events": system.events_processed,
        "wall_seconds": round(wall, 2),
        "events_per_sec_wall": round(system.events_processed / wall),
        "committed_tps_wall": round(stats.committed / wall, 1),
    }


MODES = {
    # mode: (txns, shards, committee, rate, keys, in-flight cap)
    # Rates sit near the deployment's measured capacity (~70 committed tps per
    # shard for committee-4 AHL+ on LAN); the in-flight cap keeps 2PL lock
    # contention (and therefore the abort rate) bounded when the arrival
    # process transiently outruns the committees.
    "quick": (5_000, 4, 4, 280.0, 20_000, 1_500),
    "full": (100_000, 8, 4, 550.0, 100_000, 2_000),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="quick")
    parser.add_argument("-o", "--output", default=None,
                        help="write results JSON to this path")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--skip-determinism", action="store_true",
                        help="run the end-to-end benchmark once instead of twice")
    args = parser.parse_args(argv)

    txns, shards, committee, rate, keys, cap = MODES[args.mode]

    print(f"[bench] mode={args.mode} python={platform.python_version()}")

    first = run_end_to_end(txns, shards, committee, rate, args.seed, keys, cap)
    print(f"[bench] e2e: {first['committed']}/{first['submitted']} committed, "
          f"{first['aborted']} aborted, {first['sim_events']:,} events in "
          f"{first['wall_seconds']}s wall ({first['events_per_sec_wall']:,} ev/s)")

    deterministic = None
    if not args.skip_determinism:
        second = run_end_to_end(txns, shards, committee, rate, args.seed, keys, cap)
        deterministic = (first["committed"] == second["committed"]
                         and first["aborted"] == second["aborted"])
        print(f"[bench] determinism: run2 {second['committed']}/{second['aborted']} "
              f"-> {'OK' if deterministic else 'MISMATCH'}")

    report = {
        "benchmark": "engine",
        "mode": args.mode,
        "python": platform.python_version(),
        "end_to_end": first,
        "deterministic": deterministic,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"[bench] wrote {args.output}")

    if deterministic is False:
        print("[bench] FAIL: end-to-end run is not seed-deterministic", file=sys.stderr)
        return 1
    if first["committed"] == 0:
        print("[bench] FAIL: end-to-end run committed nothing", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
