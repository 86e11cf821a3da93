"""Analytics index benchmark: flat O(delta) audit cost + rebuild equality.

This is the harness behind the CI ``bench-analytics`` job.  It gates the
ledger index's whole contract (:mod:`repro.ledger.index`):

1. **Flat per-block audit cost** — on a header-retention chain of a million
   blocks (``--mode full``; ``quick`` runs 120k), an incremental audit slice
   (hash-verify the new suffix past the marker, read the money drift, window
   the new rows) executes every 2 000 blocks.  If the audit were O(chain),
   slice cost would grow linearly with height; because every step is
   O(delta), it must stay flat: **the median cost of the last decile of
   slices must be ≤ 1.5x the median of the first decile**.  The quadratic
   re-verify-from-genesis behaviour this replaced fails this gate by ~19x.
2. **Incremental == rebuild** — over a matrix of live differential scenarios
   (smallbank with the reference committee, the kvstore benchmark, an epoch
   transition), the
   commit-time index must be **bit-identical** to :func:`rebuild_index`
   replaying the observer chains from genesis through fresh execution
   engines (``SafetyAuditor.verify_index_rebuild``).  Each scenario's
   safety audit must also pass.

Usage::

    PYTHONPATH=src python benchmarks/bench_analytics.py --mode quick -o BENCH_analytics.json
    PYTHONPATH=src python benchmarks/bench_analytics.py --mode full  -o BENCH_analytics.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time

from repro.audit.auditor import SafetyAuditor
from repro.core import OpenLoopDriver, ShardedBlockchain, ShardedSystemConfig
from repro.ledger.block import build_block, merkle_root_of
from repro.ledger.blockchain import Blockchain
from repro.ledger.index import LedgerIndex
from repro.ledger.transaction import rebase_tx_counter

MODES = {
    # mode: (header-only blocks for the flat-cost phase, txns per scenario).
    # Full mode is the nightly soak: one million blocks, bigger live runs.
    "quick": (120_000, 120),
    "full": (1_000_000, 600),
}

#: Audit slice cadence of the flat-cost phase, in blocks.
SLICE_BLOCKS = 2_000

#: Shared config of the differential scenarios — small committees with fast
#: consensus knobs so each scenario is seconds, not minutes.
SCENARIO_BASE = dict(num_shards=3, committee_size=4, num_keys=400, seed=13,
                     prepare_timeout=2.0,
                     consensus_overrides={"batch_size": 20,
                                          "view_change_timeout": 3.0,
                                          "pipeline_depth": 4,
                                          "checkpoint_interval": 2})

#: name -> config overrides; "epoch-swap-batch" additionally reconfigures
#: over an idle window mid-run (see ``run_scenario``).
SCENARIOS = {
    "smallbank": dict(),
    "kvstore": dict(benchmark="kvstore"),
    "epoch-swap-batch": dict(use_reference_committee=False,
                             swap_batch_interval=0.5),
}


# ------------------------------------------------------------ flat audit cost
def run_flat_cost(total_blocks: int, slice_blocks: int = SLICE_BLOCKS) -> dict:
    """Header-retention chain + index, auditing incrementally as it grows.

    Synthesizes ``total_blocks`` empty blocks (the cost under test is the
    audit's, not the workload's) on a chain that retains only recent bodies,
    ingests each into the index, and every ``slice_blocks`` runs one
    incremental audit slice — exactly the auditor's O(delta) loop: verify
    the suffix past the marker, read the drift, window the new rows.
    """
    chain = Blockchain(retention="headers", retain_recent=64)
    index = LedgerIndex(account_history=False)
    index.register_shard(0, origin_height=0, origin_hash=chain.tip.block_hash)
    empty_root = merkle_root_of(())
    verified_height = 0
    slice_seconds = []
    # The retained headers and hash columns grow the heap linearly, which
    # makes *collector* pauses — not the audit — grow with height; disable
    # GC so the slices measure the audit's own cost (nothing here is cyclic).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for height in range(1, total_blocks + 1):
        block = build_block(height, chain.tip.block_hash, (), proposer=0,
                            timestamp=float(height), merkle_root=empty_root)
        chain.append(block, verify_merkle=False)
        index.ingest_block(0, block)
        if height % slice_blocks == 0:
            slice_start = time.perf_counter()
            if not chain.verify_suffix(verified_height):
                raise AssertionError("suffix verification failed")
            verified_height = chain.height
            if index.balance_drift() != 0:
                raise AssertionError("drift on an empty workload")
            window = index.range_stats(0, height - slice_blocks + 1, height + 1)
            if window.blocks != slice_blocks:
                raise AssertionError("window lost rows")
            slice_seconds.append(time.perf_counter() - slice_start)
    wall = time.perf_counter() - start
    if gc_was_enabled:
        gc.enable()

    # Decile *medians*: a scheduler hiccup in one slice must not decide the
    # gate.  The failure mode under test is unambiguous — an O(chain) audit
    # re-verifying from genesis puts the last decile ~19x over the first.
    decile = max(1, len(slice_seconds) // 10)
    first_decile = statistics.median(slice_seconds[:decile])
    last_decile = statistics.median(slice_seconds[-decile:])
    return {
        "blocks": total_blocks,
        "slice_blocks": slice_blocks,
        "slices": len(slice_seconds),
        "wall_seconds": round(wall, 2),
        "blocks_per_second": round(total_blocks / wall, 0),
        "first_decile_ms": round(first_decile * 1e3, 4),
        "last_decile_ms": round(last_decile * 1e3, 4),
        "cost_ratio": round(last_decile / first_decile, 3),
        "index_tip": index.tip_height(0),
    }


# ------------------------------------------------------- differential matrix
def run_scenario(name: str, overrides: dict, txns: int) -> dict:
    """One live run: audit must pass and the rebuild oracle must match."""
    rebase_tx_counter(0)
    config = ShardedSystemConfig(**dict(SCENARIO_BASE, **overrides))
    system = ShardedBlockchain(config)
    auditor = SafetyAuditor(system)
    start = time.perf_counter()
    if name == "epoch-swap-batch":
        # Traffic on both sides of a swap-batch transition; the transition
        # itself runs over an idle window so every commit is reported.
        half = OpenLoopDriver(system, rate_tps=60.0, max_transactions=txns // 2,
                              batch_size=2)
        half.run_to_completion(drain_timeout=120.0)
        system.perform_reconfiguration("swap-batch",
                                       at_time=system.sim.now + 1.0)
        system.run(system.sim.now + 20.0)
    driver = OpenLoopDriver(system, rate_tps=60.0, max_transactions=txns,
                            batch_size=2)
    driver.run_to_completion(drain_timeout=120.0)
    settled = auditor.settle()
    report = auditor.check()
    oracle_ok, oracle_detail = auditor.verify_index_rebuild()
    wall = time.perf_counter() - start
    result = {
        "scenario": name,
        "settled": settled,
        "audit_ok": report.ok,
        "violations": [str(violation) for violation in report.violations],
        "oracle_ok": oracle_ok,
        "oracle_detail": oracle_detail,
        "blocks_indexed": auditor.index.blocks_indexed,
        "duplicates_dropped": auditor.index.duplicates_dropped,
        "shards_indexed": auditor.index.shard_ids,
        "epochs_seen": sorted(auditor.index.epoch_summary()),
        "wall_seconds": round(wall, 2),
    }
    system.close()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="quick")
    parser.add_argument("-o", "--output", default=None,
                        help="write results JSON to this path")
    parser.add_argument("--baseline", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "BENCH_analytics_baseline.json"),
        help="committed reference numbers (informational comparison)")
    args = parser.parse_args(argv)

    total_blocks, txns = MODES[args.mode]
    print(f"[bench] mode={args.mode} python={platform.python_version()} "
          f"blocks={total_blocks} slice={SLICE_BLOCKS} scenario_txns={txns}")

    flat = run_flat_cost(total_blocks)
    print(f"[bench] flat-cost: {flat['blocks']} blocks in "
          f"{flat['wall_seconds']}s ({flat['blocks_per_second']:.0f} blocks/s "
          f"ingested+audited), audit slice first decile "
          f"{flat['first_decile_ms']}ms -> last decile "
          f"{flat['last_decile_ms']}ms (ratio {flat['cost_ratio']}x)")

    scenarios = {}
    for name, overrides in SCENARIOS.items():
        result = run_scenario(name, overrides, txns)
        scenarios[name] = result
        print(f"[bench] scenario {name}: audit_ok={result['audit_ok']} "
              f"oracle_ok={result['oracle_ok']} "
              f"({result['blocks_indexed']} blocks indexed across shards "
              f"{result['shards_indexed']}, epochs {result['epochs_seen']}, "
              f"{result['wall_seconds']}s)")

    reference = None
    if os.path.exists(args.baseline):
        with open(args.baseline, encoding="utf-8") as handle:
            reference = json.load(handle)
    if reference is not None and reference.get("mode") != args.mode:
        reference = None
    if reference:
        base_flat = reference.get("flat_cost", {})
        print(f"[bench] committed baseline: cost ratio "
              f"{base_flat.get('cost_ratio')}x, "
              f"{base_flat.get('blocks_per_second')} blocks/s")

    report = {
        "benchmark": "analytics",
        "mode": args.mode,
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
        "flat_cost": flat,
        "scenarios": scenarios,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"[bench] wrote {args.output}")

    # ------------------------------------------------------------------ gates
    failed = False
    print(f"[bench] gate: audit slice cost ratio {flat['cost_ratio']}x vs "
          f"ceiling 1.5x")
    if flat["cost_ratio"] > 1.5:
        print(f"[bench] FAIL: audit slice cost grew {flat['cost_ratio']}x "
              f"from the first to the last decile — the audit is not "
              f"O(blocks since last check)", file=sys.stderr)
        failed = True
    for name, result in scenarios.items():
        if not result["settled"] or not result["audit_ok"]:
            print(f"[bench] FAIL: scenario {name} audit violations: "
                  f"{result['violations']}", file=sys.stderr)
            failed = True
        if not result["oracle_ok"]:
            print(f"[bench] FAIL: scenario {name} incremental index diverged "
                  f"from the rebuild: {result['oracle_detail']}",
                  file=sys.stderr)
            failed = True
        if result["blocks_indexed"] == 0:
            print(f"[bench] FAIL: scenario {name} indexed nothing",
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
