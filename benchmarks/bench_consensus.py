"""Consensus/ledger benchmark: blocks/sec through a full PBFT committee.

This is the harness behind the CI ``bench-consensus`` job.  It drives a
4-replica PBFT (HL) committee with open-loop clients and measures:

1. **Count golden** — one 50k-transaction run whose (committed, aborted,
   view-change, block) counts must equal the ``optimized`` counts committed
   in ``benchmarks/BENCH_consensus_baseline.json``.  Those counts were
   recorded while the seed's keep-everything ledger path (three Merkle
   builds per block, per-access header hashing, no checkpoint GC, unbounded
   dedup sets) still ran beside the current one and produced the identical
   counts, so a drift means a simulated outcome changed.  Wall-clock
   blocks/sec is reported, not gated.
2. **Bounded-memory run** (``--mode full``) — 1M transactions with
   header-only block retention and reservoir metrics, reporting peak RSS and
   the high-water marks of every pruned structure.

Results are written as JSON (``BENCH_consensus.json`` in CI).

Usage::

    PYTHONPATH=src python benchmarks/bench_consensus.py --mode quick -o BENCH_consensus.json
    PYTHONPATH=src python benchmarks/bench_consensus.py --mode full  -o BENCH_consensus.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

from repro.consensus.base import ConsensusReplica
from repro.consensus.cluster import ConsensusCluster
from repro.ledger.transaction import TxStatus


def peak_rss_bytes() -> int:
    """Peak RSS of this process (ru_maxrss is KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def replica_state_highwater(replica: ConsensusReplica) -> dict:
    """Sizes of every structure the GC/retention work is supposed to bound."""
    return {
        "instances": len(replica.instances),
        "seen_tx_ids": len(replica.seen_tx_ids),
        "committed_tx_ids": len(replica.committed_tx_ids),
        "view_change_votes": len(replica.view_change_votes),
        "checkpoint_votes": len(replica.checkpoint_votes),
        "retained_bodies": len(replica.blockchain.blocks()),
    }


def run_committee(transactions: int, rate_tps: float, seed: int,
                  committee: int = 4, clients: int = 4,
                  overrides: dict | None = None,
                  sample_state_every: float = 0.0,
                  pregenerate: bool = True,
                  max_series_samples: int | None = None) -> dict:
    """One open-loop HL committee run; returns counts + wall-clock measurements.

    ``pregenerate=True`` builds (and content-hashes) the workload before the
    timed window so blocks/sec isolates the committee from the load
    generator — right for the golden run.  The bounded-memory run passes
    ``pregenerate=False`` instead: transactions are generated on the fly, so
    peak RSS reflects the replica state being proven bounded rather than a
    materialized 1M-transaction pool.
    """
    duration = transactions / rate_tps + 15.0  # tail time to drain the pipeline

    import random as _random  # noqa: PLC0415 — keep the timed imports minimal

    from repro.consensus.cluster import default_tx_factory  # noqa: PLC0415

    batch_size = 10
    per_client = rate_tps / clients
    factories = [None] * clients
    if pregenerate:
        batches_per_client = int(transactions / rate_tps * per_client / batch_size) + 40
        pools = [
            default_tx_factory(f"client-{i}", 0.0, _random.Random(f"pool-{seed}-{i}"),
                               batches_per_client * batch_size)
            for i in range(clients)
        ]
        for pool in pools:
            for tx in pool:
                tx.digest  # noqa: B018 — clients hash/sign content before submitting

        def pool_factory(pool):
            iterator = iter(pool)

            def factory(client_id, now, rng, count):
                return [next(iterator) for _ in range(count)]
            return factory

        factories = [pool_factory(pool) for pool in pools]

    start = time.perf_counter()
    cluster = ConsensusCluster("HL", committee, seed=seed,
                               config_overrides=overrides,
                               max_series_samples=max_series_samples)
    observer = cluster.replicas[0]
    failed_receipts = 0

    def count_failures(event) -> None:
        nonlocal failed_receipts
        failed_receipts += sum(1 for r in event.receipts if r.status is not TxStatus.COMMITTED)

    observer.on_commit(count_failures)

    state_peaks: dict = {}
    if sample_state_every > 0:
        def sample() -> None:
            for replica in cluster.replicas:
                for key, value in replica_state_highwater(replica).items():
                    state_peaks[key] = max(state_peaks.get(key, 0), value)
            cluster.sim.schedule(sample_state_every, sample)
        cluster.sim.schedule(sample_state_every, sample)

    for factory in factories:
        # factory=None falls back to live generation inside the run.
        cluster.add_open_loop_clients(1, rate_tps=per_client, batch_size=batch_size,
                                      tx_factory=factory)
    for client in cluster.clients:
        client.stop_at = transactions / rate_tps
    result = cluster.run(duration)
    wall = time.perf_counter() - start

    final_state = replica_state_highwater(cluster.honest_observer())
    for key, value in final_state.items():
        state_peaks[key] = max(state_peaks.get(key, 0), value)
    return {
        "transactions_target": transactions,
        "rate_tps": rate_tps,
        "seed": seed,
        "committee": committee,
        "committed": result.committed_transactions,
        "aborted": failed_receipts,
        "blocks_committed": result.blocks_committed,
        "view_changes": result.view_changes,
        "sim_time_s": round(cluster.sim.now, 2),
        "wall_seconds": round(wall, 2),
        "blocks_per_sec_wall": round(result.blocks_committed / wall, 1),
        "committed_tps_wall": round(result.committed_transactions / wall, 1),
        "state_highwater": state_peaks,
    }


def counts_of(run: dict) -> tuple:
    return (run["committed"], run["aborted"], run["view_changes"], run["blocks_committed"])


MODES = {
    # mode: (golden-run txns, rate tps, bounded-memory txns)
    "quick": (50_000, 1_500.0, 0),
    "full": (50_000, 1_500.0, 1_000_000),
}

#: Bounded-memory configuration for the long run: header-only retention
#: (reservoir metrics are a cluster argument).
BOUNDED_OVERRIDES = dict(ledger_retention="headers", ledger_retain_recent=64)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="quick")
    parser.add_argument("-o", "--output", default=None,
                        help="write results JSON to this path")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--baseline", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH_consensus_baseline.json"),
        help="committed reference counts used by the golden gate")
    args = parser.parse_args(argv)

    txns, rate, bounded_txns = MODES[args.mode]
    print(f"[bench] mode={args.mode} python={platform.python_version()}")

    optimized = run_committee(txns, rate, args.seed)
    print(f"[bench] HL: {optimized['committed']} committed in "
          f"{optimized['wall_seconds']}s ({optimized['blocks_per_sec_wall']} blocks/s)")

    bounded = None
    if bounded_txns:
        bounded = run_committee(bounded_txns, rate, args.seed,
                                overrides=dict(BOUNDED_OVERRIDES),
                                sample_state_every=20.0,
                                pregenerate=False,  # stream the workload: RSS measures replica state
                                max_series_samples=512)
        bounded["peak_rss_bytes"] = peak_rss_bytes()
        print(f"[bench] bounded 1M run: {bounded['committed']} committed in "
              f"{bounded['wall_seconds']}s, peak RSS "
              f"{bounded['peak_rss_bytes'] / 1e6:.0f} MB, "
              f"state high-water {bounded['state_highwater']}")

    report = {
        "benchmark": "consensus",
        "mode": args.mode,
        "python": platform.python_version(),
        "optimized": optimized,
        "bounded_run": bounded,
        "peak_rss_bytes": peak_rss_bytes(),
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"[bench] wrote {args.output}")

    if optimized["committed"] == 0:
        print("[bench] FAIL: committee committed nothing", file=sys.stderr)
        return 1
    with open(args.baseline, encoding="utf-8") as handle:
        golden = json.load(handle)["optimized"]
    if (golden["seed"], golden["transactions_target"]) != (args.seed, txns):
        print(f"[bench] no golden for seed {args.seed}; counts {counts_of(optimized)} "
              "reported, not gated")
        return 0
    ok = counts_of(optimized) == counts_of(golden)
    print(f"[bench] golden (commit/abort/view-change/blocks): "
          f"{'OK' if ok else 'MISMATCH'} {counts_of(optimized)} vs {counts_of(golden)}")
    if not ok:
        print("[bench] FAIL: simulated outcomes drifted from the committed golden",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
