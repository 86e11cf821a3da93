"""Service-mode smoke benchmark: the live gateway vs its simulated twin.

What it does (the CI ``service-smoke`` job runs ``--mode quick``):

1. Records a smallbank workload (1k transactions in quick mode).
2. Replays it serially through the *simulated* system (trusted 2PC, no
   reference committee) with the :class:`SafetyAuditor` attached — the sim
   twin supplies the expected per-transaction outcomes and final balances,
   and the auditor gates zero safety violations.
3. Boots a 2-shard wall-clock cluster (``repro-serve``) and replays the
   same recording through the HTTP gateway with ``wait=1``, measuring
   per-transaction wall latency (p50/p99).
4. Pushes a concurrent fire-and-forget phase through the gateway and
   measures sustained throughput, then reads each shard's ``txs_per_block``
   from ``/health``: how full the leader's own cut made the blocks over the
   whole run.

Gates (exit 1 on failure):

* service outcomes == sim outcomes, transaction for transaction;
* service final balances == sim final balances (and money conserved);
* the sim twin's auditor reports zero violations;
* every concurrent-phase submission is answered (committed+aborted adds up).

Latency, throughput and block-filling numbers are reported, not gated — CI
machines vary.  So is the commit timeout that produced them
(``config.block_interval_ms``, :data:`repro.service.shardnode.BLOCK_INTERVAL`):
serial p50 is about two of them per cross-shard transaction.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py --mode quick -o BENCH_service.json
    PYTHONPATH=src python benchmarks/bench_service.py --mode full  -o BENCH_service.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))

from repro.audit.auditor import SafetyAuditor
from repro.core.config import ShardedSystemConfig
from repro.core.system import ShardedBlockchain
from repro.service.client import ServiceHTTPError
from repro.service.shardnode import BLOCK_INTERVAL
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.smallbank import DEFAULT_BALANCE, account_key

from service_harness import ServeProcess, replay_in_sim

#: mode -> (serial transactions, concurrent transactions)
MODES = {
    "quick": (1_000, 400),
    "full": (5_000, 2_000),
}

NUM_SHARDS = 2
COMMITTEE = 4
PROTOCOL = "AHL"
SEED = 17
NUM_KEYS = 100


def record_workload(path: str, count: int) -> None:
    generator = WorkloadGenerator(benchmark="smallbank", num_shards=NUM_SHARDS,
                                  num_keys=NUM_KEYS, seed=SEED,
                                  zipf_coefficient=0.9)
    generator.start_recording(path)
    for index in range(count):
        generator.next_transaction(client_id=f"bench-{index % 8}")
    generator.stop_recording()


def run_sim_twin(path: str):
    """Serial replay through the simulator; returns (outcomes, balances, audit)."""
    system = ShardedBlockchain(ShardedSystemConfig(
        num_shards=NUM_SHARDS, committee_size=COMMITTEE, protocol=PROTOCOL,
        use_reference_committee=False, benchmark="smallbank",
        num_keys=NUM_KEYS, seed=SEED))
    auditor = SafetyAuditor(system)
    outcomes, balances = replay_in_sim(system, path)
    return outcomes, balances, auditor.check()


def run_service_serial(serve: ServeProcess, path: str):
    """Serial replay through the gateway; returns (outcomes, latencies)."""
    replay = WorkloadGenerator.replay(path)
    outcomes, latencies = [], []
    for entry in replay.entries:
        started = time.perf_counter()
        result = serve.client.submit(entry["function"], entry["args"],
                                     client_id=entry.get("client_id", "bench"),
                                     wait=True, timeout=60)
        latencies.append(time.perf_counter() - started)
        outcomes.append(result["outcome"])
    return outcomes, latencies


def run_service_concurrent(serve: ServeProcess, count: int) -> dict:
    """Fire-and-forget submissions; sustained tps until the window drains."""
    generator = WorkloadGenerator(benchmark="smallbank", num_shards=NUM_SHARDS,
                                  num_keys=NUM_KEYS, seed=SEED + 1,
                                  zipf_coefficient=0.9)
    before = serve.client.health()
    already_done = before["committed"] + before["aborted"]
    started = time.perf_counter()
    submitted = 0
    while submitted < count:
        tx = generator.next_transaction(client_id=f"flood-{submitted % 8}")
        try:
            serve.client.submit(tx.function, tx.args, client_id=tx.client_id)
            submitted += 1
        except ServiceHTTPError as exc:
            if exc.status == 429:
                time.sleep(0.05)  # window full: back off as told
                continue
            raise
    while True:
        health = serve.client.health()
        finished = health["committed"] + health["aborted"] - already_done
        if finished >= submitted:
            break
        if time.perf_counter() - started > 600:
            raise RuntimeError(f"concurrent phase stalled: {health}")
        time.sleep(0.1)
    elapsed = time.perf_counter() - started
    return {"transactions": submitted, "elapsed_s": round(elapsed, 3),
            "tps": round(submitted / elapsed, 2),
            "final_in_flight": health["in_flight"],
            "txs_per_block": health["txs_per_block"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="quick")
    parser.add_argument("-o", "--output", default="BENCH_service.json")
    args = parser.parse_args(argv)
    serial_count, concurrent_count = MODES[args.mode]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "workload.jsonl")
        record_workload(path, serial_count)

        twin_started = time.perf_counter()
        sim_outcomes, sim_balances, audit = run_sim_twin(path)
        twin_elapsed = time.perf_counter() - twin_started

        with ServeProcess(shards=NUM_SHARDS, committee=COMMITTEE,
                          protocol=PROTOCOL, seed=SEED, num_keys=NUM_KEYS,
                          max_inflight=64) as serve:
            serial_started = time.perf_counter()
            service_outcomes, latencies = run_service_serial(serve, path)
            serial_elapsed = time.perf_counter() - serial_started
            service_balances = {account_key(str(i)):
                                serve.client.balance(account_key(str(i)))
                                for i in range(NUM_KEYS)}
            concurrent = run_service_concurrent(serve, concurrent_count)

    failures = []
    if service_outcomes != sim_outcomes:
        diverging = sum(1 for a, b in zip(service_outcomes, sim_outcomes) if a != b)
        failures.append(f"outcome divergence on {diverging} transactions")
    if service_balances != sim_balances:
        diverging = sum(1 for key in sim_balances
                        if service_balances.get(key) != sim_balances[key])
        failures.append(f"balance divergence on {diverging} accounts")
    if sum(service_balances.values()) != NUM_KEYS * DEFAULT_BALANCE:
        failures.append("money not conserved in service run")
    if not audit.ok:
        failures.append(f"sim-twin auditor violations: {audit.summary()}")

    ordered = sorted(latencies)
    report = {
        "mode": args.mode,
        "config": {"shards": NUM_SHARDS, "committee": COMMITTEE,
                   "protocol": PROTOCOL, "seed": SEED, "num_keys": NUM_KEYS,
                   "block_interval_ms": round(BLOCK_INTERVAL * 1e3, 3)},
        "serial": {
            "transactions": len(service_outcomes),
            "committed": service_outcomes.count("committed"),
            "aborted": service_outcomes.count("aborted"),
            "elapsed_s": round(serial_elapsed, 3),
            "tps": round(len(service_outcomes) / serial_elapsed, 2),
            "latency_p50_ms": round(1e3 * statistics.median(ordered), 3),
            "latency_p99_ms": round(1e3 * ordered[int(0.99 * (len(ordered) - 1))], 3),
            "latency_mean_ms": round(1e3 * statistics.fmean(ordered), 3),
        },
        "concurrent": concurrent,
        "sim_twin": {"elapsed_s": round(twin_elapsed, 3),
                     "auditor_ok": audit.ok},
        "gates": {"sim_equivalence": service_outcomes == sim_outcomes
                  and service_balances == sim_balances,
                  "money_conserved":
                  sum(service_balances.values()) == NUM_KEYS * DEFAULT_BALANCE,
                  "auditor_zero_violations": audit.ok},
        "failures": failures,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(json.dumps(report["serial"], indent=2))
    print(json.dumps(report["concurrent"], indent=2))
    if failures:
        print("FAILED:", "; ".join(failures), file=sys.stderr)
        return 1
    print(f"ok: {len(service_outcomes)} serial + {concurrent['transactions']} "
          f"concurrent transactions, sim-equivalent, auditor clean; serial p50 "
          f"{report['serial']['latency_p50_ms']} ms at a "
          f"{report['config']['block_interval_ms']} ms commit timeout, txs_per_block "
          f"{concurrent['txs_per_block']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
