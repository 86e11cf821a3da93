"""Compare two sets of ``run.py -o`` result files, metric by metric.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...
    python3 benchmarks/e2e/compare.py --self R1.json R2.json R3.json R4.json ...

One row per workload × metric: median and quartiles of each side, the bound
``BENCHMARK.json`` fixes for the metric, and a verdict:

* ``regressed``    B's median is worse than A's by more than the bound;
* ``unresolved``   the run-to-run spread (interquartile range of either side,
                   as a share of A's median) is wider than the bound, so the
                   data cannot show "no regression";
* ``better``       B's median is better than A's by more than that spread;
* ``within bound`` otherwise.

Per-layer metrics carry no bound and are listed without a verdict.  Exit
code 1 if any row regressed.  ``--self`` splits one set of runs of a single
commit alternately into A and B: the A/A check, which must not regress in
either direction.  Runs flagged ``noisy`` (load average above the core count
while measuring) are named in the output rather than silently used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

Samples = Dict[Tuple[str, str], List[float]]


def load(paths: List[str]) -> Tuple[Samples, List[str]]:
    """(workload, metric) -> values over the files, plus the noisy files."""
    samples: Samples = {}
    noisy = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        if document["env"]["noisy"]:
            noisy.append(path)
        for workload, result in document["workloads"].items():
            for metric, entry in result["metrics"].items():
                samples.setdefault((workload, metric), []).append(entry["value"])
    return samples, noisy


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    a_low, a_mid, a_high = quartiles(a)
    b_low, b_mid, b_high = quartiles(b)
    if a_mid == 0:
        return "within bound" if b_mid == 0 else "unresolved"
    worse_by = (b_mid - a_mid) / abs(a_mid) * (1 if better == "lower" else -1)
    spread = max(a_high - a_low, b_high - b_low) / abs(a_mid)
    if worse_by > bound and worse_by > spread:
        return "regressed"
    if spread > bound:
        return "unresolved"
    if worse_by < -spread and worse_by < 0:
        return "better"
    return "within bound"


def compare(a: Samples, b: Samples, contract: Dict[str, Any], show: bool = True) -> int:
    """Print one row per workload × metric; returns the number regressed."""
    emit = print if show else (lambda *args: None)
    declared = {m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]}
    regressions = 0
    header = (f"{'workload':16s} {'metric':40s} {'A q1/median/q3':>36s} "
              f"{'B q1/median/q3':>36s} {'bound':>6s}  verdict")
    emit(header)
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        spec = declared.get(metric, {})
        bound: Optional[float] = spec.get("bound")
        if bound is None and not any(a[key]) and not any(b[key]):
            continue  # a layer metric this workload does not exercise
        row_verdict = (verdict(a[key], b[key], spec["better"], bound)
                       if bound is not None else "")
        regressions += row_verdict == "regressed"
        cells = ["/".join(f"{value:.4g}" for value in quartiles(side[key])) for side in (a, b)]
        emit(f"{workload:16s} {metric:40s} {cells[0]:>36s} {cells[1]:>36s} "
              f"{'' if bound is None else format(bound, '.2f'):>6s}  {row_verdict}")
    only = sorted(set(a) ^ set(b))
    if only:
        emit(f"not on both sides (ignored): {only}")
    return regressions


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self", dest="self_check", action="store_true",
                        help="A/A check: split one set of runs alternately in two")
    parser.add_argument("files", nargs="+", help="A files, '--', B files")
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse swallows a bare "--"; split on it before parsing.
    b_files: List[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, b_files = argv[:cut], argv[cut + 1:]
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    if args.self_check:
        if b_files:
            parser.error("--self takes one set of files")
        a_files, b_files = args.files[0::2], args.files[1::2]
    else:
        a_files = args.files
    if not a_files or not b_files:
        parser.error("need at least one result file on each side")
    a, a_noisy = load(a_files)
    b, b_noisy = load(b_files)
    print(f"A: {len(a_files)} runs, B: {len(b_files)} runs")
    if a_noisy or b_noisy:
        print(f"NOISY: {len(a_noisy) + len(b_noisy)} runs were measured with the load "
              f"average above the core count and are included below; rerun on a quiet "
              f"host before trusting a verdict: {a_noisy + b_noisy}")
    regressions = compare(a, b, contract)
    if args.self_check:  # an A/A pair must hold in the other direction too
        regressions += compare(b, a, contract, show=False)
    print(f"{regressions} regressed")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
