"""Smoke test of the end-to-end benchmark (collected by tier-1 via ``testpaths``).

Runs ``run.py`` the way the benchmark driver does — as a subprocess, one
workload per invocation — at a tenth of the episode size, and holds its
last output line to the contract in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def run_benchmark(workload: str, seed: int, trace: int, cwd: str = ROOT):
    command = CONTRACT["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", "0.1", "--trace", str(trace),
                                     "--scale", "0.1"]
    command[0] = sys.executable
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(command, cwd=cwd, env=env, text=True, capture_output=True,
                          timeout=170, check=False)


def check_result(completed, declared) -> None:
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert entry["unit"] == metric["unit"] and entry["unit"]
        assert isinstance(entry["value"], float)


def test_contract_names():
    names = (WORKLOADS + [m["name"] for m in CONTRACT["end_to_end"]]
             + [m["name"] for m in CONTRACT["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in CONTRACT["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


# Every workload on one seed; a second seed on one workload of each family
# (a boot or a fork costs ~3 s, so not on all five).
@pytest.mark.parametrize("workload,seed", [(name, 3) for name in WORKLOADS]
                         + [("sim_uniform", 4), ("service_closed", 4)])
def test_end_to_end_metrics(workload, seed):
    completed = run_benchmark(workload, seed, trace=0)
    check_result(completed, CONTRACT["end_to_end"])
    metrics = json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]
    assert all(entry["value"] > 0 for entry in metrics.values())


@pytest.mark.parametrize("workload", ["sim_contended", "service_closed"])
def test_per_layer_metrics(workload):
    completed = run_benchmark(workload, seed=3, trace=1)
    check_result(completed, CONTRACT["per_layer"])
    metrics = json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]
    prefix = "service." if workload.startswith("service") else "txn.locks."
    assert any(name.startswith(prefix) and entry["value"] > 0
               for name, entry in metrics.items())


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result, exit != 0."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = run_benchmark("sim_uniform", seed=3, trace=0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
