"""Host-side accounting read from ``/proc``: CPU time, peak RSS, load, env.

The benchmark measures the system under test from outside, so every process
of that system (this process for the in-process simulators, the forked
scale-out workers, ``repro-serve`` and its shard processes) is accounted by
pid through the same two functions.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Any, Dict, Iterable, List

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User+system CPU seconds consumed so far by the live process ``pid``.

    Summed over its threads from ``schedstat`` (nanosecond resolution — the
    service burns ~0.1 CPU-s per timed second, where ``stat``'s 10 ms ticks
    would be ±5 % noise); falls back to ``stat`` ticks on kernels without
    scheduler statistics.
    """
    total_ns = 0
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/schedstat", encoding="ascii") as handle:
                total_ns += int(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        total_ns = 0
    if total_ns:
        return total_ns / 1e9
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name (field 2) may contain spaces; split after it.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> float:
    """High-water mark of the resident set of ``pid`` (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"/proc/{pid}/status has no VmHWM line")


def is_alive(pid: int) -> bool:
    """Whether ``pid`` still exists as a running (non-zombie) process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def children_of(pid: int) -> List[int]:
    """Pids whose parent is ``pid`` right now (one scan of ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                parent = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while we were looking
        if parent == pid:
            children.append(int(entry))
    return children


def total_cpu_seconds(pids: Iterable[int]) -> float:
    return sum(cpu_seconds(pid) for pid in pids)


def total_peak_rss_mb(pids: Iterable[int]) -> float:
    return sum(peak_rss_mb(pid) for pid in pids)


def loadavg_1min() -> float:
    return os.getloadavg()[0]


def _git_commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # an exported checkout: never search parent directories
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def env_block(root: str, seed: int, load_at_start: float) -> Dict[str, Any]:
    """The ``env`` block of a result file; ``noisy`` flags an overloaded host."""
    nproc = os.cpu_count() or 1
    load_at_end = loadavg_1min()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "loadavg_start": load_at_start,
        "loadavg_end": load_at_end,
        "noisy": max(load_at_start, load_at_end) > nproc,
        "git_commit": _git_commit(root),
        "seed": seed,
    }
