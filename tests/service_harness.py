"""Harness for service-mode tests: boot ``repro-serve``, talk HTTP, and
replay the same recorded workload through the simulated twin.

Not a test module — shared by the ``test_service_*.py`` modules and
imported by ``benchmarks/bench_service.py``.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.service.client import ServiceClient
from repro.workloads.generator import WorkloadGenerator, shard_of_key
from repro.workloads.smallbank import account_key

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Simulated seconds one replayed transaction may take to complete, and the
#: step the replay advances by while it waits.
REPLAY_BUDGET = 60.0
REPLAY_STEP = 0.5


def replay_in_sim(system: Any, path: str) -> Tuple[List[str], Dict[str, Any]]:
    """Replay a recorded smallbank workload serially through a simulated
    ``system``; returns (per-transaction outcomes, final balances).

    Each transaction is submitted once its predecessor completed: the system
    is stepped ``REPLAY_STEP`` at a time until the completion callback
    fires, within ``REPLAY_BUDGET``, so no step walks long idle stretches.
    One last ``REPLAY_BUDGET`` lets lagging replicas apply the final blocks
    before the balances are read from each shard's honest observer.
    """
    replay = WorkloadGenerator.replay(path)
    outcomes: List[str] = []
    while not replay.exhausted:
        tx = replay.next_transaction(now=system.runtime.now)
        done: List[Any] = []
        system.submit_transaction(tx, on_complete=done.append)
        for _ in range(int(REPLAY_BUDGET / REPLAY_STEP)):
            system.run(REPLAY_STEP)
            if done:
                break
        else:
            raise RuntimeError(f"the simulated system never completed {tx.tx_id}")
        outcomes.append(done[0].outcome.value)
    system.run(REPLAY_BUDGET)
    num_shards = system.config.num_shards
    balances = {}
    for index in range(system.config.num_keys):
        key = account_key(str(index))
        observer = system.shards[shard_of_key(key, num_shards)].honest_observer()
        balances[key] = observer.state.get(key)
    return outcomes, balances


class ServeProcess:
    """A running ``repro-serve`` cluster as a context manager."""

    def __init__(self, shards: int = 2, committee: int = 4, protocol: str = "AHL",
                 seed: int = 0, benchmark: str = "smallbank", num_keys: int = 50,
                 max_inflight: int = 256, boot_timeout: float = 90.0,
                 extra_args: Optional[List[str]] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.serve",
             "--shards", str(shards), "--committee", str(committee),
             "--protocol", protocol, "--seed", str(seed),
             "--benchmark", benchmark, "--num-keys", str(num_keys),
             "--max-inflight", str(max_inflight), "--port", "0",
             *(extra_args or [])],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        self.ready = self._read_event(boot_timeout)
        if self.ready.get("event") != "ready":
            raise RuntimeError(f"serve failed to boot: {self.ready}")
        self.client = ServiceClient(self.ready["endpoint"])

    # ---------------------------------------------------------------- stdout
    def _read_event(self, timeout: float) -> Dict[str, Any]:
        """Read one JSON event line from stdout, bounded by ``timeout``."""
        assert self.proc.stdout is not None
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        line = ""
        while time.monotonic() < deadline:
            if not selector.select(timeout=0.2):
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stdout.readline()
            if line:
                return json.loads(line)
            break
        stderr = ""
        if self.proc.poll() is not None and self.proc.stderr is not None:
            stderr = self.proc.stderr.read()
        raise TimeoutError(
            f"no stdout event within {timeout}s (exit={self.proc.poll()}); "
            f"stderr tail: {stderr[-2000:]}")

    # ------------------------------------------------------------- lifecycle
    @property
    def shard_pids(self) -> List[int]:
        return list(self.ready.get("shard_pids", []))

    def kill_shard(self, index: int) -> None:
        os.kill(self.shard_pids[index], signal.SIGKILL)

    def sigterm(self) -> None:
        self.proc.send_signal(signal.SIGTERM)

    def wait_exit(self, timeout: float = 60.0):
        """Wait for exit; returns (returncode, stdout_rest, stderr)."""
        out, err = self.proc.communicate(timeout=timeout)
        return self.proc.returncode, out, err

    def __enter__(self) -> "ServeProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        # A SIGKILLed parent cannot reap its daemon shard processes, and
        # they hold the inherited stdout pipe open — kill them too or
        # ``communicate`` below never sees EOF.
        for pid in self.shard_pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        try:
            self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
