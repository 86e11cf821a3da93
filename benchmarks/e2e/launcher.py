"""Self-contained launcher for a ``repro-serve`` cluster under measurement.

Boots ``python -m repro.service.serve --port 0`` as a subprocess, waits for
its ``ready`` line, exposes the pids of the gateway process and its shard
processes for ``/proc`` accounting, and on every exit path stops the whole
process tree and verifies nothing survived.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List

from procstat import children_of, is_alive, total_cpu_seconds, total_peak_rss_mb
from repro.service.client import ServiceClient

#: A healthy boot takes 0.9-1.6 s.  Ten times that is a failed boot; waiting
#: serve's own 60 s out would turn one bad boot into a 70 s run.
BOOT_TIMEOUT_S = 15.0
#: serve's stderr is kept (appended) so a failed boot can be diagnosed.
STDERR_LOG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                          "serve_stderr.log")


class ServeCluster:
    """A running cluster as a context manager; ``setup_s`` is boot → ready."""

    def __init__(self, src_dir: str, shards: int, committee: int, protocol: str,
                 seed: int, num_keys: int, max_inflight: int,
                 boot_timeout: float = BOOT_TIMEOUT_S) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"]
                                       if env.get("PYTHONPATH") else "")
        os.makedirs(os.path.dirname(STDERR_LOG), exist_ok=True)
        started = time.perf_counter()
        with open(STDERR_LOG, "ab") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service.serve",
                 "--shards", str(shards), "--committee", str(committee),
                 "--protocol", protocol, "--seed", str(seed),
                 "--benchmark", "smallbank", "--num-keys", str(num_keys),
                 "--max-inflight", str(max_inflight), "--port", "0"],
                stdout=subprocess.PIPE, stderr=stderr, text=True, env=env)
        self.shard_pids: List[int] = []
        try:
            ready = self._read_event(boot_timeout)
            if ready.get("event") != "ready":
                raise RuntimeError(f"serve failed to boot: {ready}")
            self.shard_pids = list(ready["shard_pids"])
            self.client = ServiceClient(ready["endpoint"])
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_event(self, timeout: float) -> Dict[str, Any]:
        """One JSON line from serve's stdout, bounded by ``timeout``."""
        assert self.proc.stdout is not None
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        try:
            while time.monotonic() < deadline:
                if selector.select(timeout=0.2):
                    line = self.proc.stdout.readline()
                    if line:
                        return json.loads(line)
                    break  # EOF: serve died before reporting
                if self.proc.poll() is not None:
                    break
        finally:
            selector.close()
        raise TimeoutError(f"no event from serve within {timeout}s "
                           f"(exit code {self.proc.poll()})")

    # ------------------------------------------------------------ accounting
    @property
    def pids(self) -> List[int]:
        """Gateway process first, then one pid per shard."""
        return [self.proc.pid, *self.shard_pids]

    def cpu_by_role(self) -> Dict[str, float]:
        return {"gateway": total_cpu_seconds([self.proc.pid]),
                "shards": total_cpu_seconds(self.shard_pids)}

    def peak_rss_mb(self) -> float:
        return total_peak_rss_mb(self.pids)

    # -------------------------------------------------------------- lifecycle
    def stop(self, grace: float = 10.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL stragglers; assert none remain.

        The shard processes are looked up from ``/proc`` *before* serve is
        signalled: a boot that never reached ``ready`` reported no
        ``shard_pids``, and once serve is dead its children are re-parented
        and can no longer be found through it.
        """
        tree = set(self.shard_pids)
        if self.proc.poll() is None:
            tree.update(children_of(self.proc.pid))
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        # A gateway that did not exit through its drain cannot reap its
        # daemon shard processes.
        for pid in tree:
            if is_alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.proc.wait(timeout=grace)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        deadline = time.monotonic() + grace
        while any(is_alive(pid) for pid in tree):
            if time.monotonic() > deadline:
                orphans = [pid for pid in tree if is_alive(pid)]
                raise RuntimeError(f"orphan shard processes remain: {orphans}")
            time.sleep(0.02)

    def __enter__(self) -> "ServeCluster":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
