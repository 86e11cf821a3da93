"""Path-scoped rule policy for detlint.

Different parts of the tree carry different determinism obligations:

* **strict** — the protocol/simulation packages whose event streams feed the
  bit-identical workers=1 ≡ workers=N contract.  Every rule applies.  The
  runtime seam (``src/repro/runtime/``) is strict too: the ``Runtime``
  protocol and the shared ``fork_rng`` derivation are part of the
  deterministic substrate, like the ``Simulator`` that implements them.
  So are the reproduction scripts under ``src/repro/experiments``: their
  few legitimate wall-clock reads carry justified inline suppressions.
* **service** — the wall-clock side of the runtime seam:
  ``src/repro/service/`` (asyncio gateway, shard node processes, socket
  transport) and ``src/repro/runtime/wallclock.py``.  These modules exist to
  run the protocol stack on a real clock, so DET001 does not apply — but
  every *other* determinism rule (unseeded RNG, set-order escapes,
  ``hash()``/``id()``) still does: the service must stay seed-reproducible in
  everything but timing, or the sim-vs-service differential oracle loses its
  teeth.
* **measurement** — ``benchmarks/`` and ``examples/``: wall-clock timing is
  the whole point (speedup gates), so DET001 never applies; their code
  counts as uses for DEAD001 but their own definitions are not reported.
* **ignore** — detlint's own rule fixtures and caches: never analyzed.
* **default** — everything else: every rule except DET001 (which is scoped
  to protocol/sim modules by definition).

The strict-scope wall-clock carve-outs — the barrier loop's
``coordinator_work_share`` perf_counter split in ``core/system.py`` and
Table 2's enclave microbenchmark timings — are expressed as inline
suppressions at the measurement sites rather than a path rule, so the
justification lives next to the code it excuses.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Tuple

#: Rules that only make sense inside the deterministic protocol/sim tree.
_WALL_CLOCK = frozenset({"DET001"})

#: Call names detlint treats as scheduling/send/fan-out sinks (DET003): an
#: unsorted set iteration escaping into one of these turns hash-ordering
#: into event ordering.
FANOUT_SINKS = frozenset({
    "schedule", "schedule_at", "send", "broadcast", "deliver", "submit",
    "dispatch", "relay", "emit", "publish", "cpu_execute", "put_nowait",
    "call_soon", "send_vote", "route",
})

#: Class names rooting the pickle-safety pass: anything with one of these
#: names (or subclassing one) is assumed to cross a barrier window.
BARRIER_ROOTS = ("Command", "WindowBlock", "WindowResult", "TxDone",
                 "AdmitReport", "MarginReport")


@dataclass(frozen=True)
class Scope:
    """One path-scoped policy entry (first match wins)."""

    name: str
    patterns: Tuple[str, ...]
    #: Rules off in this scope.
    disabled: frozenset = frozenset()
    #: True: files in this scope are never analyzed.
    skip: bool = False

    def matches(self, relpath: str) -> bool:
        return any(fnmatch.fnmatch(relpath, pattern) or relpath.startswith(prefix)
                   for pattern in self.patterns
                   for prefix in (pattern.rstrip("*"),))


@dataclass(frozen=True)
class Policy:
    """Ordered scopes plus the shared rule configuration."""

    scopes: Tuple[Scope, ...]

    def scope_for(self, relpath: str) -> Scope:
        for scope in self.scopes:
            if scope.matches(relpath):
                return scope
        return _DEFAULT_SCOPE

    def rule_enabled(self, rule_id: str, relpath: str) -> bool:
        scope = self.scope_for(relpath)
        return not (scope.skip or rule_id in scope.disabled)


_STRICT_DIRS = ("sim", "consensus", "core", "txn", "sharding", "ledger", "tee",
                "runtime", "experiments")

_DEFAULT_SCOPE = Scope(name="default", patterns=("*",), disabled=_WALL_CLOCK)

DEFAULT_POLICY = Policy(scopes=(
    Scope(name="ignore",
          patterns=("*detlint_fixtures/*", "*__pycache__/*", "*/.git/*"),
          skip=True),
    # Before "strict": wallclock.py lives inside the otherwise-strict
    # runtime package, and first-match-wins is what carves it out.
    Scope(name="service",
          patterns=("src/repro/service/*", "src/repro/runtime/wallclock*"),
          disabled=_WALL_CLOCK),
    Scope(name="strict",
          patterns=tuple(f"src/repro/{pkg}/*" for pkg in _STRICT_DIRS)),
    Scope(name="measurement",
          patterns=("benchmarks/*", "examples/*"),
          disabled=_WALL_CLOCK),
    _DEFAULT_SCOPE,
))
