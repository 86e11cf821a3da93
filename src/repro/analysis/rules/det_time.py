"""DET001: wall-clock reads inside the deterministic protocol/sim tree.

Every timestamp the protocol stack consumes must come from ``Simulator.now``
(simulated time): a wall-clock read makes the event stream depend on host
speed, so the same seed stops producing the same fingerprints and the
workers=1 ≡ workers=N differential gates turn flaky.  Benchmarks measure
real time on purpose and policy scopes them out; an experiment that
measures real time carries a justified inline suppression.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding, ProvenanceStep
from repro.analysis.registry import Rule, register

WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


@register
class WallClockRule(Rule):
    rule_id = "DET001"
    title = "wall-clock call in deterministic module"
    description = """\
    Flags time.time/perf_counter/monotonic/process_time and datetime.now
    family calls.  Protocol and simulation code must read Simulator.now;
    wall-clock reads break seed-reproducibility.  Measurement code
    (benchmarks/, experiments/) is policy-scoped out or carries justified
    inline suppressions."""

    def check_module(self, module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolve_call(node.func)
            if resolved in WALL_CLOCK_CALLS:
                yield Finding(
                    rule_id=self.rule_id,
                    path=module.relpath, line=node.lineno, col=node.col_offset,
                    message=(f"wall-clock call {resolved}() in a "
                             "deterministic module; use the simulator clock "
                             "(sim.now) or move the measurement behind a "
                             "justified suppression"),
                    function=module.qualname_of(node),
                    scope=module.scope,
                    provenance=(
                        ProvenanceStep("source", node.lineno, node.col_offset,
                                       f"{resolved}()"),
                        ProvenanceStep("sink", node.lineno, node.col_offset,
                                       module.line_text(node.lineno)),
                    ),
                )
