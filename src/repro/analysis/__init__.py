"""detlint: AST-based determinism and dead-code analysis.

The package gates the repo's bit-identical scale-out contract statically:
determinism rules DET001–DET005 (wall clock, unseeded RNG, set-order
escapes, hash()/id(), order-dependent picks) and DEAD001 over public
definitions nothing outside the tests uses.  What crosses a process
boundary is not linted: :mod:`repro.codec` refuses anything outside its
closed set of wire classes at run time.  See
:mod:`repro.analysis.engine` for the analysis model and its documented
inference limits, and :mod:`repro.analysis.cli` for the ``detlint``
command.
"""

from repro.analysis.engine import Engine
from repro.analysis.findings import AnalysisReport, Finding, ProvenanceStep
from repro.analysis.policy import DEFAULT_POLICY, Policy, Scope
from repro.analysis.registry import Rule, all_rules

__all__ = [
    "AnalysisReport", "DEFAULT_POLICY", "Engine", "Finding",
    "Policy", "ProvenanceStep", "Rule", "Scope", "all_rules",
]
