"""Finding and provenance data model for the detlint analyzer.

A :class:`Finding` is one rule violation at one source location.  Every
finding carries a *provenance chain* — the ordered ``source → flow → sink``
steps that explain why the rule fired (in the why-provenance spirit: the
expression that introduced the hazard, the step that propagated it, and the
call where it becomes observable).  A finding either counts toward the exit
code or carries the justification of the inline disable that suppressed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class ProvenanceStep:
    """One step of a finding's source → flow → sink explanation."""

    role: str  #: "source", "flow" or "sink"
    line: int
    col: int
    text: str  #: the source snippet at this step

    def to_dict(self) -> Dict[str, object]:
        return {"role": self.role, "line": self.line, "col": self.col,
                "text": self.text}


@dataclass
class Finding:
    """One rule violation, with its provenance chain and suppression state."""

    rule_id: str
    path: str  #: repo-relative posix path of the offending file
    line: int
    col: int
    message: str
    function: str = ""  #: enclosing ``Class.method`` qualname ("" = module level)
    scope: str = "default"  #: policy scope the file was analyzed under
    provenance: Tuple[ProvenanceStep, ...] = ()
    suppressed: bool = False
    justification: str = ""  #: the suppression's required justification text

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "function": self.function,
            "scope": self.scope,
            "suppressed": self.suppressed,
            "justification": self.justification,
            "provenance": [step.to_dict() for step in self.provenance],
        }


@dataclass
class AnalysisReport:
    """The outcome of one engine run over a set of files."""

    findings: List[Finding] = field(default_factory=list)
    files_analyzed: int = 0
    files_skipped: int = 0
    paths: Tuple[str, ...] = ()
    #: Suppression comments that matched no finding (stale disables).
    unused_suppressions: Tuple[str, ...] = ()

    @property
    def active(self) -> List[Finding]:
        """Findings that count toward the exit code (not suppressed)."""
        return [finding for finding in self.findings if not finding.suppressed]

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0
