"""Rule registry: one place every determinism/pickle-safety check registers.

Rules are singletons registered at import time via :func:`register`; the
engine evaluates them rule-at-a-time over each module (and once over the
whole project for cross-module passes), mirroring the modular rule-at-a-time
evaluation that motivated the incremental auditor.  A rule implements either
hook:

* :meth:`Rule.check_module` — per-file AST checks (the DET rules);
* :meth:`Rule.check_project` — whole-tree checks that need the cross-module
  class index (the PKL barrier-pickle pass).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Pattern, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.engine import ModuleContext, ProjectContext

from repro.analysis.findings import Finding


class Rule:
    """Base class for detlint rules."""

    rule_id: str = ""
    title: str = ""
    description: str = ""
    #: When set, a disable of this rule holds only if its justification
    #: matches; any other justification is ignored like a bare disable.
    waiver: Optional[Pattern[str]] = None

    def check_module(self, module: "ModuleContext") -> Iterable[Finding]:
        """Per-module hook; yield findings for one file."""
        return ()

    def check_project(self, project: "ProjectContext") -> Iterable[Finding]:
        """Whole-project hook; yield findings needing cross-module context."""
        return ()


#: rule id -> singleton instance, in registration order.
RULES: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule singleton to the registry."""
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule_cls.rule_id in RULES:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")
    RULES[rule_cls.rule_id] = rule_cls()
    return rule_cls


def all_rules() -> List[Rule]:
    """Every registered rule, in stable (registration) order."""
    import repro.analysis.rules  # noqa: F401  (registers on import)
    return [RULES[rule_id] for rule_id in sorted(RULES)]
