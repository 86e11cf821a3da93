"""detlint engine: file walking, per-module context, suppressions.

The engine parses each file once, builds a :class:`ModuleContext` (AST,
import alias map, parent links, set-type index, suppression table, policy
scope) and evaluates every enabled rule against it; project-wide rules (the
PKL pickle pass, the DEAD001 use pass) run once at the end against a
:class:`ProjectContext` holding the analyzed modules and the cross-module
class index.  There is one mode: what a scope enables is what runs.

Inference limits
----------------
The engine's static model is deliberately shallow — sound for the patterns
the determinism contract actually uses, silent (not wrong) elsewhere:

* set-type inference is intra-function plus module-wide *name-based*
  attribute/return annotations (see :mod:`repro.analysis.inference`); it
  does not follow containers, ``self`` receiver types (the dict-FIFO
  ``next(iter(self))`` idiom of ``BoundedIdSet`` is out of scope and is
  deterministic anyway), or cross-module aliases;
* import resolution handles ``import m``, ``import m as a`` and
  ``from m import n [as a]`` — not ``importlib`` or star imports;
* the pickle pass resolves field annotations to classes *defined in the
  analyzed file set*; fields typed ``Any`` (e.g. the reference committee's
  ``receipt``) stay covered by the runtime reduce-coverage guard instead.

Suppressions
------------
``# detlint: disable=RULE1,RULE2 -- justification`` on the offending line
(or on a standalone comment line directly above it) suppresses those rules
for that line.  The justification text after ``--`` is **required**: a
bare disable does not suppress — the finding stays active and its message
says why, so policy can never be waived silently.  A rule may also fix
what a justification must say (:attr:`Rule.waiver`; DEAD001 accepts a
paper section/figure/appendix, a fault-injection seam or a test oracle):
one that does not match is ignored the same way.  Suppressions that match
no finding are reported as unused (stale disables rot fast).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Pattern, Sequence, Tuple

from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.inference import FunctionSetTypes, ModuleSetIndex
from repro.analysis.policy import DEFAULT_POLICY, Policy
from repro.analysis.registry import all_rules

_SUPPRESS = re.compile(
    r"#\s*detlint:\s*disable=([A-Za-z0-9_,\s]+?)\s*(?:--\s*(.+?)\s*)?$")


@dataclass
class Suppression:
    """One parsed ``# detlint: disable=...`` comment."""

    line: int  #: line the suppression applies to (the code line)
    comment_line: int  #: line the comment itself is on
    rules: Tuple[str, ...]
    justification: str
    used: bool = False

    @property
    def valid(self) -> bool:
        return bool(self.justification)


@dataclass
class ClassInfo:
    """Cross-module class index entry for the pickle pass."""

    name: str
    qualname: str  #: ``relpath:Class``
    module: "ModuleContext"
    node: ast.ClassDef
    bases: Tuple[str, ...]  #: base names resolved through the import map
    is_dataclass: bool
    #: Ordered dataclass fields: (name, annotation source text, default node).
    fields: Tuple[Tuple[str, str, Optional[ast.AST]], ...]
    has_reduce: bool
    has_getstate: bool
    nested: bool


class ModuleContext:
    """Everything a per-module rule needs about one parsed file."""

    def __init__(self, path: Path, relpath: str, source: str, scope: str,
                 enabled_rules: Tuple[str, ...]) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.scope = scope
        self.enabled_rules = enabled_rules
        self.tree = ast.parse(source, filename=str(path))
        self.imports = _import_map(self.tree)
        self.set_index = ModuleSetIndex(self.tree)
        self.suppressions = _parse_suppressions(source)
        self._parents: Dict[ast.AST, ast.AST] = {}
        self._qualnames: Dict[ast.AST, str] = {}
        self._set_types_cache: Dict[ast.AST, FunctionSetTypes] = {}
        self._link(self.tree, None, "")

    def _link(self, node: ast.AST, parent: Optional[ast.AST],
              qual: str) -> None:
        for child in ast.iter_child_nodes(node):
            self._parents[child] = node
            child_qual = qual
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                child_qual = f"{qual}.{child.name}" if qual else child.name
                self._qualnames[child] = child_qual
            self._link(child, node, child_qual)

    # -------------------------------------------------------------- lookups
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def qualname_of(self, node: ast.AST) -> str:
        """Enclosing ``Class.method`` qualname of ``node`` ("" at module level)."""
        current: Optional[ast.AST] = node
        while current is not None:
            if current in self._qualnames:
                return self._qualnames[current]
            current = self._parents.get(current)
        return ""

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self._parents.get(current)
        return None

    def set_types(self, fn: ast.AST) -> FunctionSetTypes:
        if fn not in self._set_types_cache:
            self._set_types_cache[fn] = FunctionSetTypes(fn, self.set_index)
        return self._set_types_cache[fn]

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def resolve_call(self, node: ast.AST) -> str:
        """Dotted name of a call target, resolved through the import map.

        ``perf_counter()`` under ``from time import perf_counter`` resolves
        to ``time.perf_counter``; ``np.random.default_rng()`` under
        ``import numpy as np`` resolves to ``numpy.random.default_rng``.
        Unresolvable targets (e.g. method calls on objects) return the
        dotted source text with the receiver chain kept as written.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(self.imports.get(current.id, current.id))
        else:
            return ""
        return ".".join(reversed(parts))

    # --------------------------------------------------------- suppressions
    def apply_suppression(self, finding: Finding,
                          waiver: Optional[Pattern[str]] = None) -> Finding:
        for suppression in self.suppressions.get(finding.line, []):
            if finding.rule_id not in suppression.rules:
                continue
            if not suppression.valid:
                finding.message += (
                    " [an inline disable on this line was IGNORED: detlint "
                    "suppressions require a justification after '--']")
                continue
            if waiver is not None and not waiver.match(suppression.justification):
                finding.message += (
                    " [an inline disable on this line was IGNORED: a "
                    f"{finding.rule_id} justification must match "
                    f"{waiver.pattern!r}]")
                continue
            suppression.used = True
            finding.suppressed = True
            finding.justification = suppression.justification
        return finding

    def unused_suppressions(self) -> List[Suppression]:
        return [s for group in self.suppressions.values() for s in group
                if s.valid and not s.used]


class ProjectContext:
    """Cross-module view for whole-tree rules (the pickle and use passes)."""

    def __init__(self, modules: Sequence[ModuleContext]) -> None:
        self.modules = list(modules)
        #: class name -> every definition with that name (name-keyed on
        #: purpose: barrier roots are matched by name across modules).
        self.classes: Dict[str, List[ClassInfo]] = {}
        for module in self.modules:
            for info in _index_classes(module):
                self.classes.setdefault(info.name, []).append(info)


# --------------------------------------------------------------------------
# Parsing helpers
# --------------------------------------------------------------------------

def _import_map(tree: ast.Module) -> Dict[str, str]:
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = \
                    alias.name if alias.asname else alias.name.split(".")[0]
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return aliases


def _parse_suppressions(source: str) -> Dict[int, List[Suppression]]:
    """line -> suppressions applying to it (same line or comment line above).

    Only real COMMENT tokens count — a ``# detlint: disable=...`` example
    inside a docstring or string literal is text, not a suppression.
    """
    comments: Dict[int, Tuple[str, bool]] = {}  # lineno -> (text, standalone)
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                standalone = not tok.line[:tok.start[1]].strip()
                comments[tok.start[0]] = (tok.string, standalone)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    table: Dict[int, List[Suppression]] = {}
    pending: List[Suppression] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        comment = comments.get(lineno)
        if comment is not None:
            comment_text, standalone = comment
            match = _SUPPRESS.search(comment_text)
            if match:
                rules = tuple(rule.strip().upper()
                              for rule in match.group(1).split(",")
                              if rule.strip())
                suppression = Suppression(
                    line=lineno, comment_line=lineno, rules=rules,
                    justification=(match.group(2) or "").strip())
                if standalone:
                    pending.append(suppression)  # applies to next code line
                else:
                    table.setdefault(lineno, []).append(suppression)
        is_code = bool(text.strip()) and not (comment and comment[1])
        if is_code:
            for suppression in pending:
                suppression.line = lineno
                table.setdefault(lineno, []).append(suppression)
            pending = []
    return table


def _index_classes(module: ModuleContext) -> Iterable[ClassInfo]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = tuple(filter(None, (module.resolve_call(base).split(".")[-1]
                                    for base in node.bases)))
        is_dataclass = any(
            module.resolve_call(dec.func if isinstance(dec, ast.Call) else dec)
            .split(".")[-1] == "dataclass"
            for dec in node.decorator_list)
        fields: List[Tuple[str, str, Optional[ast.AST]]] = []
        has_reduce = has_getstate = False
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if isinstance(stmt.annotation, ast.Name) and \
                        stmt.annotation.id == "ClassVar":
                    continue
                fields.append((stmt.target.id, ast.unparse(stmt.annotation),
                               stmt.value))
            elif isinstance(stmt, ast.FunctionDef):
                has_reduce = has_reduce or stmt.name == "__reduce__"
                has_getstate = has_getstate or stmt.name == "__getstate__"
        yield ClassInfo(
            name=node.name,
            qualname=f"{module.relpath}:{node.name}",
            module=module, node=node, bases=bases,
            is_dataclass=is_dataclass, fields=tuple(fields),
            has_reduce=has_reduce, has_getstate=has_getstate,
            nested=not isinstance(module.parent(node), ast.Module),
        )


# --------------------------------------------------------------------------
# Driving
# --------------------------------------------------------------------------

def iter_python_files(paths: Sequence[str]) -> Iterable[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(path.rglob("*.py"))


def _relpath(path: Path, root: Path) -> str:
    resolved = path.resolve()
    try:
        return resolved.relative_to(root.resolve()).as_posix()
    except ValueError:
        # Analyzed from outside the repo root: recover the repo-relative
        # path from a well-known tree marker so policy scoping still
        # applies instead of silently demoting everything to default.
        posix = resolved.as_posix()
        for marker in ("/src/repro/", "/benchmarks/", "/examples/",
                       "/tests/"):
            index = posix.find(marker)
            if index >= 0:
                return posix[index + 1:]
        return posix


@dataclass
class Engine:
    """Configured analysis run: a policy and the root relpaths start at."""

    policy: Policy = field(default_factory=lambda: DEFAULT_POLICY)
    root: Path = field(default_factory=Path.cwd)

    def analyze(self, paths: Sequence[str]) -> AnalysisReport:
        report = AnalysisReport(paths=tuple(paths))
        rules = all_rules()
        modules: List[ModuleContext] = []
        for path in iter_python_files(paths):
            relpath = _relpath(path, self.root)
            scope = self.policy.scope_for(relpath)
            if scope.skip:
                report.files_skipped += 1
                continue
            enabled = tuple(rule.rule_id for rule in rules
                            if self.policy.rule_enabled(rule.rule_id, relpath))
            try:
                source = path.read_text()
                module = ModuleContext(path, relpath, source, scope.name,
                                       enabled)
            except (SyntaxError, UnicodeDecodeError) as exc:
                report.findings.append(Finding(
                    rule_id="DETLINT", path=relpath, line=1, col=0,
                    message=f"file could not be parsed: {exc}", scope=scope.name))
                report.files_analyzed += 1
                continue
            modules.append(module)
            report.files_analyzed += 1
            for rule in rules:
                if rule.rule_id not in enabled:
                    continue
                for finding in rule.check_module(module):
                    report.findings.append(
                        module.apply_suppression(finding, rule.waiver))
        project = ProjectContext(modules)
        module_by_rel = {module.relpath: module for module in modules}
        for rule in rules:
            for finding in rule.check_project(project):
                if not self.policy.rule_enabled(rule.rule_id, finding.path):
                    continue
                module = module_by_rel.get(finding.path)
                if module is not None:
                    finding = module.apply_suppression(finding, rule.waiver)
                report.findings.append(finding)
        report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        for rule in rules:
            closure = getattr(rule, "last_closure", None)
            if closure:
                report.barrier_closure = tuple(sorted(closure))
        report.unused_suppressions = tuple(
            f"{module.relpath}:{s.comment_line}: disable={','.join(s.rules)}"
            for module in modules for s in module.unused_suppressions())
        return report
