"""DEAD001: public definitions that nothing outside ``tests/`` uses.

Every public module-level def/class and every public method of an analyzed
module (outside ``tests/``, ``benchmarks/`` and ``examples/``) must be used
by some code in ``src/``, ``benchmarks/`` or ``examples/``.  A test that
calls an API nothing else calls pins code the reproduction does not run,
so tests are not uses; neither are import statements (re-exports) nor the
strings of an ``__all__`` list.

Uses are matched by name, not by resolved binding — one reachability query
over the project, evaluated rule-at-a-time like the other project passes:

* a ``Name`` or ``Attribute`` load anywhere outside the definition itself
  (so recursion and a class naming itself in its own methods do not count);
* an exact string literal (``getattr(obj, "name")``, ``call("summaries")``
  dispatch);
* decoration by a function the project defines (``@register`` reaches the
  class through the registry);
* dunder names are protocol hooks and are never reported.

Uses are collected from the analyzed modules plus ``src/``, ``benchmarks/``
and ``examples/`` of the project the analyzed modules live in (the
directory their repo-relative paths start at, whatever the working
directory), so ``detlint src`` still sees the benchmark drivers.  A kept
definition carries ``# detlint: disable=DEAD001 -- <reason>``, and the
reason must start with the paper section, figure or appendix it
reproduces (``§6.1``, ``Figure 4``, ``Appendix B``), ``fault-injection
seam``, or ``oracle: <what the tests compare against it>``; any other
reason is ignored like a bare disable.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, ProvenanceStep
from repro.analysis.registry import Rule, register

#: Trees whose code counts as a use (``tests/`` deliberately absent).
USE_TREES = ("src", "benchmarks", "examples")
#: Trees whose own definitions are never reported.
_NOT_DEFINITIONS = ("tests/", "benchmarks/", "examples/")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: name -> (relpath, first line, last line) of every use site.
_Uses = Dict[str, List[Tuple[str, int, int]]]


def _public_defs(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Public module-level defs and (nested) class members, in order."""
    for stmt in body:
        if not isinstance(stmt, _DEFS):
            continue
        if not stmt.name.startswith("_"):
            yield stmt
        if isinstance(stmt, ast.ClassDef):
            yield from _public_defs(stmt.body)


def _all_strings(tree: ast.Module) -> Set[ast.AST]:
    """The string constants of ``__all__`` assignments (re-exports)."""
    found: Set[ast.AST] = set()
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [getattr(stmt, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            found.update(ast.walk(stmt))
    return found


def _collect_uses(relpath: str, tree: ast.Module, uses: _Uses) -> None:
    skip = _all_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node not in skip:
            name = node.value
        else:
            continue
        uses.setdefault(name, []).append(
            (relpath, node.lineno, node.end_lineno or node.lineno))


def _project_root(modules) -> Optional[Path]:
    """The directory an analyzed module's repo-relative path starts at."""
    for module in modules:
        path = module.path.resolve()
        if not module.relpath.startswith("/") and \
                path.as_posix().endswith("/" + module.relpath):
            return path.parents[len(Path(module.relpath).parts) - 1]
    return None


def _decorator_name(node: ast.AST) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


@register
class DeadCodeRule(Rule):
    rule_id = "DEAD001"
    title = "public definition nothing outside tests/ uses"
    description = """\
    Flags public defs, classes and methods that no code in src/,
    benchmarks/ or examples/ uses by name, string literal or project
    decorator.  Tests, imports and __all__ do not count.  Delete the
    definition with the tests that check only it, or keep it with a
    justified disable naming its paper section/figure, its role as a
    fault-injection seam, or the test oracle it serves."""
    waiver = re.compile(
        r"(§\d|Figure \d|Appendix [A-Z]|fault-injection seam\b|oracle: \S)")

    def check_project(self, project) -> Iterable[Finding]:
        targets = [module for module in project.modules
                   if not module.relpath.startswith(_NOT_DEFINITIONS)]
        if not targets:
            return
        uses: _Uses = {}
        analyzed = set()
        for module in project.modules:
            analyzed.add(module.path.resolve())
            if not module.relpath.startswith("tests/"):
                _collect_uses(module.relpath, module.tree, uses)
        root = _project_root(targets)
        trees = USE_TREES if root is not None else ()
        for tree in trees:
            for path in sorted((root / tree).rglob("*.py")):
                if path.resolve() in analyzed or "__pycache__" in path.parts:
                    continue
                try:
                    parsed = ast.parse(path.read_text(), filename=str(path))
                except (SyntaxError, UnicodeDecodeError):
                    continue  # the engine reports files it analyzes itself
                _collect_uses(path.relative_to(root).as_posix(),
                              parsed, uses)
        functions = {node.name for module in project.modules
                      for node in ast.walk(module.tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for module in targets:
            for node in _public_defs(module.tree.body):
                if any(_decorator_name(dec) in functions
                       for dec in node.decorator_list):
                    continue
                end = node.end_lineno or node.lineno
                if any(not (path == module.relpath and node.lineno <= line
                            and last <= end)
                       for path, line, last in uses.get(node.name, ())):
                    continue
                line = min([dec.lineno for dec in node.decorator_list]
                           + [node.lineno])
                kind = "class" if isinstance(node, ast.ClassDef) else "def"
                yield Finding(
                    rule_id=self.rule_id,
                    path=module.relpath, line=line, col=node.col_offset,
                    message=(f"public {kind} {node.name} is used by nothing "
                             f"in {', '.join(USE_TREES)} (tests, imports "
                             "and __all__ do not count); delete it with its "
                             "tests or keep it with a justified disable"),
                    function=module.qualname_of(node),
                    scope=module.scope,
                    provenance=(
                        ProvenanceStep("sink", node.lineno, node.col_offset,
                                       module.line_text(node.lineno)),
                    ),
                )
