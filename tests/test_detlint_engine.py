"""Engine-level detlint tests: suppressions, policy scoping, the DEAD001
use pass, the CLI contract, and the static-vs-runtime barrier-closure
cross-check.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import DEFAULT_POLICY, Engine, Policy
from repro.analysis.cli import main as cli_main
from repro.analysis.policy import Scope

#: Every rule everywhere, except DEAD001: these tests pin the suppression
#: and scoping mechanics on one DET001 site in a one-file tree, where every
#: def is unused by construction.  DEAD001 has its own tree tests below.
STRICT_ALL = Policy(scopes=(Scope(name="strict", patterns=("*",),
                                  disabled=frozenset({"DEAD001"})),))

DIRTY = ("import time\n\n\ndef stamp():\n    return time.time()\n\n\n"
         "STARTED = stamp()\n")


def analyze_tmp(tmp_path, source, name="mod.py", policy=STRICT_ALL):
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    engine = Engine(policy=policy, root=tmp_path)
    return engine.analyze([str(target)])


# ------------------------------------------------------------- suppressions
def test_justified_suppression_suppresses(tmp_path):
    src = ("import time\n\n\ndef stamp():\n"
           "    return time.time()  # detlint: disable=DET001 -- measuring "
           "host cost only\n")
    report = analyze_tmp(tmp_path, src)
    (finding,) = report.findings
    assert finding.suppressed
    assert finding.justification == "measuring host cost only"
    assert report.exit_code == 0


def test_bare_suppression_is_ignored_and_called_out(tmp_path):
    src = ("import time\n\n\ndef stamp():\n"
           "    return time.time()  # detlint: disable=DET001\n")
    report = analyze_tmp(tmp_path, src)
    (finding,) = report.findings
    assert not finding.suppressed
    assert "IGNORED" in finding.message
    assert report.exit_code == 1


def test_standalone_comment_suppresses_next_code_line(tmp_path):
    src = ("import time\n\n\ndef stamp():\n"
           "    # detlint: disable=DET001 -- wall time is the measurement\n"
           "    return time.time()\n")
    report = analyze_tmp(tmp_path, src)
    (finding,) = report.findings
    assert finding.suppressed


def test_suppression_only_covers_named_rule(tmp_path):
    src = ("import time\n\n\ndef stamp():\n"
           "    return time.time()  # detlint: disable=DET002 -- wrong rule\n")
    report = analyze_tmp(tmp_path, src)
    (finding,) = report.findings
    assert not finding.suppressed
    assert report.exit_code == 1
    # ...and the mismatched disable is reported as unused
    assert any("DET002" in entry for entry in report.unused_suppressions)


def test_unused_suppression_reported(tmp_path):
    src = ("def clean():\n"
           "    return 1  # detlint: disable=DET001 -- stale excuse\n")
    report = analyze_tmp(tmp_path, src)
    assert not report.findings
    assert len(report.unused_suppressions) == 1


def test_directive_inside_docstring_is_not_a_suppression(tmp_path):
    src = ('DOC = """use # detlint: disable=DET001 -- like this"""\n'
           "import time\n\n\ndef stamp():\n    return time.time()\n")
    report = analyze_tmp(tmp_path, src)
    (finding,) = report.findings
    assert not finding.suppressed
    assert not report.unused_suppressions


# ------------------------------------------------------------------- policy
def test_default_policy_scopes_det001_to_protocol_dirs(tmp_path):
    # same wall-clock code: strict dir flags it, benchmarks never does
    flagged = analyze_tmp(tmp_path, DIRTY, name="src/repro/sim/mod.py",
                          policy=DEFAULT_POLICY)
    assert [f.rule_id for f in flagged.findings] == ["DET001"]
    assert flagged.findings[0].scope == "strict"

    silent = analyze_tmp(tmp_path, DIRTY, name="benchmarks/mod.py",
                         policy=DEFAULT_POLICY)
    assert not silent.findings


def test_experiments_are_strict_scope(tmp_path):
    """One mode: the reproduction scripts are strict like the protocol tree,
    and their legitimate wall-clock reads carry justified suppressions."""
    flagged = analyze_tmp(tmp_path, DIRTY, name="src/repro/experiments/mod.py",
                          policy=DEFAULT_POLICY)
    assert [f.rule_id for f in flagged.findings] == ["DET001"]
    assert flagged.findings[0].scope == "strict"


def test_service_scope_carves_wallclock_out_of_the_strict_tree(tmp_path):
    """The runtime seam's scope split, pinned path by path.

    The seam itself (the Runtime protocol, and the Simulator that is its
    simulated implementation) is deterministic substrate — strict.  Its
    wall-clock half and the service package exist to read the real clock,
    so DET001 is off there — but every other determinism rule still
    applies.
    """
    def scope_name(relpath):
        return DEFAULT_POLICY.scope_for(relpath).name

    assert scope_name("src/repro/runtime/base.py") == "strict"
    assert scope_name("src/repro/sim/simulator.py") == "strict"
    assert scope_name("src/repro/runtime/wallclock.py") == "service"
    assert scope_name("src/repro/service/gateway.py") == "service"
    assert scope_name("src/repro/service/socketnet.py") == "service"
    assert scope_name("src/repro/consensus/base.py") == "strict"
    assert scope_name("src/repro/sim/network.py") == "strict"

    service_file = "src/repro/service/gateway.py"
    assert not DEFAULT_POLICY.rule_enabled("DET001", service_file)
    for still_on in ("DET002", "DET003", "DET004", "DEAD001"):
        assert DEFAULT_POLICY.rule_enabled(still_on, service_file)
    assert DEFAULT_POLICY.rule_enabled("DET001", "src/repro/sim/simulator.py")

    # End to end: identical wall-clock code flags in the seam's sim half,
    # stays silent in its service half.
    flagged = analyze_tmp(tmp_path, DIRTY, name="src/repro/runtime/sim_extra.py",
                          policy=DEFAULT_POLICY)
    assert [f.rule_id for f in flagged.findings] == ["DET001"]
    silent = analyze_tmp(tmp_path, DIRTY, name="src/repro/service/gw.py",
                         policy=DEFAULT_POLICY)
    assert not silent.findings


def test_ignore_scope_skips_fixture_dirs(tmp_path):
    report = analyze_tmp(tmp_path, DIRTY, name="x/detlint_fixtures/mod.py",
                         policy=DEFAULT_POLICY)
    assert not report.findings
    assert report.files_skipped == 1


def test_unparsable_file_is_reported_not_fatal(tmp_path):
    report = analyze_tmp(tmp_path, "def broken(:\n")
    (finding,) = report.findings
    assert finding.rule_id == "DETLINT"
    assert report.exit_code == 1


# ------------------------------------------------------------------ DEAD001
DEAD_TREE = {
    "src/pkg/__init__.py": (
        "from pkg.mod import only_reexported\n\n"
        "__all__ = [\"only_reexported\"]\n"),
    "src/pkg/registry.py": (
        "REGISTRY = []\n\n\n"
        "def register(cls):\n    REGISTRY.append(cls)\n    return cls\n"),
    "src/pkg/mod.py": (
        "from pkg.registry import register\n\n\n"
        "def only_tested():\n    return 1\n\n\n"
        "def only_reexported():\n    return 2\n\n\n"
        "def used_by_benchmark():\n    return 3\n\n\n"
        "def dispatched():\n    return 4\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "@register\nclass Registered:\n    def __len__(self):\n        return 0\n\n\n"
        "def waived():  # detlint: disable=DEAD001\n    return 5\n\n\n"
        "def seam():  # detlint: disable=DEAD001 -- fault-injection seam\n"
        "    return 6\n\n\n"
        "def handy():  # detlint: disable=DEAD001 -- handy for debugging\n"
        "    return 11\n\n\n"
        "def _private():\n    return 7\n\n\n"
        "def used_by_example():\n    return 8\n\n\n"
        "def imported_only():\n    return 9\n\n\n"
        "class Helper:\n    def called(self):\n        return 10\n"),
    "src/pkg/runner.py": (
        "import pkg.mod\n"
        "from pkg.mod import imported_only\n\n\n"
        "def main():\n    return getattr(pkg.mod, \"dispatched\")()\n\n\n"
        "main()\n"
        "pkg.mod.Helper().called()\n"),
    "tests/test_mod.py": (
        "from pkg.mod import only_tested, recursive, waived\n\n\n"
        "def test_it():\n    assert only_tested() == 1\n"
        "    assert recursive(2) == 0 and waived() == 5\n"),
    "benchmarks/bench.py": (
        "from pkg.mod import used_by_benchmark\n\n"
        "print(used_by_benchmark())\n"),
    "examples/demo.py": (
        "from pkg.mod import used_by_example\n\n"
        "print(used_by_example())\n"),
}


def _dead_tree(tmp_path):
    for relpath, source in DEAD_TREE.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return Engine(policy=DEFAULT_POLICY, root=tmp_path)


def test_dead001_reports_defs_only_tests_or_reexports_use(tmp_path):
    engine = _dead_tree(tmp_path)
    for paths in ([tmp_path / "src"], [tmp_path / "src", tmp_path / "tests"]):
        report = engine.analyze([str(path) for path in paths])
        dead = {f.function: f for f in report.findings if f.rule_id == "DEAD001"}
        # Tests, imports, __all__ and a def's own body are not uses; the
        # benchmark call, the @register decorator, the dunder and the
        # getattr string are.  Analyzing tests/ explicitly changes nothing.
        assert set(dead) == {"only_tested", "only_reexported", "recursive",
                             "imported_only", "waived", "seam", "handy"}
        assert all(f.path == "src/pkg/mod.py" for f in dead.values())
        # A bare disable and one whose reason is none of the three accepted
        # kinds are ignored and said so; an accepted reason holds.
        for ignored in ("waived", "handy"):
            assert not dead[ignored].suppressed
            assert "IGNORED" in dead[ignored].message
        assert dead["seam"].suppressed
        assert dead["seam"].justification == "fault-injection seam"
        assert {f.function for f in report.active} == \
            {"only_tested", "only_reexported", "recursive", "imported_only",
             "waived", "handy"}


@pytest.mark.parametrize("function, dead", [
    ("only_tested", True),          # called from tests/ only
    ("only_reexported", True),      # an import and an __all__ string only
    ("imported_only", True),        # imported by src/, never loaded
    ("recursive", True),            # only its own body names it
    ("used_by_benchmark", False),   # a benchmarks/ call
    ("used_by_example", False),     # an examples/ call
    ("dispatched", False),          # a getattr string literal
    ("Registered", False),          # decorated by the project's @register
    ("Helper", False),              # an Attribute load (pkg.mod.Helper)
    ("Helper.called", False),       # a method reached by attribute load
    ("Registered.__len__", False),  # dunders are protocol hooks
    ("_private", False),            # private names are out of scope
])
def test_dead001_verdict_per_definition(tmp_path, function, dead):
    report = _dead_tree(tmp_path).analyze([str(tmp_path / "src")])
    reported = {f.function for f in report.findings if f.rule_id == "DEAD001"}
    assert (function in reported) == dead


def test_dead001_reports_a_decorated_def_at_its_first_decorator(tmp_path):
    source = ("import functools\n\n\n"
              "# detlint: disable=DEAD001 -- oracle: the cache tests compare against it\n"
              "@functools.lru_cache\ndef cached():\n    return 1\n")
    report = analyze_tmp(tmp_path, source, name="src/mod.py", policy=DEFAULT_POLICY)
    (finding,) = report.findings
    assert finding.line == 5 and finding.suppressed


# ------------------------------------------------- closure vs runtime guard
def test_static_barrier_closure_covers_runtime_command_reach():
    """The PKL pass must statically reach every class the runtime barrier
    actually ships: Command and all its subclasses, the window framing
    classes, and the report payloads (cross-check of the PR-7 runtime
    reduce-coverage guard)."""
    from repro.core import homecoord

    repo_root = Path(__file__).resolve().parents[1]
    engine = Engine(policy=DEFAULT_POLICY, root=repo_root)
    report = engine.analyze([str(repo_root / "src" / "repro")])
    static_names = {entry.split(":")[-1] for entry in report.barrier_closure}

    runtime_names = {cls.__name__ for cls in
                     (homecoord.Command, homecoord.WindowBlock,
                      homecoord.WindowResult, homecoord.TxDone,
                      homecoord.AdmitReport, homecoord.MarginReport)}
    for cls in list(homecoord.Command.__subclasses__()):
        runtime_names.add(cls.__name__)
    assert runtime_names <= static_names
    # annotation closure reaches the payload type carried in Command.txs
    assert "Transaction" in static_names


@pytest.mark.parametrize("run_from", ["repo", "elsewhere"])
def test_repo_tree_is_detlint_clean(tmp_path, run_from):
    """The acceptance gate, as a test: analysis of src/ has zero
    unsuppressed findings and every suppression is justified — the same
    verdict whether detlint runs from the repo root or from elsewhere
    (DEAD001 finds benchmarks/ and examples/ next to the analyzed src/)."""
    repo_root = Path(__file__).resolve().parents[1]
    root = repo_root if run_from == "repo" else tmp_path
    engine = Engine(policy=DEFAULT_POLICY, root=root)
    report = engine.analyze([str(repo_root / "src")])
    assert report.exit_code == 0, \
        "; ".join(f"{f.location()} {f.rule_id}" for f in report.active)
    assert all(f.justification for f in report.findings if f.suppressed)


# ----------------------------------------------------------------------- CLI
def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET005", "PKL003", "DEAD001"):
        assert rule_id in out


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "mod.py").write_text("VALUE = 1\n")
    assert cli_main([str(clean)]) == 0
    capsys.readouterr()

    dirty = tmp_path / "src" / "repro" / "sim"
    dirty.mkdir(parents=True)
    (dirty / "mod.py").write_text(DIRTY)
    # analyzed from outside its root, the dirty file's relpath is recovered
    # from the src/repro/ marker, so it lands in the strict scope
    assert cli_main([str(tmp_path)]) == 1
    capsys.readouterr()

    assert cli_main([str(tmp_path / "absent")]) == 2


@pytest.mark.parametrize("flag", ["--strict", "--baseline=x.json",
                                  "--no-baseline", "--write-baseline=x.json"])
def test_cli_has_one_mode_and_no_baseline(flag, capsys):
    # detlint runs one policy and has no grandfather file: these are
    # usage errors now, not silently ignored options.
    with pytest.raises(SystemExit) as exit_info:
        cli_main([flag, "--list-rules"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_json_output_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text("VALUE = 1\n")
    out = tmp_path / "report.json"
    assert cli_main(["--format", "json", "-o", str(out), "mod.py"]) == 0
    payload = json.loads(out.read_text())
    assert payload["version"] == 1
    assert payload["summary"]["active"] == 0


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parents[1])
    assert result.returncode == 0
    assert "DET001" in result.stdout
