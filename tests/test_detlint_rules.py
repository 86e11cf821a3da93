"""Per-rule golden tests: every rule fires on its positive fixture and
stays silent on the matching clean variant, with the expected provenance.

The fixture pair convention (``<rule>_pos.py`` / ``<rule>_neg.py`` under
``tests/detlint_fixtures/``) is enforced by a meta-test so a new rule
cannot land without its goldens.
"""

from pathlib import Path

import pytest

from repro.analysis import Engine, Policy, all_rules
from repro.analysis.policy import Scope

FIXTURES = Path(__file__).parent / "detlint_fixtures"

#: Everything strict, nothing skipped — fixtures are analyzed head-on.
STRICT_ALL = Policy(scopes=(Scope(name="strict", patterns=("*",)),))

RULE_IDS = [rule.rule_id for rule in all_rules()]


def analyze(*names):
    engine = Engine(policy=STRICT_ALL, root=FIXTURES)
    return engine.analyze([str(FIXTURES / name) for name in names])


def findings_for(report, rule_id):
    return [f for f in report.findings if f.rule_id == rule_id]


# ---------------------------------------------------------------- generic
@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_fires_on_positive_fixture(rule_id):
    report = analyze(f"{rule_id.lower()}_pos.py")
    assert findings_for(report, rule_id), \
        f"{rule_id} stayed silent on its positive fixture"


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_silent_on_negative_fixture(rule_id):
    report = analyze(f"{rule_id.lower()}_neg.py")
    assert not findings_for(report, rule_id), \
        f"{rule_id} false-positived on its clean fixture: " \
        + "; ".join(f.message for f in findings_for(report, rule_id))


def test_every_registered_rule_has_fixtures():
    for rule_id in RULE_IDS:
        for suffix in ("pos", "neg"):
            fixture = FIXTURES / f"{rule_id.lower()}_{suffix}.py"
            assert fixture.exists(), \
                f"rule {rule_id} has no {suffix} fixture at {fixture}"


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_findings_carry_provenance(rule_id):
    report = analyze(f"{rule_id.lower()}_pos.py")
    for finding in findings_for(report, rule_id):
        assert finding.provenance, f"{finding.message} has no provenance"
        roles = [step.role for step in finding.provenance]
        assert roles[-1] == "sink"


# ----------------------------------------------------------- per-rule detail
def test_det001_counts_and_sites():
    report = analyze("det001_pos.py")
    found = findings_for(report, "DET001")
    assert len(found) == 3
    sources = {step.text for f in found for step in f.provenance
               if step.role == "source"}
    assert sources == {"time.time()", "datetime.datetime.now()",
                       "time.perf_counter()"}


def test_det002_counts():
    report = analyze("det002_pos.py")
    messages = [f.message for f in findings_for(report, "DET002")]
    assert len(messages) == 6
    assert any("uuid.uuid4" in m for m in messages)
    assert any("os.urandom" in m for m in messages)
    assert any("random.Random" in m for m in messages)
    assert any("default_rng" in m for m in messages)
    assert any("hidden global" in m for m in messages)  # np.random.shuffle


def test_det003_flags_direct_arg_loop_and_frozen_order():
    report = analyze("det003_pos.py")
    found = findings_for(report, "DET003")
    functions = {f.function for f in found}
    # direct set arg, loop over set, and loop over list(set) all fire
    assert functions == {"Router.flood", "Router.fanout",
                         "Router.fanout_frozen"}
    flood = next(f for f in found if f.function == "Router.flood")
    assert [s.role for s in flood.provenance] == ["source", "flow", "sink"]


def test_det004_exemptions_and_hits():
    report = analyze("det004_pos.py")
    assert len(findings_for(report, "DET004")) == 2
    # __hash__ bodies and discarded bare statements are exempt
    clean = analyze("det004_neg.py")
    assert not findings_for(clean, "DET004")


def test_det005_three_shapes():
    report = analyze("det005_pos.py")
    found = findings_for(report, "DET005")
    assert len(found) == 3
    assert {f.function for f in found} == \
        {"pick_leader", "steal_one", "drain_one"}


def test_dead001_reports_every_unused_public_definition():
    report = analyze("dead001_pos.py")
    assert {f.function for f in findings_for(report, "DEAD001")} == {
        "exported_only", "recursive_only", "Unused", "Unused.never_called",
        "Used.also_never_called"}
