"""Text and JSON reporters for detlint analysis reports.

The text reporter prints one headline line per finding plus its indented
provenance chain (source expression → flow step → sink call), so a reader
can follow *why* the rule fired without opening the file.  The JSON
reporter emits the full structured report — findings with provenance,
the suppressed partition and unused suppressions — and is what CI uploads
as an artifact.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.findings import AnalysisReport
from repro.analysis.registry import all_rules


def render_text(report: AnalysisReport) -> str:
    lines: List[str] = []
    for finding in report.findings:
        status = ""
        if finding.suppressed:
            status = " [suppressed: " + finding.justification + "]"
        lines.append(f"{finding.location()}: {finding.rule_id} "
                     f"({finding.scope}) {finding.message}{status}")
        for step in finding.provenance:
            lines.append(f"    {step.role:>6}: line {step.line}: {step.text}")
    active = report.active
    suppressed = [f for f in report.findings if f.suppressed]
    if report.unused_suppressions:
        lines.append("unused suppressions (stale disables — remove them):")
        for entry in report.unused_suppressions:
            lines.append(f"    {entry}")
    lines.append(
        f"detlint: {report.files_analyzed} files analyzed "
        f"({report.files_skipped} skipped), {len(active)} finding(s), "
        f"{len(suppressed)} suppressed")
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    payload: Dict[str, object] = {
        "version": 1,
        "paths": list(report.paths),
        "files_analyzed": report.files_analyzed,
        "files_skipped": report.files_skipped,
        "rules": [{"id": rule.rule_id, "title": rule.title}
                  for rule in all_rules()],
        "findings": [f.to_dict() for f in report.active],
        "suppressed": [f.to_dict() for f in report.findings if f.suppressed],
        "unused_suppressions": list(report.unused_suppressions),
        "summary": {
            "active": len(report.active),
            "suppressed": sum(1 for f in report.findings if f.suppressed),
        },
    }
    return json.dumps(payload, indent=2)


def list_rules_text() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.rule_id}: {rule.title}")
        for text in rule.description.strip().splitlines():
            lines.append(f"    {text.strip()}")
    return "\n".join(lines)
