"""Command-line entry point for detlint (``detlint`` / ``python -m
repro.analysis``).

Exit codes: 0 = clean (no unsuppressed findings), 1 = active findings,
2 = usage error (e.g. a path that does not exist).  Run it from the repo
root: DEAD001 reads ``src/``, ``benchmarks/`` and ``examples/`` under the
current directory for uses.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import Engine
from repro.analysis.report import list_rules_text, render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detlint",
        description=("AST-based determinism and dead-code analyzer "
                     "gating the bit-identical scale-out contract"))
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to analyze (default: src)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("-o", "--output", metavar="FILE",
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(list_rules_text())
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"detlint: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2

    report = Engine().analyze(args.paths)
    rendered = render_json(report) if args.format == "json" \
        else render_text(report)
    if args.output:
        Path(args.output).write_text(rendered + "\n")
    else:
        print(rendered)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
