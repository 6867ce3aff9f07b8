"""Command-line entry point: ``python -m tools.reprolint [options] paths...``.

Exit codes: 0 clean (or all findings baselined/suppressed), 1 new
findings or unparsable files, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from tools.reprolint.core import (
    LintConfig,
    LintResult,
    load_baseline,
    run_paths,
    write_baseline,
)
from tools.reprolint.rules import RULE_CLASSES

#: The committed grandfathered-findings file used by ``--baseline``.
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"
DEFAULT_PATHS = ["src", "tools", "benchmarks"]


def _format_text(result: LintResult) -> str:
    """Human-readable report."""
    lines: List[str] = []
    for finding in result.parse_errors:
        lines.append(
            f"{finding.path}:{finding.line}: PARSE {finding.message}"
        )
    for finding in result.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule} {finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    summary = (
        f"reprolint: {len(result.findings)} finding(s) in "
        f"{result.files_checked} file(s)"
    )
    extras = []
    if result.suppressed:
        extras.append(f"{len(result.suppressed)} suppressed")
    if result.baselined:
        extras.append(f"{len(result.baselined)} baselined")
    if result.parse_errors:
        extras.append(f"{len(result.parse_errors)} parse error(s)")
    if extras:
        summary += " (" + ", ".join(extras) + ")"
    lines.append(summary)
    return "\n".join(lines)


def _format_json(result: LintResult) -> str:
    """Machine-readable report."""
    return json.dumps(
        {
            "findings": [f.to_dict() for f in result.findings],
            "suppressed": [f.to_dict() for f in result.suppressed],
            "baselined": [f.to_dict() for f in result.baselined],
            "parse_errors": [f.to_dict() for f in result.parse_errors],
            "files_checked": result.files_checked,
            "exit_code": result.exit_code,
        },
        indent=2,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Run the linter; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="AST-based invariant checker for this repository's "
        "kernel, cache-invalidation and memmap-lifetime contracts.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=DEFAULT_PATHS,
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report instead of text"
    )
    parser.add_argument(
        "--baseline",
        action="store_true",
        help="ignore findings recorded in the committed baseline file",
    )
    parser.add_argument(
        "--baseline-file",
        type=Path,
        default=DEFAULT_BASELINE,
        help="baseline file to read/write (default: tools/reprolint/baseline.json)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record all current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list shipped rules and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for cls in RULE_CLASSES:
            print(f"{cls.rule_id}  {cls.title}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"reprolint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    baseline = None
    if args.baseline or args.write_baseline:
        baseline = load_baseline(args.baseline_file)
    result = run_paths(
        [Path(p) for p in args.paths],
        config=LintConfig(),
        baseline=baseline if args.baseline else None,
    )
    if args.write_baseline:
        write_baseline(result.all_current, args.baseline_file)
        print(
            f"reprolint: wrote {len(result.all_current)} fingerprint(s) to "
            f"{args.baseline_file}"
        )
        return 0
    print(_format_json(result) if args.json else _format_text(result))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
