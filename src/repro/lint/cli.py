"""The ``repro lint`` subcommand (also ``python -m repro.lint``).

Usage::

    repro lint [paths ...] [--strict] [--format text|json]
               [--baseline FILE] [--write-baseline FILE]
               [--prune-baseline] [--select DET001,DET004]

Exit codes: 0 clean, 1 findings (errors always; any finding under
``--strict``; a stale baseline under ``--prune-baseline``), 2 usage or
I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint.rules import all_rules, select_rules

DEFAULT_PATHS = ["src/repro"]


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Register the lint options on ``parser`` (shared with repro.cli)."""
    parser.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail on warnings too, not just errors",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="subtract the grandfathered findings recorded in FILE",
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE",
        help="write current findings to FILE as the new baseline and "
        "exit 0",
    )
    parser.add_argument(
        "--prune-baseline", action="store_true",
        help="drop --baseline entries whose findings no longer exist, "
        "rewriting the file; exit 1 if any were stale (CI staleness "
        "gate)",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )


def _rule_table() -> str:
    lines = ["rule     severity  description"]
    for rule in all_rules():
        lines.append(
            f"{rule.id:<8} {rule.severity.value:<9} {rule.title}"
        )
    return "\n".join(lines)


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation."""
    # The engine loads here, not at import: every ``repro`` process
    # builds this parser, and only ``repro lint`` needs the analyzer.
    from repro.lint.baseline import prune_baseline, write_baseline
    from repro.lint.engine import lint_paths
    from repro.lint.reporters import render_json, render_text

    if args.list_rules:
        print(_rule_table())
        return 0
    paths = args.paths or DEFAULT_PATHS
    try:
        rules = (
            select_rules(
                [r.strip() for r in args.select.split(",") if r.strip()]
            )
            if args.select
            else None
        )
    except KeyError as exc:
        print(f"repro lint: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.prune_baseline and not args.baseline:
        print(
            "repro lint: --prune-baseline requires --baseline FILE",
            file=sys.stderr,
        )
        return 2
    try:
        result = lint_paths(paths, rules=rules, baseline_path=args.baseline)
    except (OSError, ValueError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        count = write_baseline(args.write_baseline, result.findings)
        print(
            f"wrote {count} finding{'' if count == 1 else 's'} to "
            f"{args.write_baseline}"
        )
        return 0

    if args.prune_baseline:
        dropped = prune_baseline(args.baseline, result.stale_baseline)
        if dropped:
            print(
                f"pruned {dropped} stale baseline "
                f"entr{'y' if dropped == 1 else 'ies'} from "
                f"{args.baseline}"
            )
            return 1
        print(f"baseline {args.baseline} is up to date")

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return result.exit_code(strict=args.strict)


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point for ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based determinism & safety linter for repro",
    )
    configure_parser(parser)
    return run(parser.parse_args(argv))
