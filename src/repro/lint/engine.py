"""The lint engine: file discovery, parsing, rule dispatch.

Two passes per run.  The per-file pass parses each file, builds its
:class:`FileContext`, and runs the per-file rules.  The project pass
then runs every :class:`~repro.lint.project.ProjectRule` once against a
:class:`~repro.lint.project.ProjectContext` holding *all* parsed files:
import graph, symbol table, and taint analysis are shared across the
project rules and built lazily on first use.  Findings are sorted at
the end, so the report does not depend on discovery order.

Suppressions are per file but apply to both passes: a project finding
anchors at its sink file/line, and the ``# repro: lint-ok[...]``
comment must sit there -- next to the statement where the contract is
at stake -- even when the taint source is in another file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.baseline import BaselineKey, apply_baseline, load_baseline
from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.project import ProjectContext, split_rules
from repro.lint.rules import Rule, all_rules
from repro.lint.suppress import SuppressionIndex

#: Meta-finding id for files the parser rejects.
SYNTAX_ERROR_RULE = "LNT001"


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    baselined: int = 0
    #: Baseline entries that matched no current finding (stale).
    stale_baseline: List[BaselineKey] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> int:
        return sum(
            1 for f in self.findings if f.severity is Severity.WARNING
        )

    def exit_code(self, strict: bool = False) -> int:
        """1 when the run should fail CI: any error, or (under
        ``--strict``) any finding at all."""
        if self.errors:
            return 1
        if strict and self.findings:
            return 1
        return 0


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Every .py file under ``paths`` (files listed directly always
    count), in sorted order for stable reports."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                str(p) for p in path.rglob("*.py") if p.is_file()
            )
        elif path.is_file():
            yield str(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")


def display_path(path: str) -> str:
    """Posix-style path, relative to the working directory when inside
    it -- the form baselines and suppression docs use."""
    resolved = Path(path).resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


@dataclass
class ParsedFile:
    """One file after the parse step (context is None on errors)."""

    shown: str
    ctx: Optional[FileContext] = None
    suppressions: Optional[SuppressionIndex] = None
    error_findings: List[Finding] = field(default_factory=list)


def _parse_file(path: str) -> ParsedFile:
    shown = display_path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return ParsedFile(
            shown,
            error_findings=[
                Finding(
                    rule=SYNTAX_ERROR_RULE,
                    severity=Severity.ERROR,
                    message=f"cannot read file: {exc}",
                    path=shown,
                    line=1,
                )
            ],
        )
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return ParsedFile(
            shown,
            error_findings=[
                Finding(
                    rule=SYNTAX_ERROR_RULE,
                    severity=Severity.ERROR,
                    message=f"syntax error: {exc.msg}",
                    path=shown,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                )
            ],
        )
    return ParsedFile(
        shown,
        ctx=FileContext.build(shown, source, tree),
        suppressions=SuppressionIndex.scan(source),
    )


def _run_per_file(
    parsed: ParsedFile, rules: Sequence[Rule]
) -> Tuple[List[Finding], int]:
    """Per-file findings (suppressions applied) and the suppressed count."""
    findings = list(parsed.error_findings)
    suppressed = 0
    if parsed.ctx is None or parsed.suppressions is None:
        return findings, suppressed
    for rule in rules:
        for finding in rule.check(parsed.ctx):
            if parsed.suppressions.matches(finding):
                suppressed += 1
            else:
                findings.append(finding)
    findings.extend(parsed.suppressions.inert_findings(parsed.shown))
    return findings, suppressed


def _run_project(
    parsed_files: Sequence[ParsedFile], rules: Sequence[Rule]
) -> Tuple[List[Finding], int]:
    """Project-pass findings (suppressions applied at the sink)."""
    if not rules:
        return [], 0
    contexts = [p.ctx for p in parsed_files if p.ctx is not None]
    by_path: Dict[str, SuppressionIndex] = {
        p.shown: p.suppressions
        for p in parsed_files
        if p.suppressions is not None
    }
    project = ProjectContext(contexts)
    findings: List[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.check_project(project):
            index = by_path.get(finding.path)
            if index is not None and index.matches(finding):
                suppressed += 1
            else:
                findings.append(finding)
    return findings, suppressed


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    baseline_path: Optional[str] = None,
) -> LintResult:
    """Lint every python file under ``paths`` (meta-findings
    LNT000/LNT001 included).

    Project rules run over the files given, so a single fixture file is
    a one-file project: DIG/DTY/ARC run on it too.
    """
    per_file, project = split_rules(
        rules if rules is not None else all_rules()
    )
    result = LintResult()
    parsed_files = [_parse_file(path) for path in iter_python_files(paths)]
    for parsed in parsed_files:
        findings, suppressed = _run_per_file(parsed, per_file)
        result.findings.extend(findings)
        result.suppressed += suppressed
        result.files_scanned += 1
    project_findings, suppressed = _run_project(parsed_files, project)
    result.findings.extend(project_findings)
    result.suppressed += suppressed
    result.findings.sort(key=lambda f: f.sort_key)
    if baseline_path:
        baseline = load_baseline(baseline_path)
        current = {f.baseline_key for f in result.findings}
        result.stale_baseline = sorted(baseline - current)
        result.findings, result.baselined = apply_baseline(
            result.findings, baseline
        )
    return result
