"""Project-wide analysis context and the project-rule base class.

Per-file rules (:class:`~repro.lint.rules.Rule`) see one file at a time.
The flow families (DIG/DTY/ARC) need the whole file set: the import
graph for layering, the symbol table plus taint engine for cross-module
dataflow.  A :class:`ProjectRule` declares that need by implementing
``check_project`` against a :class:`ProjectContext` -- built once per
lint run, with the expensive pieces (graph, symbols, taint fixpoint)
computed lazily and shared by every project rule.

Findings from project rules anchor at the *sink* file and line, so a
``# repro: lint-ok[...]`` suppression for a cross-file flow finding
lives next to the sink statement -- the one place the contract is
actually at stake.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.flow import FlowAnalysis
from repro.lint.graph import ImportGraph
from repro.lint.rules import Rule
from repro.lint.symbols import SymbolTable


class ProjectContext:
    """Every parsed file of a lint run plus shared lazy analyses."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.contexts: List[FileContext] = sorted(
            contexts, key=lambda c: c.path
        )
        self.by_path: Dict[str, FileContext] = {
            ctx.path: ctx for ctx in self.contexts
        }
        self._graph: Optional[ImportGraph] = None
        self._symbols: Optional[SymbolTable] = None
        self._flow: Optional[FlowAnalysis] = None

    @property
    def graph(self) -> ImportGraph:
        if self._graph is None:
            self._graph = ImportGraph.build(self.contexts)
        return self._graph

    @property
    def symbols(self) -> SymbolTable:
        if self._symbols is None:
            self._symbols = SymbolTable.build(self.graph)
        return self._symbols

    @property
    def flow(self) -> FlowAnalysis:
        if self._flow is None:
            self._flow = FlowAnalysis.run(self.symbols, self.contexts)
        return self._flow


class ProjectRule(Rule):
    """A rule that needs the whole project, not one file.

    Subclasses implement :meth:`check_project`; the per-file ``check``
    hook is a no-op so a ProjectRule accidentally passed down the
    per-file path contributes nothing instead of crashing.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
    ) -> Finding:
        """Build a finding anchored at an explicit location (project
        rules often anchor away from the node they are iterating)."""
        from repro.lint.findings import Finding as _Finding

        return _Finding(
            rule=self.id,
            severity=self.severity,
            message=message,
            path=path,
            line=line,
            col=col,
            hint=self.hint,
        )


def split_rules(rules: Sequence[Rule]):
    """(per-file rules, project rules) preserving input order."""
    per_file = [r for r in rules if not isinstance(r, ProjectRule)]
    project = [r for r in rules if isinstance(r, ProjectRule)]
    return per_file, project
