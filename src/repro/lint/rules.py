"""Rule plugin architecture.

A rule is a class with an ``id``, a ``severity``, a one-line ``title``,
a ``hint`` telling the author how to fix it, and a ``check`` method that
yields :class:`~repro.lint.findings.Finding` objects for one file.
Registering is one decorator::

    @register
    class MyRule(Rule):
        id = "DET999"
        severity = Severity.ERROR
        title = "..."
        hint = "..."

        def check(self, ctx):
            ...

The registry is the single source of truth: the engine and the CLI's
rule table (``repro lint --list-rules``) both iterate it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Type

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity


class Rule:
    """Base class for lint rules (one instance checks many files)."""

    id: str = ""
    severity: Severity = Severity.ERROR
    title: str = ""
    hint: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: Optional[str] = None,
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule=self.id,
            severity=self.severity,
            message=message or self.title,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            hint=self.hint,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, in id order."""
    _ensure_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def select_rules(ids: Iterable[str]) -> List[Rule]:
    """The subset of rules with the given ids (unknown ids raise)."""
    _ensure_loaded()
    rules = []
    for rule_id in ids:
        if rule_id not in _REGISTRY:
            known = ", ".join(sorted(_REGISTRY))
            raise KeyError(f"unknown rule {rule_id!r} (known: {known})")
        rules.append(_REGISTRY[rule_id])
    return rules


def _ensure_loaded() -> None:
    """Import the rule modules so their ``@register`` decorators run."""
    from repro.lint import (  # noqa: F401
        arch,
        determinism,
        digflow,
        dtype,
        safety,
    )
