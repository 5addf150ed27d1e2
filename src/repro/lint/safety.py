"""Hygiene rules: GEN001, GEN002."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.rules import Rule, register


@register
class MutableDefaultRule(Rule):
    """GEN001: mutable default argument.

    The default is evaluated once at ``def`` time and shared by every
    call -- state leaks across calls (and across simulated clients)."""

    id = "GEN001"
    severity = Severity.WARNING
    title = "mutable default argument"
    hint = "default to None and create the container inside the function"

    _MUTABLE_LITERALS = (
        ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
    )
    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, self._MUTABLE_LITERALS):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CALLS
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        ctx, default,
                        f"mutable default argument in {name}()",
                    )


@register
class BareExceptRule(Rule):
    """GEN002: bare ``except:``.

    Catches ``SystemExit``/``KeyboardInterrupt`` too, hiding real
    failures; name the exceptions (or ``Exception``) instead."""

    id = "GEN002"
    severity = Severity.WARNING
    title = "bare except"
    hint = "catch a named exception class (at minimum `except Exception`)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(ctx, node, "bare `except:` clause")
