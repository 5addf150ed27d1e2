"""Cross-module symbol table.

The taint engine needs to follow a call like ``canonical_json(payload)``
from the file where it happens to the ``def`` that implements it, even
when the two live in different modules.  This table records every
top-level function, class, and method defined by the project files in a
lint run, plus top-level re-export aliases (``from repro.x import f``
binds ``f`` here), and resolves canonical dotted paths -- the same form
:class:`~repro.lint.context.ImportMap` produces -- back to definitions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.lint.context import FileContext
from repro.lint.graph import ImportGraph, module_name_for

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionSymbol:
    """One function or method definition."""

    module: str
    qualname: str  # "run_block" or "SharedMonthBuffer.adopt_into"
    node: FunctionNode
    ctx: FileContext

    @property
    def dotted(self) -> str:
        return f"{self.module}.{self.qualname}"


@dataclass
class ClassSymbol:
    """One class definition with its directly defined methods."""

    module: str
    name: str
    node: ast.ClassDef
    ctx: FileContext
    methods: Dict[str, FunctionSymbol] = field(default_factory=dict)


@dataclass
class _Alias:
    """A top-level re-export: this module's name points elsewhere."""

    target: str  # canonical dotted path of the real definition


class SymbolTable:
    """Top-level definitions of every project module in the run."""

    def __init__(self) -> None:
        #: module -> name -> FunctionSymbol | ClassSymbol | _Alias
        self._by_module: Dict[str, Dict[str, object]] = {}

    @classmethod
    def build(cls, graph: ImportGraph) -> "SymbolTable":
        table = cls()
        for module, ctx in graph.modules.items():
            table._index_module(module, ctx)
        return table

    def _index_module(self, module: str, ctx: FileContext) -> None:
        names: Dict[str, object] = {}
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names[stmt.name] = FunctionSymbol(
                    module=module, qualname=stmt.name, node=stmt, ctx=ctx
                )
            elif isinstance(stmt, ast.ClassDef):
                symbol = ClassSymbol(
                    module=module, name=stmt.name, node=stmt, ctx=ctx
                )
                for member in stmt.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        symbol.methods[member.name] = FunctionSymbol(
                            module=module,
                            qualname=f"{stmt.name}.{member.name}",
                            node=member,
                            ctx=ctx,
                        )
                names[stmt.name] = symbol
            elif isinstance(stmt, ast.ImportFrom) and not stmt.level:
                if stmt.module is None:
                    continue
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    names[local] = _Alias(f"{stmt.module}.{alias.name}")
        self._by_module[module] = names

    # -- resolution -------------------------------------------------------

    def resolve(
        self, dotted: str, _hops: int = 0
    ) -> Optional[Union[FunctionSymbol, ClassSymbol]]:
        """The definition behind a canonical dotted path, if in-project.

        ``repro.obs.runstore.manifest.canonical_json`` resolves to the
        function; ``repro.world.sharedmem.SharedMonthBuffer.adopt_into`` to
        the method.  Aliases (re-exports) are followed a bounded number
        of hops.
        """
        if _hops > 4:
            return None
        parts = dotted.split(".")
        # Longest module prefix wins so a module and a class of the same
        # name cannot shadow each other.
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if module not in self._by_module:
                continue
            names = self._by_module[module]
            rest = parts[split:]
            if not rest:
                return None
            entry = names.get(rest[0])
            if isinstance(entry, _Alias):
                return self.resolve(
                    ".".join([entry.target] + rest[1:]), _hops + 1
                )
            if isinstance(entry, FunctionSymbol):
                return entry if len(rest) == 1 else None
            if isinstance(entry, ClassSymbol):
                if len(rest) == 1:
                    return entry
                if len(rest) == 2:
                    return entry.methods.get(rest[1])
                return None
            return None
        return None

    def resolve_in_file(
        self, ctx: FileContext, node: ast.AST
    ) -> Optional[Union[FunctionSymbol, ClassSymbol]]:
        """Resolve a Name/Attribute chain used in ``ctx`` to a project
        definition: canonicalize through the file's import map first,
        then fall back to the file's own top-level names."""
        dotted = ctx.imports.resolve(node)
        if dotted is not None:
            return self.resolve(dotted)
        if isinstance(node, ast.Name):
            module = module_name_for(ctx)
            if module is not None:
                entry = self._by_module.get(module, {}).get(node.id)
                if isinstance(entry, _Alias):
                    return self.resolve(entry.target)
                if isinstance(entry, (FunctionSymbol, ClassSymbol)):
                    return entry
        return None

    def functions(self) -> Dict[str, FunctionSymbol]:
        """Every function and method, keyed by canonical dotted path."""
        out: Dict[str, FunctionSymbol] = {}
        for names in self._by_module.values():
            for entry in names.values():
                if isinstance(entry, FunctionSymbol):
                    out[entry.dotted] = entry
                elif isinstance(entry, ClassSymbol):
                    for method in entry.methods.values():
                        out[method.dotted] = method
        return out
