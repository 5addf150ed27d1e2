"""Lightweight intra/inter-procedural taint dataflow.

The digest-determinism contract is a *flow* property: an OS-entropy or
set-order value is harmless until it reaches a digest or a canonical
serialization, and the source and the sink are routinely in different
functions -- or different files.  A per-file AST walk cannot see that;
this engine can, cheaply:

* **Intra-procedural**: one forward pass per function propagates taint
  through assignments, containers (in-place mutation included:
  ``out.append(x)`` and ``d[k] = v`` taint ``out`` and ``d``), loops
  (bodies walked twice so loop-carried taint converges), and branches
  (environments union).
* **Inter-procedural**: every project function gets a *summary* --
  which parameters flow into which sinks, which parameters flow to the
  return value, and what taint the function generates internally and
  returns.  Summaries are computed to a fixpoint over the whole file
  set (bounded rounds), so ``a.py`` calling ``b.helper(x)`` learns that
  ``helper`` hashes its argument three calls deep.

Taint kinds (:class:`Taint`): ``ENTROPY`` (OS entropy / unseeded RNG),
``CLOCK`` (wall-clock reads), ``ORDER`` (set iteration order,
directory-listing order).  Sanitizers: ``sorted()`` and friends clear
``ORDER``; nothing clears ``ENTROPY`` or ``CLOCK``.  Sinks: hashlib
digests (``digest``) and JSON/pickle serialization (``serialize``).
Findings anchor at the *sink* statement -- that is where a suppression
must sit -- with the source location carried in the message.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.context import FileContext
from repro.lint.determinism import (
    RNG_CONSTRUCTORS,
    WALL_CLOCK_CALLS,
    _is_unseeded,
)
from repro.lint.symbols import ClassSymbol, FunctionSymbol, SymbolTable

MAX_TRACKED_PARAMS = 8
_PARAM_SHIFT = 3  # bits below are the real taint kinds


class Taint(enum.IntFlag):
    """What is wrong with a value (param bits live above these)."""

    NONE = 0
    ENTROPY = 1
    CLOCK = 2
    ORDER = 4


REAL_TAINT_MASK = int(Taint.ENTROPY | Taint.CLOCK | Taint.ORDER)


def param_bit(index: int) -> int:
    return 1 << (_PARAM_SHIFT + index)


#: Calls producing OS-entropy values.
ENTROPY_SOURCES = frozenset({
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbits", "secrets.randbelow",
})

#: Calls whose result order depends on the filesystem, not the program.
LISTING_SOURCES = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})

#: Builtins whose call result drops ORDER taint (deterministic
#: reductions / orderings of unordered input).
ORDER_SANITIZERS = frozenset({"sorted", "len", "min", "max"})

#: Methods that mutate their receiver in place: ``out.append(x)`` leaves
#: ``out`` carrying ``x``'s taint (set order entering a list by mutation).
CONTAINER_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "appendleft", "extendleft",
})

#: External sink calls: dotted path -> sink kind.
SINK_CALLS = {
    "json.dump": "serialize",
    "json.dumps": "serialize",
    "pickle.dump": "serialize",
    "pickle.dumps": "serialize",
}

#: Hashlib constructors: their positional args and later ``.update()``
#: calls on the result are ``digest`` sinks.
HASHLIB_CONSTRUCTORS = frozenset({
    "hashlib.md5", "hashlib.sha1", "hashlib.sha224", "hashlib.sha256",
    "hashlib.sha384", "hashlib.sha512", "hashlib.blake2b",
    "hashlib.blake2s", "hashlib.new",
})


@dataclass(frozen=True)
class Origin:
    """Where a taint bit was born."""

    description: str
    path: str
    line: int


class TaintInfo:
    """A value's taint flags plus one representative origin per flag."""

    __slots__ = ("flags", "origins")

    def __init__(
        self, flags: int = 0, origins: Optional[Dict[int, Origin]] = None
    ) -> None:
        self.flags = flags
        self.origins = origins or {}

    @classmethod
    def clean(cls) -> "TaintInfo":
        return cls()

    @classmethod
    def source(cls, kind: Taint, origin: Origin) -> "TaintInfo":
        return cls(int(kind), {int(kind): origin})

    def union(self, other: "TaintInfo") -> "TaintInfo":
        if not other.flags:
            return self
        if not self.flags:
            return other
        origins = dict(other.origins)
        origins.update(self.origins)  # first-seen (self) wins
        return TaintInfo(self.flags | other.flags, origins)

    def without(self, mask: int) -> "TaintInfo":
        flags = self.flags & ~mask
        if flags == self.flags:
            return self
        return TaintInfo(
            flags, {k: v for k, v in self.origins.items() if k & flags}
        )

    @property
    def real(self) -> int:
        return self.flags & REAL_TAINT_MASK

    def origin_of(self, mask: int) -> Optional[Origin]:
        for bit, origin in sorted(self.origins.items()):
            if bit & mask:
                return origin
        return None


CLEAN = TaintInfo.clean()


def _attr_path(node: ast.expr) -> Optional[str]:
    """``self.x.y`` -> ``"self.x.y"`` for attribute-chain env keys."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass(frozen=True, order=True)
class SinkPoint:
    """One sink statement: where a suppression must attach."""

    kind: str  # "digest" | "serialize"
    path: str
    line: int
    col: int
    description: str  # e.g. "hashlib.sha256()" / "json.dumps()"


@dataclass
class SinkHit:
    """Tainted data observed arriving at a sink."""

    sink: SinkPoint
    taint: TaintInfo
    via: Optional[Tuple[str, int]] = None  # call site (path, line)


@dataclass
class FunctionSummary:
    """What a function does with its parameters and its return value."""

    #: param index -> sinks the parameter's value reaches.
    param_to_sink: Dict[int, Tuple[SinkPoint, ...]] = field(
        default_factory=dict
    )
    #: param indices whose value can flow into the return value.
    param_to_return: Set[int] = field(default_factory=set)
    #: taint generated inside the function that reaches the return.
    returns: TaintInfo = field(default_factory=TaintInfo)
    #: ORDER-clearing functions (e.g. a project-local canonicalizer that
    #: sorts before returning) -- parameters listed here reach the
    #: return only after losing ORDER.
    sanitizes_order: bool = False

    def key(self) -> tuple:
        return (
            tuple(sorted(
                (i, s) for i, sinks in self.param_to_sink.items()
                for s in sinks
            )),
            tuple(sorted(self.param_to_return)),
            self.returns.flags,
            self.sanitizes_order,
        )


class FlowAnalysis:
    """Whole-project taint analysis: summaries plus concrete sink hits."""

    #: Fixpoint rounds bound call-chain depth; four covers every chain in
    #: this tree with margin and keeps worst-case cost linear-ish.
    MAX_ROUNDS = 4

    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols
        self.summaries: Dict[str, FunctionSummary] = {}
        self.hits: List[SinkHit] = []

    @classmethod
    def run(
        cls, symbols: SymbolTable, contexts: Sequence[FileContext]
    ) -> "FlowAnalysis":
        analysis = cls(symbols)
        functions = symbols.functions()
        for _ in range(cls.MAX_ROUNDS):
            changed = False
            for dotted, symbol in sorted(functions.items()):
                walker = _FunctionWalker(analysis, symbol.ctx, symbol)
                summary = walker.analyze()
                previous = analysis.summaries.get(dotted)
                if previous is None or previous.key() != summary.key():
                    changed = True
                analysis.summaries[dotted] = summary
            if not changed:
                break
        # Final pass collects concrete hits (module bodies included)
        # against the converged summaries.
        analysis.hits = []
        for dotted, symbol in sorted(functions.items()):
            walker = _FunctionWalker(
                analysis, symbol.ctx, symbol, collect=True
            )
            walker.analyze()
        for ctx in sorted(contexts, key=lambda c: c.path):
            walker = _FunctionWalker(analysis, ctx, None, collect=True)
            walker.analyze()
        unique: Dict[tuple, SinkHit] = {}
        for hit in analysis.hits:
            key = (
                hit.sink, hit.taint.real,
                hit.via, tuple(sorted(hit.taint.origins.items())),
            )
            unique.setdefault(key, hit)
        analysis.hits = sorted(
            unique.values(),
            key=lambda h: (h.sink.path, h.sink.line, h.sink.col, h.sink.kind),
        )
        return analysis

    def summary_for(
        self, symbol: Union[FunctionSymbol, ClassSymbol, None]
    ) -> Optional[Tuple[FunctionSummary, int]]:
        """(summary, param offset) for a call target, if known.

        Calling a class means calling ``__init__`` with ``self`` filled
        in, so its externally visible parameters start at index 1.
        """
        if isinstance(symbol, FunctionSymbol):
            offset = 1 if "." in symbol.qualname else 0
            return self.summaries.get(symbol.dotted), offset
        if isinstance(symbol, ClassSymbol):
            init = symbol.methods.get("__init__")
            if init is not None:
                summary = self.summaries.get(init.dotted)
                if summary is not None:
                    return summary, 1
        return None


class _FunctionWalker:
    """One forward taint pass over a function body (or a module body)."""

    def __init__(
        self,
        analysis: FlowAnalysis,
        ctx: FileContext,
        symbol: Optional[FunctionSymbol],
        collect: bool = False,
    ) -> None:
        self.analysis = analysis
        self.ctx = ctx
        self.symbol = symbol
        self.collect = collect
        self.env: Dict[str, TaintInfo] = {}
        self.kinds: Dict[str, str] = {}  # var -> "hash"
        self.summary = FunctionSummary()
        self.param_names: List[str] = []
        self._class: Optional[ClassSymbol] = None
        if symbol is not None and "." in symbol.qualname:
            class_name = symbol.qualname.split(".", 1)[0]
            owner = self.analysis.symbols.resolve(
                f"{symbol.module}.{class_name}"
            )
            if isinstance(owner, ClassSymbol):
                self._class = owner

    # -- entry ------------------------------------------------------------

    def analyze(self) -> FunctionSummary:
        if self.symbol is None:
            body = getattr(self.ctx.tree, "body", [])
        else:
            node = self.symbol.node
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args]
            if args.vararg:
                names.append(args.vararg.arg)
            names.extend(a.arg for a in args.kwonlyargs)
            self.param_names = names
            for i, name in enumerate(names[:MAX_TRACKED_PARAMS]):
                self.env[name] = TaintInfo(param_bit(i))
            body = node.body
        self._walk(body)
        return self.summary

    # -- statements -------------------------------------------------------

    def _walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are analyzed separately
        if isinstance(stmt, ast.Assign):
            taint = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, taint, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            taint = self._eval(stmt.value).union(
                self._load(stmt.target)
            )
            self._bind(stmt.target, taint, stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._record_return(self._eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.If,)):
            before = dict(self.env)
            self._walk(stmt.body)
            after_body = self.env
            self.env = dict(before)
            self._walk(stmt.orelse)
            self._merge_env(after_body)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_taint = self._eval(stmt.iter)
            # Two passes so taint assigned late in the body reaches uses
            # early in the body on the notional next iteration.
            for _ in range(2):
                self._bind(stmt.target, iter_taint, stmt.iter)
                self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            for _ in range(2):
                self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taint, item.context_expr)
            self._walk(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body)
            saved = dict(self.env)
            for handler in stmt.handlers:
                self.env = dict(saved)
                self._walk(handler.body)
                saved.update(self.env)
            self.env = saved
            self._walk(stmt.orelse)
            self._walk(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)
        elif isinstance(stmt, (ast.Delete, ast.Global, ast.Nonlocal,
                               ast.Pass, ast.Break, ast.Continue,
                               ast.Import, ast.ImportFrom)):
            pass
        else:  # pragma: no cover - future statement kinds
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)

    def _merge_env(self, other: Dict[str, TaintInfo]) -> None:
        for name, taint in other.items():
            self.env[name] = taint.union(self.env.get(name, CLEAN))

    def _record_return(self, taint: TaintInfo) -> None:
        for i in range(min(len(self.param_names), MAX_TRACKED_PARAMS)):
            if taint.flags & param_bit(i):
                self.summary.param_to_return.add(i)
        real = TaintInfo(
            taint.real,
            {k: v for k, v in taint.origins.items() if k & REAL_TAINT_MASK},
        )
        self.summary.returns = self.summary.returns.union(real)

    # -- binding ----------------------------------------------------------

    def _bind(
        self, target: ast.expr, taint: TaintInfo, value: ast.expr
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
            kind = self._value_kind(value)
            if kind:
                self.kinds[target.id] = kind
            else:
                self.kinds.pop(target.id, None)
        elif isinstance(target, ast.Attribute):
            dotted = _attr_path(target)
            if dotted is not None:
                self.env[dotted] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for i, element in enumerate(target.elts):
                if isinstance(element, ast.Starred):
                    element = element.value
                self._bind(element, taint, self._tuple_item(value, i))
        elif isinstance(target, ast.Subscript):
            # arr[i] = tainted  =>  the container is now tainted too, by
            # the value and by the key (set-ordered dict keys).
            self._taint_container(
                target.value, taint.union(self._eval(target.slice))
            )

    def _taint_container(self, node: ast.expr, taint: TaintInfo) -> None:
        """A mutated container keeps its taint and gains ``taint``."""
        if isinstance(node, ast.Name):
            self.env[node.id] = taint.union(self.env.get(node.id, CLEAN))

    def _tuple_item(self, value: ast.expr, index: int) -> ast.expr:
        if isinstance(value, (ast.Tuple, ast.List)) and index < len(
            value.elts
        ):
            return value.elts[index]
        return value

    def _load(self, node: ast.expr) -> TaintInfo:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, CLEAN)
        if isinstance(node, ast.Attribute):
            dotted = _attr_path(node)
            if dotted is not None and dotted in self.env:
                return self.env[dotted]
            return self._eval(node.value)
        if isinstance(node, ast.Subscript):
            return self._eval(node)
        return CLEAN

    # -- expressions ------------------------------------------------------

    def _eval(self, node: ast.expr) -> TaintInfo:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, CLEAN)
        if isinstance(node, ast.Constant):
            return CLEAN
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            dotted = _attr_path(node)
            if dotted is not None and dotted in self.env:
                return self.env[dotted]
            return self._eval(node.value)
        if isinstance(node, (ast.Set,)):
            taint = self._union(node.elts)
            return taint.union(self._order_source(node, "a set literal"))
        if isinstance(node, ast.SetComp):
            taint = self._comp_taint(node)
            return taint.union(
                self._order_source(node, "a set comprehension")
            )
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._comp_taint(node)
        if isinstance(node, ast.DictComp):
            return self._comp_taint(node, keys=True)
        if isinstance(node, (ast.List, ast.Tuple)):
            return self._union(node.elts)
        if isinstance(node, ast.Dict):
            parts = [k for k in node.keys if k is not None] + node.values
            return self._union(parts)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left).union(self._eval(node.right))
        if isinstance(node, ast.BoolOp):
            return self._union(node.values)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            self._union(node.comparators)
            return CLEAN  # a bool carries no byte-order or entropy
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body).union(self._eval(node.orelse))
        if isinstance(node, ast.Subscript):
            self._eval(node.slice)
            return self._eval(node.value)
        if isinstance(node, ast.JoinedStr):
            return self._union(
                [v.value if isinstance(v, ast.FormattedValue) else v
                 for v in node.values]
            )
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Lambda):
            return CLEAN
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._eval(node.value)  # type: ignore[arg-type]
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self._record_return(self._eval(node.value))
            return CLEAN
        if isinstance(node, ast.NamedExpr):
            taint = self._eval(node.value)
            self._bind(node.target, taint, node.value)
            return taint
        taints = [
            self._eval(child)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        ]
        out = CLEAN
        for taint in taints:
            out = out.union(taint)
        return out

    def _union(self, nodes: Sequence[ast.expr]) -> TaintInfo:
        out = CLEAN
        for node in nodes:
            out = out.union(self._eval(node))
        return out

    def _comp_taint(self, node, keys: bool = False) -> TaintInfo:
        taint = CLEAN
        for gen in node.generators:
            iter_taint = self._eval(gen.iter)
            self._bind(gen.target, iter_taint, gen.iter)
            taint = taint.union(iter_taint)
            for cond in gen.ifs:
                self._eval(cond)
        if keys:
            taint = taint.union(self._eval(node.key))
            taint = taint.union(self._eval(node.value))
        else:
            taint = taint.union(self._eval(node.elt))
        return taint

    def _order_source(self, node: ast.AST, what: str) -> TaintInfo:
        return TaintInfo.source(
            Taint.ORDER,
            Origin(what, self.ctx.path, getattr(node, "lineno", 1)),
        )

    # -- calls ------------------------------------------------------------

    def _eval_call(self, node: ast.Call) -> TaintInfo:
        args_taint = [self._eval(a) for a in node.args]
        kwargs_taint = [self._eval(k.value) for k in node.keywords]
        all_taint = CLEAN
        for taint in args_taint + kwargs_taint:
            all_taint = all_taint.union(taint)

        dotted = self.ctx.imports.resolve(node.func)
        func = node.func

        # Builtin sanitizers / constructors by bare name.
        if isinstance(func, ast.Name):
            if func.id in ORDER_SANITIZERS:
                return all_taint.without(int(Taint.ORDER))
            if func.id in ("set", "frozenset"):
                return all_taint.union(
                    self._order_source(node, f"{func.id}(...)")
                )
            if func.id in ("list", "tuple", "iter", "reversed", "dict"):
                return all_taint
            if func.id == "id":
                return TaintInfo.source(
                    Taint.ENTROPY,
                    Origin("id(...)", self.ctx.path, node.lineno),
                )

        if dotted is not None:
            if dotted in ENTROPY_SOURCES:
                return TaintInfo.source(
                    Taint.ENTROPY,
                    Origin(f"{dotted}()", self.ctx.path, node.lineno),
                )
            if dotted in WALL_CLOCK_CALLS:
                return TaintInfo.source(
                    Taint.CLOCK,
                    Origin(f"{dotted}()", self.ctx.path, node.lineno),
                )
            if dotted in LISTING_SOURCES:
                return TaintInfo.source(
                    Taint.ORDER,
                    Origin(f"{dotted}()", self.ctx.path, node.lineno),
                )
            if dotted in RNG_CONSTRUCTORS and _is_unseeded(node):
                return TaintInfo.source(
                    Taint.ENTROPY,
                    Origin(
                        f"unseeded {dotted}()", self.ctx.path, node.lineno
                    ),
                )
            if dotted in HASHLIB_CONSTRUCTORS:
                self._sink(node, "digest", f"{dotted}()", args_taint)
                return CLEAN  # the hash object itself is deterministic
            if dotted in SINK_CALLS:
                sink_taints = args_taint + kwargs_taint
                if (
                    self._sorts_keys(node)
                    and node.args
                    and isinstance(node.args[0], (ast.Dict, ast.DictComp))
                ):
                    # sort_keys=True canonicalizes dict key order at every
                    # nesting level, so ORDER picked up building a
                    # dict-shaped payload (e.g. a comprehension over a
                    # listing) cannot reach the serialized bytes.  Only
                    # the syntactic dict shape gets this: a list argument
                    # is not reordered by sort_keys.
                    sink_taints = (
                        [args_taint[0].without(int(Taint.ORDER))]
                        + args_taint[1:]
                        + kwargs_taint
                    )
                self._sink(
                    node, SINK_CALLS[dotted], f"{dotted}()", sink_taints
                )
                return all_taint.without(int(Taint.ORDER)) if (
                    self._sorts_keys(node)
                ) else all_taint

        # `h.update(x)` on a tracked hashlib object.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "update"
            and isinstance(func.value, ast.Name)
            and self.kinds.get(func.value.id) == "hash"
        ):
            self._sink(
                node, "digest", f"{func.value.id}.update()", args_taint
            )
            return CLEAN
        if isinstance(func, ast.Attribute) and func.attr == "sort":
            if isinstance(func.value, ast.Name):
                name = func.value.id
                self.env[name] = self.env.get(name, CLEAN).without(
                    int(Taint.ORDER)
                )
            return CLEAN

        # Project-internal call: apply the callee's summary.
        symbol = self._resolve_target(node)
        applied = self.analysis.summary_for(symbol)
        if applied is not None and applied[0] is not None:
            summary, offset = applied
            return self._apply_summary(
                node, summary, offset, args_taint, kwargs_taint, all_taint
            )

        # Unknown call: taint flows through, conservatively.
        receiver = CLEAN
        if isinstance(func, ast.Attribute):
            receiver = self._eval(func.value)
            if func.attr in CONTAINER_MUTATORS:
                self._taint_container(func.value, all_taint)
        return all_taint.union(receiver)

    def _sorts_keys(self, node: ast.Call) -> bool:
        for kw in node.keywords:
            if kw.arg == "sort_keys" and isinstance(
                kw.value, ast.Constant
            ):
                return bool(kw.value.value)
        return False

    def _resolve_target(self, node: ast.Call):
        func = node.func
        # self.method(...) resolves against the enclosing class.
        if (
            self._class is not None
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return self._class.methods.get(func.attr)
        return self.analysis.symbols.resolve_in_file(self.ctx, func)

    def _apply_summary(
        self,
        node: ast.Call,
        summary: FunctionSummary,
        offset: int,
        args_taint: List[TaintInfo],
        kwargs_taint: List[TaintInfo],
        all_taint: TaintInfo,
    ) -> TaintInfo:
        # Positional args map to params offset..; keyword args are folded
        # into "any param" conservatively (they still reach sinks).
        for sink_param, sinks in summary.param_to_sink.items():
            arg_index = sink_param - offset
            candidates: List[TaintInfo] = []
            if 0 <= arg_index < len(args_taint):
                candidates.append(args_taint[arg_index])
            elif kwargs_taint:
                candidates.extend(kwargs_taint)
            for taint in candidates:
                if taint.flags:
                    for sink in sinks:
                        self._deliver(node, sink, taint)
        result = summary.returns
        for ret_param in summary.param_to_return:
            arg_index = ret_param - offset
            if 0 <= arg_index < len(args_taint):
                result = result.union(args_taint[arg_index])
            elif kwargs_taint:
                for taint in kwargs_taint:
                    result = result.union(taint)
        if summary.sanitizes_order:
            result = result.without(int(Taint.ORDER))
        return result

    # -- sinks ------------------------------------------------------------

    def _sink(
        self,
        node: ast.Call,
        kind: str,
        description: str,
        taints: Sequence[TaintInfo],
    ) -> None:
        point = SinkPoint(
            kind=kind,
            path=self.ctx.path,
            line=node.lineno,
            col=node.col_offset,
            description=description,
        )
        combined = CLEAN
        for taint in taints:
            combined = combined.union(taint)
        self._deliver(node, point, combined)

    def _deliver(
        self, node: ast.Call, sink: SinkPoint, taint: TaintInfo
    ) -> None:
        # Parameter bits become summary entries; real taint becomes hits.
        for i in range(min(len(self.param_names), MAX_TRACKED_PARAMS)):
            if taint.flags & param_bit(i):
                existing = self.summary.param_to_sink.get(i, ())
                if sink not in existing:
                    self.summary.param_to_sink[i] = existing + (sink,)
        if self.collect and taint.real:
            via = None
            if (sink.path, sink.line) != (self.ctx.path, node.lineno):
                via = (self.ctx.path, node.lineno)
            self.analysis.hits.append(
                SinkHit(
                    sink=sink,
                    taint=TaintInfo(
                        taint.real,
                        {
                            k: v for k, v in taint.origins.items()
                            if k & REAL_TAINT_MASK
                        },
                    ),
                    via=via,
                )
            )

    def _value_kind(self, value: ast.expr) -> str:
        if isinstance(value, ast.Call):
            dotted = self.ctx.imports.resolve(value.func)
            if dotted in HASHLIB_CONSTRUCTORS:
                return "hash"
        return ""
