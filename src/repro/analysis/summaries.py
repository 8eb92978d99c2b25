"""Per-module summaries: the facts phase 1 extracts for whole-program lint.

The whole-program engine never ships ASTs between processes.  Each file
is distilled, in parallel, into a :class:`ModuleSummary`: imports,
exported names, external references, and one :class:`FunctionSummary` per
module-level function and method.  A function summary is a tiny picklable
dataflow IR:

* **call sites** with best-effort *resolved* dotted targets (``helper`` ->
  ``repro.codec.decoder.helper``, ``self.read_qp`` ->
  ``repro.codec.decoder.Decoder.read_qp``, ``pc()`` imported via ``from
  time import perf_counter as pc`` -> ``time.perf_counter``) and per-arg
  facts (names read, nested calls, whether the arg is exactly a bare
  parameter);
* **assignments** and **returns** with the names/calls their value is
  built from, split into *structural* positions (the value itself, or an
  operand of arithmetic/boolean/tuple composition -- taint propagates) and
  *anywhere* positions (buried inside another call's arguments -- taint is
  considered laundered into that call's result, except at sink checks);
* **raises** with the exception name and the handler names of every
  enclosing ``try`` (an exception caught in-function never escapes);
* **arithmetic uses** of bare names (the VL002 wraparound hazard).

Everything is ordered by a ``seq`` counter in statement order so phase 2
can replay forward dataflow without the source.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.checkers.dtype_safety import (
    _is_narrowing_cast,
    _is_uint8_constructor,
)
from repro.analysis.registry import ModuleInfo

__all__ = [
    "ArgFact",
    "CallSite",
    "FunctionSummary",
    "ModuleSummary",
    "extract_summary",
]

#: Name of the pseudo-function holding module-scope statements.
MODULE_SCOPE = "<module>"

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult)


@dataclass(frozen=True)
class ArgFact:
    """One argument at one call site."""

    names: Tuple[str, ...]  # bare names read anywhere in the arg expr
    calls: Tuple[int, ...]  # call-site indices nested anywhere in the arg
    top_names: Tuple[str, ...]  # names at structural (taint-carrying) slots
    top_calls: Tuple[int, ...]  # calls at structural slots
    uint8: bool  # structural narrowing cast / uint8 constructor
    param: Optional[int]  # caller param index when the arg IS that param
    kw: Optional[str]  # keyword name, None for positional


@dataclass(frozen=True)
class CallSite:
    """One call expression, with its resolved target and argument facts."""

    index: int
    target: str  # resolved dotted name, "" when dynamic
    leaf: str  # raw terminal name of the callee ("" when unnameable)
    line: int
    col: int
    seq: int
    args: Tuple[ArgFact, ...]
    handled: Tuple[str, ...]  # exception names caught around this site


@dataclass(frozen=True)
class AssignFact:
    """``targets = value`` with the value's dataflow facts."""

    targets: Tuple[str, ...]
    names: Tuple[str, ...]
    calls: Tuple[int, ...]
    top_names: Tuple[str, ...]
    top_calls: Tuple[int, ...]
    uint8: bool
    seq: int


@dataclass(frozen=True)
class ReturnFact:
    """One ``return value`` statement."""

    names: Tuple[str, ...]
    calls: Tuple[int, ...]
    top_names: Tuple[str, ...]
    top_calls: Tuple[int, ...]
    uint8: bool
    seq: int


@dataclass(frozen=True)
class RaiseFact:
    """One ``raise Name(...)`` statement (bare re-raises are omitted)."""

    name: str
    line: int
    col: int
    handled: Tuple[str, ...]


@dataclass(frozen=True)
class ArithFact:
    """A bare name used as an operand of ``+ - *``."""

    name: str
    line: int
    col: int
    seq: int


@dataclass(frozen=True)
class ExportFact:
    """One name listed in the module's ``__all__``."""

    name: str
    line: int
    col: int


@dataclass(frozen=True)
class FunctionSummary:
    """The dataflow IR of one function or method."""

    name: str  # qualname within the module: "f", "C.m", "<module>"
    line: int
    col: int
    params: Tuple[str, ...]  # self/cls dropped for methods
    is_method: bool
    decode_path: bool  # matches VL006's decode-path criteria
    calls: Tuple[CallSite, ...] = ()
    assigns: Tuple[AssignFact, ...] = ()
    returns: Tuple[ReturnFact, ...] = ()
    raises: Tuple[RaiseFact, ...] = ()
    ariths: Tuple[ArithFact, ...] = ()


@dataclass(frozen=True)
class ModuleSummary:
    """Everything phase 2 needs to know about one module."""

    module: str
    path: str
    functions: Tuple[FunctionSummary, ...] = ()
    exports: Tuple[ExportFact, ...] = ()
    refs: Tuple[str, ...] = ()  # external dotted names referenced
    reexports: Tuple[Tuple[str, str], ...] = ()  # (local name, source dotted)
    is_package_init: bool = False


# ---------------------------------------------------------------------------
# Import resolution (local alias -> absolute dotted name)
# ---------------------------------------------------------------------------


class _Imports:
    """The module's view of the outside world.

    ``modules`` maps a local alias to an absolute module path (``import
    numpy as np`` -> ``np: numpy``); ``names`` maps a local alias to an
    absolute dotted attribute (``from time import perf_counter as pc`` ->
    ``pc: time.perf_counter``).  Relative imports are resolved against the
    summarized module's own dotted name.
    """

    def __init__(self, tree: ast.Module, module: str, is_init: bool) -> None:
        self.modules: Dict[str, str] = {}
        self.names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name
                    if alias.asname:
                        self.modules[local] = target
                    else:
                        # `import a.b.c` binds `a`; attribute chains walk
                        # from there.
                        self.modules[local] = alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                base = _absolute_from(node, module, is_init)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.names[local] = f"{base}.{alias.name}"

    def resolve_call(self, func: ast.AST) -> str:
        """Absolute dotted target of a call, '' when dynamic."""
        chain: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return ""
        chain.append(node.id)
        chain.reverse()
        root = chain[0]
        if len(chain) == 1:
            return self.names.get(root, "")
        if root in self.modules:
            return ".".join([self.modules[root]] + chain[1:])
        if root in self.names:
            # e.g. `from repro.codec import errors; errors.CorruptPayload`
            return ".".join([self.names[root]] + chain[1:])
        return ""


def _absolute_from(
    node: ast.ImportFrom, module: str, is_init: bool
) -> Optional[str]:
    """Absolute module a ``from X import ...`` pulls from."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    # For a package __init__, `.` refers to the package itself; for a
    # plain module it refers to the containing package.
    drop = node.level - 1 if is_init else node.level
    if drop > len(parts):
        return None
    base = parts[: len(parts) - drop]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


# ---------------------------------------------------------------------------
# Expression fact collection
# ---------------------------------------------------------------------------


def _walk_preorder(node: ast.AST) -> List[ast.AST]:
    out: List[ast.AST] = []
    stack = [node]
    while stack:
        current = stack.pop()
        out.append(current)
        stack.extend(reversed(list(ast.iter_child_nodes(current))))
    return out


def _expr_names(expr: ast.AST) -> Tuple[str, ...]:
    """Bare names read anywhere in ``expr``, excluding call-func heads."""
    func_heads = set()
    for node in _walk_preorder(expr):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            func_heads.add(id(node.func))
    names: List[str] = []
    for node in _walk_preorder(expr):
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in func_heads
            and node.id not in names
        ):
            names.append(node.id)
    return tuple(names)


_STRUCTURAL_PAIRS = (
    (ast.BinOp, ("left", "right")),
    (ast.BoolOp, ("values",)),
    (ast.UnaryOp, ("operand",)),
    (ast.IfExp, ("body", "orelse")),
    (ast.Tuple, ("elts",)),
    (ast.List, ("elts",)),
    (ast.Starred, ("value",)),
    (ast.Subscript, ("value",)),
    (ast.Await, ("value",)),
)


def _structural_leaves(expr: ast.AST) -> List[ast.AST]:
    """Terminal nodes at value-carrying positions of ``expr``.

    Taint propagates through arithmetic, boolean composition, conditional
    expressions, tuples/lists, and subscripts; it does *not* propagate out
    of a value buried inside another call's arguments (that call's result
    is a new object).
    """
    for node_type, fields in _STRUCTURAL_PAIRS:
        if isinstance(expr, node_type):
            leaves: List[ast.AST] = []
            for name in fields:
                value = getattr(expr, name)
                children = value if isinstance(value, list) else [value]
                for child in children:
                    leaves.extend(_structural_leaves(child))
            return leaves
    return [expr]


def _is_uint8_expr(expr: ast.AST) -> bool:
    return isinstance(expr, ast.Call) and (
        _is_narrowing_cast(expr) or _is_uint8_constructor(expr)
    )


# ---------------------------------------------------------------------------
# The extractor
# ---------------------------------------------------------------------------


class _FunctionExtractor:
    """Builds one :class:`FunctionSummary` from a statement list."""

    def __init__(
        self,
        imports: _Imports,
        module: str,
        qualname: str,
        params: Sequence[str],
        is_method: bool,
        decode_path: bool,
        line: int,
        col: int,
        class_name: Optional[str] = None,
        class_methods: Optional[set] = None,
        local_defs: Optional[set] = None,
        local_classes: Optional[set] = None,
    ) -> None:
        self.imports = imports
        self.module = module
        self.qualname = qualname
        self.params = tuple(params)
        self.is_method = is_method
        self.decode_path = decode_path
        self.line = line
        self.col = col
        self.class_name = class_name
        self.class_methods = class_methods or set()
        self.local_defs = local_defs or set()
        self.local_classes = local_classes or set()
        self._seq = 0
        self._calls: List[CallSite] = []
        self._call_index: Dict[int, int] = {}  # id(node) -> call index
        self._assigns: List[AssignFact] = []
        self._returns: List[ReturnFact] = []
        self._raises: List[RaiseFact] = []
        self._ariths: List[ArithFact] = []

    def run(self, body: Sequence[ast.stmt]) -> FunctionSummary:
        self._visit_block(body, handled=())
        return FunctionSummary(
            name=self.qualname,
            line=self.line,
            col=self.col,
            params=self.params,
            is_method=self.is_method,
            decode_path=self.decode_path,
            calls=tuple(self._calls),
            assigns=tuple(self._assigns),
            returns=tuple(self._returns),
            raises=tuple(self._raises),
            ariths=tuple(self._ariths),
        )

    # -- statement traversal ------------------------------------------------

    def _visit_block(
        self, body: Sequence[ast.stmt], handled: Tuple[str, ...]
    ) -> None:
        for stmt in body:
            self._visit_stmt(stmt, handled)

    def _visit_stmt(self, stmt: ast.stmt, handled: Tuple[str, ...]) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested scopes summarize separately (or not at all)
        if isinstance(stmt, ast.Try):
            caught = tuple(_handler_names(stmt))
            self._visit_block(stmt.body, handled + caught)
            for handler in stmt.handlers:
                self._visit_block(handler.body, handled)
            self._visit_block(stmt.orelse, handled)
            self._visit_block(stmt.finalbody, handled)
            return
        # Register expression facts of this statement first.
        for expr in _stmt_exprs(stmt):
            self._register_calls(expr, handled)
            self._register_ariths(expr)
        if isinstance(stmt, ast.Assign):
            self._record_assign(
                [t.id for t in stmt.targets if isinstance(t, ast.Name)],
                stmt.value,
            )
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                self._record_assign([stmt.target.id], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                # `x += e` reads x and e; model as x = x <op> e.
                fact = self._expr_facts(stmt.value)
                self._assigns.append(
                    AssignFact(
                        targets=(stmt.target.id,),
                        names=tuple(
                            dict.fromkeys((stmt.target.id,) + fact[0])
                        ),
                        calls=fact[1],
                        top_names=tuple(
                            dict.fromkeys((stmt.target.id,) + fact[2])
                        ),
                        top_calls=fact[3],
                        uint8=fact[4],
                        seq=self._next_seq(),
                    )
                )
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                fact = self._expr_facts(stmt.value)
                self._returns.append(
                    ReturnFact(
                        names=fact[0],
                        calls=fact[1],
                        top_names=fact[2],
                        top_calls=fact[3],
                        uint8=fact[4],
                        seq=self._next_seq(),
                    )
                )
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                name = _raised_leaf(stmt.exc)
                if name:
                    self._raises.append(
                        RaiseFact(
                            name=name,
                            line=stmt.lineno,
                            col=stmt.col_offset + 1,
                            handled=handled,
                        )
                    )
        # Recurse into nested statement blocks (if/for/while/with).
        for name in ("body", "orelse", "finalbody"):
            nested = getattr(stmt, name, None)
            if isinstance(nested, list) and nested and isinstance(
                nested[0], ast.stmt
            ):
                self._visit_block(nested, handled)

    # -- fact recording -----------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _register_calls(
        self, expr: ast.AST, handled: Tuple[str, ...]
    ) -> None:
        for node in _walk_preorder(expr):
            if not isinstance(node, ast.Call) or id(node) in self._call_index:
                continue
            index = len(self._calls)
            self._call_index[id(node)] = index
            # Args are registered below, after nested calls get indices.
            self._calls.append(
                CallSite(
                    index=index,
                    target=self._resolve(node.func),
                    leaf=_raised_leaf(node.func),
                    line=node.lineno,
                    col=node.col_offset + 1,
                    seq=self._next_seq(),
                    args=(),
                    handled=handled,
                )
            )
        # Second pass: now that every nested call has an index, build args.
        for node in _walk_preorder(expr):
            if not isinstance(node, ast.Call):
                continue
            index = self._call_index[id(node)]
            if self._calls[index].args:
                continue
            args: List[ArgFact] = []
            for arg in node.args:
                args.append(self._arg_fact(arg, None))
            for kw in node.keywords:
                if kw.arg is not None:
                    args.append(self._arg_fact(kw.value, kw.arg))
            site = self._calls[index]
            self._calls[index] = CallSite(
                index=site.index,
                target=site.target,
                leaf=site.leaf,
                line=site.line,
                col=site.col,
                seq=site.seq,
                args=tuple(args),
                handled=site.handled,
            )

    def _arg_fact(self, expr: ast.AST, kw: Optional[str]) -> ArgFact:
        names, calls, top_names, top_calls, uint8 = self._expr_facts(expr)
        param: Optional[int] = None
        if isinstance(expr, ast.Name) and expr.id in self.params:
            param = self.params.index(expr.id)
        return ArgFact(
            names=names,
            calls=calls,
            top_names=top_names,
            top_calls=top_calls,
            uint8=uint8,
            param=param,
            kw=kw,
        )

    def _expr_facts(
        self, expr: ast.AST
    ) -> Tuple[
        Tuple[str, ...], Tuple[int, ...], Tuple[str, ...], Tuple[int, ...],
        bool,
    ]:
        names = _expr_names(expr)
        calls = tuple(
            self._call_index[id(node)]
            for node in _walk_preorder(expr)
            if isinstance(node, ast.Call) and id(node) in self._call_index
        )
        top_names: List[str] = []
        top_calls: List[int] = []
        for leaf in _structural_leaves(expr):
            if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load):
                if leaf.id not in top_names:
                    top_names.append(leaf.id)
            elif isinstance(leaf, ast.Call):
                if id(leaf) in self._call_index:
                    top_calls.append(self._call_index[id(leaf)])
        # uint8 means the value *is* a narrowing cast / uint8 constructor
        # (mirrors the local VL002 state machine, which only treats exact
        # cast assignments as producing uint8).
        return names, calls, tuple(top_names), tuple(top_calls), (
            _is_uint8_expr(expr)
        )

    def _record_assign(self, targets: List[str], value: ast.AST) -> None:
        if not targets:
            return
        names, calls, top_names, top_calls, uint8 = self._expr_facts(value)
        self._assigns.append(
            AssignFact(
                targets=tuple(targets),
                names=names,
                calls=calls,
                top_names=top_names,
                top_calls=top_calls,
                uint8=uint8,
                seq=self._next_seq(),
            )
        )

    def _register_ariths(self, expr: ast.AST) -> None:
        for node in _walk_preorder(expr):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, _ARITH_OPS):
                continue
            for side in (node.left, node.right):
                if isinstance(side, ast.Name):
                    self._ariths.append(
                        ArithFact(
                            name=side.id,
                            line=node.lineno,
                            col=node.col_offset + 1,
                            seq=self._next_seq(),
                        )
                    )

    # -- call target resolution ---------------------------------------------

    def _resolve(self, func: ast.AST) -> str:
        # self.method(...) / cls.method(...) within a class.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and self.class_name is not None
        ):
            if func.attr in self.class_methods:
                return f"{self.module}.{self.class_name}.{func.attr}"
            return ""
        if isinstance(func, ast.Name):
            if func.id in self.local_defs:
                return f"{self.module}.{func.id}"
            if func.id in self.local_classes:
                return f"{self.module}.{func.id}"
        resolved = self.imports.resolve_call(func)
        if resolved:
            return resolved
        return ""


def _stmt_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """Expression children of one statement (no nested statements)."""
    return [
        child
        for child in ast.iter_child_nodes(stmt)
        if not isinstance(
            child,
            (ast.stmt, ast.ExceptHandler, ast.arguments, ast.withitem),
        )
    ] + [
        item.context_expr
        for item in getattr(stmt, "items", [])
        if isinstance(item, ast.withitem)
    ]


def _handler_names(node: ast.Try) -> List[str]:
    names: List[str] = []
    for handler in node.handlers:
        if handler.type is None:
            names.append("BaseException")
        else:
            types = (
                handler.type.elts
                if isinstance(handler.type, ast.Tuple)
                else [handler.type]
            )
            for entry in types:
                leaf = _raised_leaf(entry)
                if leaf:
                    names.append(leaf)
    return names


def _raised_leaf(expr: ast.AST) -> str:
    target = expr
    if isinstance(target, ast.Call):
        target = target.func
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return ""


# ---------------------------------------------------------------------------
# VL006 decode-path criteria (mirrors checkers.exceptions)
# ---------------------------------------------------------------------------

_DECODE_PREFIXES = ("read_", "decode_")
_DECODE_CLASS_TAGS = ("Decoder", "Reader")


def _is_decode_name(name: str) -> bool:
    bare = name.lstrip("_")
    return bare in ("read", "decode") or bare.startswith(_DECODE_PREFIXES)


def _is_decode_class(name: str) -> bool:
    return any(tag in name for tag in _DECODE_CLASS_TAGS)


# ---------------------------------------------------------------------------
# Module-level extraction
# ---------------------------------------------------------------------------


def _fn_params(fn: ast.AST, is_method: bool) -> List[str]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs] if hasattr(
        args, "posonlyargs"
    ) else []
    names += [a.arg for a in args.args]
    if is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def _find_exports(tree: ast.Module) -> List[ExportFact]:
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if not isinstance(node.value, (ast.List, ast.Tuple)):
                    return []
                out: List[ExportFact] = []
                for element in node.value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        out.append(
                            ExportFact(
                                name=element.value,
                                line=element.lineno,
                                col=element.col_offset + 1,
                            )
                        )
                return out
    return []


def _collect_refs(
    tree: ast.Module,
    module: str,
    is_init: bool,
    imports: _Imports,
    export_names: set,
) -> Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...]]:
    """External dotted references and (for package inits) re-export edges."""
    refs: List[str] = []
    reexports: List[Tuple[str, str]] = []
    seen = set()

    def add_ref(dotted: str) -> None:
        if dotted not in seen:
            seen.add(dotted)
            refs.append(dotted)

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = _absolute_from(node, module, is_init)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    add_ref(f"{base}.*")
                    continue
                local = alias.asname or alias.name
                dotted = f"{base}.{alias.name}"
                if is_init and local in export_names:
                    reexports.append((local, dotted))
                else:
                    add_ref(dotted)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b.c` references module a.b.c itself.
                add_ref(alias.name)
    # Attribute chains rooted at a module alias: `np.random`, `mod.attr`.
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain: List[str] = []
        current: ast.AST = node
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            continue
        chain.append(current.id)
        chain.reverse()
        root = chain[0]
        # Chains root at either kind of alias: `import repro.exec` binds
        # `repro`; `from repro.exec import cache` binds `cache` as a name
        # alias -- `cache.cache_key(...)` is a use of that module's member.
        resolved = imports.modules.get(root) or imports.names.get(root)
        if resolved is None:
            continue
        # Walk the chain as deep as the dots go, referencing each
        # module.attr prefix.
        dotted = resolved
        for attr in chain[1:]:
            add_ref(f"{dotted}.{attr}")
            dotted = f"{dotted}.{attr}"
    return tuple(refs), tuple(reexports)


def extract_summary(info: ModuleInfo) -> ModuleSummary:
    """Phase 1: distill one parsed module into its summary."""
    tree = info.tree
    is_init = info.is_package_init
    imports = _Imports(tree, info.module, is_init)
    local_defs = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    local_classes = {
        node.name for node in tree.body if isinstance(node, ast.ClassDef)
    }
    functions: List[FunctionSummary] = []

    def summarize(
        fn: ast.AST,
        qualname: str,
        is_method: bool,
        decode_path: bool,
        class_name: Optional[str],
        class_methods: Optional[set],
    ) -> None:
        extractor = _FunctionExtractor(
            imports=imports,
            module=info.module,
            qualname=qualname,
            params=_fn_params(fn, is_method),
            is_method=is_method,
            decode_path=decode_path,
            line=fn.lineno,
            col=fn.col_offset + 1,
            class_name=class_name,
            class_methods=class_methods,
            local_defs=local_defs,
            local_classes=local_classes,
        )
        functions.append(extractor.run(fn.body))

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summarize(
                node,
                node.name,
                is_method=False,
                decode_path=_is_decode_name(node.name),
                class_name=None,
                class_methods=None,
            )
        elif isinstance(node, ast.ClassDef):
            methods = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            class_is_decoder = _is_decode_class(node.name)
            for item in node.body:
                if not isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                summarize(
                    item,
                    f"{node.name}.{item.name}",
                    is_method=True,
                    decode_path=class_is_decoder
                    or _is_decode_name(item.name),
                    class_name=node.name,
                    class_methods=methods,
                )
    # Module-scope statements form a pseudo-function so module-level calls
    # participate in the call graph (e.g. a module-level clock read).
    module_extractor = _FunctionExtractor(
        imports=imports,
        module=info.module,
        qualname=MODULE_SCOPE,
        params=(),
        is_method=False,
        decode_path=False,
        line=1,
        col=1,
        local_defs=local_defs,
        local_classes=local_classes,
    )
    functions.append(module_extractor.run(tree.body))

    exports = _find_exports(tree)
    refs, reexports = _collect_refs(
        tree, info.module, is_init, imports, {e.name for e in exports}
    )
    return ModuleSummary(
        module=info.module,
        path=info.path,
        functions=tuple(functions),
        exports=tuple(exports),
        refs=refs,
        reexports=reexports,
        is_package_init=is_init,
    )
