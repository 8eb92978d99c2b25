"""Per-module summaries: the facts phase 1 extracts for phase 2.

The engine never ships ASTs between processes.  Each file is distilled,
in parallel, into a :class:`ModuleSummary`: imports, exported names,
external references, and one :class:`FunctionSummary` per module-level
function and method.  A function summary holds exactly what the
project rules read:

* **call sites** with best-effort *resolved* dotted targets (``helper`` ->
  ``repro.codec.decoder.helper``, ``self.read_qp`` ->
  ``repro.codec.decoder.Decoder.read_qp``, ``pc()`` imported via ``from
  time import perf_counter as pc`` -> ``time.perf_counter``) and the
  handler names of every enclosing ``try`` -- the call graph (VL006);
* **raises** with the exception name and the same handler names (an
  exception caught in-function never escapes) -- VL006.

Exports, external references and package re-export edges feed VL008.
Nested ``def``/``class`` bodies are not summarized.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.registry import ModuleInfo

__all__ = [
    "FunctionSummary",
    "ModuleSummary",
    "extract_summary",
]

#: Name of the pseudo-function holding module-scope statements.
MODULE_SCOPE = "<module>"


@dataclass(frozen=True)
class CallSite:
    """One call expression, with its resolved target."""

    target: str  # resolved dotted name, "" when dynamic
    line: int
    col: int
    handled: Tuple[str, ...]  # exception names caught around this site


@dataclass(frozen=True)
class RaiseFact:
    """One ``raise Name(...)`` statement (bare re-raises are omitted)."""

    name: str
    line: int
    col: int
    handled: Tuple[str, ...]


@dataclass(frozen=True)
class ExportFact:
    """One name listed in the module's ``__all__``."""

    name: str
    line: int
    col: int


@dataclass(frozen=True)
class FunctionSummary:
    """The call and raise facts of one function or method."""

    name: str  # qualname within the module: "f", "C.m", "<module>"
    line: int
    col: int
    calls: Tuple[CallSite, ...] = ()
    raises: Tuple[RaiseFact, ...] = ()


@dataclass(frozen=True)
class ModuleSummary:
    """Everything phase 2 needs to know about one module."""

    module: str
    path: str
    functions: Tuple[FunctionSummary, ...] = ()
    exports: Tuple[ExportFact, ...] = ()
    refs: Tuple[str, ...] = ()  # external dotted names referenced
    reexports: Tuple[Tuple[str, str], ...] = ()  # (local name, source dotted)


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
# The extractor
# ---------------------------------------------------------------------------


def _walk_preorder(node: ast.AST) -> List[ast.AST]:
    out: List[ast.AST] = []
    stack = [node]
    while stack:
        current = stack.pop()
        out.append(current)
        stack.extend(reversed(list(ast.iter_child_nodes(current))))
    return out


class _FunctionExtractor:
    """Builds one :class:`FunctionSummary` from a statement list."""

    def __init__(
        self,
        imports: _Imports,
        module: str,
        qualname: str,
        line: int,
        col: int,
        local_names: set,
        class_name: Optional[str] = None,
        class_methods: Optional[set] = None,
    ) -> None:
        self.imports = imports
        self.module = module
        self.qualname = qualname
        self.line = line
        self.col = col
        self.local_names = local_names
        self.class_name = class_name
        self.class_methods = class_methods or set()
        self._calls: List[CallSite] = []
        self._raises: List[RaiseFact] = []

    def run(self, body: Sequence[ast.stmt]) -> FunctionSummary:
        self._visit_block(body, handled=())
        return FunctionSummary(
            name=self.qualname,
            line=self.line,
            col=self.col,
            calls=tuple(self._calls),
            raises=tuple(self._raises),
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
        for expr in _stmt_exprs(stmt):
            for node in _walk_preorder(expr):
                if isinstance(node, ast.Call):
                    self._calls.append(
                        CallSite(
                            target=self._resolve(node.func),
                            line=node.lineno,
                            col=node.col_offset + 1,
                            handled=handled,
                        )
                    )
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
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
        if isinstance(func, ast.Name) and func.id in self.local_names:
            return f"{self.module}.{func.id}"
        return self.imports.resolve_call(func)


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
# Module-level extraction
# ---------------------------------------------------------------------------


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
    reference: bool,
) -> Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...]]:
    """External dotted references and (for package inits) re-export edges.

    In a ``reference`` file (tests, examples) ``from X import name`` is a
    use only if the file reads ``name``; in linted modules every import
    counts (``TYPE_CHECKING`` and string-annotation imports are uses there).
    """
    read = reference and {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
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
                elif not reference or local in read:
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


def extract_summary(info: ModuleInfo, reference: bool = False) -> ModuleSummary:
    """Phase 1: distill one parsed module into its summary."""
    tree = info.tree
    is_init = info.is_package_init
    imports = _Imports(tree, info.module, is_init)
    # Module-level functions and classes: a bare-name call to either
    # resolves within this module.
    local_names = {
        node.name
        for node in tree.body
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    }
    functions: List[FunctionSummary] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(
                _FunctionExtractor(
                    imports,
                    info.module,
                    node.name,
                    node.lineno,
                    node.col_offset + 1,
                    local_names,
                ).run(node.body)
            )
        elif isinstance(node, ast.ClassDef):
            methods = [
                item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            method_names = {item.name for item in methods}
            for item in methods:
                functions.append(
                    _FunctionExtractor(
                        imports,
                        info.module,
                        f"{node.name}.{item.name}",
                        item.lineno,
                        item.col_offset + 1,
                        local_names,
                        class_name=node.name,
                        class_methods=method_names,
                    ).run(item.body)
                )
    # Module-scope statements form a pseudo-function so module-level calls
    # participate in the call graph (e.g. a module-level clock read).
    functions.append(
        _FunctionExtractor(
            imports, info.module, MODULE_SCOPE, 1, 1, local_names
        ).run(tree.body)
    )

    exports = _find_exports(tree)
    refs, reexports = _collect_refs(
        tree, info.module, is_init, imports, {e.name for e in exports}, reference
    )
    return ModuleSummary(
        module=info.module,
        path=info.path,
        functions=tuple(functions),
        exports=tuple(exports),
        refs=refs,
        reexports=reexports,
    )
