"""VL002: dtype-safety -- uint8 frame math must widen, narrowing must clip.

Frame planes are ``uint8``.  Two silent-wraparound hazards recur in codec
code and both have bitten real encoders:

* **Arithmetic on uint8 arrays.** ``a - b`` on two uint8 planes wraps at
  0/255 instead of going negative; residuals computed this way are garbage
  that still *looks* like a residual.  Any ``+ - *`` arithmetic on a value
  locally known to be uint8 (assigned from ``.astype(np.uint8)`` or a
  ``dtype=np.uint8`` constructor) must be preceded by a widening
  ``astype``.
* **Narrowing casts without a clip.** ``x.astype(np.uint8)`` truncates
  modulo 256.  A narrowing cast is sanctioned only when its operand is
  dominated by ``np.clip`` (possibly through ``np.rint``/``np.round`` or a
  local assigned from a clip), is a boolean expression (comparisons), or is
  an explicit range-limited mask (``& K`` with ``K <= 255``, ``% 256``) --
  the idioms that make the wraparound impossible or intentional.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, ModuleInfo, register

__all__ = ["DtypeSafetyChecker"]

_ROUNDERS = {"rint", "round", "round_", "floor", "ceil", "abs", "absolute"}
_UINT8_CONSTRUCTORS = {"zeros", "ones", "empty", "full", "frombuffer", "array"}
_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult)


def _attr_leaf(func: ast.AST) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _is_uint8_dtype(node: ast.AST) -> bool:
    """Does this expression denote the uint8 dtype (np.uint8 / 'uint8')?"""
    if isinstance(node, ast.Attribute) and node.attr == "uint8":
        return True
    if isinstance(node, ast.Constant) and node.value == "uint8":
        return True
    if isinstance(node, ast.Name) and node.id == "uint8":
        return True
    return False


def _is_narrowing_cast(call: ast.Call) -> bool:
    """``<expr>.astype(np.uint8)`` (positional or dtype= keyword)."""
    if not (
        isinstance(call.func, ast.Attribute) and call.func.attr == "astype"
    ):
        return False
    if call.args and _is_uint8_dtype(call.args[0]):
        return True
    return any(
        kw.arg == "dtype" and _is_uint8_dtype(kw.value)
        for kw in call.keywords
    )


def _is_uint8_constructor(call: ast.Call) -> bool:
    """``np.zeros(..., dtype=np.uint8)``-style constructors."""
    if _attr_leaf(call.func) not in _UINT8_CONSTRUCTORS:
        return False
    return any(
        kw.arg == "dtype" and _is_uint8_dtype(kw.value)
        for kw in call.keywords
    )


def _unwrap_rounders(node: ast.AST) -> ast.AST:
    while (
        isinstance(node, ast.Call)
        and _attr_leaf(node.func) in _ROUNDERS
        and node.args
    ):
        node = node.args[0]
    return node


def _clip_guarded(node: ast.AST, clip_locals: Set[str]) -> bool:
    """Is a narrowing-cast operand safe by construction?"""
    node = _unwrap_rounders(node)
    if isinstance(node, ast.Call) and _attr_leaf(node.func) == "clip":
        return True
    if isinstance(node, ast.Name) and node.id in clip_locals:
        return True
    if isinstance(node, ast.Compare):
        return True
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.BitAnd):
            for side in (node.left, node.right):
                if (
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, int)
                    and 0 <= side.value <= 255
                ):
                    return True
        if isinstance(node.op, ast.Mod):
            if (
                isinstance(node.right, ast.Constant)
                and node.right.value == 256
            ):
                return True
    return False


def _scopes(tree: ast.Module) -> List[ast.AST]:
    return [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _own_statements(scope: ast.AST) -> List[ast.stmt]:
    """Statements of ``scope`` in source order, each exactly once,
    excluding nested function bodies (those are scopes of their own)."""
    out: List[ast.stmt] = []

    def visit(stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            out.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for field in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, field, None)
                if isinstance(nested, list):
                    visit(nested)
            for handler in getattr(stmt, "handlers", []) or []:
                visit(handler.body)

    visit(getattr(scope, "body", []))
    return out


def _stmt_expressions(stmt: ast.stmt) -> List[ast.AST]:
    """The expression children of one statement (no nested statements)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [
        child
        for child in ast.iter_child_nodes(stmt)
        if not isinstance(child, (ast.stmt, ast.ExceptHandler))
    ]


@register
class DtypeSafetyChecker(Checker):
    rule = "VL002"
    title = "uint8 arithmetic without widening / narrowing cast without clip"

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for scope in _scopes(module.tree):
            findings.extend(self._check_scope(module, scope))
        return findings

    def _check_scope(
        self, module: ModuleInfo, scope: ast.AST
    ) -> List[Finding]:
        findings: List[Finding] = []
        uint8_locals: Set[str] = set()
        clip_locals: Set[str] = set()
        for stmt in _own_statements(scope):
            # Inspect uses in this statement against the state built from
            # *earlier* statements (evaluation order).
            nodes = [
                node
                for expr in _stmt_expressions(stmt)
                for node in ast.walk(expr)
            ]
            for call in nodes:
                if isinstance(call, ast.Call) and _is_narrowing_cast(call):
                    operand = call.func.value  # type: ignore[union-attr]
                    if not _clip_guarded(operand, clip_locals):
                        findings.append(
                            self.finding(
                                module,
                                call,
                                "narrowing astype(np.uint8) not dominated "
                                "by np.clip; wraparound truncation is "
                                "silent -- clip to [0, 255] first (or mask "
                                "with & 0xFF / % 256 if wrap is intended)",
                            )
                        )
            for binop in nodes:
                if not isinstance(binop, ast.BinOp):
                    continue
                if not isinstance(binop.op, _ARITH_OPS):
                    continue
                for side in (binop.left, binop.right):
                    if isinstance(side, ast.Name) and side.id in uint8_locals:
                        findings.append(
                            self.finding(
                                module,
                                binop,
                                f"arithmetic on uint8 array {side.id!r} "
                                f"wraps at 0/255; widen first with "
                                f".astype(np.int16) or wider",
                            )
                        )
                        break
            self._update_state(stmt, uint8_locals, clip_locals)
        return findings

    @staticmethod
    def _update_state(
        stmt: ast.stmt, uint8_locals: Set[str], clip_locals: Set[str]
    ) -> None:
        if not isinstance(stmt, ast.Assign):
            return
        value = stmt.value
        names = [
            t.id for t in stmt.targets if isinstance(t, ast.Name)
        ]
        if not names:
            return
        produces_uint8 = isinstance(value, ast.Call) and (
            _is_narrowing_cast(value) or _is_uint8_constructor(value)
        )
        unwrapped = _unwrap_rounders(value)
        produces_clip = (
            isinstance(unwrapped, ast.Call)
            and _attr_leaf(unwrapped.func) == "clip"
        )
        for name in names:
            uint8_locals.discard(name)
            clip_locals.discard(name)
            if produces_uint8:
                uint8_locals.add(name)
            if produces_clip:
                clip_locals.add(name)
