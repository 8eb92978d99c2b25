"""VL003: fork-safety -- pool-dispatched workers must be pure & picklable.

:func:`repro.core.benchmark.run_scenario` and the lint engine fan work
out over a fork-based process pool.  Fork makes two classes of bugs
*appear* to work: a worker that mutates module globals mutates its own
copy (silently wrong results when the code later runs serially or under
spawn), and a worker that is a lambda, a nested closure, or a bound
method may pickle under fork-with-inherited state but explode the moment
the pool switches start methods.  This rule inspects every dispatch site
(``executor.map/submit``, ``pool.map``) and the module-level worker
functions they name:

* the dispatched callable must be a module-level function (no lambdas,
  nested defs, or ``self.method`` references);
* the worker must not declare ``global``/``nonlocal``;
* the worker must not assign into module-level containers or objects
  (``STATE["k"] = v``, ``CONFIG.field = v``);
* the worker must not carry mutable default arguments (shared state that
  crosses the fork once and then diverges).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, ModuleInfo, register

__all__ = ["ForkSafetyChecker"]

_DISPATCH_METHODS = {"map", "submit", "imap", "imap_unordered", "apply_async"}
_DISPATCH_BASES = ("executor", "pool")


def _module_level_defs(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def _module_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _dispatched_callables(tree: ast.Module) -> List[ast.AST]:
    """Expressions passed as the callable at each pool-dispatch site."""
    out: List[ast.AST] = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Attribute):
            base = func.value
            base_name = base.id.lower() if isinstance(base, ast.Name) else ""
            if func.attr in _DISPATCH_METHODS and any(
                token in base_name for token in _DISPATCH_BASES
            ):
                if call.args:
                    out.append(call.args[0])
    return out


def _root_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call):
        leaf = (
            node.func.id
            if isinstance(node.func, ast.Name)
            else getattr(node.func, "attr", "")
        )
        return leaf in {"list", "dict", "set", "bytearray"}
    return False


@register
class ForkSafetyChecker(Checker):
    rule = "VL003"
    title = "pool-dispatched worker mutates globals or is unpicklable"

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        defs = _module_level_defs(module.tree)
        nested_names = {
            node.name
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name not in defs
        }
        module_names = _module_level_names(module.tree)
        checked: Set[str] = set()
        for target in _dispatched_callables(module.tree):
            if isinstance(target, ast.Lambda):
                findings.append(
                    self.finding(
                        module,
                        target,
                        "lambda dispatched to the process pool; lambdas "
                        "are unpicklable under spawn -- use a "
                        "module-level function",
                    )
                )
                continue
            if isinstance(target, ast.Attribute):
                if (
                    isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    findings.append(
                        self.finding(
                            module,
                            target,
                            "bound method dispatched to the process pool "
                            "closes over self; use a module-level "
                            "function taking plain data",
                        )
                    )
                continue
            if not isinstance(target, ast.Name):
                continue
            if target.id in nested_names:
                findings.append(
                    self.finding(
                        module,
                        target,
                        f"nested function {target.id!r} dispatched to the "
                        f"process pool; closures are unpicklable under "
                        f"spawn -- hoist it to module level",
                    )
                )
                continue
            worker = defs.get(target.id)
            if worker is None or worker.name in checked:
                continue
            checked.add(worker.name)
            findings.extend(
                self._check_worker(module, worker, module_names)
            )
        return findings

    def _check_worker(
        self,
        module: ModuleInfo,
        worker: ast.FunctionDef,
        module_names: Set[str],
    ) -> List[Finding]:
        findings: List[Finding] = []
        for default in list(worker.args.defaults) + [
            d for d in worker.args.kw_defaults if d is not None
        ]:
            if _is_mutable_default(default):
                findings.append(
                    self.finding(
                        module,
                        default,
                        f"pool worker {worker.name!r} has a mutable "
                        f"default argument; that object is shared state "
                        f"that diverges across the fork",
                    )
                )
        for node in ast.walk(worker):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"pool worker {worker.name!r} declares "
                        f"{'global' if isinstance(node, ast.Global) else 'nonlocal'} "
                        f"{', '.join(node.names)}; workers must not write "
                        f"module state -- return results instead",
                    )
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if not isinstance(target, (ast.Attribute, ast.Subscript)):
                        continue
                    root = _root_name(target)
                    if root is not None and root in module_names:
                        findings.append(
                            self.finding(
                                module,
                                node,
                                f"pool worker {worker.name!r} mutates "
                                f"module-level state {root!r}; the write "
                                f"is lost outside this worker process",
                            )
                        )
        return findings
