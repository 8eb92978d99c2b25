"""VL001: determinism -- no unseeded randomness or wall-clock reads.

The benchmark's scoring contract (byte-identical parallel/cached reports,
replayable chaos runs) only holds if the encode path is a pure function of
its inputs.  Inside the deterministic packages (``repro.bench``,
``repro.codec``, ``repro.exec``, ``repro.fuzz``, ``repro.robust``,
``repro.traffic`` -- which covers the fleet chaos layer, whose worker
fault streams must derive from the plan seed) this rule bans:

* ``np.random.default_rng()`` called without a seed;
* draws from the global ``random`` module (``random.random()``,
  ``random.randint(...)`` and friends) -- seeding calls (``random.seed``)
  and explicitly constructed ``random.Random(seed)`` streams are fine;
* ``time.time()`` anywhere;
* ``time.perf_counter()`` outside a *wall-seconds measurement site*: a
  call is sanctioned only when its value (directly, or through a local
  variable) feeds a ``wall_seconds=`` keyword argument within the same
  function.  Even then, a perf_counter-derived value must never flow into
  a cache-key or score expression -- measured time in a content-addressed
  key or a quality ratio is exactly the nondeterminism this pass exists
  to catch.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, ModuleInfo, register

__all__ = ["DeterminismChecker"]

#: Packages whose modules must be deterministic.
DETERMINISTIC_PACKAGES = (
    "repro.bench",
    "repro.codec",
    "repro.exec",
    "repro.fuzz",
    "repro.predict",
    "repro.robust",
    "repro.traffic",
)

#: Call-name prefixes a perf_counter-derived value must never reach
#: (``bench_dict`` covers the SLO and benchmark digest surfaces).
TAINT_SINKS = ("cache_key", "video_digest", "score", "bench_dict")

#: ``random`` module attributes that pin or construct streams (allowed).
_RANDOM_ALLOWED = {"seed", "Random", "SystemRandom", "getstate", "setstate"}


def _in_scope(module: str) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".")
        for pkg in DETERMINISTIC_PACKAGES
    )


def _call_name(func: ast.AST) -> str:
    """Dotted name of a call target, best effort ('' when dynamic)."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class _ImportMap:
    """What the module calls numpy, random, time, and their members."""

    def __init__(self, tree: ast.Module) -> None:
        self.numpy_aliases: Set[str] = set()
        self.random_aliases: Set[str] = set()
        self.time_aliases: Set[str] = set()
        self.default_rng_names: Set[str] = set()
        self.time_func_names: Dict[str, str] = {}  # local name -> time.<attr>
        self.random_func_names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name
                    if alias.name == "numpy":
                        self.numpy_aliases.add(local)
                    elif alias.name == "random":
                        self.random_aliases.add(local)
                    elif alias.name == "time":
                        self.time_aliases.add(local)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name == "default_rng":
                            self.default_rng_names.add(
                                alias.asname or alias.name
                            )
                elif node.module == "time":
                    for alias in node.names:
                        self.time_func_names[alias.asname or alias.name] = (
                            alias.name
                        )
                elif node.module == "random":
                    for alias in node.names:
                        self.random_func_names[alias.asname or alias.name] = (
                            alias.name
                        )

    def classify_call(self, call: ast.Call) -> Optional[str]:
        """Map a call to 'default_rng' | 'random_draw' | 'time' |
        'perf_counter' | None."""
        func = call.func
        if isinstance(func, ast.Attribute):
            base = func.value
            # np.random.default_rng(...)
            if (
                func.attr == "default_rng"
                and isinstance(base, ast.Attribute)
                and base.attr == "random"
                and isinstance(base.value, ast.Name)
                and base.value.id in self.numpy_aliases
            ):
                return "default_rng"
            if isinstance(base, ast.Name):
                if base.id in self.random_aliases:
                    if func.attr not in _RANDOM_ALLOWED:
                        return "random_draw"
                elif base.id in self.time_aliases:
                    if func.attr == "time":
                        return "time"
                    if func.attr == "perf_counter":
                        return "perf_counter"
        elif isinstance(func, ast.Name):
            if func.id in self.default_rng_names:
                return "default_rng"
            resolved = self.time_func_names.get(func.id)
            if resolved == "time":
                return "time"
            if resolved == "perf_counter":
                return "perf_counter"
            drawn = self.random_func_names.get(func.id)
            if drawn is not None and drawn not in _RANDOM_ALLOWED:
                return "random_draw"
        return None


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _contains_perf_counter(node: ast.AST, imports: _ImportMap) -> bool:
    return any(
        isinstance(sub, ast.Call)
        and imports.classify_call(sub) == "perf_counter"
        for sub in ast.walk(node)
    )


@register
class DeterminismChecker(Checker):
    rule = "VL001"
    title = "unseeded randomness / wall-clock reads in deterministic code"

    def check(self, module: ModuleInfo) -> List[Finding]:
        if not _in_scope(module.module):
            return []
        imports = _ImportMap(module.tree)
        findings: List[Finding] = []
        for call in ast.walk(module.tree):
            if not isinstance(call, ast.Call):
                continue
            kind = imports.classify_call(call)
            if kind is None:
                continue
            if kind == "default_rng":
                if not call.args and not call.keywords:
                    findings.append(
                        self.finding(
                            module,
                            call,
                            "np.random.default_rng() without a seed: "
                            "derive the seed from the task identity "
                            "(see repro.exec.runner.task_seed)",
                        )
                    )
            elif kind == "random_draw":
                findings.append(
                    self.finding(
                        module,
                        call,
                        f"draw from the global random module "
                        f"({_call_name(call.func)}) depends on hidden "
                        f"interpreter state; use a seeded "
                        f"np.random.Generator or random.Random(seed)",
                    )
                )
            elif kind == "time":
                findings.append(
                    self.finding(
                        module,
                        call,
                        "time.time() read in deterministic code; use the "
                        "simulated clock (repro.robust.clock.SimClock) or "
                        "pass timestamps in explicitly",
                    )
                )
            elif kind == "perf_counter":
                findings.extend(
                    self._check_perf_counter(module, imports, call)
                )
        for finding in self._check_taint_sinks(module, imports):
            findings.append(finding)
        return findings

    # -- perf_counter flow rules -------------------------------------------

    def _check_perf_counter(
        self, module: ModuleInfo, imports: _ImportMap, call: ast.Call
    ) -> List[Finding]:
        function = module.enclosing_function(call)
        if function is None:
            return [
                self.finding(
                    module,
                    call,
                    "time.perf_counter() at module scope; timing reads "
                    "belong inside a wall_seconds measurement site",
                )
            ]
        if self._sanctioned_in(function, imports, call):
            return []
        return [
            self.finding(
                module,
                call,
                "time.perf_counter() outside a wall_seconds measurement "
                "site; its value must only ever populate a "
                "wall_seconds= field",
            )
        ]

    def _sanctioned_in(
        self, function: ast.AST, imports: _ImportMap, call: ast.Call
    ) -> bool:
        """True when ``call``'s value feeds a wall_seconds= keyword."""
        wall_exprs = [
            kw.value
            for sub in ast.walk(function)
            if isinstance(sub, ast.Call)
            for kw in sub.keywords
            if kw.arg == "wall_seconds"
        ]
        if not wall_exprs:
            return False
        for expr in wall_exprs:
            if any(sub is call for sub in ast.walk(expr)):
                return True
        # Indirect: the call's value lands in a local that a
        # wall_seconds expression reads.
        timed_locals = self._timed_locals(function, imports)
        wall_names: Set[str] = set()
        for expr in wall_exprs:
            wall_names |= _names_in(expr)
        return bool(timed_locals & wall_names)

    @staticmethod
    def _timed_locals(function: ast.AST, imports: _ImportMap) -> Set[str]:
        """Local names whose value derives from perf_counter()."""
        tainted: Set[str] = set()
        for _ in range(2):  # two passes catch one level of chaining
            for sub in ast.walk(function):
                if not isinstance(sub, ast.Assign):
                    continue
                value_taints = _contains_perf_counter(sub.value, imports) or (
                    _names_in(sub.value) & tainted
                )
                if value_taints:
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            tainted.add(target.id)
        return tainted

    def _check_taint_sinks(
        self, module: ModuleInfo, imports: _ImportMap
    ) -> List[Finding]:
        """perf_counter-derived values must not reach cache keys/scores."""
        findings: List[Finding] = []
        functions = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for function in functions:
            tainted = self._timed_locals(function, imports)
            for sub in ast.walk(function):
                if not isinstance(sub, ast.Call):
                    continue
                name = _call_name(sub.func)
                leaf = name.rsplit(".", 1)[-1]
                if not any(leaf.startswith(s) for s in TAINT_SINKS):
                    continue
                args_taint = False
                for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                    if _names_in(arg) & tainted or _contains_perf_counter(
                        arg, imports
                    ):
                        args_taint = True
                        break
                if args_taint:
                    findings.append(
                        self.finding(
                            module,
                            sub,
                            f"perf_counter-derived value flows into "
                            f"{leaf}(); measured time in a cache key or "
                            f"score breaks content addressing",
                        )
                    )
        return findings
