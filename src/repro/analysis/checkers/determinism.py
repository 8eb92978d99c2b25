"""VL001: determinism -- no unseeded randomness or wall-clock reads.

The benchmark's scoring contract (byte-identical parallel/cached reports,
replayable chaos runs) only holds if the encode path is a pure function of
its inputs.  Inside the deterministic packages (``repro.codec``,
``repro.exec``, ``repro.fuzz``, ``repro.predict``, ``repro.robust``,
``repro.traffic`` -- which covers the fleet chaos layer, whose worker
fault streams must derive from the plan seed) this rule bans:

* ``np.random.default_rng()`` called without a seed;
* draws from the global ``random`` module (``random.random()``,
  ``random.randint(...)`` and friends) -- seeding the module and
  explicitly constructed ``random.Random(seed)`` streams are not findings
  here (``tests/test_repo_hygiene.py`` keeps both global streams out of
  ``src/`` altogether);
* ``time.time()`` and ``time.perf_counter()`` anywhere.  Speed is the
  modelled ``seconds``; the code is timed from outside
  (``benchmarks/perf``), never by reading a clock inside it.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, ModuleInfo, register

__all__ = ["DeterminismChecker"]

#: Packages whose modules must be deterministic.
DETERMINISTIC_PACKAGES = (
    "repro.codec",
    "repro.exec",
    "repro.fuzz",
    "repro.predict",
    "repro.robust",
    "repro.traffic",
)

#: ``random`` module attributes that pin or construct streams (allowed).
_RANDOM_ALLOWED = {"seed", "Random", "SystemRandom", "getstate", "setstate"}

#: ``time`` module functions that read a host clock (banned).
_CLOCK_READS = {"time", "perf_counter"}


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
        """Map a call to 'default_rng' | 'random_draw' | 'time.<clock>' |
        None."""
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
                    if func.attr in _CLOCK_READS:
                        return f"time.{func.attr}"
        elif isinstance(func, ast.Name):
            if func.id in self.default_rng_names:
                return "default_rng"
            resolved = self.time_func_names.get(func.id)
            if resolved in _CLOCK_READS:
                return f"time.{resolved}"
            drawn = self.random_func_names.get(func.id)
            if drawn is not None and drawn not in _RANDOM_ALLOWED:
                return "random_draw"
        return None


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
                            "(see repro.robust.faults.FaultPlan.rng_for)",
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
            else:
                findings.append(
                    self.finding(
                        module,
                        call,
                        f"{kind}() read in deterministic code; use the "
                        "simulated clock (repro.robust.clock.SimClock) or "
                        "pass timestamps in explicitly",
                    )
                )
        return findings
