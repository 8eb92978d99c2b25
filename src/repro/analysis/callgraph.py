"""The cross-module call graph built from per-module summaries.

Call targets arrive from phase 1 as best-effort absolute dotted names
(``repro.codec.decoder.helper``, ``repro.exec.TranscodeCache``,
``time.perf_counter``).  This module resolves them against the merged
project: a target resolves to a *function id* (``module.qualname``) when
the named module defines that function or method, following package
re-export chains (``repro.exec.TranscodeCache`` ->
``repro.exec.cache.TranscodeCache``) and class constructors
(``...TranscodeCache`` -> ``...TranscodeCache.__init__``).  Unresolvable
targets (dynamic dispatch, third-party calls) simply have no out-edge --
the analysis is soundly incomplete rather than noisily wrong, which is
the only honest posture for Python.

Everything here is deterministic: adjacency lists are sorted, Tarjan's
SCC algorithm is iterative and seeded in sorted-id order, and the
condensation comes back in reverse topological order (callees before
callers) so the fixed-point solve visits each component exactly once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.summaries import FunctionSummary, ModuleSummary

__all__ = ["CallGraph"]

#: How many re-export hops a target may traverse before resolution stops.
_MAX_REEXPORT_HOPS = 8


class CallGraph:
    """Function-level call graph over a set of module summaries."""

    def __init__(self, modules: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {
            summary.module: summary for summary in modules
        }
        self.functions: Dict[str, FunctionSummary] = {}
        self.function_module: Dict[str, str] = {}
        for summary in modules:
            for fn in summary.functions:
                fid = f"{summary.module}.{fn.name}"
                self.functions[fid] = fn
                self.function_module[fid] = summary.module
        self._reexports: Dict[str, Dict[str, str]] = {
            summary.module: dict(summary.reexports) for summary in modules
        }
        self._resolve_cache: Dict[str, Optional[str]] = {}
        self._edges: Optional[Dict[str, Tuple[str, ...]]] = None

    # -- resolution ---------------------------------------------------------

    def resolve(self, target: str) -> Optional[str]:
        """Function id a dotted call target resolves to, or ``None``."""
        if not target:
            return None
        if target not in self._resolve_cache:
            self._resolve_cache[target] = self._resolve_uncached(target)
        return self._resolve_cache[target]

    def _resolve_uncached(self, target: str) -> Optional[str]:
        current = target
        for _ in range(_MAX_REEXPORT_HOPS):
            if current in self.functions:
                return current
            init = f"{current}.__init__"
            if init in self.functions:
                return init
            # Split into (module, name) at the longest known-module prefix
            # and follow that module's re-export edge, if any.
            module, name = self.split(current)
            if module is None:
                return None
            hop = self._reexports.get(module, {}).get(name)
            if hop is None:
                return None
            current = hop
        return None

    def split(
        self, dotted: str
    ) -> Tuple[Optional[str], Optional[str]]:
        """Split ``a.b.c.name`` at the longest prefix that is a module."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module in self.modules:
                return module, ".".join(parts[cut:])
        return None, None

    # -- adjacency ----------------------------------------------------------

    def edges(self) -> Dict[str, Tuple[str, ...]]:
        """Resolved out-edges per function id (sorted, deduplicated)."""
        if self._edges is None:
            out: Dict[str, Tuple[str, ...]] = {}
            for fid in sorted(self.functions):
                seen = set()
                for site in self.functions[fid].calls:
                    resolved = self.resolve(site.target)
                    if resolved is not None and resolved != fid:
                        seen.add(resolved)
                out[fid] = tuple(sorted(seen))
            self._edges = out
        return self._edges

    # -- SCC condensation ---------------------------------------------------

    def sccs(self) -> List[Tuple[str, ...]]:
        """Strongly connected components in reverse topological order.

        Callees come before callers, so a single pass over the result
        (iterating each component internally to its own fixed point) is a
        whole-program fixed point.  Tarjan emits SCCs exactly in reverse
        topological order; determinism follows from seeding the DFS in
        sorted-id order over sorted adjacency.
        """
        edges = self.edges()
        index_of: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Dict[str, bool] = {}
        stack: List[str] = []
        result: List[Tuple[str, ...]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            # Iterative Tarjan: (node, iterator position) work stack.
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                node, pos = work.pop()
                if pos == 0:
                    index_of[node] = counter[0]
                    lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack[node] = True
                recurse = False
                successors = edges.get(node, ())
                for position in range(pos, len(successors)):
                    succ = successors[position]
                    if succ not in index_of:
                        work.append((node, position + 1))
                        work.append((succ, 0))
                        recurse = True
                        break
                    if on_stack.get(succ):
                        lowlink[node] = min(lowlink[node], index_of[succ])
                if recurse:
                    continue
                if lowlink[node] == index_of[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    result.append(tuple(sorted(component)))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])

        for fid in sorted(self.functions):
            if fid not in index_of:
                strongconnect(fid)
        return result

    # -- export (for --graph-out) -------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready, fully sorted rendering of the resolved graph."""
        return {
            "modules": sorted(self.modules),
            "functions": {
                fid: {
                    "module": self.function_module[fid],
                    "calls": list(self.edges().get(fid, ())),
                }
                for fid in sorted(self.functions)
            },
        }
