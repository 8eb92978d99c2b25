"""Phase 2: the merged project index and its fixed-point solve.

:class:`ProjectIndex` holds every module summary, the resolved
:class:`~repro.analysis.callgraph.CallGraph`, and, per function, the
whole-program fact VL006 consumes: ``raises_out``, the exception types
outside the decode-path taxonomy that can escape that function, each
with its deterministic origin site.  A decode-path function's own
raises are reported where they stand, so only non-decode-path functions
seed the closure; decode-path helpers still pass their callees' leaks
upward.

This module also owns the VL006 policy -- which modules carry the
decode contract, which functions are decode paths, which exceptions
they may raise -- so the solve and the checker read one definition.

The solve visits Tarjan SCCs in reverse topological order (callees
first) and iterates each component to its own fixed point, evaluating
functions in sorted-id order.  The lattice is finite and the transfer
function monotone, so the solve terminates; every iteration order is
sorted, so the result -- and therefore the lint report -- is
byte-identical across runs, processes, and ``--jobs`` settings.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.summaries import FunctionSummary, ModuleSummary

__all__ = [
    "ProjectIndex",
    "build_project_index",
]

#: Package whose decode paths carry the untrusted-input contract.
CODEC_PACKAGE = "repro.codec"

#: What a decode path may raise: the bitstream error taxonomy, plus
#: ``TypeError`` (caller misuse) and ``NotImplementedError``.
DECODE_ALLOWED = frozenset(
    {
        "BitstreamError",
        "TruncatedStream",
        "CorruptPayload",
        "HeaderError",
        "TypeError",
        "NotImplementedError",
    }
)

_DECODE_PREFIXES = ("read_", "decode_")
_DECODE_CLASS_TAGS = ("Decoder", "Reader")

#: Known exception ancestry for handler-coverage checks (name-based; the
#: repo taxonomy plus the builtin slices of it that matter here).
_EXC_ANCESTORS: Dict[str, Tuple[str, ...]] = {
    "TruncatedStream": ("BitstreamError", "ValueError", "EOFError"),
    "CorruptPayload": ("BitstreamError", "ValueError"),
    "HeaderError": ("BitstreamError", "ValueError"),
    "BitstreamError": ("ValueError",),
    "CacheCorruptError": ("ValueError",),
    "KeyError": ("LookupError",),
    "IndexError": ("LookupError",),
    "FloatingPointError": ("ArithmeticError",),
    "ZeroDivisionError": ("ArithmeticError",),
    "OverflowError": ("ArithmeticError",),
    "FileNotFoundError": ("OSError",),
    "NotADirectoryError": ("OSError",),
    "PermissionError": ("OSError",),
    "UnicodeDecodeError": ("UnicodeError", "ValueError"),
}


def in_codec(module: str) -> bool:
    """Is ``module`` inside the package bound by the decode contract?"""
    return module == CODEC_PACKAGE or module.startswith(CODEC_PACKAGE + ".")


def is_decode_path(qualname: str) -> bool:
    """Is the function ``qualname`` ("f" or "C.m") a decode path?

    A function or method named ``read_*``/``decode_*`` (or bare
    ``read``/``decode``, leading underscores ignored), plus every method
    of a class whose name contains ``Decoder`` or ``Reader``.
    """
    owner, _, name = qualname.rpartition(".")
    if any(tag in owner for tag in _DECODE_CLASS_TAGS):
        return True
    bare = name.lstrip("_")
    return bare in ("read", "decode") or bare.startswith(_DECODE_PREFIXES)


def handler_covers(handler: str, raised: str) -> bool:
    """Does ``except handler:`` catch an exception named ``raised``?"""
    if handler in ("Exception", "BaseException"):
        return True
    if handler == raised:
        return True
    return handler in _EXC_ANCESTORS.get(raised, ())


class ProjectIndex:
    """The merged, solved whole-program view handed to project rules.

    ``summaries`` are the linted modules; ``reference`` summaries (tests,
    examples) join the call graph and count as usage, but findings are
    only ever emitted for ``lint_modules``.  A reference module that
    shares a name with a linted one is dropped.
    """

    def __init__(
        self,
        summaries: Sequence[ModuleSummary],
        reference: Sequence[ModuleSummary] = (),
    ) -> None:
        self.lint_modules = {s.module for s in summaries}
        ordered = sorted(
            list(summaries)
            + [s for s in reference if s.module not in self.lint_modules],
            key=lambda s: s.module,
        )
        self.summaries: Dict[str, ModuleSummary] = {
            s.module: s for s in ordered
        }
        self.graph = CallGraph(ordered)
        #: Per function id: escaping exception name -> origin site.
        self.raises_out: Dict[str, Dict[str, str]] = {
            fid: {} for fid in self.graph.functions
        }
        self._solved = False

    # -- the fixed-point solve ----------------------------------------------

    def solve(self) -> "ProjectIndex":
        """SCC-ordered summary propagation to a global fixed point."""
        if self._solved:
            return self
        for component in self.graph.sccs():
            changed = True
            while changed:
                changed = False
                for fid in component:
                    new = self._eval_raises(fid, self.graph.functions[fid])
                    if new != self.raises_out[fid]:
                        self.raises_out[fid] = new
                        changed = True
        self._solved = True
        return self

    # -- exception closure (VL006) ------------------------------------------

    def _eval_raises(self, fid: str, fn: FunctionSummary) -> Dict[str, str]:
        out: Dict[str, str] = {}
        if not in_codec(self.graph.function_module[fid]):
            return out

        def merge(name: str, origin: str) -> None:
            if name not in out or origin < out[name]:
                out[name] = origin

        if not is_decode_path(fn.name):
            for raised in fn.raises:
                if raised.name in DECODE_ALLOWED:
                    continue
                if not raised.name[:1].isupper():
                    continue  # `raise err` on a variable: type unknowable
                if any(
                    handler_covers(h, raised.name) for h in raised.handled
                ):
                    continue
                merge(raised.name, f"{fid}:{raised.line}")
        # Callee closures propagate through *every* codec function,
        # decode-path helpers included: the checker reports leaks only at
        # the public decode API, so an interior `_decode_*` helper is a
        # conduit, not a boundary.
        for site in fn.calls:
            resolved = self.graph.resolve(site.target)
            if resolved is None:
                continue
            if not in_codec(self.graph.function_module[resolved]):
                continue
            for name, origin in self.raises_out[resolved].items():
                if any(handler_covers(h, name) for h in site.handled):
                    continue
                merge(name, origin)
        return out


def build_project_index(
    paths: Sequence, jobs: int = 1, reference_paths: Sequence = ()
) -> ProjectIndex:
    """Build (and solve) a :class:`ProjectIndex` for ``paths``.

    The programmatic view of what ``repro lint`` solves: files under
    ``paths`` are indexed and lintable; files under ``reference_paths``
    (tests, examples) contribute summaries -- call-graph nodes, VL008
    references -- but never findings.  Results are independent of
    ``jobs``.
    """
    from repro.analysis.engine import collect_summaries

    return ProjectIndex(
        collect_summaries(paths, jobs=jobs),
        collect_summaries(reference_paths, jobs=jobs, reference=True),
    ).solve()
