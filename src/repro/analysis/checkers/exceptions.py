"""VL006: exception hygiene -- decode paths raise only the error taxonomy.

The decoder's untrusted-input contract (see :mod:`repro.codec.errors` and
the fuzz oracle in :mod:`repro.fuzz.oracle`) is that any malformed input
surfaces as a :class:`~repro.codec.errors.BitstreamError` subclass --
``TruncatedStream``, ``CorruptPayload``, or ``HeaderError`` -- never as a
raw ``ValueError``/``EOFError`` leaking from some inner helper.  Callers
(concealment, the fuzz oracle, the farm's stream-corruption path) catch
exactly ``BitstreamError``; a foreign exception escaping a decode path is
a crash, and the fuzzer treats it as an oracle violation.

Inside :mod:`repro.codec` this rule checks every *decode-path* function --
a module-level function or method named ``read_*``/``decode_*`` (or bare
``read``/``decode``, leading underscores ignored), plus **every** method
of a class whose name contains ``Decoder`` or ``Reader`` -- and requires
each ``raise`` in it to be one of:

* a taxonomy name (``BitstreamError``, ``TruncatedStream``,
  ``CorruptPayload``, ``HeaderError``),
* ``TypeError`` (caller misuse: bad argument types/shapes are the
  caller's bug, not the stream's), ``NotImplementedError``,
* a bare ``raise`` (re-raising inside an ``except`` block).

The same contract is verified transitively: a helper three calls deep
that raises bare ``ValueError`` -- minus anything caught by an enclosing
``try`` along the way -- leaks that exception through the decode API.
Leaks are reported at each *public* decode-path function (the boundary
callers and the fuzz oracle actually hit); private ``_decode_*`` helpers
are conduits the closure propagates through.  The policy itself (scope,
decode-path criteria, allowed names) lives in
:mod:`repro.analysis.project`, which the closure also reads.

The write side is exempt: encoder bugs should fail loudly with whatever
exception is most informative, because encoder inputs are trusted.
"""

from __future__ import annotations

from typing import List

from repro.analysis.findings import Finding
from repro.analysis.project import DECODE_ALLOWED, in_codec, is_decode_path
from repro.analysis.registry import Checker, register

__all__ = ["ExceptionHygieneChecker"]


@register
class ExceptionHygieneChecker(Checker):
    rule = "VL006"
    title = "decode paths may only raise the bitstream error taxonomy"

    def check_project(self, index) -> List[Finding]:
        findings: List[Finding] = []
        for module_name in sorted(index.lint_modules):
            if not in_codec(module_name):
                continue
            summary = index.summaries[module_name]
            for fn in summary.functions:
                if not is_decode_path(fn.name):
                    continue
                for raised in fn.raises:
                    if raised.name in DECODE_ALLOWED:
                        continue
                    findings.append(
                        self._finding(
                            summary.path,
                            raised.line,
                            raised.col,
                            f"decode path {fn.name!r} raises "
                            f"{raised.name}; malformed input must surface "
                            f"as a BitstreamError subclass "
                            f"(TruncatedStream/CorruptPayload/HeaderError) "
                            f"so concealment and the fuzz oracle can catch "
                            f"it",
                        )
                    )
                if not _is_public_qualname(fn.name):
                    continue
                facts = index.facts[f"{module_name}.{fn.name}"]
                for exc, origin in sorted(facts.raises_out.items()):
                    findings.append(
                        self._finding(
                            summary.path,
                            fn.line,
                            fn.col,
                            f"decode path {fn.name!r} can leak {exc} "
                            f"raised at {origin}; catch it at the decode "
                            f"boundary or raise a BitstreamError subclass "
                            f"at the origin",
                        )
                    )
        return findings

    def _finding(self, path: str, line: int, col: int, message: str):
        return Finding(
            rule=self.rule, path=path, line=line, column=col, message=message
        )


def _is_public_qualname(name: str) -> bool:
    return all(
        part and not part.startswith("_") for part in name.split(".")
    )
