"""VL007: clock discipline -- simulated-time code never touches the wall.

The traffic simulator (:mod:`repro.traffic`, fleet chaos included --
lease expiry, hedge delays, and outage schedules in
:mod:`repro.traffic.fleet` are all closed forms over simulated time) and
its event clock (:mod:`repro.robust.clock`) are *simulated time*: every
timestamp comes from :class:`~repro.robust.clock.SimClock`, which is
what makes a million-request SLO run replayable byte-for-byte from a
seed.  One
``time.time()`` -- or one call into a helper that reads the wall clock
three modules away -- silently couples the simulation to the host and
the replay guarantee is gone, without any test necessarily failing.

This is a project rule: it has no file-local half.  Phase 2 walks
every call site in the simulated-time scope and flags

* direct wall-clock reads (``time.time``, ``time.perf_counter``,
  ``datetime.now`` and friends -- the
  :data:`~repro.analysis.callgraph.WALLCLOCK_TARGETS` set), and
* calls whose *resolved callee* can reach a wall-clock read anywhere in
  its transitive call graph, with the offending chain in the message.

VL001 bans direct ``time.time``/``time.perf_counter`` reads file by
file; this rule adds the rest of the wall-clock set and the reads a
helper in another module makes on the simulator's behalf.
"""

from __future__ import annotations

from typing import List

from repro.analysis.callgraph import WALLCLOCK_TARGETS
from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, register

__all__ = ["ClockDisciplineChecker"]

#: Module prefixes that run on simulated time only.  ``repro.predict`` is
#: in scope because no wall-clock value may flow into a feature, a
#: training label, or a prediction (the committed coefficients must be
#: reproducible byte for byte).
SIMULATED_TIME_SCOPE = ("repro.traffic", "repro.robust.clock", "repro.predict")


def _in_scope(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in SIMULATED_TIME_SCOPE
    )


@register
class ClockDisciplineChecker(Checker):
    rule = "VL007"
    title = "wall-clock reachable from simulated-time code"

    def check_project(self, index) -> List[Finding]:
        findings: List[Finding] = []
        for module_name in sorted(index.lint_modules):
            if not _in_scope(module_name):
                continue
            summary = index.summaries[module_name]
            for fn in summary.functions:
                for site in fn.calls:
                    finding = self._check_site(index, summary, site)
                    if finding is not None:
                        findings.append(finding)
        return findings

    def _check_site(self, index, summary, site):
        if site.target in WALLCLOCK_TARGETS:
            return Finding(
                rule=self.rule,
                path=summary.path,
                line=site.line,
                column=site.col,
                message=(
                    f"wall-clock read {site.target}() in simulated-time "
                    f"code; advance time through SimClock so runs replay "
                    f"byte-identically from the seed"
                ),
            )
        resolved = index.graph.resolve(site.target)
        if resolved is None or not index.facts[resolved].wallclock:
            return None
        chain = index.graph.chain_to(resolved, WALLCLOCK_TARGETS)
        via = " -> ".join(chain) if chain else resolved
        return Finding(
            rule=self.rule,
            path=summary.path,
            line=site.line,
            column=site.col,
            message=(
                f"call into {resolved}() reaches a wall-clock read "
                f"({via}); simulated-time code must stay on SimClock"
            ),
        )
