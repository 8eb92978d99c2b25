"""In-memory spans recorded from outside the program under test.

Every timed region of the benchmark is a :class:`Span` opened through
:meth:`Tracer.span`.  A span always measures its own duration (the
workloads need it for the end-to-end metrics); it is *recorded* only when
the tracer is enabled, i.e. in the traced child.  Calls too frequent to
record one by one (the simulator's collaborators, ~10^5 calls a run) are
aggregated by :meth:`Tracer.wrap` into a call count and a busy time.

Self time of a span = its duration - the durations of its direct child
spans - the busy time of the aggregates that ran under it.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, List

__all__ = ["Aggregate", "Span", "Tracer", "format_layer_table", "write_chrome"]


class Span:
    """One timed region; also the context manager that times it."""

    __slots__ = ("tracer", "name", "layer", "rid", "start", "end", "index", "parent")

    def __init__(self, tracer: "Tracer", name: str, layer: str, rid: str) -> None:
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.rid = rid
        self.start = 0.0
        self.end = 0.0
        self.index = -1
        self.parent = -1

    def __enter__(self) -> "Span":
        tracer = self.tracer
        if tracer.enabled:
            self.parent = tracer.stack[-1] if tracer.stack else -1
            self.index = len(tracer.spans)
            tracer.spans.append(self)
            tracer.stack.append(self.index)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = perf_counter()
        if self.index >= 0:
            self.tracer.stack.pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Aggregate:
    """Call count and busy time of one wrapped method."""

    __slots__ = ("name", "layer", "calls", "busy_s", "parent")

    def __init__(self, name: str, layer: str) -> None:
        self.name = name
        self.layer = layer
        self.calls = 0
        self.busy_s = 0.0
        self.parent = -1


class Tracer:
    """Collects spans and aggregates for one child process."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.aggregates: Dict[str, Aggregate] = {}
        self._inside_wrapped = False

    def span(self, name: str, layer: str, rid: str = "") -> Span:
        return Span(self, name, layer, rid)

    def wrap(self, obj: object, method: str, name: str, layer: str) -> None:
        """Time ``obj.method`` through an instance attribute (no class or
        module is patched).  Calls made *inside* another wrapped call are
        counted but their time stays with the outer call, so the busy
        times of all aggregates add up without double counting."""
        inner = getattr(obj, method)
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = Aggregate(name, layer)

        def timed(*args, **kwargs):
            agg.calls += 1
            if self._inside_wrapped:
                return inner(*args, **kwargs)
            if agg.parent < 0 and self.stack:
                agg.parent = self.stack[-1]
            self._inside_wrapped = True
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                agg.busy_s += perf_counter() - start
                self._inside_wrapped = False

        setattr(obj, method, timed)

    # -- reading the trace ----------------------------------------------------

    def busy(self, name: str) -> float:
        agg = self.aggregates.get(name)
        return agg.busy_s if agg is not None else 0.0

    def calls(self, name: str) -> int:
        agg = self.aggregates.get(name)
        return agg.calls if agg is not None else 0

    def self_times(self) -> List[float]:
        """Self time of every recorded span, by span index."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        for agg in self.aggregates.values():
            if agg.parent >= 0:
                own[agg.parent] -= agg.busy_s
        return own

    def layer_table(self) -> List[Dict[str, object]]:
        """Per layer: calls, busy (self) seconds, share of the blocking
        path.  One process, one thread: every span blocks the result, so
        the blocking path is the sum of the root spans."""
        calls: Dict[str, int] = {}
        busy: Dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            calls[s.layer] = calls.get(s.layer, 0) + 1
            busy[s.layer] = busy.get(s.layer, 0.0) + own
        for agg in self.aggregates.values():
            calls[agg.layer] = calls.get(agg.layer, 0) + agg.calls
            busy[agg.layer] = busy.get(agg.layer, 0.0) + agg.busy_s
        total = sum(s.seconds for s in self.spans if s.parent < 0)
        return [
            {
                "layer": layer,
                "calls": calls[layer],
                "busy_s": busy[layer],
                "share": busy[layer] / total if total > 0 else 0.0,
            }
            for layer in sorted(busy, key=lambda name: -busy[name])
        ]

    def to_chrome(self, process_name: str) -> Dict[str, object]:
        """Chrome-trace JSON (opens in Perfetto): one track per layer."""
        layers = sorted({s.layer for s in self.spans})
        tid = {layer: i + 1 for i, layer in enumerate(layers)}
        origin = min((s.start for s in self.spans), default=0.0)
        events: List[Dict[str, object]] = [
            {"ph": "M", "pid": 1, "name": "process_name",
             "args": {"name": process_name}}
        ]
        for layer in layers:
            events.append({"ph": "M", "pid": 1, "tid": tid[layer],
                           "name": "thread_name", "args": {"name": layer}})
        for s in self.spans:
            events.append({
                "ph": "X", "pid": 1, "tid": tid[s.layer],
                "name": s.name, "cat": s.layer,
                "ts": (s.start - origin) * 1e6, "dur": s.seconds * 1e6,
                "args": {"rid": s.rid, "span": s.index, "parent": s.parent},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "aggregates": [
                    {"name": a.name, "layer": a.layer, "calls": a.calls,
                     "busy_s": a.busy_s, "parent": a.parent}
                    for a in self.aggregates.values()
                ],
            },
        }


def write_chrome(path: str, traces: List[Dict[str, object]]) -> None:
    """Merge per-workload traces into one file, one process per workload."""
    events: List[Dict[str, object]] = []
    aggregates: Dict[str, object] = {}
    for pid, trace in enumerate(traces, start=1):
        for event in trace["traceEvents"]:
            events.append({**event, "pid": pid})
            if event["name"] == "process_name":
                aggregates[event["args"]["name"]] = trace["otherData"]["aggregates"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"aggregates": aggregates}}, handle)


def format_layer_table(rows: List[Dict[str, object]], indent: str = "  ") -> str:
    lines = [f"{indent}{'layer':<10} {'calls':>9} {'busy s':>10} {'share':>7}"]
    for row in rows:
        lines.append(
            f"{indent}{row['layer']:<10} {row['calls']:>9d} "
            f"{row['busy_s']:>10.4f} {row['share']:>6.1%}"
        )
    return "\n".join(lines)
