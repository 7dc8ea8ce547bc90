"""In-memory span recorder used by the traced benchmark run.

Spans are recorded from the benchmark's own code, around calls into the
``repro`` layers; nothing inside ``src/`` is instrumented.  A span has a
name, start and end (monotonic ns), its parent span and the trace id of
the operation it belongs to.  Hot-path calls (one RHS evaluation, one
ensemble sweep) are too frequent to keep as separate spans, so
:meth:`Tracer.rollup` folds them into per-parent call counts and totals
and keeps every call's duration as a sample for percentiles.  Rollups
count as children when a span's self time is computed.

The recorder is written once, at exit, as Chrome trace-event JSON (the
``traceEvents`` array of ``"X"`` complete events), which Perfetto and
``chrome://tracing`` open.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

__all__ = ["Span", "Tracer", "summarize", "format_timing"]

#: candidate tail percentiles, highest first; the reported one is the
#: highest that still has at least TAIL_MIN_BEYOND samples above it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start_ns: int
    parent: int | None
    trace_id: int
    args: dict
    end_ns: int = 0
    #: rolled-up hot-path children: name -> [calls, total_ns]
    rollups: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Nested spans plus rolled-up hot-path calls, held in memory.

    ``enabled=False`` makes :meth:`span` a no-op and :meth:`rollup`
    return the function unchanged, so the untraced path runs the exact
    callables a user would.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.samples: dict[str, list[int]] = {}
        self.trace_id = 0
        self._stack: list[int] = []

    def begin_trace(self) -> int:
        """Start a new operation; later root spans carry its trace id."""
        self.trace_id += 1
        return self.trace_id

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Span | None]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter_ns(), parent, self.trace_id, args)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def wrap_span(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as its own span."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def rollup(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call folded into the innermost open span."""
        if not self.enabled:
            return fn
        clock = time.perf_counter_ns
        samples = self.samples.setdefault(name, [])
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                samples.append(dt)
                if stack:
                    acc = spans[stack[-1]].rollups.setdefault(name, [0, 0])
                    acc[0] += 1
                    acc[1] += dt

        return traced

    # -- analysis ------------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per span: its duration minus its child spans and rollups."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration_ns
        return [
            s.duration_ns - child[i] - sum(t for _, t in s.rollups.values())
            for i, s in enumerate(self.spans)
        ]

    def self_by_name(self, trace_ids: set[int] | None = None) -> dict[str, int]:
        """Self time summed per span name (and per rollup name)."""
        out: dict[str, int] = {}
        for s, own in zip(self.spans, self.self_ns()):
            if trace_ids is not None and s.trace_id not in trace_ids:
                continue
            out[s.name] = out.get(s.name, 0) + own
            for name, (_, total) in s.rollups.items():
                out[name] = out.get(name, 0) + total
        return out

    def write_chrome(self, path: Path, metadata: dict) -> None:
        events = []
        for i, s in enumerate(self.spans):
            args = dict(s.args, span_id=i, parent=s.parent,
                        trace_id=s.trace_id)
            for name, (calls, total) in s.rollups.items():
                args[name] = {"calls": calls, "total_us": total / 1e3}
            events.append({
                "name": s.name, "ph": "X", "pid": 1, "tid": s.trace_id,
                "ts": s.start_ns / 1e3, "dur": s.duration_ns / 1e3,
                "args": args,
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms",
             "otherData": metadata},
        ))


def summarize(samples) -> dict:
    """Median plus the highest tail percentile with enough samples beyond."""
    values = np.asarray(samples, dtype=float)
    n = int(values.size)
    if n == 0:
        return {"median": 0.0, "n": 0, "tail_p": None, "tail": None}
    out = {"median": float(np.median(values)), "n": n,
           "tail_p": None, "tail": None}
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            out["tail_p"] = p
            out["tail"] = float(np.percentile(values, p))
            break
    return out


def format_timing(name: str, stats: dict, unit: str) -> str:
    line = f"{name:<40} {stats['median']:>14.6g} {unit:<6}"
    if stats["tail_p"] is not None:
        line += f" p{stats['tail_p']:g}={stats['tail']:.6g}"
    else:
        line += " (no tail percentile: too few samples)"
    return line + f" n={stats['n']}"
