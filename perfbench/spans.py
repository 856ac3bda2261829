"""In-memory span tracer used by the traced benchmark runs.

Spans are recorded around the benchmark's own calls into each layer: a name,
start and end (``perf_counter_ns``), the id of the enclosing span and a job
or request id.  They stay in memory and are written out once, at the end of
the run, as JSONL and as Chrome trace-event JSON (which Perfetto opens).

A disabled tracer runs the same ``with tracer.span(...)`` statements but
records nothing, so "traced wall minus untraced wall" over the same code is
the tracing overhead.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["Span", "Tracer", "covered_ns", "self_times_ns"]


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    job: str | None
    thread: int
    args: dict[str, object] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans; nesting is tracked per thread."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, job: str | None = None, **args: object) -> Iterator[dict]:
        """Time the ``with`` block as one span; yields its mutable ``args``."""
        if not self.enabled:
            yield args
            return
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield args
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            span = Span(span_id, name, start, end, parent, job, threading.get_ident(), args)
            with self._lock:
                self.spans.append(span)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def durations_ns(self, name: str) -> list[int]:
        return [span.duration_ns for span in self.spans if span.name == name]

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start_ns):
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON: one complete ("X") event per span."""
        origin = min((span.start_ns for span in self.spans), default=0)
        threads: dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start_ns):
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (span.start_ns - origin) / 1000.0,
                    "dur": span.duration_ns / 1000.0,
                    "pid": os.getpid(),
                    "tid": tid,
                    "args": {"id": span.id, "parent": span.parent, "job": span.job, **span.args},
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _union_ns(intervals: Iterable[tuple[int, int]]) -> int:
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def covered_ns(span: Span, children: Iterable[Span]) -> int:
    """How much of ``span``'s interval its children cover (overlaps counted once)."""
    return _union_ns(
        (max(child.start_ns, span.start_ns), min(child.end_ns, span.end_ns))
        for child in children
        if child.end_ns > span.start_ns and child.start_ns < span.end_ns
    )


def self_times_ns(spans: Iterable[Span]) -> dict[str, int]:
    """Total self time per span name: duration minus the part children cover."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    totals: dict[str, int] = {}
    for span in spans:
        own = span.duration_ns - covered_ns(span, children.get(span.id, ()))
        totals[span.name] = totals.get(span.name, 0) + own
    return totals
