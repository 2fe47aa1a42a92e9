"""Spans around the benchmark's own calls into the system.

A span is (name, start, end, parent, workload, rep). Spans are recorded
from the benchmark's files only — around every call into ``repro`` —
kept in memory, and written out once as a Chrome trace
(``chrome://tracing`` / https://ui.perfetto.dev). Spans *inside*
``src/`` are the telemetry-plane issue's, not this benchmark's.

A disabled tracer records nothing, so the untraced run pays two function
calls per span and no allocation.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    workload: str
    rep: int | None


class Tracer:
    def __init__(self, workload: str, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, rep: int | None = None):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, parent, self.workload, rep)
        )
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (count, total self seconds): a span's duration
        minus the part of it its child spans cover."""
        child_cover = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_cover[span.parent] += span.end - span.start
        out: dict[str, tuple[int, float]] = {}
        for span, covered in zip(self.spans, child_cover):
            count, total = out.get(span.name, (0, 0.0))
            out[span.name] = (count + 1, total + span.end - span.start - covered)
        return out

    def write_chrome(self, path: Path) -> None:
        """Write the spans as Chrome trace 'complete' events (µs)."""
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": os.getpid(),
                "tid": 0,
                "args": {
                    "workload": span.workload,
                    "rep": span.rep,
                    "parent": (
                        None if span.parent is None
                        else self.spans[span.parent].name
                    ),
                },
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
