"""In-memory spans for the traced run.

A span records name, start, end and the span open when it began (its
parent).  Spans are kept in memory and written out once, at the end of the
run.  A span's self time is its duration minus the part of its interval
covered by its children.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, list[float]]:
        """Self time of every span, grouped by name."""
        kids: dict[int, list] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                kids[s.parent].append((s.start, s.end))
        out: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            out[s.name].append(s.duration - covered(kids[s.id], s.start, s.end))
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


class NullTracer:
    """Tracer stand-in for untraced runs: each span is one no-op context."""

    @staticmethod
    def span(name: str):
        return nullcontext()


NULL_TRACER = NullTracer()
