"""In-memory span recorder and per-layer self time.

A :class:`Tracer` records one :class:`Span` per call of a wrapped function:
its layer name, start, end, parent span and nesting depth.  Spans stay in
memory until the traced sweep ends.

Self time partitions the root span's interval: every instant is charged to
exactly one span, the deepest one open at that instant (the latest started
on a tie).  Nested children are therefore subtracted from their parent, and
overlapping children count once, so the self times of all spans add up to
the root span's duration.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    depth: int = 0
    #: counts recorded at this boundary (calls, bytes, visits, ...).
    counts: Dict[str, float] = field(default_factory=dict)
    #: labels recorded at this boundary (backend, prefetcher family, ...).
    tags: Dict[str, str] = field(default_factory=dict)


class Tracer:
    """Stack-based span recorder for one process and one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            start=self.clock(),
            parent=parent.id if parent else None,
            depth=len(self._stack),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        count: Optional[Callable[[Span, tuple, dict, Any], None]] = None,
    ) -> Callable[..., Any]:
        """*fn* recording a span per call; *count* fills the span's counts."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(span, args, kwargs, result)
            return result

        return traced


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time per span id: each instant charged to its deepest open span.

    A span is clipped to its parent's interval first, so a child can never
    add time outside the span that caused it.
    """
    by_id = {span.id: span for span in spans}
    clipped: Dict[int, Tuple[float, float]] = {}
    for span in sorted(spans, key=lambda s: s.depth):
        start, end = span.start, span.end
        if span.parent is not None and span.parent in clipped:
            lo, hi = clipped[span.parent]
            start, end = max(start, lo), min(end, hi)
        clipped[span.id] = (start, max(start, end))

    events: List[Tuple[float, int, int]] = []
    for span_id, (start, end) in clipped.items():
        if end > start:
            events.append((start, 1, span_id))
            events.append((end, 0, span_id))
    events.sort()

    out = {span.id: 0.0 for span in spans}
    active: set = set()
    previous = None
    for at, is_start, span_id in events:
        if previous is not None and active and at > previous:
            owner = max(
                active, key=lambda i: (by_id[i].depth, clipped[i][0], i)
            )
            out[owner] += at - previous
        previous = at
        if is_start:
            active.add(span_id)
        else:
            active.discard(span_id)
    return out


def totals_by_name(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer name: summed self time (``s``), call count and counts.

    A span tagged ``{key: value}`` also adds its self time to the row's
    ``s.<value>`` entry, which splits a layer by backend, family, ...
    """
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.name, {"s": 0.0, "calls": 0})
        row["s"] += own[span.id]
        row["calls"] += 1
        for key, value in span.counts.items():
            row[key] = row.get(key, 0) + value
        for value in span.tags.values():
            row[f"s.{value}"] = row.get(f"s.{value}", 0.0) + own[span.id]
    return out
