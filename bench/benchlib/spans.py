"""The bench-side span recorder.

Layer timing is done from outside: the benchmark wraps calls into each
module's public functions in :meth:`SpanRecorder.span`.  A span is
``(name, start, end, parent, request_id)``; spans nest by the ``with``
structure, and a span's *self time* is its duration minus the part its
children cover.  Spans stay in memory and are written out once, when
the benchmark ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "request_id",
                 "child_time")

    def __init__(self, name: str, parent: Optional[int], request_id: Any):
        self.name = name
        self.parent = parent
        self.request_id = request_id
        self.start = 0.0
        self.end = 0.0
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class SpanRecorder:
    """Records nested spans; ``enabled=False`` makes :meth:`span` a
    bare ``yield`` so the same replay code measures its own overhead."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.request_id: Any = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.request_id)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = perf_counter()
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += span.duration

    def self_times(self) -> Dict[str, List[float]]:
        """Span name -> every recorded self time, in seconds."""
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            out.setdefault(span.name, []).append(span.self_time)
        return out

    def per_request(self, name: str) -> List[float]:
        """Self seconds of span *name* summed within each request that
        has one."""
        sums: Dict[Any, float] = {}
        for span in self.spans:
            if span.name == name:
                sums[span.request_id] = (sums.get(span.request_id, 0.0)
                                         + span.self_time)
        return list(sums.values())

    def dump(self, path: str, **header: Any) -> None:
        """Write every span (times in microseconds from the first
        span's start) as one JSON document."""
        origin = self.spans[0].start if self.spans else 0.0
        rows = [{"id": i, "name": s.name, "parent": s.parent,
                 "request_id": s.request_id,
                 "start_us": round((s.start - origin) * 1e6, 3),
                 "end_us": round((s.end - origin) * 1e6, 3),
                 "self_us": round(s.self_time * 1e6, 3)}
                for i, s in enumerate(self.spans)]
        with open(path, "w") as handle:
            json.dump(dict(header, spans=rows), handle)
            handle.write("\n")
