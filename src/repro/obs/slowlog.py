"""Slow-query log: a bounded ring of statements over a latency threshold."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

__all__ = ["SlowQuery", "SlowQueryLog"]


@dataclass
class SlowQuery:
    """One slow statement: what ran, how long, and its counters."""

    source: str
    seconds: float
    stats: Dict[str, int] = field(default_factory=dict)
    engine: str = ""
    #: Connection/client identifier when the statement arrived over the
    #: network server (e.g. ``"c3"``); empty for local sessions.
    client: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"source": self.source, "seconds": self.seconds,
                "engine": self.engine, "client": self.client,
                "stats": dict(self.stats)}


class SlowQueryLog:
    """Keeps the most recent statements slower than ``threshold``
    seconds, newest last, bounded by ``capacity``.

    ``threshold=None`` disables recording entirely; ``threshold=0.0``
    records everything (useful in tests).  Appends are GIL-atomic
    (deque), so the server's reader threads and writer thread share one
    log without extra locking."""

    def __init__(self, threshold: Optional[float] = 0.1,
                 capacity: int = 128):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.threshold = threshold
        self.capacity = capacity
        self._entries: Deque[SlowQuery] = deque(maxlen=capacity)

    def slow(self, seconds: float) -> bool:
        """Would a statement that took *seconds* be recorded?  (Ask
        before rendering its source: most statements are not.)"""
        return self.threshold is not None and seconds >= self.threshold

    def observe(self, source: str, seconds: float,
                stats: Optional[Dict[str, int]] = None,
                engine: str = "", client: str = "") -> Optional[SlowQuery]:
        """Record *source* if it crossed the threshold; returns the
        entry when recorded, else None."""
        if not self.slow(seconds):
            return None
        entry = SlowQuery(source=source, seconds=seconds,
                          stats=dict(stats or {}), engine=engine,
                          client=client)
        self._entries.append(entry)
        return entry

    def entries(self) -> List[SlowQuery]:
        return list(self._entries)

    def by_client(self) -> Dict[str, List[SlowQuery]]:
        """Entries grouped by client id (``""`` for local sessions) —
        the attribution view the server's ``/slowlog`` endpoint serves."""
        out: Dict[str, List[SlowQuery]] = {}
        for entry in self._entries:
            out.setdefault(entry.client, []).append(entry)
        return out

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return True

    def render(self) -> str:
        """Human-readable table, slowest first."""
        if not self._entries:
            return "slow-query log is empty"
        rows = sorted(self._entries, key=lambda e: -e.seconds)
        lines = ["%8s  %-9s  %-6s  %s"
                 % ("seconds", "engine", "client", "statement")]
        for entry in rows:
            src = " ".join(entry.source.split())
            if len(src) > 60:
                src = src[:57] + "..."
            lines.append("%8.4f  %-9s  %-6s  %s"
                         % (entry.seconds, entry.engine or "-",
                            entry.client or "-", src))
        return "\n".join(lines)
