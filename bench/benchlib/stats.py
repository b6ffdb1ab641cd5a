"""Percentiles, the tail-selection rule, slice quartiles, and spread.

Every latency the benchmark reports goes through :func:`summarize`:
the timed window is cut into equal time slices of about a second, each
slice yields its own statistic, and the reported value is the
**quartile of the slices on the metric's good side** — the lower
quartile of the slices' latencies, the upper quartile of their
completion rates.  What a shared host does to a run only ever slows
it, for a second or for half a minute; the quarter of the window it
disturbed least is the program's own speed, and a change to the
program moves every slice, so it moves that quarter too.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

#: Candidate tail percentiles, highest first.
TAILS = (99, 95, 90, 75)

#: A percentile is supported when at least this many samples lie
#: beyond it (choosing-metrics §1).
MIN_BEYOND = 10

#: Width of a slice: a whole number of ``wire_mixed_rw``'s half-second
#: writer periods, so every slice holds the same writes.
SLICE_SECONDS = 1.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    *pct* percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100.0))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """How many of *count* samples lie strictly beyond percentile *pct*."""
    return count - max(1, math.ceil(pct * count / 100.0))


def pick_tail(count: int) -> int:
    """The highest of p99/p95/p90/p75 with >= 10 of *count* samples
    beyond it; p75 when even that is unsupported (the caller records
    the sample count so the shortfall is visible)."""
    for pct in TAILS:
        if beyond(count, pct) >= MIN_BEYOND:
            return pct
    return TAILS[-1]


def slice_count(count: int, pct: float, seconds: float) -> int:
    """One slice per SLICE_SECONDS of a *seconds* window, but no more
    than leave every slice >= 10 samples beyond percentile *pct*; one
    slice when too few."""
    return max(1, min(int(seconds / SLICE_SECONDS),
                      beyond(count, pct) // MIN_BEYOND))


def slices(samples: Sequence[tuple], start: float, end: float,
           k: int) -> List[List[tuple]]:
    """Cut ``(completed_at, value, ...)`` samples into *k* equal time
    slices of ``[start, end)``."""
    width = (end - start) / k
    out: List[List[tuple]] = [[] for _ in range(k)]
    for sample in samples:
        index = min(k - 1, max(0, int((sample[0] - start) / width)))
        out[index].append(sample)
    return out


def completion_rate(part: Sequence[tuple], width: float) -> float:
    """Completions per second in one slice: intervals between first
    and last completion over the time they span, which unlike
    ``count / width`` does not move in steps when samples are few."""
    if len(part) < 2:
        return len(part) / width
    times = [sample[0] for sample in part]
    return (len(part) - 1) / (max(times) - min(times))


def summarize(samples: Sequence[tuple], start: float, end: float,
              tail_pct: int) -> Dict[str, float]:
    """Good-side quartile over slices of the p50, the tail, and the
    completion rate of one timed window.  *samples* are
    ``(completed_at, latency_ms, ...)`` tuples."""
    if not samples:
        raise ValueError("no samples in the timed window")
    k = slice_count(len(samples), tail_pct, end - start)
    parts = slices(samples, start, end, k)
    values = [[sample[1] for sample in part] for part in parts if part]
    width = (end - start) / k
    return {
        "p50": percentile([percentile(v, 50) for v in values], 25),
        "tail": percentile([percentile(v, tail_pct) for v in values], 25),
        "rate": percentile([completion_rate(part, width) for part in parts],
                           75),
        "count": len(samples),
        "slices": k,
        "beyond_tail": beyond(len(samples), tail_pct),
    }


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the driver's
    run-to-run steadiness measure."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else float("inf")
