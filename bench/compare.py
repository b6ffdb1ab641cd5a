#!/usr/bin/env python3
"""Compare two ``bench/run.py --out`` files, A (the base) and B.

One row per (end-to-end metric, workload): both medians, the ratio
B/A, the wider of the two run-to-run spreads, the bound from
``BENCHMARK.json``, and a verdict —

* ``unresolved`` when the spread exceeds the bound (the runs cannot
  tell a change of that size from noise);
* ``worse`` / ``better`` when B's median is beyond the bound on the
  metric's bad / good side of A's;
* ``same`` otherwise.

``fail_ratio`` gets a row per workload too, and any rise is ``worse``.
Exits non-zero on any ``worse``::

    python3 bench/compare.py A.json B.json
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

from benchlib import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: wire_mixed_rw's write latencies cannot be end-to-end metrics of the
#: driver's contract (every workload must report every one), but they
#: are judged here like the read metric whose bound they borrow.
WRITE_ROWS = {"write_p50_ms": "read_p50_ms", "write_tail_ms": "read_tail_ms"}


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """Metric name -> (better, bound), from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in spec["end_to_end"]}
    for name, like in WRITE_ROWS.items():
        bounds[name] = bounds[like]
    return bounds


def series(document: Dict[str, Any]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> that metric's value in every run."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in document["runs"]:
        cells = dict(run["end_to_end"])
        cells.update({name: cell for name, cell in run["per_layer"].items()
                      if name in WRITE_ROWS})
        for name, cell in cells.items():
            out.setdefault((run["workload"], name), []).append(cell["value"])
        out.setdefault((run["workload"], "fail_ratio"), []).append(
            run["fail_ratio"])
    return out


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float, Optional[float]]:
    """(verdict, B/A, spread) for one metric on one workload."""
    base, new = statistics.median(a), statistics.median(b)
    ratio = new / base if base else float("inf")
    # Quartiles need two runs; a single run has no spread to judge.
    spreads = [stats.spread(side) for side in (a, b) if len(side) >= 2]
    widest = max(spreads) if spreads else None
    worsening = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if widest is not None and widest > bound:
        return "unresolved", ratio, widest
    if worsening > bound:
        return "worse", ratio, widest
    if worsening < -bound:
        return "better", ratio, widest
    return "same", ratio, widest


def compare(a_doc: Dict[str, Any], b_doc: Dict[str, Any],
            bounds: Dict[str, Tuple[str, float]]) -> List[Dict[str, Any]]:
    a_series, b_series = series(a_doc), series(b_doc)
    rows = []
    for key in sorted(a_series):
        if key not in b_series:
            continue
        workload, name = key
        a, b = a_series[key], b_series[key]
        if name == "fail_ratio":
            base, new = statistics.median(a), statistics.median(b)
            rows.append({"workload": workload, "metric": name, "a": base,
                         "b": new, "ratio": None, "spread": None,
                         "bound": 0.0,
                         "verdict": "worse" if new > base else "same"})
            continue
        better, bound = bounds[name]
        what, ratio, widest = verdict(a, b, better, bound)
        rows.append({"workload": workload, "metric": name,
                     "a": statistics.median(a), "b": statistics.median(b),
                     "ratio": ratio, "spread": widest, "bound": bound,
                     "verdict": what})
    return rows


def main(argv: List[str] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    rows = compare(documents[0], documents[1], load_bounds())
    print("%-18s %-18s %12s %12s %9s %8s %6s  %s"
          % ("workload", "metric", "A median", "B median", "B/A",
             "spread", "bound", "verdict"))
    for row in rows:
        print("%-18s %-18s %12.4f %12.4f %9s %8s %6.2f  %s" % (
            row["workload"], row["metric"], row["a"], row["b"],
            "-" if row["ratio"] is None else "%.3f" % row["ratio"],
            "-" if row["spread"] is None else "%.1f%%"
            % (100 * row["spread"]),
            row["bound"], row["verdict"]))
    print("ratios are B/A with A (%s) as the base" % argv[0])
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
