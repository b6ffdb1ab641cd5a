"""The tracing smoke check: ``make trace-smoke``.

Runs the worked-example queries end-to-end through the public
``connect()``/``execute()`` API with tracing on, and asserts the
observability invariants that the unit suite can't check cheaply in
one place:

* every traced statement yields a non-empty span tree whose plan and
  operator spans carry cardinalities, and EXPLAIN ANALYZE renders the
  estimated-vs-actual deviation for it;
* ``CostModel.calibrate`` harvests actual cardinalities from a trace;
* the process-wide metrics registry survives a Prometheus round-trip;
* a *disabled* tracer stays within the overhead bound (<5%) of an
  untraced run — the "observability is free when off" guarantee.

Timing note: the overhead gate takes the best of several interleaved
trials precisely because CI machines are noisy; a single pair of
timings would gate on scheduler luck, the minimum gates on the code.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

from ..api import ExecutionOptions, connect
from ..core.optimizer import CostModel, Statistics
from ..obs.metrics import REGISTRY, parse_prometheus
from .university import build_university

#: The Section 2.2 / figure queries the examples run, in EXCESS text.
EXAMPLE_QUERIES: Tuple[Tuple[str, str], ...] = (
    ("q1-children-of-floor-2", """
        range of E is Employees
        retrieve (C.name) from C in E.kids where E.dept.floor = 2
    """),
    ("fig4-functional-join", """
        retrieve (Employees.dept.name) where Employees.city = "Madison"
    """),
    ("grp-by-division", """
        range of S is Students
        retrieve (S.name) by S.dept.division where S.dept.floor = 2
    """),
    ("salary-filter", """
        range of E is Employees
        retrieve (E.name, E.salary) where E.salary > 50000
    """),
)

#: Repetitions for the overhead measurement (per trial, per arm).
_REPS = 30
_TRIALS = 5
_OVERHEAD_BOUND = 1.05


def _check(echo: Callable[[str], None], name: str, ok: bool,
           detail: str = "") -> bool:
    echo("%s  %-34s %s" % ("PASS" if ok else "FAIL", name, detail))
    return ok


def _time_arm(run: Callable[[], object]) -> float:
    started = time.perf_counter()
    for _ in range(_REPS):
        run()
    return time.perf_counter() - started


def run_trace_smoke(echo: Callable[[str], None] = print) -> int:
    """Run every check; prints one PASS/FAIL line each, returns 0/1."""
    started = time.time()
    uni = build_university(n_departments=4, n_employees=40, n_students=60,
                           advisor_pool=5, seed=3)
    conn = connect(uni.db, ExecutionOptions(trace=True))
    model = CostModel(Statistics.from_database(uni.db))
    ok = True

    # -- 1. span trees + EXPLAIN ANALYZE for the example queries -------
    for name, query in EXAMPLE_QUERIES:
        result = conn.execute(query, optimize=False)
        trace = result.trace
        spans = trace.span_count() if trace is not None else 0
        operators = trace.find_all(kind="operator") if trace else []
        rendered = result.explain(cost_model=model)
        ok &= _check(
            echo, name,
            trace is not None and spans >= 3 and bool(operators)
            and "actual card=" in rendered and "est card≈" in rendered,
            "%d spans, %d operators" % (spans, len(operators)))

    # -- 2. calibration harvests actuals from the trace ----------------
    result = conn.execute(EXAMPLE_QUERIES[1][1], optimize=False)
    adjusted = model.calibrate(result.trace)
    ok &= _check(echo, "calibrate-from-trace",
                 bool(adjusted["objects"]),
                 "objects=%s" % sorted(adjusted["objects"]))

    # -- 3. metrics registry round-trip --------------------------------
    text = REGISTRY.to_prometheus()
    parsed = parse_prometheus(text)
    ok &= _check(echo, "prometheus-round-trip", len(parsed) > 0,
                 "%d samples" % len(parsed))

    # -- 4. disabled-tracer overhead bound -----------------------------
    conn.tracing = False
    bare = connect(uni.db, ExecutionOptions())
    bare.session.context.tracer = None      # the engines see no tracer
    query = EXAMPLE_QUERIES[0][1]

    def run_disabled() -> object:
        return conn.execute(query, optimize=False)

    def run_untraced() -> object:
        return bare.execute(query, optimize=False)

    ratios: List[float] = []
    for _ in range(_TRIALS):
        baseline = _time_arm(run_untraced)
        disabled = _time_arm(run_disabled)
        ratios.append(disabled / baseline)
    best = min(ratios)
    ok &= _check(echo, "disabled-tracer-overhead",
                 best < _OVERHEAD_BOUND,
                 "best %.3fx over %d trials (bound %.2fx)"
                 % (best, _TRIALS, _OVERHEAD_BOUND))

    echo("trace smoke %s in %.1fs"
         % ("PASSED" if ok else "FAILED", time.time() - started))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(run_trace_smoke())
