"""The statement pipeline seam: one prepare/execute path for a live
database and a snapshot of it, the epoch-keyed plan cache, and options
that travel as an argument."""

import os
import subprocess
import sys

import pytest

from repro import Database, ExecutionOptions, connect
from repro.core.optimizer import CostModel, Optimizer, Statistics
from repro.excess import pipeline
from repro.obs import Tracer
from repro.obs.metrics import (SERVER_PLAN_CACHE_HITS,
                               SERVER_PLAN_CACHE_MISSES)
from repro.options import ENGINES
from repro.workloads import build_university

READ_SCRIPT = """
    range of E is Employees
    retrieve (E.name, E.salary) where E.dept.floor = 2
    retrieve unique (S.dept.name) from S in Students where S.gpa > 3.0
"""

NUMS = """
    create Nums: { int4 }
    append to Nums value (1)
"""


def optimizer_over(catalog, engine="compiled"):
    """The reader-sized optimizer, over whichever catalog is given."""
    model = CostModel(Statistics.from_database(catalog), engine=engine,
                      indexes=catalog.indexes)
    return Optimizer(cost_model=model, max_depth=3, max_trees=500)


@pytest.mark.parametrize("engine", ENGINES)
def test_database_and_its_snapshot_prepare_alike(engine):
    db = build_university(n_departments=3, n_employees=12, n_students=15,
                          seed=7).db
    view = db.transactions().snapshot()
    options = ExecutionOptions(engine=engine)

    def prepared(catalog):
        ranges, ctx = {}, catalog.context()
        optimizer = optimizer_over(catalog, engine)
        steps = [pipeline.prepare(statement, catalog, ranges, options,
                                  optimizer)
                 for statement in pipeline.statements(READ_SCRIPT)]
        plans = [step.expr.describe() for step in steps
                 if step.expr is not None]
        rows = [pipeline.execute(step, catalog, ctx, ranges).value
                for step in steps]
        return plans, rows

    live_plans, live_rows = prepared(db)
    snap_plans, snap_rows = prepared(view)
    assert len(live_plans) == 2 and live_plans == snap_plans
    assert live_rows == snap_rows and len(live_rows[1]) > 0


def read_at_snapshot(db, cache, source="retrieve (N) from N in Nums",
                     tracer=None):
    view = db.transactions().snapshot()
    ctx = view.context()
    ctx.tracer = tracer
    return pipeline.run_script(source, view, ctx, {}, ExecutionOptions(),
                               lambda: optimizer_over(view), cache=cache)


def test_cached_script_misses_at_a_new_epoch_and_sees_the_commit():
    db = Database()
    conn = connect(db)
    conn.execute(NUMS)
    cache = pipeline.PlanCache()
    hits, misses = (SERVER_PLAN_CACHE_HITS.value(),
                    SERVER_PLAN_CACHE_MISSES.value())
    assert len(read_at_snapshot(db, cache)[-1].rows()) == 1
    assert len(read_at_snapshot(db, cache)[-1].rows()) == 1
    assert SERVER_PLAN_CACHE_MISSES.value() == misses + 1
    assert SERVER_PLAN_CACHE_HITS.value() == hits + 1

    conn.execute("append to Nums value (2)")
    assert len(read_at_snapshot(db, cache)[-1].rows()) == 2
    assert SERVER_PLAN_CACHE_MISSES.value() == misses + 2
    assert SERVER_PLAN_CACHE_HITS.value() == hits + 1
    assert cache.epoch == db.transactions().version


def test_only_read_scripts_enter_the_cache():
    db = Database()
    connect(db).execute(NUMS)
    cache = pipeline.PlanCache()
    read_at_snapshot(db, cache, "range of N is Nums retrieve (N)")
    assert len(cache.entries) == 1
    with pytest.raises(Exception, match="snapshot reader"):
        read_at_snapshot(db, cache, "retrieve (N) from N in Nums into M")
    assert len(cache.entries) == 1


def test_traced_run_leaves_the_cache_untouched():
    db = Database()
    connect(db).execute(NUMS)
    cache = pipeline.PlanCache()
    hits, misses = (SERVER_PLAN_CACHE_HITS.value(),
                    SERVER_PLAN_CACHE_MISSES.value())
    result = read_at_snapshot(db, cache, tracer=Tracer(enabled=True))[-1]
    assert result.trace is not None
    assert cache.epoch is None and not cache.entries
    assert (SERVER_PLAN_CACHE_HITS.value(),
            SERVER_PLAN_CACHE_MISSES.value()) == (hits, misses)


def test_override_is_an_argument_not_connection_state():
    db = Database()
    a, b = connect(db), connect(db)
    a.execute(NUMS)
    seen = []
    db.register_function(
        "peek", lambda x: (seen.append((a.options, b.options,
                                        b.tracing)), x)[1])
    before = (a.options, a.tracing)
    override = ExecutionOptions(engine="batched", trace=True,
                                checks="verify")

    result = a.execute("retrieve (peek(N)) from N in Nums",
                       options=override)
    assert result.engine == "batched" and result.trace is not None
    # While the override ran, nobody's options had moved.
    assert seen == [(ExecutionOptions(), ExecutionOptions(), False)]
    assert (a.options, a.tracing) == before

    with pytest.raises(Exception):
        a.execute("retrieve (N) from N in Nums "
                  "retrieve (X) from X in NoSuch", options=override)
    assert (a.options, a.tracing) == before
    plain = b.execute("retrieve (N) from N in Nums")
    assert plain.engine == "compiled" and plain.trace is None


def test_connect_and_execute_raise_no_deprecation_warning():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c",
         "import repro; repro.connect().execute('retrieve (1)')"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
