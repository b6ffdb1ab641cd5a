"""The unified ``connect()``/``execute()`` entry point.

Covers the Connection surface, the self-describing Result, and the
per-statement stats-hygiene guarantees (counters describe exactly one
statement, even when a prior statement aborted mid-pipeline).
"""

import gc
import warnings

import pytest

from repro import Connection, Database, ExecutionOptions, MultiSet, connect
from repro.core.expr import Named, evaluate
from repro.core.operators import SetCollapse
from repro.obs import QueryStats, Span

DDL = """
create Nums: { int4 }
append to Nums value (1)
append to Nums value (2)
append to Nums value (2)
"""


def fresh_connection(**kwargs):
    conn = connect(**kwargs)
    conn.execute(DDL)
    return conn


# -- connect() ------------------------------------------------------------

def test_connect_defaults_to_fresh_in_memory_database():
    conn = connect()
    assert isinstance(conn, Connection)
    assert conn.engine == "compiled"
    assert conn.tracing is False
    assert isinstance(conn.db, Database)


def test_connect_wraps_an_existing_database():
    db = Database()
    db.create("Xs", MultiSet([1, 2]))
    conn = connect(db, ExecutionOptions(engine="interpreted"))
    assert conn.db is db
    assert conn.execute("retrieve (X) from X in Xs").value is not None


def test_connection_is_a_context_manager():
    with connect() as conn:
        conn.execute("create Xs: { int4 }")
    with pytest.raises(RuntimeError):
        conn.execute("retrieve (X) from X in Xs")


# -- Result ---------------------------------------------------------------

def test_result_is_self_describing():
    conn = fresh_connection()
    result = conn.execute("retrieve (N) from N in Nums")
    assert result.kind == "retrieve"
    assert result.engine == "compiled"
    assert result.seconds > 0
    assert isinstance(result.stats, QueryStats)
    assert result.trace is None  # tracing off by default
    assert sorted(t["N"] for t in result.rows()) == [1, 2, 2]  # counts expanded
    assert len(result.all) == 1
    explained = result.explain()
    assert "SET_APPLY" in explained or "Nums" in explained


def test_execute_returns_last_result_with_all_attached():
    conn = connect()
    result = conn.execute(DDL)
    assert len(result.all) == 4
    kinds = [r.kind for r in result.all]
    assert kinds[0] == "ddl" and kinds[-1] == "append"


def test_empty_script_yields_an_empty_result():
    conn = connect()
    result = conn.execute("   ")
    assert result.value is None
    assert result.all == []


def test_traced_result_carries_a_span_tree():
    conn = fresh_connection(options=ExecutionOptions(trace=True))
    result = conn.execute("retrieve (N) from N in Nums where N > 1")
    assert isinstance(result.trace, Span)
    assert result.trace.kind == "statement"
    assert result.trace.find_all(kind="operator")
    rendered = result.explain()
    assert "actual card=" in rendered


def test_tracing_toggle_is_live():
    conn = fresh_connection()
    assert conn.execute("retrieve (N) from N in Nums").trace is None
    conn.tracing = True
    assert conn.execute("retrieve (N) from N in Nums").trace is not None
    conn.tracing = False
    assert conn.execute("retrieve (N) from N in Nums").trace is None


# -- no deprecated spelling left ------------------------------------------

def test_connect_path_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        conn = fresh_connection()
        conn.execute("retrieve (N) from N in Nums")


# -- per-statement stats hygiene ------------------------------------------

def test_stats_reset_between_statements():
    conn = fresh_connection()
    first = conn.execute("retrieve (N) from N in Nums").stats
    second = conn.execute("retrieve (N) from N in Nums").stats
    assert first.as_dict() == second.as_dict()
    assert first.elements_scanned == 3


def test_stats_reset_after_failed_statement():
    conn = fresh_connection()
    clean = conn.execute("retrieve (N) from N in Nums").stats.as_dict()
    with pytest.raises(Exception):
        conn.execute("retrieve (mystery(N)) from N in Nums")
    again = conn.execute("retrieve (N) from N in Nums").stats.as_dict()
    assert again == clean


def test_aborted_pipeline_does_not_leak_stats_at_gc_time():
    """Counters from a statement that died mid-pipeline must not be
    flushed into a *later* statement's stats when Python finally
    collects the abandoned generator frames.

    The held traceback keeps the half-run pipeline generators alive
    past the next ``begin_query()``; the ``gc.collect()`` then
    finalizes them while the follow-up statement's counters are live.
    """
    db = Database()
    db.create("Ints", MultiSet([1, 2, 3]))
    ctx = db.context()
    ctx.begin_query()
    with pytest.raises(TypeError) as held:
        evaluate(SetCollapse(Named("Ints")), ctx, mode="compiled")

    ctx.begin_query()
    evaluate(Named("Ints"), ctx, mode="compiled")
    baseline = dict(ctx.stats)
    assert baseline.get("elements_scanned", 0) <= 3

    del held
    gc.collect()
    assert dict(ctx.stats) == baseline


def test_connect_durable_directory_and_wal_span(tmp_path):
    home = str(tmp_path / "dbhome")
    conn = connect(home, ExecutionOptions(trace=True))
    conn.execute("create Xs: { int4 }")
    result = conn.execute("append to Xs value (41)")
    wal_spans = result.trace.find_all(kind="wal")
    assert wal_spans and wal_spans[0].name == "wal.commit"
    assert wal_spans[0].meta["records"] >= 1
    conn.close()
    conn.close()  # idempotent, even with a live WAL handle

    reopened = connect(home)
    rows = reopened.execute("retrieve (X) from X in Xs").rows()
    assert [t["X"] for t in rows] == [41]
    reopened.close()


# -- slow-query log -------------------------------------------------------

def test_slow_query_log_captures_over_threshold_statements():
    conn = fresh_connection(slow_query_threshold=0.0)
    conn.slow_log.clear()
    conn.execute("retrieve (N) from N in Nums")
    assert len(conn.slow_log) == 1
    entry = conn.slow_log.entries()[0]
    assert entry.seconds >= 0.0
    assert "Nums" in entry.source
    assert entry.engine == "compiled"
    assert conn.slow_log.render()
    conn.slow_log.clear()
    assert len(conn.slow_log) == 0


def test_slow_query_log_disabled_by_none_threshold():
    conn = fresh_connection(slow_query_threshold=None)
    conn.execute("retrieve (N) from N in Nums")
    assert len(conn.slow_log) == 0
