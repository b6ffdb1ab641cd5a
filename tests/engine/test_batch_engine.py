"""Differential tests for the columnar batch engine.

The batch-stressing corpus (wide arrays, deep deref chains, disjoint
typed unions, a skewed type mix) must be bit-identical across
interpreted / compiled / batched execution, and the generator's
coverage is pinned so refactors can't gut it.  Reference extents that
outgrow a batch, type migration inside an open transaction, and the
batched engine behind a server's snapshot-reader pool are checked
against the interpreter too.
"""

import time

import pytest

from repro import Database, ExecutionOptions, MultiSet, connect
from repro.core.engine import compile_batch_plan
from repro.core.expr import Input, Named, evaluate
from repro.core.operators import Deref, SetApply, TupExtract
from repro.core.values import Tup
from repro.workloads.plangen import (BATCH_SEED_BASE, N_BATCH_PLANS,
                                     build_fixture_db, generate_batch_plan,
                                     run_modes)


@pytest.fixture(scope="module")
def fixture_db():
    return build_fixture_db()


# ---------------------------------------------------------------------------
# The batch-stressing differential sweep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(BATCH_SEED_BASE,
                                       BATCH_SEED_BASE + N_BATCH_PLANS))
def test_batch_differential_plan(seed, fixture_db):
    expr = generate_batch_plan(seed)
    modes = run_modes(expr, fixture_db, batched=True)
    reference = modes.pop("interpreted")
    assert "batched" in modes
    for mode, outcome in modes.items():
        assert outcome == reference, "%s diverged on %s" % (mode,
                                                            expr.describe())


def test_batch_corpus_coverage(fixture_db):
    """Pin the corpus shape: deref chains, wide arrays, fused unions,
    and skewed scans must all appear, and most plans must succeed."""
    chains = arrays = unions = skewed = fused = ok = 0
    for seed in range(BATCH_SEED_BASE, BATCH_SEED_BASE + N_BATCH_PLANS):
        expr = generate_batch_plan(seed)
        described = expr.describe()
        chains += "Links" in described
        arrays += "WideArr" in described
        unions += "People" in described
        skewed += "SkewedRefs" in described
        plan = compile_batch_plan(expr)
        fused += any("FUSED_UNION" in note for note in plan.notes)
        outcome, _ = run_modes(expr, fixture_db)["interpreted"]
        ok += outcome == "ok"
    assert chains >= 10, "too few deep deref-chain plans (%d)" % chains
    assert arrays >= 8, "too few wide-array plans (%d)" % arrays
    assert unions >= 10, "too few typed-union plans (%d)" % unions
    assert skewed >= 3, "too few skewed-scan plans (%d)" % skewed
    assert fused >= 10, "fused union scan under-exercised (%d)" % fused
    assert ok >= N_BATCH_PLANS * 0.8, "too many plans fail (%d ok)" % ok


# ---------------------------------------------------------------------------
# Batch-size invariance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch_size", [1, 3, 7, 1024])
def test_results_invariant_under_batch_size(batch_size, fixture_db):
    for seed in range(BATCH_SEED_BASE, BATCH_SEED_BASE + 12):
        expr = generate_batch_plan(seed)
        try:
            reference = evaluate(expr, fixture_db.context(),
                                 mode="interpreted")
        except Exception:
            continue
        plan = compile_batch_plan(expr, batch_size=batch_size)
        value = plan.execute(fixture_db.context())
        assert value == reference, expr.describe()


# ---------------------------------------------------------------------------
# The batched engine through the public API
# ---------------------------------------------------------------------------

SCRIPT = """
create Nums: { int4 }
append to Nums value (1)
append to Nums value (2)
append to Nums value (2)
retrieve (N) from N in Nums where N > 1
"""


def test_batched_engine_via_connect():
    reference = connect(Database(),
                        ExecutionOptions(engine="interpreted"))
    batched = connect(Database(), ExecutionOptions(engine="batched"))
    assert batched.engine == "batched"
    expected = reference.execute(SCRIPT).value
    result = batched.execute(SCRIPT)
    assert result.engine == "batched"
    assert result.value == expected == MultiSet([Tup(N=2), Tup(N=2)])


def test_batched_engine_per_statement_override():
    conn = connect(Database())
    assert conn.engine == "compiled"
    result = conn.execute(
        SCRIPT, options=conn.options.replace(engine="batched"))
    assert result.engine == "batched"
    assert result.value == MultiSet([Tup(N=2), Tup(N=2)])
    # The override is scoped to the one call.
    assert conn.engine == "compiled"
    assert conn.session.options == ExecutionOptions()


# ---------------------------------------------------------------------------
# Reference extents: many batches, empty, and type migration
# ---------------------------------------------------------------------------

def build_pools_db(n_students=30, n_employees=3, n_people=2):
    """A ``Folks`` extent of references in which Students dwarf the
    other exact types, with duplicate occurrences."""
    db = Database()
    h = db.hierarchy
    h.add_type("Person")
    h.add_type("Student", ["Person"])
    h.add_type("Employee", ["Person"])
    refs = []
    for i in range(n_students):
        refs.append(db.store.insert(
            Tup({"name": "s%d" % (i % 5), "gpa": 2 + i % 3},
                type_name="Student"), "Student"))
    for i in range(n_employees):
        refs.append(db.store.insert(
            Tup({"name": "e%d" % i, "gpa": 4}, type_name="Employee"),
            "Employee"))
    for i in range(n_people):
        refs.append(db.store.insert(
            Tup({"name": "p%d" % i, "gpa": 1}, type_name="Person"),
            "Person"))
    db.create("Folks", MultiSet(refs + refs[:4]))  # duplicates
    return db, refs


NAMES = SetApply(TupExtract("name", Deref(Input())), Named("Folks"))

STUDENT_GPAS = SetApply(
    TupExtract("gpa", Deref(Input())),
    SetApply(Input(), Named("Folks"), type_filter=frozenset(["Student"])))


def batched_matches_interpreted(expr, db):
    reference = evaluate(expr, db.context(), mode="interpreted")
    assert evaluate(expr, db.context(), mode="batched") == reference
    return reference


def test_single_pool_spanning_many_batches():
    db, _ = build_pools_db(n_students=100, n_employees=1, n_people=0)
    reference = evaluate(NAMES, db.context(), mode="interpreted")
    for batch_size in (1, 7, 64):
        plan = compile_batch_plan(NAMES, batch_size=batch_size)
        assert plan.execute(db.context()) == reference


def test_empty_extent():
    db, _ = build_pools_db(n_students=0, n_employees=0, n_people=0)
    assert batched_matches_interpreted(NAMES, db) == MultiSet([])


def test_type_migration_mid_transaction():
    """Migrating an object's exact type (Student → Person, legal within
    the allocation pool's cone) must be visible to batched typed
    filters, and roll back with the transaction."""
    db, refs = build_pools_db(n_students=8, n_employees=2, n_people=2)
    before = batched_matches_interpreted(STUDENT_GPAS, db)
    db.begin()
    db.store.migrate(refs[0].oid, "Person")
    mid = batched_matches_interpreted(STUDENT_GPAS, db)
    assert len(mid) < len(before)
    db.abort()
    assert batched_matches_interpreted(STUDENT_GPAS, db) == before


# ---------------------------------------------------------------------------
# Snapshot isolation under the server's reader pool
# ---------------------------------------------------------------------------

@pytest.fixture
def batched_server(tmp_path):
    from repro.server import Server, ServerThread
    server = Server(str(tmp_path / "db"),
                    ExecutionOptions(engine="batched"),
                    query_timeout=10.0, slow_query_threshold=None)
    with ServerThread(server):
        yield server


def test_batched_reader_pool_snapshot_isolation(batched_server):
    """The batched server reader pool serves committed state only, and
    its replies match an interpreted connection over the same data."""
    from repro.server.client import ServerClient
    query = "retrieve (x) from x in Nums"

    def reads(client):
        return sorted(r.fields[0][1] for r in client.execute(query).rows())

    with ServerClient(batched_server.port) as writer, \
            ServerClient(batched_server.port) as reader:
        writer.execute("create Nums: { int4 }")
        writer.atomic("append to Nums value (1) append to Nums value (2)")
        assert reads(reader) == [1, 2]
        writer.begin()
        writer.execute("append to Nums value (99)")
        # The open transaction's append must stay invisible to batched
        # readers.
        assert reads(reader) == [1, 2]
        writer.commit()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            rows = reads(reader)
            if rows == [1, 2, 99]:
                break
            time.sleep(0.02)
        assert rows == [1, 2, 99]
    interpreted = connect(Database(), ExecutionOptions(engine="interpreted"))
    interpreted.execute("create Nums: { int4 }\n"
                        "append to Nums value (1)\n"
                        "append to Nums value (2)\n"
                        "append to Nums value (99)")
    expected = sorted(row.fields[0][1]
                      for row in interpreted.execute(query).value)
    assert rows == expected
