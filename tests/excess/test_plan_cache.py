"""The session plan cache: a local connection replays a prepared read
script for as long as ``Database.version`` says nothing it read has
changed.

The differential drives seeded interleavings of read scripts with every
kind of change ``Database.version`` counts and with transaction control,
and requires every read to equal the answer of a connection opened at
that moment.  The named tests below pin the two ways a narrower epoch
(store version plus a create/drop counter) answers wrongly.
"""

import random

import pytest

from repro import ExecutionOptions, connect
from repro.core.expr import Const, Input
from repro.core.operators import Deref, TupExtract
from repro.core.optimizer import CostModel, Optimizer, Statistics
from repro.core.values import MultiSet, Tup
from repro.excess import pipeline
from repro.obs.metrics import (CONNECTION_PLAN_CACHE_HITS,
                               CONNECTION_PLAN_CACHE_MISSES,
                               SANITIZER_CHECKS_TOTAL,
                               SERVER_PLAN_CACHE_HITS,
                               SERVER_PLAN_CACHE_MISSES)
from repro.options import ENGINES
from repro.storage import Database
from repro.workloads import build_university
from repro.workloads.dispatch import build_population, define_boss_methods
from repro.workloads.university import CITIES

#: Read scripts: range declarations, method calls (⊎ plans over P),
#: an array subscript, an indexable σ, a path join, a nested range, a
#: registered function, and a name that comes and goes.
READS = (
    "range of E is Employees "
    "retrieve (E.name, E.salary) where E.dept.floor = 2",
    "retrieve (p.boss) from p in P",
    "retrieve (TopTen[2].name, TopTen[2].salary)",
    'retrieve (E.name) from E in Employees where E.city = "Madison"',
    "retrieve unique (S.advisor.name) from S in Students",
    "range of E is Employees retrieve (C.name) from C in E.kids "
    "where E.dept.floor = 2",
    "retrieve (twice(N)) from N in Nums",
    "retrieve (T) from T in Temp",
)

#: The key of the keyed index the mutations create and drop.
CITY = TupExtract("city", Deref(Input()))

CHECKED = [ExecutionOptions(engine=engine, checks=checks)
           for engine in ENGINES for checks in ("off", "analyze")]


def _ids(options):
    return "%s-%s" % (options.engine, options.checks)


def university():
    uni = build_university(n_departments=3, n_employees=9, n_students=8,
                           seed=5)
    build_population(uni)
    define_boss_methods(uni)
    connect(uni.db).execute("create Nums: { int4 } "
                            "append to Nums value (1)")
    uni.db.register_function("twice", lambda x: 2 * x)
    return uni


def connect_now(db, options):
    """A connection whose optimizer prices plans on the statistics of
    this moment, under the reader-sized search budget (the budget
    shapes plans, never answers)."""
    model = CostModel(Statistics.from_database(db), engine=options.engine,
                      indexes=db.indexes)
    return connect(db, options, optimizer=Optimizer(
        cost_model=model, max_depth=3, max_trees=500))


def outcome(conn, source):
    """The last statement's value, or the error's type name."""
    try:
        return "ok", conn.execute(source).value
    except Exception as error:      # both sides must fail alike
        return "error", type(error).__name__


def employee_oids(db):
    return sorted(ref.oid for ref in db.get("Employees").elements()
                  if ref.oid in db.store)


# -- mutations: one per kind Database.version counts ----------------------

def append_num(db, conn, rng):
    conn.execute("append to Nums value (%d)" % rng.randrange(5))


def delete_nums(db, conn, rng):
    conn.execute("range of N is Nums delete N where N >= %d"
                 % rng.randrange(4))


def update_salaries(db, conn, rng):
    conn.execute('range of E is Employees replace E '
                 '(salary = E.salary + 1000) where E.city = "%s"'
                 % rng.choice(CITIES))


def insert_employee(db, conn, rng):
    oid = rng.choice(employee_oids(db))
    clone = db.store.get(oid).replace(name="New %d" % rng.randrange(99),
                                      city="Madison")
    ref = db.store.insert(clone, "Employee")
    db.create("Employees", db.get("Employees").add_union(MultiSet([ref])))


def insert_orphan(db, conn, rng):
    db.store.insert(Tup({"name": "nobody"}, type_name="Person"), "Person")


def delete_object(db, conn, rng):
    db.store.delete(rng.choice(employee_oids(db)))


def migrate_object(db, conn, rng):
    db.store.migrate(rng.choice(employee_oids(db)), "Person")


def toggle_temp(db, conn, rng):
    if "Temp" in db:
        db.drop("Temp")
    else:       # a named create through ``into``, with its created type
        conn.execute("retrieve (N) from N in Nums into Temp")


def define_type(db, conn, rng):
    conn.execute("define type Extra%d: (a: int4)" % len(db.types.names()))


def add_hierarchy_type(db, conn, rng):
    db.hierarchy.add_type("Tag%d" % len(db.hierarchy.types()))


def redefine_boss(db, conn, rng):
    db.methods.define(rng.choice(("Person", "Employee", "Student")),
                      "boss", [], Const("X%d" % rng.randrange(3)))


def register_twice(db, conn, rng):
    factor = rng.randrange(2, 5)
    db.register_function("twice", lambda x: factor * x)


def toggle_index(db, conn, rng):
    if db.indexes.has_definition("Employees", "keyed"):
        db.indexes.drop_index("keyed", "Employees")
    else:
        db.indexes.create_index("keyed", "Employees", CITY)


def transaction_control(db, conn, rng):
    manager = db.transactions()
    txn = manager.active
    if txn is None:
        manager.begin()
    elif txn.savepoints and rng.random() < 0.4:
        manager.rollback_to(rng.choice(sorted(txn.savepoints)))
    else:
        rng.choice((manager.savepoint, manager.savepoint, manager.abort,
                    manager.commit))()


MUTATIONS = (append_num, delete_nums, update_salaries, insert_employee,
             insert_orphan, delete_object, migrate_object, toggle_temp,
             define_type, add_hierarchy_type, redefine_boss, register_twice,
             toggle_index, transaction_control, transaction_control)


@pytest.mark.parametrize("options", CHECKED, ids=_ids)
def test_cached_reads_equal_a_fresh_connection(options):
    rng = random.Random(_ids(options))     # one interleaving per case
    db = university().db
    cached = connect_now(db, options)
    hits = CONNECTION_PLAN_CACHE_HITS.value()
    for _ in range(30):
        mutation = rng.choice(MUTATIONS)
        mutation(db, cached, rng)
        fresh = connect_now(db, options)
        for source in rng.sample(READS, 3):
            first = outcome(cached, source)
            assert outcome(cached, source) == first, (mutation, source)
            assert first == outcome(fresh, source), (mutation, source)
    manager = db.txn
    if manager is not None and manager.active is not None:
        manager.abort()
    assert CONNECTION_PLAN_CACHE_HITS.value() > hits


def test_version_advances_on_every_change_and_never_goes_back():
    db = university().db
    conn = connect(db)
    rng = random.Random(0)
    for mutation in MUTATIONS:
        if mutation is transaction_control:
            continue
        before = db.version
        mutation(db, conn, rng)
        assert db.version > before, mutation.__name__
    manager = db.transactions()
    manager.begin()
    point = manager.savepoint()
    conn.execute("append to Nums value (7)")
    seen = db.version
    manager.rollback_to(point)
    assert db.version > seen
    conn.execute("append to Nums value (8)")
    seen = db.version
    manager.abort()
    assert db.version > seen


@pytest.mark.parametrize("checks", ["analyze", "sanitize"])
def test_abort_restores_a_population_the_cached_plan_proved_empty(checks):
    """Inside the transaction absint proves ``Nums`` empty and prunes
    the scan; abort puts the row back by writing the name table
    directly, and the pruned plan must not outlive that."""
    conn = connect(Database(), ExecutionOptions(checks=checks))
    conn.execute("create Nums: { int4 }")
    conn.execute("append to Nums value (1)")
    read = "retrieve (N) from N in Nums"
    conn.begin()
    conn.execute("range of N is Nums delete N")
    assert conn.execute(read).rows() == []
    conn.abort()
    assert len(conn.execute(read).rows()) == 1


@pytest.mark.parametrize("engine", ENGINES)
def test_redefined_method_reaches_a_cached_plan(engine):
    """Plans inline method bodies; redefining them must void the plan
    on every engine, not only on the interpreter's run-time dispatch."""
    db = university().db
    conn = connect(db, ExecutionOptions(engine=engine))
    read = "retrieve (p.boss) from p in P"
    assert len(set(conn.execute(read).rows())) > 1
    for type_name in ("Person", "Employee", "Student"):
        db.methods.define(type_name, "boss", [], Const("X"))
    assert {row["boss"] for row in conn.execute(read).rows()} == {"X"}


@pytest.mark.parametrize("engine", ["compiled", "batched"])
def test_index_created_after_caching_is_probed(engine):
    db = Database()
    db.create("Big", MultiSet(Tup({"k": i, "v": i % 7})
                              for i in range(500)))
    conn = connect(db, ExecutionOptions(engine=engine))
    read = "retrieve (B.v) from B in Big where B.k = 7"
    assert conn.execute(read).stats.index_lookups == 0
    db.indexes.create_index("keyed", "Big", TupExtract("k", Input()))
    result = conn.execute(read)
    assert result.rows() == [Tup({"v": 0})]
    assert result.stats.index_lookups > 0


def test_repeated_read_is_a_hit_and_never_calls_the_optimizer():
    db = university().db
    session = connect(db).session
    built = []

    def thunk():
        built.append(1)
        return session.optimizer

    cache = pipeline.PlanCache()
    read = "retrieve (E.name) from E in Employees where E.salary > 1"

    def run():
        return pipeline.run_script(read, db, session.context,
                                   session.ranges, session.options, thunk,
                                   cache=cache)[-1].value

    first = run()
    assert built == [1] and len(cache.entries) == 1
    assert run() == first and built == [1]
    hits = CONNECTION_PLAN_CACHE_HITS.value()
    session.run(read, optimize=True)
    session.run(read, optimize=True)
    assert CONNECTION_PLAN_CACHE_HITS.value() == hits + 1


def test_options_are_part_of_the_key():
    """A per-call override is a different key: the sanitize run is
    prepared afresh (and asserts its facts), never served the
    unchecked plan."""
    conn = connect(university().db)
    read = "retrieve unique (S.advisor.name) from S in Students"
    conn.execute(read)
    misses = CONNECTION_PLAN_CACHE_MISSES.value()
    checks = SANITIZER_CHECKS_TOTAL.value()
    conn.execute(read, options=conn.options.replace(checks="sanitize"))
    assert CONNECTION_PLAN_CACHE_MISSES.value() == misses + 1
    assert SANITIZER_CHECKS_TOTAL.value() > checks


def test_unoptimized_and_traced_runs_bypass_the_cache():
    conn = connect(university().db)
    read = "retrieve (TopTen[2].name)"
    counters = (CONNECTION_PLAN_CACHE_HITS.value(),
                CONNECTION_PLAN_CACHE_MISSES.value())
    conn.execute(read, optimize=False)
    conn.execute(read, options=conn.options.replace(trace=True))
    assert not conn.session.plan_cache.entries
    assert (CONNECTION_PLAN_CACHE_HITS.value(),
            CONNECTION_PLAN_CACHE_MISSES.value()) == counters


def test_assigning_an_optimizer_drops_the_cached_plans():
    conn = connect(university().db)
    conn.execute("retrieve (TopTen[2].name)")
    assert conn.session.plan_cache.entries
    conn.session.optimizer = Optimizer()
    assert not conn.session.plan_cache.entries


def test_session_traffic_stays_off_the_server_counters():
    conn = connect(university().db)
    server = (SERVER_PLAN_CACHE_HITS.value(),
              SERVER_PLAN_CACHE_MISSES.value())
    local = (CONNECTION_PLAN_CACHE_HITS.value(),
             CONNECTION_PLAN_CACHE_MISSES.value())
    conn.execute("retrieve (TopTen[2].name)")
    conn.execute("retrieve (TopTen[2].name)")
    assert (SERVER_PLAN_CACHE_HITS.value(),
            SERVER_PLAN_CACHE_MISSES.value()) == server
    assert (CONNECTION_PLAN_CACHE_HITS.value(),
            CONNECTION_PLAN_CACHE_MISSES.value()) == (local[0] + 1,
                                                      local[1] + 1)
