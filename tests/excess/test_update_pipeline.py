"""Updates through the statement pipeline.

``append``/``delete``/``replace`` prepare a *delta plan* like any
retrieve — optimized, checked at ``checks``, lowered on the chosen
engine, traced — and the whole delta is evaluated against the
pre-statement state before one storage call applies it.  Only a T
verdict removes or replaces an element, and an element qualifies once,
at its stored count, however many bindings of an implicit set variable
satisfy the predicate.

The differential runs seeded update scripts over the university and
over value collections (duplicates, ``unk`` fields, ``begin``/``abort``)
on every engine × ``checks`` level, and requires every statement's
value, the final named objects and the store to equal an unoptimized
interpreted run's.
"""

import random

import pytest

from repro import ExecutionOptions, connect
from repro.cli import Shell
from repro.core.optimizer import CostModel, Optimizer, Statistics
from repro.core.values import UNK, MultiSet, Tup
from repro.obs.metrics import (SANITIZER_CHECKS_TOTAL,
                               SANITIZER_VIOLATIONS_TOTAL)
from repro.options import ENGINES
from repro.storage import Database
from repro.workloads import build_university

W_DDL = """
define type W: (name: char[], salary: int4, boss: ref W)
create Ws: { ref W }
"""

PTS = MultiSet([Tup(x=1), Tup(x=UNK), Tup(x=7)])


# -- pre-statement semantics ------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("boss_first", [True, False])
def test_replace_reads_the_pre_statement_state(engine, boss_first):
    """A's predicate reads its boss B's salary, which the same statement
    raises; A must see the old salary whichever element comes first."""
    db = Database()
    conn = connect(db, ExecutionOptions(engine=engine))
    conn.execute(W_DDL)
    b = db.store.insert(Tup(name="B", salary=100, boss=UNK), "W")
    a = db.store.insert(Tup(name="A", salary=10, boss=b), "W")
    db.create("Ws", MultiSet([b, a] if boss_first else [a, b]))
    changed = conn.execute(
        "range of X is Ws replace X (salary = X.salary + 1000) "
        "where X.boss.salary > 500 or X.salary = 100").value
    assert changed == 1
    assert db.store.get(b.oid)["salary"] == 1100
    assert db.store.get(a.oid)["salary"] == 10


# -- only T qualifies ---------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
def test_a_u_verdict_keeps_the_element(engine):
    """retrieve answers unk for (x=unk), not the element, so neither
    delete nor replace may touch it."""
    db = Database()
    db.create("Pts", PTS)
    conn = connect(db, ExecutionOptions(engine=engine))
    assert conn.execute("retrieve (P.x) from P in Pts where P.x > 2") \
        .value == MultiSet([Tup(x=7), UNK])
    assert conn.execute("range of P is Pts delete P where P.x > 2") \
        .value == 1
    assert db.get("Pts") == MultiSet([Tup(x=1), Tup(x=UNK)])
    db.create("Pts", PTS)
    assert conn.execute("range of P is Pts replace P (x = 0) where P.x > 2") \
        .value == 1
    assert db.get("Pts") == MultiSet([Tup(x=1), Tup(x=UNK), Tup(x=0)])


@pytest.mark.parametrize("engine", ENGINES)
def test_stored_nulls_are_their_own_answer(engine):
    """COMP passes a null input through, so retrieve answers a stored
    unk with itself and delete takes it, whatever the predicate."""
    db = Database()
    db.create("Nums", MultiSet([1, UNK, 7]))
    conn = connect(db, ExecutionOptions(engine=engine))
    assert conn.execute("retrieve value (N) from N in Nums where N > 2") \
        .value == MultiSet([7, UNK])
    assert conn.execute("range of N is Nums delete N where N > 2") \
        .value == 2
    assert db.get("Nums") == MultiSet([1])


@pytest.mark.parametrize("engine", ENGINES)
def test_a_null_assigned_value_is_stored(engine):
    """Only the where clause decides which elements change: an
    assignment that evaluates to unk stores unk."""
    db = Database()
    db.create("Points", MultiSet([Tup(x=UNK, y=5)]))
    conn = connect(db, ExecutionOptions(engine=engine))
    assert conn.execute("range of P is Points replace P (y = P.x * 10)") \
        .value == 1
    assert db.get("Points") == MultiSet([Tup(x=UNK, y=UNK)])
    conn.execute(W_DDL)
    b = db.store.insert(Tup(name="B", salary=100, boss=UNK), "W")
    a = db.store.insert(Tup(name="A", salary=10, boss=b), "W")
    db.create("Ws", MultiSet([a, b]))
    assert conn.execute("range of X is Ws replace X (boss = X.boss.boss)") \
        .value == 2
    assert db.store.get(a.oid)["boss"] is UNK


@pytest.mark.parametrize("engine", ENGINES)
def test_updates_reach_through_an_undeclared_ref_collection(engine):
    """A collection of refs made without ``create`` is ranged over by
    its stored refs' type, so paths dereference."""
    db = Database()
    one, five = db.store.insert(Tup(v=1)), db.store.insert(Tup(v=5))
    db.create("Box", MultiSet([one, five]))
    conn = connect(db, ExecutionOptions(engine=engine))
    assert conn.execute("range of X is Box replace X (v = X.v + 1)") \
        .value == 2
    assert db.store.get(five.oid) == Tup(v=6)
    assert conn.execute("range of X is Box delete X where X.v > 2") \
        .value == 1
    assert db.get("Box") == MultiSet([one])


@pytest.mark.parametrize("engine", ENGINES)
def test_a_failing_update_rolls_back_what_its_delta_inserted(engine):
    """mkref inserts objects while the delta is evaluated; the replace
    then fails on a non-tuple element, and the whole statement goes."""
    db = Database()
    db.transactions()
    db.create("Mixed", MultiSet([Tup(v=1), 5]))
    conn = connect(db, ExecutionOptions(engine=engine))
    with pytest.raises(Exception, match="needs tuple-valued elements"):
        conn.execute("range of X is Mixed replace X (v = mkref(X))")
    assert len(db.store) == 0
    assert db.get("Mixed") == MultiSet([Tup(v=1), 5])


def test_an_implicit_set_variable_qualifies_each_element_once():
    """retrieve yields one row per satisfying kid; delete removes each
    employee once."""
    uni = build_university(3, 8, 10, seed=13)
    conn = connect(uni.db)
    rows = conn.execute("range of E is Employees retrieve (E.name) "
                        "where E.kids.age > 3").value
    assert len(rows) == 2 * rows.distinct_count() == 16
    removed = conn.execute(
        "range of E is Employees delete E where E.kids.age > 3").value
    assert removed == 8 and len(uni.db.get("Employees")) == 0


def bags(db):
    conn = connect(db)
    conn.execute("define type Item: (a: int4) "
                 "define type Bag: (k: int4, xs: { Item }) "
                 "create Bags: { Bag }")

    def bag(k, *values):
        return db.types.new("Bag", k=k, xs=MultiSet(
            db.types.new("Item", a=a) for a in values))
    db.create("Bags", MultiSet([bag(1, 5, 6), bag(1, 5, 6), bag(2, 1)]))
    return conn, bag


@pytest.mark.parametrize("engine", ENGINES)
def test_duplicates_keep_their_stored_count(engine):
    """Two stored copies, each with two satisfying members: both copies
    go (or change) — never one, never four."""
    db = Database()
    conn, bag = bags(db)
    options = ExecutionOptions(engine=engine)
    assert conn.execute("range of B is Bags replace B (k = 9) "
                        "where B.xs.a > 4", options=options).value == 2
    assert db.get("Bags") == MultiSet([bag(9, 5, 6), bag(9, 5, 6),
                                       bag(2, 1)])
    assert conn.execute("range of B is Bags delete B where B.xs.a > 4",
                        options=options).value == 2
    assert db.get("Bags") == MultiSet([bag(2, 1)])


# -- checks reach every update kind ---------------------------------------------

UPDATES = (
    "append to Dst value (x) from x in Src where x > 3",
    "range of D is Dst delete D where D > 10",
    "range of T is Tups replace T (v = T.v + 1) where T.v > 10",
)


def checked_db():
    db = Database()
    db.create("Src", MultiSet([1, 2, 5, 7]))
    db.create("Dst", MultiSet([3, 11, 12]))
    db.create("Tups", MultiSet([Tup(v=3), Tup(v=11)]))
    return db


@pytest.mark.parametrize("source", UPDATES)
def test_sanitize_checks_every_update_kind(source):
    conn = connect(checked_db(), ExecutionOptions(checks="sanitize"))
    before = SANITIZER_CHECKS_TOTAL.value()
    conn.execute(source)
    assert SANITIZER_CHECKS_TOTAL.value() > before


@pytest.mark.parametrize("source", UPDATES)
def test_analyze_attaches_the_delta_plans_analysis(source):
    conn = connect(checked_db(), ExecutionOptions(checks="analyze"))
    assert conn.execute(source).analysis is not None


# -- observability ---------------------------------------------------------------

def test_an_update_explains_its_delta_plan():
    result = connect(checked_db()).execute(
        "range of D is Dst delete D where D > 10")
    assert result.value == 2 and result.expression is not None
    text = result.explain()
    assert "no plan" not in text and "COMP" in text and "Dst" in text


@pytest.mark.parametrize("engine", ("compiled", "batched"))
def test_an_updates_operator_spans_nest_under_its_statement(engine):
    conn = connect(checked_db(), ExecutionOptions(engine=engine, trace=True))
    root = conn.execute("range of D is Dst delete D where D > 10").trace
    assert root.kind == "statement" and root.name == "delete"
    kinds = {span.kind for span in root.walk()}
    assert {"rule", "plan", "operator"} <= kinds


def test_shell_analyze_runs_a_delete():
    shell = Shell()
    shell.handle_meta(".demo")
    shell.handle_meta(".engine compiled")
    before = len(shell.db.get("Students"))
    text = shell.handle_meta(
        ".analyze range of S is Students delete S where S.gpa < 3.0")
    assert text.startswith("delete") and "Students" in text
    assert "actual" in text or "card=" in text
    assert len(shell.db.get("Students")) < before


# -- the update differential -----------------------------------------------------

def fixture():
    """The university, a ``{ ref Student }`` source of new structures,
    and value collections with duplicates and ``unk`` fields."""
    uni = build_university(n_departments=3, n_employees=9, n_students=10,
                           seed=11)
    db = uni.db
    conn, _ = bags(db)
    conn.execute("create Nums: { int4 } "
                 "define type Pt: (x: int4, y: int4) "
                 "create Pts: { Pt }")
    db.create("Nums", MultiSet([1, 2, 2, 3, 3, 3, 17, UNK]))
    db.create("Pts", MultiSet([Tup(x=1, y=1), Tup(x=UNK, y=2),
                               Tup(x=7, y=3), Tup(x=7, y=3)]))
    db.create("NewStudents", MultiSet(
        db.types.new("Student", ssnum=70000 + i, name="New %d" % i,
                     street="s", city="Madison", zip=1,
                     birthday="200%d-01-01" % i, gpa=2.0 + i / 2,
                     dept=uni.department_refs[i % 3],
                     advisor=uni.employee_refs[i], check=False)
        for i in range(5)))
    return db


#: (template, constant range): deref paths, implicit set variables,
#: method calls (``age``), self-reading appends and replaces, appends of
#: structures into ``{ ref T }``, duplicates and ``unk``.
TEMPLATES = (
    ("range of S is Students delete S where S.dept.floor = %d", (1, 3)),
    ("range of E is Employees delete E where E.kids.age > %d", (20, 80)),
    ("range of E is Employees replace E (salary = E.salary + 1000) "
     "where E.manager.salary > %d", (40000, 90000)),
    ("range of E is Employees replace E (zip = E.zip + 1) "
     "where E.kids.age < %d", (20, 80)),
    ("range of S is Students replace S (gpa = S.gpa + 1) "
     "where S.advisor.age > %d", (20, 80)),
    ("append to Students value (x) from x in NewStudents "
     "where x.gpa > %d", (1, 4)),
    ("append to Employees value (E) from E in Employees "
     "where E.salary > %d000", (40, 90)),
    ("range of N is Nums delete N where N > %d", (0, 4)),
    ("append to Nums value (N + %d) from N in Nums where N < 3", (1, 9)),
    ("range of P is Pts replace P (y = P.y * %d) where P.x > 2", (2, 5)),
    ("range of P is Pts replace P (y = P.x * %d)", (2, 5)),
    ("range of P is Pts delete P where P.x = %d", (1, 7)),
    ("append to Pts (x = %d, y = 0)", (0, 9)),
    ("range of B is Bags delete B where B.xs.a > %d", (0, 6)),
    ("range of B is Bags replace B (k = B.k + 10) where B.xs.a < %d",
     (1, 7)),
)


def script(seed):
    """A seeded script: five update statements, run bare or inside a
    transaction that commits or aborts."""
    rng = random.Random(seed)
    statements = []
    for _ in range(5):
        template, (low, high) = rng.choice(TEMPLATES)
        statements.append(template % rng.randint(low, high))
    return statements, rng.choice(("bare", "commit", "abort"))


def run(statements, txn, options, optimize=True):
    db = fixture()
    model = CostModel(Statistics.from_database(db), engine=options.engine,
                      indexes=db.indexes)
    conn = connect(db, options, optimizer=Optimizer(
        cost_model=model, max_depth=3, max_trees=500))
    if txn != "bare":
        conn.begin()
    values = []
    for source in statements:
        try:
            values.append(conn.execute(source, optimize=optimize).value)
        except Exception as error:      # both sides must fail alike
            values.append(type(error).__name__)
    if txn != "bare":
        getattr(conn, txn)()
    named = {name: db.get(name) for name in db.names()}
    return values, named, dict(db.store._objects), \
        dict(db.store._exact_types)


SEEDS = range(8)
CONFIGS = [ExecutionOptions(engine=engine, checks=checks)
           for engine in ENGINES for checks in ("off", "analyze", "sanitize")]


@pytest.mark.parametrize("seed", SEEDS)
def test_update_scripts_agree_on_every_engine_and_checks_level(seed):
    statements, txn = script(seed)
    oracle = run(statements, txn, ExecutionOptions(engine="interpreted"),
                 optimize=False)
    violations = SANITIZER_VIOLATIONS_TOTAL.value()
    for options in CONFIGS:
        assert run(statements, txn, options) == oracle, (options, statements)
    assert SANITIZER_VIOLATIONS_TOTAL.value() == violations
