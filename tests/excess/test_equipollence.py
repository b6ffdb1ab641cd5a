"""Equipollence round-trips (Section 3.4 theorem).

Direction (i) — EXCESS → algebra — is exercised throughout
test_translate.py.  Here we drive direction (ii): every supported
algebra tree prints to an EXCESS program whose execution reproduces the
tree's value, and composing the two directions is the identity on
values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expr import Const, EvalContext, Func, Input, Named, evaluate
from repro.core.operators import (DE, AddUnion, ArrCat, ArrCreate, ArrDE,
                                  ArrExtract, Comp, Cross, Diff, Grp, Pi,
                                  SetApply, SetCollapse, SetCreate, SubArr,
                                  TupCat, TupCreate, TupExtract, sigma,
                                  union)
from repro.core.predicates import Atom, And
from repro.core.values import Arr, MultiSet, Tup
from repro.excess import Session
from repro.excess.printer import UnprintableError, to_excess
from repro.storage import Database
from tests.conftest import INTERPRETED


def fresh_db():
    db = Database()
    db.create("A", MultiSet([1, 2, 2, 3]))
    db.create("B", MultiSet([2, 3, 3]))
    db.create("TS", MultiSet([Tup(a=1, b=10), Tup(a=2, b=20),
                              Tup(a=2, b=20)]))
    db.create("R", Arr([5, 6, 7, 8]))
    db.register_function("inc", lambda x: x + 1)
    return db


def round_trip(expr):
    db = fresh_db()
    expected = evaluate(expr, db.context())
    program, result_name = to_excess(expr)
    Session(db, INTERPRETED).run(program)
    assert db.get(result_name) == expected, program
    return program


A, B, TS, R = Named("A"), Named("B"), Named("TS"), Named("R")

CASES = [
    A,
    Const(5),
    Const("text"),
    Const(True),
    Const(MultiSet([1, 1, 2])),
    Const(Arr([1, 2])),
    Const(Tup(x=1, y="s")),
    Diff(A, B),
    AddUnion(A, B),
    union(A, B),
    Cross(A, B),
    DE(A),
    SetCreate(A),
    SetCollapse(SetCreate(A)),
    SetApply(Func("inc", [Input()]), A),
    SetApply(TupExtract("a", Input()), TS),
    sigma(Atom(Input(), ">", Const(1)), A),
    sigma(And(Atom(TupExtract("a", Input()), "=", Const(2)),
              Atom(TupExtract("b", Input()), ">", Const(5))), TS),
    Grp(TupExtract("a", Input()), TS),
    Grp(Func("inc", [Input()]), A),
    Comp(Atom(Input(), "!=", Const(MultiSet())), A),
    TupExtract("x", Const(Tup(x=9))),
    TupCreate("wrapped", A),
    TupCat(TupCreate("x", Const(1)), TupCreate("y", Const(2))),
    Pi(["a"], Const(Tup(a=1, b=2))),
    ArrExtract(2, R),
    ArrExtract("last", R),
    SubArr(2, 3, R),
    ArrCat(R, R),
    ArrDE(R),
    ArrCreate(Const(5)),
    SetApply(SetCreate(Func("inc", [Input()])), A),
    DE(SetApply(TupExtract("b", Input()), TS)),
]


@pytest.mark.parametrize("expr", CASES, ids=lambda e: e.describe()[:60])
def test_algebra_to_excess_round_trip(expr):
    round_trip(expr)


def test_round_trip_program_shape():
    """The program follows the proof's structure: one retrieve-into per
    operator, bottom-up."""
    program = round_trip(Diff(A, B))
    lines = program.splitlines()
    assert len(lines) == 3  # A, B, then diff
    assert all("into" in line for line in lines)
    assert "diff(" in lines[-1]


def test_typed_set_apply_unprintable():
    expr = SetApply(Input(), A, type_filter="T")
    with pytest.raises(UnprintableError):
        to_excess(expr)


def test_nested_binding_bodies_unprintable():
    inner = SetApply(Func("inc", [Input()]), Input())
    expr = SetApply(inner, SetCreate(A))
    with pytest.raises(UnprintableError):
        to_excess(expr)


# ---------------------------------------------------------------------------
# Composition: EXCESS → algebra → EXCESS → algebra is value-identity.
# ---------------------------------------------------------------------------

EXCESS_QUERIES = [
    "retrieve value (A)",
    "retrieve value (diff(A, B))",
    "retrieve value (x) from x in A where x > 1",
    "retrieve value (inc(x)) from x in A",
    "retrieve value (de(addunion(A, B)))",
]


@pytest.mark.parametrize("query", EXCESS_QUERIES)
def test_double_round_trip(query):
    db = fresh_db()
    session = Session(db, INTERPRETED)
    algebra = session.compile(query)
    direct = evaluate(algebra, db.context())
    program, result_name = to_excess(algebra)
    Session(db, INTERPRETED).run(program)
    assert db.get(result_name) == direct


# ---------------------------------------------------------------------------
# Property: random printable trees round-trip.
# ---------------------------------------------------------------------------

exprs = st.one_of(
    st.just(A), st.just(B),
    st.builds(Diff, st.just(A), st.just(B)),
    st.builds(AddUnion, st.just(A), st.just(B)),
    st.builds(lambda k: sigma(Atom(Input(), ">", Const(k)), A),
              st.integers(0, 3)),
    st.builds(lambda k: SetApply(Func("inc", [Input()]), A),
              st.just(0)),
    st.just(DE(AddUnion(A, B))),
    st.builds(lambda m, n: SubArr(m, n, R),
              st.integers(1, 3), st.integers(1, 4)),
    st.builds(lambda n: ArrExtract(n, R), st.integers(1, 4)),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(exprs, min_size=1, max_size=3))
def test_random_printable_trees_round_trip(trees):
    for tree in trees:
        round_trip(tree)
