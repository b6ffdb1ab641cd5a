"""Null discipline end-to-end: dne/unk through whole queries, plus
failure injection (dangling references mid-query).

The paper's design (Section 3.2.4): "Dne nulls are discarded whenever
possible during query processing — for example, a relational selection
is easily simulated because dne nulls appearing in a multiset are
ignored."  These tests drive that discipline through full pipelines.
"""

import pytest

from repro.core import Const, EvalContext, Func, Input, Named, evaluate
from repro.core.operators import (Comp, DE, Deref, Grp, Pi, SetApply,
                                  TupExtract, sigma)
from repro.core.predicates import Atom
from repro.core.values import DNE, UNK, MultiSet, Tup
from repro.workloads import build_university, figures
from tests.conftest import last_value


@pytest.fixture
def uni():
    return build_university(n_departments=3, n_employees=9, n_students=9,
                            seed=21)


# ---------------------------------------------------------------------------
# Failure injection: dangling references
# ---------------------------------------------------------------------------


def test_dangling_dept_rows_vanish_from_figure_4(uni):
    """Delete a department object: employees pointing at it silently
    drop out of the functional join (DEREF → dne → discarded)."""
    before = evaluate(figures.figure_4(), uni.db.context())
    victim = uni.department_refs[0]
    affected = sum(
        1 for r in uni.db.get("Employees")
        if uni.db.store.get(r.oid)["dept"] == victim
        and uni.db.store.get(r.oid)["city"] == "Madison")
    uni.db.store.delete(victim.oid)
    after = evaluate(figures.figure_4(), uni.db.context())
    assert len(after) == len(before) - affected
    assert uni.db.store.dangling_refs()  # the damage is detectable


def test_dangling_employee_vanishes_from_range_query(uni):
    victim = next(uni.db.get("Employees").elements())
    uni.db.store.delete(victim.oid)
    names = last_value(uni.session,
        "range of E is Employees retrieve (E.name)")
    assert len(names) == len(uni.db.get("Employees")) - 1


def test_dangling_ref_in_grouping_key_drops_element(uni):
    """A student whose department is gone has a dne grouping key, so it
    joins no group (GRP's key discipline)."""
    victim_student = next(uni.db.get("Students").elements())
    dept = uni.db.store.get(victim_student.oid)["dept"]
    uni.db.store.delete(dept.oid)
    groups = last_value(uni.session, """
        range of S is Students
        retrieve (S.name) by S.dept.division
    """)
    grouped_names = {t["name"] for g in groups.elements() for t in g}
    orphan_names = {uni.db.store.get(r.oid)["name"]
                    for r in uni.db.get("Students")
                    if uni.db.store.get(r.oid)["dept"] == dept}
    assert orphan_names.isdisjoint(grouped_names)


def test_aggregate_over_emptied_set_yields_dne_and_row_drops(uni):
    """min of an empty multiset is dne; the whole result row vanishes
    rather than carrying a null into the output."""
    db = uni.db
    db.create("Empty", MultiSet())
    result = last_value(uni.session,
        "range of E is Employees "
        "retrieve (E.name, min(x from x in Empty))")
    assert result == MultiSet()


# ---------------------------------------------------------------------------
# unk propagation
# ---------------------------------------------------------------------------


def test_unk_survives_multisets_and_de():
    ms = MultiSet([1, UNK, UNK])
    ctx = EvalContext({"A": ms})
    assert evaluate(DE(Named("A")), ctx) == MultiSet([1, UNK])


def test_unknown_comparison_keeps_unk_occurrences():
    """COMP returns unk on U; SET_APPLY keeps it (only dne vanishes)."""
    ms = MultiSet([Tup(a=1), Tup(a=UNK)])
    ctx = EvalContext({"A": ms})
    pred = Atom(TupExtract("a", Input()), "=", Const(1))
    result = evaluate(sigma(pred, Named("A")), ctx)
    assert result == MultiSet([Tup(a=1), UNK])


def test_unk_groups_together():
    ms = MultiSet([Tup(k=UNK, v=1), Tup(k=UNK, v=2), Tup(k=1, v=3)])
    ctx = EvalContext({"A": ms})
    groups = evaluate(Grp(TupExtract("k", Input()), Named("A")), ctx)
    assert groups.distinct_count() == 2


def test_function_propagates_unk_not_crashes():
    ctx = EvalContext(functions={"inc": lambda x: x + 1})
    body = Func("inc", [Input()])
    result = evaluate(SetApply(body, Const(MultiSet([1, UNK]))), ctx)
    assert result == MultiSet([2, UNK])


def test_dne_in_projection_chain_propagates_then_drops():
    ctx = EvalContext({"A": MultiSet([Tup(a=Tup(b=1))])})
    pred = Atom(TupExtract("b", TupExtract("a", Input())), ">", Const(5))
    chain = SetApply(Pi(["a"], Comp(pred, Input())), Named("A"))
    assert evaluate(chain, ctx) == MultiSet()


def test_comp_of_dangling_deref_is_false_not_error(uni):
    """An atom comparing against a dne operand is F, so the COMP yields
    dne — queries never crash on dangling data."""
    victim = next(uni.db.get("Employees").elements())
    target = uni.db.store.get(victim.oid)["dept"]
    uni.db.store.delete(target.oid)
    result = last_value(uni.session,
        "range of E is Employees retrieve (E.name) "
        "where E.dept.floor = 1")
    names = {t["name"] for t in result.elements()}
    assert uni.db.store.get(victim.oid)["name"] not in names
