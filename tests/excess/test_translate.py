"""EXCESS → algebra translation tests (theorem part i, Section 3.4).

These run against the populated Figure 1 university and check both the
*shape* of the generated trees (DEREF insertion, SET_APPLY chains, GRP
placement) and their evaluated results against independently computed
answers.
"""

import pytest

from repro.core.operators import (ArrExtract, Deref, Grp, SetApply,
                                  TupExtract)
from repro.core.values import MultiSet, Tup
from repro.excess import Session, TranslationError
from repro.workloads import build_university
from tests.conftest import INTERPRETED, last_value


@pytest.fixture(scope="module")
def uni():
    return build_university(n_departments=4, n_employees=16, n_students=24,
                            kids_per_employee=2, seed=7)


@pytest.fixture()
def session(uni):
    return Session(uni.db, INTERPRETED)


def materialized_employees(uni):
    return [uni.db.store.get(r.oid) for r in uni.employee_refs]


def dept_of(uni, ref):
    return uni.db.store.get(ref.oid)


# ---------------------------------------------------------------------------
# Shape checks
# ---------------------------------------------------------------------------


def test_range_var_over_refs_inserts_initial_deref(session):
    expr = session.compile("range of E is Employees retrieve (E.name)")
    derefs = [n for n in expr.walk() if isinstance(n, Deref)]
    assert derefs, "range over { ref Employee } must dereference on entry"


def test_path_through_ref_attribute_inserts_deref(session):
    expr = session.compile(
        "range of E is Employees retrieve (E.dept.floor)")
    # dept is `ref Department`: expect DEREF(TUP_EXTRACT_dept(...)).
    assert any(isinstance(n, Deref)
               and isinstance(n.source, TupExtract)
               and n.source.field == "dept" for n in expr.walk())


def test_array_indexing_translates_to_arr_extract(session):
    expr = session.compile("retrieve (TopTen[5].name)")
    assert any(isinstance(n, ArrExtract) and n.position == 5
               for n in expr.walk())


def test_var_free_query_returns_bare_tuple(session):
    """Figure 3: no range variables → the result is a single tuple."""
    result = last_value(session, "retrieve (TopTen[5].name, TopTen[5].salary)")
    assert isinstance(result, Tup)
    assert result.field_names == ("name", "salary")


def test_by_clause_produces_grp(session):
    expr = session.compile(
        "range of S is Students retrieve (S.name) by S.dept")
    assert any(isinstance(n, Grp) for n in expr.walk())


def test_single_variable_query_avoids_env_tuples(session):
    """One variable binds the element bare — the Figure 4 chain shape."""
    expr = session.compile(
        'retrieve (Employees.dept.name) where Employees.city = "Madison"')
    applies = [n for n in expr.walk() if isinstance(n, SetApply)]
    assert applies
    from repro.core.operators import TupCreate
    # The env carries no variable-binding tuples except the final target.
    creates = [n for n in expr.walk() if isinstance(n, TupCreate)]
    assert all(c.field == "name" for c in creates)


# ---------------------------------------------------------------------------
# Semantics against independently computed answers
# ---------------------------------------------------------------------------


def test_figure_3_values(uni, session):
    fifth = uni.db.store.get(uni.db.get("TopTen").extract(5).oid)
    result = last_value(session, "retrieve (TopTen[5].name, TopTen[5].salary)")
    assert result == Tup(name=fifth["name"], salary=fifth["salary"])


def test_figure_4_functional_join(uni, session):
    expected = MultiSet(
        Tup(name=dept_of(uni, e["dept"])["name"])
        for e in materialized_employees(uni) if e["city"] == "Madison")
    result = last_value(session,
        'retrieve (Employees.dept.name) where Employees.city = "Madison"')
    assert result == expected


def test_paper_query_1_kids_of_floor2_employees(uni, session):
    expected = MultiSet(
        Tup(name=kid["name"])
        for e in materialized_employees(uni)
        if dept_of(uni, e["dept"])["floor"] == 2
        for kid in e["kids"])
    result = last_value(session, """
        range of E is Employees
        retrieve (C.name) from C in E.kids where E.dept.floor = 2
    """)
    assert result == expected


def test_paper_query_2_correlated_aggregate(uni, session):
    employees = materialized_employees(uni)

    def age(person):
        return 2026 - int(person["birthday"].split("-")[0])

    def min_kid_age_on_floor(floor):
        ages = [age(kid) for e in employees
                if dept_of(uni, e["dept"])["floor"] == floor
                for kid in e["kids"]]
        return min(ages)

    expected = MultiSet(
        Tup(name=e["name"],
            min=min_kid_age_on_floor(dept_of(uni, e["dept"])["floor"]))
        for e in employees)
    result = last_value(session, """
        range of EMP is Employees
        retrieve (EMP.name, min(E.kids.age
            from E in Employees
            where E.dept.floor = EMP.dept.floor))
    """)
    assert result == expected


def test_section5_example1_group_advisors_by_department(uni, session):
    result = last_value(session, """
        range of S is Students, E is Employees
        retrieve unique (S.dept.name, E.name) by S.dept
        where S.advisor.name = E.name
    """)
    # One group per student department; each group duplicate-free.
    departments = {uni.db.store.get(r.oid)["dept"]
                   for r in uni.student_refs}
    assert result.distinct_count() == len(departments)
    for group in result.elements():
        assert group.is_set()


def test_section5_example2_students_by_division(uni, session):
    floor = 2
    students = [uni.db.store.get(r.oid) for r in uni.student_refs]
    expected_names = {s["name"] for s in students
                      if dept_of(uni, s["dept"])["floor"] == floor}
    result = last_value(session, """
        range of S is Students
        retrieve (S.name) by S.dept.division where S.dept.floor = %d
    """ % floor)
    got_names = {t["name"] for group in result.elements() for t in group}
    assert got_names == expected_names


def test_implicit_set_path_correlation(uni, session):
    """Two mentions of this.kids refer to the same implicit variable
    (the Section 4 get_ssnum pattern)."""
    session.run("""
        define Employee function get_ssnum (kname: char[]) returns int4
        {
            retrieve (this.kids.ssnum) where (this.kids.name = kname)
        }
    """)
    employee = materialized_employees(uni)[0]
    kid = next(iter(employee["kids"]))
    result = last_value(session,
        'range of E is Employees retrieve (E.get_ssnum("%s"))' % kid["name"])
    all_ssnums = {t for r in result.elements()
                  for s in r["get_ssnum"].elements()
                  for t in [s["ssnum"]]}
    assert kid["ssnum"] in all_ssnums


def test_from_over_named_difference(session, uni):
    session.run("retrieve (E.name) from E in Employees into Copy")
    result = last_value(session,
        "retrieve (x) from x in (Employees - Employees)")
    assert result == MultiSet()


def test_cross_product_two_vars(uni, session):
    result = last_value(session, """
        range of S is Students, E is Employees
        retrieve (S.name, E.name)
    """)
    assert len(result) == len(uni.student_refs) * len(uni.employee_refs)
    sample = next(result.elements())
    assert set(sample.field_names) == {"name", "name_1"}


def test_into_creates_named_object(uni, session):
    session.run("range of S is Students "
                "retrieve (S.name) into StudentNames")
    assert "StudentNames" in uni.db
    assert len(uni.db.get("StudentNames")) > 0


def test_unique_deduplicates(uni, session):
    dup = last_value(session, "range of S is Students retrieve (S.dept.name)")
    unique = last_value(session,
        "range of S is Students retrieve unique (S.dept.name)")
    assert unique == dup.dedup()


def test_unknown_name_raises(session):
    with pytest.raises(TranslationError):
        last_value(session, "retrieve (Nonexistent.name)")


def test_unknown_attribute_raises(session):
    with pytest.raises(TranslationError):
        last_value(session, "range of E is Employees retrieve (E.nonsense)")


def test_value_mode_returns_bare_values(uni, session):
    result = last_value(session,
        "retrieve value (E.salary) from E in Employees")
    assert all(isinstance(v, int) for v in result)


def test_aggregate_plain_call(uni, session):
    result = last_value(session, "retrieve value (count(Employees))")
    assert result == len(uni.employee_refs)


def test_method_call_via_field_syntax(uni, session):
    """x.age — a zero-argument method invoked without parentheses."""
    result = last_value(session,
        "retrieve value (E.age) from E in Employees")
    assert all(isinstance(v, int) and v > 0 for v in result)


def test_arithmetic_in_targets(uni, session):
    result = last_value(session,
        "retrieve (double = E.salary * 2) from E in Employees")
    salaries = last_value(session,
        "retrieve value (E.salary) from E in Employees")
    assert MultiSet(t["double"] for t in result) == MultiSet(
        s * 2 for s in salaries)


def test_from_over_array_collection(uni, session):
    """Iterating an array (TopTen) coerces it to a multiset (bagof)."""
    result = last_value(session, "retrieve (T.name) from T in TopTen")
    store = uni.db.store
    expected = MultiSet(Tup(name=store.get(r.oid)["name"])
                        for r in uni.db.get("TopTen"))
    assert result == expected


def test_range_over_array_collection(uni, session):
    session.run("range of T is TopTen")
    result = last_value(session, "retrieve (T.salary)")
    assert len(result) == len(uni.db.get("TopTen"))


def test_from_over_named_set_path(uni, session):
    """`from E in Departments.employees` — the domain itself is a path
    through an implicit named-object variable (nested iteration)."""
    result = last_value(session,
        "retrieve (E.name) from E in Departments.employees")
    assert len(result) == len(uni.db.get("Employees"))
