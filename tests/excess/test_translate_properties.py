"""Property-based tests for the EXCESS translator.

Random (grammatical) queries over the university database must
translate and evaluate without errors, and structural invariants of
QUEL semantics must hold: `unique` results are duplicate-free, a
where-clause result is a sub-multiset of the unfiltered one, adding a
cross-product variable multiplies cardinality, and `by` partitions the
ungrouped result exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.values import MultiSet
from repro.excess import Session
from repro.workloads import build_university
from tests.conftest import INTERPRETED, last_value


@pytest.fixture(scope="module")
def uni():
    return build_university(n_departments=3, n_employees=12, n_students=18,
                            kids_per_employee=2, seed=99)


# Query fragments composed into grammatical retrieves.
STUDENT_FIELDS = ["name", "city", "gpa", "ssnum", "zip"]
EMPLOYEE_FIELDS = ["name", "city", "salary", "jobtitle"]
DEPT_PATHS = ["S.dept.name", "S.dept.floor", "S.dept.division"]

student_targets = st.lists(
    st.sampled_from(["S.%s" % f for f in STUDENT_FIELDS] + DEPT_PATHS),
    min_size=1, max_size=3, unique=True)

predicates = st.sampled_from([
    None,
    "S.gpa > 3.0",
    "S.city = \"Madison\"",
    "S.dept.floor = 1",
    "S.gpa > 2.5 and S.dept.floor = 2",
    "S.ssnum > 50000 or S.zip = 53701",
    "not (S.city = \"Chicago\")",
])

by_keys = st.sampled_from([None, "S.dept", "S.dept.division", "S.city"])


def run_query(uni, source):
    return last_value(Session(uni.db, INTERPRETED), source)


@settings(max_examples=60, deadline=None)
@given(student_targets, predicates, by_keys, st.booleans())
def test_random_queries_translate_and_run(uni, targets, pred, by, unique):
    query = "range of S is Students retrieve %s(%s)" % (
        "unique " if unique else "", ", ".join(targets))
    if by:
        query += " by %s" % by
    if pred:
        query += " where %s" % pred
    result = run_query(uni, query)
    assert isinstance(result, MultiSet)
    if by:
        for group in result.elements():
            assert isinstance(group, MultiSet)
            if unique:
                assert group.is_set()
    elif unique:
        assert result.is_set()


@settings(max_examples=30, deadline=None)
@given(predicates.filter(lambda p: p is not None))
def test_where_filters_are_monotone(uni, pred):
    """σ output is always a sub-multiset of the unfiltered query."""
    base = run_query(uni, "range of S is Students retrieve (S.name, S.ssnum)")
    filtered = run_query(
        uni, "range of S is Students retrieve (S.name, S.ssnum) where %s"
        % pred)
    assert filtered.difference(base) == MultiSet()


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(STUDENT_FIELDS), st.sampled_from(EMPLOYEE_FIELDS))
def test_two_variable_queries_multiply_cardinality(uni, sf, ef):
    result = run_query(uni, """
        range of S is Students, E is Employees
        retrieve (a = S.%s, b = E.%s)
    """ % (sf, ef))
    n_s = len(uni.db.get("Students"))
    n_e = len(uni.db.get("Employees"))
    assert len(result) == n_s * n_e


@settings(max_examples=20, deadline=None)
@given(by_keys.filter(lambda k: k is not None),
       st.sampled_from(STUDENT_FIELDS))
def test_by_partitions_exactly(uni, key, field):
    """⊎ of the groups equals the ungrouped result (GRP partitions)."""
    flat = run_query(uni, "range of S is Students retrieve (S.%s)" % field)
    grouped = run_query(
        uni, "range of S is Students retrieve (S.%s) by %s" % (field, key))
    merged = MultiSet()
    for group in grouped.elements():
        merged = merged.add_union(group)
    assert merged == flat


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["min", "max", "count", "sum"]),
       st.sampled_from(["gpa", "ssnum", "zip"]))
def test_aggregates_match_python(uni, agg, field):
    values = run_query(
        uni, "retrieve value (S.%s) from S in Students" % field)
    result = run_query(
        uni, "range of S is Students retrieve value (%s(S.%s from S in Students))"
        % (agg, field))
    reference = {"min": min, "max": max, "count": len,
                 "sum": sum}[agg](list(values))
    assert result == reference
