"""EXCESS update DML: append / delete / replace (Section 2.2's
"facilities for querying and updating complex structures")."""

import pytest

from repro.core.values import MultiSet, Ref, Tup
from repro.excess import Session, TranslationError
from repro.storage import Database
from repro.workloads import build_university
from tests.conftest import INTERPRETED, last_value


@pytest.fixture
def uni():
    return build_university(n_departments=2, n_employees=8, n_students=10,
                            seed=13)


@pytest.fixture
def session(uni):
    return uni.session


# ---------------------------------------------------------------------------
# append
# ---------------------------------------------------------------------------


def test_append_values_to_value_collection():
    db = Database()
    db.create("Nums", MultiSet([1, 2]))
    Session(db, INTERPRETED).run("append to Nums value (3)")
    assert db.get("Nums") == MultiSet([1, 2, 3])


def test_append_preserves_duplicates():
    db = Database()
    db.create("Nums", MultiSet([1]))
    Session(db, INTERPRETED).run("append to Nums value (1)")
    assert db.get("Nums").cardinality(1) == 2


def test_append_computed_from_query():
    db = Database()
    db.create("Src", MultiSet([1, 2, 3]))
    db.create("Dst", MultiSet())
    Session(db, INTERPRETED).run(
        "append to Dst value (x) from x in Src where x > 1")
    assert db.get("Dst") == MultiSet([2, 3])


def test_append_structures_to_ref_collection_creates_objects(uni, session):
    """Appending plain structures to a { ref T } collection inserts
    them into the store and appends fresh references."""
    db = uni.db
    student = db.types.new(
        "Student", ssnum=777, name="Zed", street="s", city="Madison",
        zip=1, birthday="2001-01-01", gpa=3.9,
        dept=uni.department_refs[0], advisor=uni.employee_refs[0],
        check=False)
    db.create("NewStudents", MultiSet([student]))
    before = len(db.get("Students"))
    session.run("append to Students value (x) from x in NewStudents")
    after = db.get("Students")
    assert len(after) == before + 1
    assert all(isinstance(r, Ref) for r in after)
    # The new object is a first-class Student: typed, queryable.
    found = last_value(session,
        "range of S is Students retrieve (S.name) where S.ssnum = 777")
    assert found == MultiSet([Tup(name="Zed")])
    new_ref = next(r for r in after.elements()
                   if db.store.get(r.oid)["ssnum"] == 777)
    assert db.store.exact_type(new_ref.oid) == "Student"


def test_append_refs_pass_through(uni, session):
    existing = next(uni.db.get("Students").elements())
    before = uni.db.get("Students").cardinality(existing)
    uni.db.create("One", MultiSet([existing]))
    session.run("append to Students value (x) from x in One")
    assert uni.db.get("Students").cardinality(existing) == before + 1


def test_append_to_non_multiset_rejected():
    db = Database()
    db.create("Scalar", 5)
    with pytest.raises(TranslationError):
        Session(db, INTERPRETED).run("append to Scalar value (1)")


# ---------------------------------------------------------------------------
# delete
# ---------------------------------------------------------------------------


def test_delete_with_predicate(uni, session):
    before = len(uni.db.get("Students"))
    qualifying = len(last_value(session,
        "retrieve value (S.gpa) from S in Students where S.gpa < 3.0"))
    result = session.run(
        "range of S is Students delete S where S.gpa < 3.0")
    assert result[-1].value == qualifying
    assert len(uni.db.get("Students")) == before - qualifying
    remaining = last_value(session,
                           "retrieve value (S.gpa) from S in Students")
    assert all(g >= 3.0 for g in remaining)


def test_delete_all_without_predicate():
    db = Database()
    db.create("Nums", MultiSet([1, 2, 3]))
    Session(db, INTERPRETED).run("delete Nums")
    assert db.get("Nums") == MultiSet()


def test_delete_leaves_objects_in_store(uni, session):
    """Removing references from a collection does not destroy the
    objects (ownership, not containment, governs lifetime)."""
    target = next(uni.db.get("Students").elements())
    session.run("range of S is Students delete S where S.ssnum = %d"
                % uni.db.store.get(target.oid)["ssnum"])
    assert target.oid in uni.db.store


def test_delete_unknown_var():
    db = Database()
    with pytest.raises(TranslationError):
        Session(db, INTERPRETED).run("delete Ghost")


def test_delete_through_deref_paths(uni, session):
    """Predicates dereference implicitly, like queries do."""
    before = len(uni.db.get("Students"))
    floor1 = len(last_value(session,
        "retrieve value (S.gpa) from S in Students where S.dept.floor = 1"))
    session.run("range of S is Students delete S where S.dept.floor = 1")
    assert len(uni.db.get("Students")) == before - floor1


# ---------------------------------------------------------------------------
# replace
# ---------------------------------------------------------------------------


def test_replace_updates_objects_in_place(uni, session):
    before = last_value(session,
        'retrieve value (E.salary) from E in Employees '
        'where E.city = "Madison"')
    session.run('range of E is Employees '
                'replace E (salary = E.salary + 1000) '
                'where E.city = "Madison"')
    after = last_value(session,
        'retrieve value (E.salary) from E in Employees '
        'where E.city = "Madison"')
    assert sorted(after) == sorted(v + 1000 for v in before)


def test_replace_preserves_identity(uni, session):
    """Every other reference to an updated object observes the change —
    the point of updating through identity."""
    employee_ref = next(uni.db.get("Employees").elements())
    ssnum = uni.db.store.get(employee_ref.oid)["ssnum"]
    # This employee appears in some department's employees set.
    session.run("range of E is Employees "
                "replace E (jobtitle = \"promoted\") "
                "where E.ssnum = %d" % ssnum)
    assert uni.db.store.get(employee_ref.oid)["jobtitle"] == "promoted"
    # The collection itself still holds the same reference.
    assert employee_ref in uni.db.get("Employees")


def test_replace_value_collection():
    db = Database()
    db.create("Points", MultiSet([Tup(x=1, y=1), Tup(x=2, y=2)]))
    Session(db, INTERPRETED).run(
        "range of P is Points replace P (y = P.x * 10)")
    assert db.get("Points") == MultiSet([Tup(x=1, y=10), Tup(x=2, y=20)])


def test_replace_without_predicate_touches_everything(uni, session):
    session.run("range of E is Employees replace E (zip = 99999)")
    zips = last_value(session, "retrieve value (E.zip) from E in Employees")
    assert set(zips.elements()) == {99999}


def test_replace_unknown_field_rejected():
    db = Database()
    db.create("Points", MultiSet([Tup(x=1)]))
    with pytest.raises(KeyError):
        Session(db, INTERPRETED).run(
            "range of P is Points replace P (ghost = 1)")


def test_replace_changes_visible_to_subsequent_queries(uni, session):
    """Update then query in one script — the session is transactional
    in the trivial sense (statements apply in order)."""
    value = last_value(session, """
        range of E is Employees
        replace E (salary = 12345) where E.salary > 0
        retrieve unique (E.salary)
    """)
    assert value == MultiSet([Tup(salary=12345)])
