"""Shared fixtures: small databases and the populated university."""

import pytest

from repro import Database, ExecutionOptions, MultiSet, Tup
from repro.workloads import build_university

#: The interpreter is the oracle every faster engine is checked
#: against; tests that ran on it before ``Session`` took an
#: ExecutionOptions value keep it by saying so.
INTERPRETED = ExecutionOptions(engine="interpreted")


def last_value(session, source, optimize=False):
    """Run *source* on *session*; the value of the last statement that
    has an expression (None for a script of DDL and range declarations
    only)."""
    for result in reversed(session.run(source, optimize=optimize)):
        if result.expression is not None:
            return result.value
    return None


@pytest.fixture
def db():
    """An empty database with builtins registered."""
    from repro.excess.builtins import register_builtins
    database = Database()
    register_builtins(database)
    return database


@pytest.fixture
def people_db(db):
    """A Person/Employee/Student hierarchy with a small typed set P,
    matching the Section 4 setting."""
    h = db.hierarchy
    h.add_type("Person")
    h.add_type("Employee", ["Person"])
    h.add_type("Student", ["Person"])
    P = MultiSet([
        Tup({"name": "p1"}, type_name="Person"),
        Tup({"name": "p2"}, type_name="Person"),
        Tup({"name": "s1", "advisor": "a1"}, type_name="Student"),
        Tup({"name": "e1", "manager": "m1"}, type_name="Employee"),
        Tup({"name": "e2", "manager": "m2"}, type_name="Employee"),
    ])
    db.create("P", P)
    return db


@pytest.fixture(scope="session")
def university():
    """One shared, deterministic university instance (read-only tests)."""
    return build_university(n_departments=4, n_employees=20, n_students=30,
                            kids_per_employee=2, subords_per_employee=3,
                            seed=42)
