"""Synthetic university database — the paper's Figure 1, populated.

The paper defines the schema (Person/Employee/Student/Department plus
the named objects Employees, Students, Departments, TopTen) but, having
no system evaluation, never populates it.  This generator produces
instances with controllable cardinalities, fan-outs, and skew so the
benchmarks can measure the effects the paper argues for:

* ``n_departments`` / ``n_employees`` / ``n_students`` — set sizes;
* ``kids_per_employee`` — size of the nested ``kids`` multiset;
* ``subords_per_employee`` — size of ``sub_ords`` (the Section 4
  trade-off turns on this being large relative to |P|);
* ``advisor_pool`` — how many distinct advisors students share (drives
  the duplication factor that makes DE placement matter in Example 1);
* ``floors`` — departments are spread over this many floors (drives
  the floor-predicate selectivity of Example 2).

Determinism: everything derives from ``seed``.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..core.values import Arr, MultiSet, Ref, Tup
from ..excess.session import Session
from ..options import ExecutionOptions
from ..storage import Database

#: The EXTRA DDL of Figure 1, verbatim in structure.
FIGURE_1_DDL = """
define type Person:
(
    ssnum: int4,
    name: char[],
    street: char[20],
    city: char[10],
    zip: int4,
    birthday: Date
)

define type Employee:
(
    jobtitle: char[20],
    dept: ref Department,
    manager: ref Employee,
    sub_ords: { ref Employee },
    salary: int4,
    kids: { Person }
)
inherits Person

define type Student:
(
    gpa: float4,
    dept: ref Department,
    advisor: ref Employee
)
inherits Person

define type Department:
(
    division: char[],
    name: char[],
    floor: int4,
    employees: { ref Employee }
)

create Employees: { ref Employee }
create Students: { ref Student }
create Departments: { ref Department }
create TopTen: array [1..10] of ref Employee
"""

CITIES = ["Madison", "Milwaukee", "Chicago", "Verona", "Middleton"]
DIVISIONS = ["Engineering", "Arts and Sciences", "Business", "Medicine"]
FIRST_NAMES = ["Ada", "Ben", "Cleo", "Dev", "Eve", "Finn", "Gail", "Hugo",
               "Iris", "Jack", "Kira", "Liam", "Mona", "Nils", "Opal"]
STREETS = ["Oak St", "Elm St", "Main St", "State St", "Park Ave"]
JOBS = ["engineer", "analyst", "manager", "clerk", "director"]


class University:
    """Handle to a generated university database."""

    def __init__(self, database: Database, session: Session,
                 department_refs: List[Ref], employee_refs: List[Ref],
                 student_refs: List[Ref]):
        self.db = database
        self.session = session
        self.department_refs = department_refs
        self.employee_refs = employee_refs
        self.student_refs = student_refs


def build_university(n_departments: int = 4, n_employees: int = 30,
                     n_students: int = 40, kids_per_employee: int = 2,
                     subords_per_employee: int = 3,
                     advisor_pool: Optional[int] = None,
                     employee_name_pool: Optional[int] = None,
                     floors: int = 5, seed: int = 0,
                     database: Database = None) -> University:
    """Build and populate the Figure 1 database; returns a handle.

    ``employee_name_pool`` bounds the number of *distinct* employee
    names; collisions drive the duplication factor of Example 1's
    name-equality join (the paper's |S|·|E| versus |S|+|E| argument
    needs a large duplication factor to bite).
    """
    rng = random.Random(seed)
    db = database or Database()
    # The handle's session is the oracle the tests compare against.
    session = Session(db, ExecutionOptions(engine="interpreted"))
    session.run(FIGURE_1_DDL)
    types = db.types
    store = db.store

    def person_fields(i: int, name_pool: Optional[int] = None) -> dict:
        if name_pool:
            name = "%s %d" % (FIRST_NAMES[i % len(FIRST_NAMES)
                                          % name_pool], i % name_pool)
        else:
            name = "%s %d" % (rng.choice(FIRST_NAMES), i)
        return dict(
            ssnum=10000 + i,
            name=name,
            street=rng.choice(STREETS),
            city=rng.choice(CITIES),
            zip=53700 + rng.randrange(20),
            birthday="19%02d-%02d-%02d" % (rng.randrange(40, 99),
                                           rng.randrange(1, 13),
                                           rng.randrange(1, 29)))

    # Departments first (employees hold refs to them).
    department_refs: List[Ref] = []
    for i in range(n_departments):
        dept = types.new("Department",
                         division=DIVISIONS[i % len(DIVISIONS)],
                         name="Dept %d" % i,
                         floor=1 + (i % floors),
                         employees=MultiSet())
        department_refs.append(store.insert(dept, "Department"))

    # Employees: insert with a self-manager placeholder, then wire
    # managers/sub_ords in an update pass (identity is stable under
    # update, so the refs remain valid).
    employee_refs: List[Ref] = []
    for i in range(n_employees):
        kids = MultiSet(
            types.new("Person", **person_fields(90000 + i * 10 + k))
            for k in range(kids_per_employee))
        dept_ref = department_refs[i % n_departments]
        employee = types.new(
            "Employee",
            jobtitle=rng.choice(JOBS),
            dept=dept_ref,
            manager=Ref(-1, "Employee"),  # placeholder, fixed below
            sub_ords=MultiSet(),
            salary=30000 + rng.randrange(70) * 1000,
            kids=kids,
            check=False,
            **person_fields(i, employee_name_pool))
        employee_refs.append(store.insert(employee, "Employee"))

    for i, ref in enumerate(employee_refs):
        manager = employee_refs[(i // 3) % n_employees] if n_employees else ref
        subords = MultiSet(
            employee_refs[(i + 1 + k) % n_employees]
            for k in range(min(subords_per_employee, max(0, n_employees - 1))))
        store.update(ref.oid, store.get(ref.oid).replace(
            manager=manager, sub_ords=subords))

    # Department employee sets.
    for d, dept_ref in enumerate(department_refs):
        members = MultiSet(r for i, r in enumerate(employee_refs)
                           if i % n_departments == d)
        store.update(dept_ref.oid,
                     store.get(dept_ref.oid).replace(employees=members))

    # Students: advisors drawn from a bounded pool to control the
    # duplication factor of Example 1.
    pool = advisor_pool or max(1, n_employees // 3)
    student_refs: List[Ref] = []
    for i in range(n_students):
        student = types.new(
            "Student",
            gpa=round(2.0 + rng.random() * 2.0, 2),
            dept=department_refs[i % n_departments],
            advisor=employee_refs[i % min(pool, n_employees)]
            if employee_refs else Ref(-1, "Employee"),
            check=False,
            **person_fields(50000 + i))
        student_refs.append(store.insert(student, "Student"))

    db.create("Employees", MultiSet(employee_refs))
    db.create("Students", MultiSet(student_refs))
    db.create("Departments", MultiSet(department_refs))
    db.create("TopTen", Arr(employee_refs[:min(10, n_employees)]))

    _register_functions(db)
    return University(db, session, department_refs, employee_refs,
                      student_refs)


def _register_functions(db: Database) -> None:
    """The virtual ``age`` field of Person (an E-function stand-in).

    Registered both as a scalar function and as a stored method on
    Person, so ``E.kids.age`` resolves the way the paper describes: "age
    is assumed to be defined by a function … so it is a virtual field
    (or method) of the Person type"."""
    def age(birthday: str) -> int:
        year = int(birthday.split("-")[0])
        return 2026 - year

    db.register_function("age", age)
    from ..core.expr import Func, Input
    from ..core.operators import TupExtract
    db.methods.define("Person", "age", [],
                      Func("age", [TupExtract("birthday", Input())]))
