"""Persistence tests: values, expressions, and whole databases."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expr import Const, Func, Input, Named
from repro.core.methods import MethodCall, Param
from repro.core.operators import (Comp, Deref, Grp, Pi, SetApply, SubArr,
                                  TupExtract, sigma)
from repro.core.predicates import And, Atom, Not, TruePred
from repro.core.serialize import (SerializationError, expr_from_json,
                                  expr_to_json, value_from_json,
                                  value_to_json)
from repro.core.values import DNE, UNK, Arr, MultiSet, Ref, Tup
from repro.excess import Session
from repro.storage import Database
from repro.storage.persist import (PersistError, database_from_json,
                                   database_to_json, load_database,
                                   save_database)
from repro.workloads import build_university
from tests.conftest import INTERPRETED, last_value


# ---------------------------------------------------------------------------
# Value serialization
# ---------------------------------------------------------------------------

VALUES = [
    42, 2.5, "text", True, False, DNE, UNK,
    Tup(), Tup(a=1, b="x"),
    Tup({"name": "s"}, type_name="Student"),
    MultiSet(), MultiSet([1, 1, 2]),
    MultiSet([MultiSet([Tup(a=1)]), MultiSet()]),
    Arr(), Arr([1, Tup(x=Arr(["deep"]))]),
    Ref(110042, "Employee"), Ref("string-oid"),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: repr(v)[:40])
def test_value_round_trip(value):
    assert value_from_json(value_to_json(value)) == value


def test_value_round_trip_preserves_cardinalities():
    ms = MultiSet(counts={Tup(a=1): 3, Tup(a=2): 1})
    assert value_from_json(value_to_json(ms)) == ms


def test_unserializable_value():
    with pytest.raises(SerializationError):
        value_to_json(object())


def test_malformed_value_payload():
    with pytest.raises(SerializationError):
        value_from_json({"t": "mystery"})


def _collections(children, field_names=st.sampled_from(["a", "b"])):
    return st.one_of(
        st.lists(children, max_size=3).map(MultiSet),
        st.lists(children, max_size=3).map(Arr),
        st.dictionaries(field_names, children, max_size=2).map(Tup))


nested_values = st.recursive(
    st.one_of(st.integers(-5, 5), st.text("ab", max_size=3),
              st.booleans()),
    _collections, max_leaves=8)

#: Characters JSON text must escape or that ``ensure_ascii`` rewrites:
#: quotes, backslashes, control characters, non-ASCII (BMP and astral)
#: and lone surrogates.
_AWKWARD = st.text(st.sampled_from(
    "a\"\\" + "".join(map(chr, (0x00, 0x08, 0x0A, 0x1F, 0x7F, 0xE9, 0x20AC,
                                 0x1F600, 0xD800, 0xDFFF)))),
    max_size=4)
_NAMES = st.one_of(st.none(), st.sampled_from(["Student", 'Odd"Type']),
                   _AWKWARD)

#: nested_values widened to everything a wire reply can carry: typed
#: tuples, references, both nulls, every float class (nan breaks ==,
#: so these are for encoders, not round trips), big ints, awkward
#: strings and multisets with counts above one.
wire_values = st.recursive(
    st.one_of(
        st.integers(), st.integers(-2 ** 100, 2 ** 100),
        st.floats(),
        st.sampled_from([float("nan"), float("inf"), float("-inf"),
                         -0.0, 5e-324, 2 ** 64, -2 ** 64 - 1]),
        _AWKWARD, st.booleans(), st.sampled_from([DNE, UNK]),
        st.builds(Ref, st.one_of(st.integers(0, 10 ** 12), _AWKWARD),
                  _NAMES)),
    lambda children: st.one_of(
        _collections(children, st.one_of(st.sampled_from(["a", "b"]),
                                          _AWKWARD)),
        st.builds(lambda fields, name: Tup(fields, type_name=name),
                  st.dictionaries(st.sampled_from(["a", "b"]), children,
                                  max_size=2), _NAMES),
        st.lists(st.tuples(children, st.integers(1, 4)), max_size=3)
        .map(lambda pairs: MultiSet(counts=dict(pairs)))),
    max_leaves=10)


@settings(max_examples=80, deadline=None)
@given(nested_values)
def test_value_round_trip_property(value):
    assert value_from_json(value_to_json(value)) == value


# ---------------------------------------------------------------------------
# Expression serialization
# ---------------------------------------------------------------------------

EXPRS = [
    Input(),
    Named("Employees"),
    Const(MultiSet([1, 2])),
    Func("inc", [Input(), Const(1)]),
    TupExtract("name", Deref(Input())),
    Pi(["a", "b"], Input()),
    SetApply(TupExtract("a", Input()), Named("X")),
    SetApply(Input(), Named("X"), type_filter=frozenset(["A", "B"])),
    sigma(And(Atom(Input(), ">", Const(1)),
              Not(Atom(Input(), "=", Const(3)))), Named("X")),
    Grp(TupExtract("k", Input()), Named("X")),
    SubArr(2, "last", Named("R")),
    Comp(TruePred(), Named("X")),
    MethodCall("boss", [Param("arg")], Input()),
]


@pytest.mark.parametrize("expr", EXPRS, ids=lambda e: e.describe()[:40])
def test_expr_round_trip(expr):
    restored = expr_from_json(expr_to_json(expr))
    assert restored == expr


def test_expr_round_trip_is_json_compatible():
    payload = expr_to_json(EXPRS[8])
    assert expr_from_json(json.loads(json.dumps(payload))) == EXPRS[8]


def test_unknown_node_rejected():
    with pytest.raises(SerializationError):
        expr_from_json({"node": "Teleport"})


# ---------------------------------------------------------------------------
# Whole-database persistence
# ---------------------------------------------------------------------------


@pytest.fixture
def saved_university(tmp_path):
    uni = build_university(n_departments=3, n_employees=9, n_students=12,
                           seed=6)
    uni.session.run("""
        define Person function boss () returns char[]
            { retrieve value (this.name) }
        define Employee function boss () returns char[]
            { retrieve value (this.manager.name) }
    """)
    path = str(tmp_path / "uni.json")
    save_database(uni.db, path)
    return uni, path


def test_queries_survive_reload(saved_university):
    uni, path = saved_university
    query = ("range of E is Employees retrieve (E.boss()) "
             "where E.dept.floor = 1")
    before = last_value(uni.session, query)
    db2 = load_database(path, functions={"age": uni.db.functions["age"]})
    assert last_value(Session(db2, INTERPRETED), query) == before


def test_identity_survives_reload(saved_university):
    uni, path = saved_university
    db2 = load_database(path)
    ref = next(uni.db.get("Employees").elements())
    assert db2.store.get(ref.oid) == uni.db.store.get(ref.oid)
    assert db2.store.exact_type(ref.oid) == "Employee"


def test_fresh_allocations_do_not_collide(saved_university):
    uni, path = saved_university
    db2 = load_database(path)
    new_ref = db2.store.insert(Tup(), "Employee")
    assert new_ref.oid not in uni.db.store._objects


def test_hierarchy_and_types_survive(saved_university):
    _, path = saved_university
    db2 = load_database(path)
    assert db2.hierarchy.is_subtype("Student", "Person")
    fields = [f for f, _ in db2.types.effective_fields("Employee")]
    assert "salary" in fields and "kids" in fields


def test_created_types_survive_and_drive_translation(saved_university):
    """Deref-on-entry for { ref T } collections needs created_types."""
    _, path = saved_university
    db2 = load_database(path)
    result = last_value(Session(db2, INTERPRETED),
        "range of S is Students retrieve (S.gpa)")
    assert len(result) == 12


def test_ddl_continues_after_reload(saved_university):
    _, path = saved_university
    db2 = load_database(path)
    session = Session(db2, INTERPRETED)
    session.run("define type Course: (title: char[]) create Courses: { Course }")
    assert "Courses" in db2


def test_missing_functions_surfaced(saved_university):
    _, path = saved_university
    db2 = load_database(path)  # 'age' not re-registered
    assert getattr(db2, "missing_functions", []) == ["age"]


def test_unsupported_format_rejected():
    with pytest.raises(PersistError):
        database_from_json({"format": 99})


def test_empty_database_round_trips(tmp_path):
    db = Database()
    db.create("Nums", MultiSet([1, 2, 2]))
    path = str(tmp_path / "small.json")
    save_database(db, path)
    db2 = load_database(path)
    assert db2.get("Nums") == MultiSet([1, 2, 2])


def test_updates_after_reload(saved_university):
    _, path = saved_university
    db2 = load_database(path)
    session = Session(db2, INTERPRETED)
    session.run("range of S is Students delete S where S.gpa < 3.0")
    remaining = last_value(session,
                           "retrieve value (S.gpa) from S in Students")
    assert all(g >= 3.0 for g in remaining)


# ---------------------------------------------------------------------------
# Crash-safe snapshots
# ---------------------------------------------------------------------------


def test_save_is_atomic_on_serialization_failure(tmp_path):
    """A failed save must leave the previous snapshot readable and no
    temp file behind."""
    path = str(tmp_path / "db.json")
    db = Database()
    db.create("Nums", MultiSet([1, 2]))
    save_database(db, path)
    db.create("Poison", object())  # unserializable
    with pytest.raises(SerializationError):
        save_database(db, path)
    assert not os.path.exists(path + ".tmp")
    recovered = load_database(path)  # the old snapshot is intact
    assert recovered.get("Nums") == MultiSet([1, 2])


def test_save_goes_through_a_temp_rename(tmp_path, monkeypatch):
    """The target path is only ever touched by os.replace."""
    import repro.storage.persist as persist
    path = str(tmp_path / "db.json")
    replaced = []
    real_replace = os.replace

    def spy(src, dst):
        replaced.append((src, dst))
        return real_replace(src, dst)

    monkeypatch.setattr(persist.os, "replace", spy)
    db = Database()
    db.create("Nums", MultiSet([1]))
    save_database(db, path)
    assert replaced == [(path + ".tmp", path)]
    assert load_database(path).get("Nums") == MultiSet([1])


# ---------------------------------------------------------------------------
# Index persistence
# ---------------------------------------------------------------------------


def test_index_definitions_round_trip(saved_university, tmp_path):
    uni, _ = saved_university
    db = uni.db
    db.indexes.build_typed("Employees")
    db.indexes.build_keyed("Students", TupExtract("gpa", Deref(Input())))
    path = str(tmp_path / "indexed.json")
    save_database(db, path)

    db2 = load_database(path)
    assert db2.indexes.typed("Employees") is not None
    rebuilt = db2.indexes.keyed("Students", TupExtract("gpa", Deref(Input())))
    assert rebuilt is not None
    # The rebuilt index answers lookups over the reloaded extent.
    some_key = rebuilt.keys()[0]
    assert len(rebuilt.lookup(some_key)) >= 1


def test_index_definitions_skip_dropped_names(tmp_path):
    db = Database()
    db.create("Xs", MultiSet([Tup(a=1), Tup(a=2)]))
    db.indexes.build_keyed("Xs", TupExtract("a", Input()))
    db.drop("Xs")
    assert db.indexes.definitions() == []


def test_snapshot_without_indexes_loads(tmp_path):
    """Backward compatibility: older snapshots have no 'indexes' key."""
    db = Database()
    db.create("Nums", MultiSet([1]))
    doc = database_to_json(db)
    doc.pop("indexes", None)
    assert database_from_json(doc).get("Nums") == MultiSet([1])
