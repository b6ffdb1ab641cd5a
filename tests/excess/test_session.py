"""Session tests: mixed DDL/DML scripts, ranges, into, optimization."""

import pytest

from repro.core.optimizer import CostModel, Optimizer
from repro.core.values import MultiSet, Tup
from repro.excess import Session, TranslationError
from repro.storage import Database
from tests.conftest import INTERPRETED, last_value


@pytest.fixture
def db():
    return Database()


def test_mixed_ddl_and_dml(db):
    session = Session(db, INTERPRETED)
    results = session.run("""
        define type Pt: (x: int4, y: int4)
        create Pts: { Pt }
        retrieve (P.x) from P in Pts
    """)
    assert len(results) == 3
    assert results[-1].value == MultiSet()


def test_range_declarations_persist_across_statements(db):
    db.create("Nums", MultiSet([Tup(v=1), Tup(v=2)]))
    session = Session(db, INTERPRETED)
    session.run("range of N is Nums")
    assert last_value(session, "retrieve (N.v)") == MultiSet(
        [Tup(v=1), Tup(v=2)])


def test_range_over_unknown_object(db):
    with pytest.raises(TranslationError):
        Session(db, INTERPRETED).run("range of X is Ghost")


def test_into_records_result_type(db):
    session = Session(db, INTERPRETED)
    session.run("""
        define type Num: (v: int4)
        create Nums: { Num }
        retrieve (N.v) from N in Nums into Out
    """)
    assert "Out" in db.created_types
    from repro.extra.types import SetType
    assert isinstance(db.created_types["Out"], SetType)


def test_query_returns_last_retrieve_value(db):
    db.create("A", MultiSet([1]))
    db.create("B", MultiSet([2]))
    session = Session(db, INTERPRETED)
    value = last_value(session, "retrieve value (A) retrieve value (B)")
    assert value == MultiSet([2])


def test_query_returns_none_for_pure_ddl(db):
    assert last_value(Session(db, INTERPRETED),
                      "define type T: (x: int4)") is None


def test_compile_requires_single_retrieve(db):
    session = Session(db, INTERPRETED)
    with pytest.raises(TranslationError):
        session.compile("range of X is Y")


def test_optimized_run_matches_unoptimized(db):
    db.create("A", MultiSet([1, 1, 2, 3, 3]))
    optimizer = Optimizer(cost_model=CostModel(), max_depth=2,
                          max_trees=200)
    session = Session(db, INTERPRETED, optimizer)
    plain = last_value(session, "retrieve value (de(de(A)))")
    optimized = last_value(session, "retrieve value (de(de(A)))",
                           optimize=True)
    assert plain == optimized == MultiSet([1, 2, 3])


def test_result_repr(db):
    db.create("A", MultiSet([5]))
    results = Session(db, INTERPRETED).run("retrieve value (A) into Out")
    assert "Out" in repr(results[-1])
