"""Session- and shell-level transactions: explicit begin/commit/abort
around EXCESS update statements, statement-level implicit transactions,
and the ``.begin``/``.commit``/``.abort`` meta commands."""

import pytest

from repro.cli import Shell
from repro.excess import Session
from repro.storage import Database, TxnError
from repro.workloads import build_university
from tests.conftest import INTERPRETED, last_value


@pytest.fixture
def uni():
    handle = build_university(n_departments=3, n_employees=12,
                              n_students=18, seed=3)
    handle.db.transactions()
    return handle


def test_abort_rolls_back_a_delete(uni):
    session = Session(uni.db, INTERPRETED)
    before = len(uni.db.get("Students"))
    session.begin()
    session.run("range of S is Students delete S where S.gpa < 3.5")
    assert len(uni.db.get("Students")) < before
    session.abort()
    assert len(uni.db.get("Students")) == before


def test_commit_keeps_a_replace(uni):
    session = Session(uni.db, INTERPRETED)
    session.begin()
    session.run("range of E is Employees replace E (zip = 11111)")
    session.commit()
    zips = last_value(session, "retrieve value (E.zip) from E in Employees")
    assert set(zips) == {11111}


def test_statement_is_one_implicit_transaction(uni):
    """A multi-object replace with no explicit txn open commits as one
    transaction, not one per element."""
    manager = uni.db.txn
    v0 = manager.version
    Session(uni.db, INTERPRETED).run(
        "range of E is Employees replace E (zip = 22222)")
    assert manager.version == v0 + 1
    assert manager.active is None


def test_savepoint_round_trip(uni):
    session = Session(uni.db, INTERPRETED)
    before = len(uni.db.get("Students"))
    session.begin()
    sp = session.savepoint()
    session.run("range of S is Students delete S where S.gpa < 3.9")
    session.rollback_to(sp)
    session.commit()
    assert len(uni.db.get("Students")) == before


def test_snapshot_isolated_from_session_updates(uni):
    session = Session(uni.db, INTERPRETED)
    snap = session.snapshot()
    session.run("range of S is Students delete S")
    assert len(uni.db.get("Students")) == 0
    assert len(snap.get("Students")) > 0


def test_queries_see_own_uncommitted_writes(uni):
    """Inside a transaction the session reads its own writes (read
    committed-or-own, the usual single-connection behavior)."""
    session = Session(uni.db, INTERPRETED)
    session.begin()
    session.run("range of S is Students delete S where S.gpa < 3.5")
    remaining = last_value(session,
                           "retrieve value (S.gpa) from S in Students")
    assert all(g >= 3.5 for g in remaining)
    session.abort()


# ---------------------------------------------------------------------------
# Shell meta commands
# ---------------------------------------------------------------------------


def test_shell_begin_commit_abort_cycle():
    shell = Shell()
    shell.handle_meta(".demo")
    shell.db.transactions()
    before = len(shell.db.get("Students"))
    assert shell.handle_meta(".begin").startswith("transaction ")
    shell.execute("range of S is Students delete S where S.gpa < 3.5")
    assert len(shell.db.get("Students")) < before
    assert shell.handle_meta(".abort") == "aborted (rolled back)"
    assert len(shell.db.get("Students")) == before
    shell.handle_meta(".begin")
    shell.execute("range of S is Students delete S where S.gpa < 3.5")
    assert shell.handle_meta(".commit") == "committed"
    assert len(shell.db.get("Students")) < before


def test_shell_reports_txn_errors():
    shell = Shell()
    shell.db.transactions()
    assert shell.handle_meta(".commit").startswith("error:")
    assert shell.handle_meta(".abort").startswith("error:")
    shell.handle_meta(".begin")
    assert shell.handle_meta(".begin").startswith("error:")
    shell.handle_meta(".abort")


def test_shell_help_mentions_transactions():
    assert ".begin" in Shell().handle_meta(".help")


def test_session_without_manager_is_unchanged():
    """No manager attached → updates run exactly as before (and begin
    attaches one on demand through db.transactions())."""
    db = Database()
    from repro.core.values import MultiSet
    db.create("Nums", MultiSet())
    session = Session(db, INTERPRETED)
    assert db.txn is None
    session.run("append to Nums value (1)")
    assert db.get("Nums") == MultiSet([1])
    txid = session.begin()
    assert db.txn is not None and txid == 1
    session.abort()
