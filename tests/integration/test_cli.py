"""Tests for the interactive shell (repro.cli)."""

import subprocess
import sys

import pytest

from repro.cli import Shell, format_value, _split_statements
from repro.core.values import Arr, MultiSet, Tup


@pytest.fixture
def shell():
    return Shell()


def test_ddl_and_query_via_feed(shell):
    assert shell.feed("create Nums: { int4 }") == ["ok"]
    shell.feed("append to Nums value (1)")
    shell.feed("append to Nums value (2)")
    output = shell.feed("retrieve value (x) from x in Nums where x > 1")
    assert "2" in output[0]


def test_meta_help_and_names(shell):
    assert "EXCESS" in shell.handle_meta(".help")
    assert shell.handle_meta(".names") == "(no named objects)"
    shell.feed("create Nums: { int4 }")
    assert "Nums" in shell.handle_meta(".names")


def test_meta_types(shell):
    assert "(no types" in shell.handle_meta(".types")
    shell.feed("define type A: (x: int4)")
    shell.feed("define type B: (y: int4) inherits A")
    listing = shell.handle_meta(".types")
    assert "B inherits A" in listing


def test_meta_plan(shell):
    shell.feed("create Nums: { int4 }")
    plan = shell.handle_meta(".plan retrieve value (x) from x in Nums")
    assert "SET_APPLY" in plan


def test_meta_plan_error_is_reported(shell):
    assert shell.handle_meta(".plan retrieve (").startswith("error:")


def test_meta_optimize_toggle_and_plan(shell):
    shell.feed("create Nums: { int4 }")
    assert shell.handle_meta(".optimize on") == "optimization on"
    plan = shell.handle_meta(
        ".plan retrieve value (de(de(Nums)))")
    assert "optimized" in plan
    assert shell.handle_meta(".optimize off") == "optimization off"


def test_optimized_shell_reads_replay_cached_plans(shell):
    """The optimizer is rebuilt only when the database moved, so two
    identical reads hit the session's plan cache; a write between them
    re-prices and re-prepares."""
    from repro.obs.metrics import (CONNECTION_PLAN_CACHE_HITS,
                                   CONNECTION_PLAN_CACHE_MISSES)
    shell.feed("create Nums: { int4 }")
    shell.feed("append to Nums value (5)")
    shell.handle_meta(".optimize on")
    read = "retrieve (x) from x in Nums"
    hits = CONNECTION_PLAN_CACHE_HITS.value()
    first = shell.feed(read)
    assert shell.feed(read) == first
    assert CONNECTION_PLAN_CACHE_HITS.value() == hits + 1
    shell.feed("append to Nums value (6)")
    misses = CONNECTION_PLAN_CACHE_MISSES.value()
    assert "6" in shell.feed(read)[0]
    assert CONNECTION_PLAN_CACHE_MISSES.value() == misses + 1


def test_meta_stats_after_query(shell):
    assert "(no query" in shell.handle_meta(".stats")
    shell.feed("create Nums: { int4 }")
    shell.feed("append to Nums value (5)")
    shell.feed("retrieve value (Nums)")
    assert shell.handle_meta(".stats")  # non-empty counters or empty str ok


def test_meta_demo_loads_university(shell):
    message = shell.handle_meta(".demo")
    assert "university" in message
    output = shell.feed(
        "range of E is Employees retrieve (E.name) where E.dept.floor = 1")
    assert output[0] == "ok"  # the range declaration
    assert "multiset" in output[1]


def test_meta_quit_raises_eof(shell):
    with pytest.raises(EOFError):
        shell.handle_meta(".quit")


def test_unknown_meta(shell):
    assert "unknown command" in shell.handle_meta(".bogus")


def test_errors_are_messages_not_crashes(shell):
    output = shell.feed("retrieve (Ghost.name)")
    assert output[0].startswith("error:")


def test_format_value_multiset_truncation():
    big = MultiSet(range(100))
    text = format_value(big, limit=5)
    assert "95 more" in text


def test_format_value_duplicates_annotated():
    text = format_value(MultiSet([1, 1, 1]))
    assert "×3" in text


def test_format_value_array_and_scalar():
    assert "array" in format_value(Arr([1, 2]))
    assert format_value(42) == "42"


def test_split_statements_mixes_meta_and_sql():
    blocks = _split_statements(".demo\nretrieve (x) from x in A;\n.names\n")
    assert blocks[0] == ".demo"
    assert "retrieve" in blocks[1]
    assert blocks[2] == ".names"


def test_batch_mode_subprocess():
    script = (".demo\n"
              "range of E is Employees "
              "retrieve value (count(Employees));\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro"], input=script,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "30" in proc.stdout  # default university has 30 employees


def test_save_and_load_meta(shell, tmp_path):
    shell.feed("create Nums: { int4 }")
    shell.feed("append to Nums value (7)")
    path = str(tmp_path / "snap.json")
    assert "saved" in shell.handle_meta(".save %s" % path)
    fresh = Shell()
    assert "loaded" in fresh.handle_meta(".load %s" % path)
    assert "7" in fresh.feed("retrieve value (Nums)")[0]


def test_save_load_usage_and_errors(shell, tmp_path):
    assert "usage" in shell.handle_meta(".save")
    assert "usage" in shell.handle_meta(".load")
    assert "error" in shell.handle_meta(".load /nonexistent/nope.json")


def test_lint_subcommand_exits_nonzero_on_error(tmp_path):
    """Regression pin: error-severity findings must drive a nonzero
    exit status so CI can gate on `repro.cli lint`.  An ill-typed plan
    (L100) and a statically out-of-bounds subscript (L200) are both
    error severity."""
    from repro.cli import run_lint
    bad = tmp_path / "bad.excess"
    bad.write_text("retrieve (TopTen[11].name)\n")
    assert run_lint(["--demo", str(bad)]) == 1
    ok = tmp_path / "ok.excess"
    ok.write_text("retrieve (TopTen[5].name)\n")
    assert run_lint(["--demo", str(ok)]) == 0


def test_lint_subcommand_exit_code_subprocess(tmp_path):
    bad = tmp_path / "bad.excess"
    bad.write_text("retrieve (TopTen[11].name)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", "--demo", str(bad)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "L200" in proc.stdout


def test_sanitize_meta_toggle(shell):
    before = shell.conn.options
    assert "no-op" in shell.handle_meta(".sanitize on")  # interpreted
    shell.handle_meta(".engine compiled")
    assert shell.handle_meta(".sanitize on") == "sanitizer on"
    assert shell.handle_meta(".sanitize") == "sanitizer on"
    shell.handle_meta(".demo")  # reconnect must preserve the toggle
    assert shell.handle_meta(".sanitize") == "sanitizer on"
    out = shell.execute("retrieve (E) from E in Employees")
    assert "30" in out[0]
    assert shell.handle_meta(".sanitize off") == "sanitizer off"
    # Off is off: no abstract interpretation (or pruning) left behind.
    assert shell.conn.options == before.replace(engine="compiled")


def test_sanitize_subcommand_smoke():
    from repro.cli import run_sanitize
    assert run_sanitize(["--plans", "5"]) == 0
    assert run_sanitize(["--bogus"]) == 2


@pytest.mark.parametrize("argv", [["--plans"], ["--plans", "x"],
                                  ["--plans", "-1"], ["--seed"],
                                  ["--seed", "1.5"], ["--batched", "--seed"]])
def test_sanitize_subcommand_rejects_bad_counts(argv, capsys):
    """A missing or non-integer count is a usage error, never a silent
    zero-plan sweep or a traceback."""
    from repro.cli import run_sanitize
    assert run_sanitize(argv) == 2
    assert capsys.readouterr().out.startswith("usage:")


@pytest.mark.parametrize("argv", [["list"], ["create", "typed", "Nums"],
                                  ["drop", "keyed", "Nums", "x"]])
def test_index_subcommand_refuses_a_missing_database(argv, tmp_path,
                                                     capsys):
    """A mistyped directory must not turn into a fresh, empty database
    that ``list`` reports as having no indexes."""
    from repro.cli import main
    missing = tmp_path / "no-such-db"
    assert main(["index", argv[0], str(missing)] + argv[1:]) == 1
    assert capsys.readouterr().out == "error: no database at %s\n" % missing
    assert not missing.exists()
    tmp_path.joinpath("empty").mkdir()
    assert main(["index", argv[0], str(tmp_path / "empty")] + argv[1:]) == 1
    assert list(tmp_path.joinpath("empty").iterdir()) == []


def test_index_subcommand_on_an_existing_database(tmp_path, capsys):
    from repro import connect
    from repro.cli import main
    home = str(tmp_path / "db")
    conn = connect(home)
    conn.execute("create Nums: { int4 }")
    conn.close()
    assert main(["index", "create", home, "typed", "Nums"]) == 0
    assert main(["index", "list", home]) == 0
    assert "typed" in capsys.readouterr().out
