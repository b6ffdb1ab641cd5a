"""The sanitizer differential suite and the L200-series lint codes.

Four parts:

* the 240-plan differential — every generated plan is bit-identical
  across interpreted / compiled / compiled-with-licenses /
  compiled-with-sanitizer execution, and the sanitizer never fires;
* the paper-figure queries under the same four modes;
* one crafted plan per L200-series code proving each diagnostic can
  actually fire;
* EXPLAIN ANALYZE containment — on the Figure 3/4 workloads every
  proven ``static [lo..hi]`` interval contains the actual cardinality.
"""

import re

import pytest

import repro
from repro.core.analysis import Linter, lint
from repro.core.expr import Const, Input, Named
from repro.core.operators import (AddUnion, ArrExtract, Comp, Cross, Grp,
                                  SetApply, TupExtract)
from repro.core.predicates import Atom
from repro.core.values import MultiSet, Tup
from repro.storage import Database
from repro.workloads.plangen import (N_PLANS, build_fixture_db,
                                     generate_plan, run_modes,
                                     university_sweep)


@pytest.fixture(scope="module")
def fixture_db():
    return build_fixture_db()


# -- the differential sweep --------------------------------------------------

@pytest.mark.parametrize("seed", range(N_PLANS))
def test_differential_plan(seed, fixture_db):
    expr = generate_plan(seed)
    modes = run_modes(expr, fixture_db)
    reference = modes.pop("interpreted")
    for mode, outcome in modes.items():
        assert outcome == reference, "%s diverged on %s" % (mode,
                                                            expr.describe())


def test_differential_sweep_is_not_vacuous(fixture_db):
    """The sweep must exercise successes, arrays, and proven facts —
    pin the generator's coverage so refactors can't gut it."""
    from repro.core.analysis.absint import analyze
    ok = proofs = arrays = 0
    for seed in range(N_PLANS):
        expr = generate_plan(seed)
        analysis = analyze(expr, database=fixture_db)
        if analysis.card_bounds(expr) or analysis.length_bounds(expr):
            proofs += 1
        if analysis.length_bounds(expr):
            arrays += 1
        outcome, _ = run_modes(expr, fixture_db)["interpreted"]
        if outcome == "ok":
            ok += 1
    assert ok >= N_PLANS * 0.8, "too many generated plans fail (%d ok)" % ok
    assert proofs >= N_PLANS * 0.5, "analyzer proves too little"
    assert arrays >= 5, "no array plans generated"


def test_university_figures_under_all_modes():
    report = university_sweep()
    assert not report.failed, report.render()
    assert report.plans >= 8


# -- one crafted plan per L200-series code -----------------------------------

def lint_db():
    db = Database()
    db.create("Emp", MultiSet([Tup({"name": "amy", "age": 31}),
                               Tup({"name": "bob", "age": 45})]))
    db.create("Empty", MultiSet())
    from repro.core.values import Arr
    db.create("Top", Arr([1, 2, 3]))
    return db


def sigma(op, value, source):
    return SetApply(
        Comp(Atom(TupExtract("age", Input()), op, Const(value)), Input()),
        source)


def codes(diagnostics):
    return {d.code for d in diagnostics}


def test_l200_oob_subscript_fires_and_is_error():
    out = lint(ArrExtract(9, Named("Top")), lint_db())
    assert "L200" in codes(out)
    finding = next(d for d in out if d.code == "L200")
    assert finding.severity == "error"


def test_l201_unsat_sigma_fires():
    out = lint(sigma("<", 0, Named("Emp")), lint_db())
    assert "L201" in codes(out)


def test_l202_taut_sigma_fires():
    out = lint(sigma(">", 0, Named("Emp")), lint_db())
    assert "L202" in codes(out)


def test_l203_empty_join_input_fires():
    out = lint(Cross(Named("Empty"), Named("Emp")), lint_db())
    assert "L203" in codes(out)


def test_l204_empty_grp_input_fires():
    out = lint(Grp(TupExtract("age", Input()), Named("Empty")), lint_db())
    assert "L204" in codes(out)


def test_l205_non_exhaustive_dispatch_fires(fixture_db):
    plan = AddUnion(
        SetApply(Input(), Named("People"),
                 type_filter=frozenset(["Student"])),
        SetApply(Input(), Named("People"),
                 type_filter=frozenset(["Employee"])))
    out = lint(plan, fixture_db)
    assert "L205" in codes(out)
    finding = next(d for d in out if d.code == "L205")
    assert "Person" in finding.message


def test_l205_quiet_when_closure_covered(fixture_db):
    plan = AddUnion(
        SetApply(Input(), Named("People"),
                 type_filter=frozenset(["Person"])),
        SetApply(Input(), Named("People"),
                 type_filter=frozenset(["Student"])))
    assert "L205" not in codes(lint(plan, fixture_db))


def test_l205_quiet_for_single_typed_sigma(fixture_db):
    plan = SetApply(Input(), Named("People"),
                    type_filter=frozenset(["Student"]))
    assert "L205" not in codes(lint(plan, fixture_db))


def test_l206_stats_contradiction_fires():
    from repro.core.optimizer import ObjectStats, Statistics
    db = lint_db()
    stats = Statistics()
    stats.set_object("Emp", ObjectStats(cardinality=500.0))
    out = Linter(db, statistics=stats).lint(Named("Emp"))
    assert "L206" in codes(out)


def test_l206_quiet_when_stats_agree():
    from repro.core.optimizer import ObjectStats, Statistics
    db = lint_db()
    stats = Statistics()
    stats.set_object("Emp", ObjectStats(cardinality=2.0))
    out = Linter(db, statistics=stats).lint(Named("Emp"))
    assert "L206" not in codes(out)


# -- EXPLAIN ANALYZE containment ---------------------------------------------

STATIC_RE = re.compile(
    r"actual card=(\d+).*static \[(\d+|∞)\.\.(\d+|∞)\]")


def assert_static_contains_actual(text):
    checked = 0
    for line in text.splitlines():
        match = STATIC_RE.search(line)
        if not match:
            continue
        actual = int(match.group(1))
        lo = 0 if match.group(2) == "∞" else int(match.group(2))
        hi = float("inf") if match.group(3) == "∞" else int(match.group(3))
        assert lo <= actual <= hi, line
        checked += 1
    return checked


def test_static_bounds_contain_actuals_on_figure_queries():
    from repro.workloads import build_university
    uni = build_university(seed=3)
    conn = repro.connect(uni.db, repro.ExecutionOptions(checks="analyze", trace=True))
    queries = [
        "retrieve (TopTen[5].name, TopTen[5].salary)",          # Figure 3
        'retrieve (Employees.dept.name) '
        'where Employees.city = "Madison"',                      # Figure 4
        "retrieve (Employees.salary) where Employees.salary >= 0",
    ]
    checked = 0
    for query in queries:
        result = conn.execute(query)
        checked += assert_static_contains_actual(result.explain())
    assert checked >= 3, "no static bounds rendered at all"


def test_analyze_mode_matches_plain_on_figure_queries():
    from repro.workloads import build_university
    uni = build_university(seed=3)
    conn = repro.connect(uni.db, repro.ExecutionOptions(checks="analyze"))
    plain = repro.connect(uni.db)
    sanitized = repro.connect(uni.db, repro.ExecutionOptions(checks="sanitize"))
    queries = [
        "retrieve (TopTen[5].name, TopTen[5].salary)",
        'retrieve (Employees.dept.name) '
        'where Employees.city = "Madison"',
    ]
    for query in queries:
        expected = plain.execute(query).value
        assert conn.execute(query).value == expected
        assert sanitized.execute(query).value == expected


# -- documentation sync ------------------------------------------------------

def test_every_lint_code_documented():
    """Every code in diagnostics.LINT_CODES appears in both README.md
    and DESIGN.md, so the docs can't drift from the implementation."""
    import os
    from repro.core.analysis.diagnostics import iter_codes
    root = os.path.join(os.path.dirname(__file__), "..", "..")
    for name in ("README.md", "DESIGN.md"):
        with open(os.path.join(root, name)) as handle:
            text = handle.read()
        missing = [code for code in iter_codes() if code not in text]
        assert not missing, "%s is missing lint codes: %s" % (name, missing)


def test_cli_subcommands_documented():
    """Every ``python -m repro.cli`` subcommand appears in README.md
    and in the cli module docstring, so the surfaces can't drift."""
    import os
    from repro import cli
    root = os.path.join(os.path.dirname(__file__), "..", "..")
    with open(os.path.join(root, "README.md")) as handle:
        readme = handle.read()
    for name in cli.SUBCOMMANDS:
        needle = "repro.cli %s" % name
        assert needle in readme, "README.md is missing %r" % needle
        assert needle in cli.__doc__, "cli docstring is missing %r" % needle
