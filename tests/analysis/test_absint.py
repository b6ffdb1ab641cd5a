"""Unit tests for the abstract interpreter (repro.core.analysis.absint).

Three layers: the Interval/AbsValue lattices, the per-operator transfer
functions (cardinality, array-length, and value-range proofs), and the
fact flow into PlanFacts licenses / cost-model bounds / EXPLAIN text.
"""

import pytest

from repro.core.analysis import PlanFacts
from repro.core.analysis.absint import (INF, AbsValue, Interval,
                                        SanitizerError, abs_of_value,
                                        analyze)
from repro.core.expr import Const, Input, Named
from repro.core.operators import (DE, AddUnion, ArrExtract, Comp, Cross,
                                  Diff, Grp, SetApply, SetCollapse,
                                  SetCreate, SubArr, TupExtract)
from repro.core.predicates import And, Atom, Not, TruePred
from repro.core.values import DNE, UNK, Arr, MultiSet, Tup
from repro.storage import Database


def build_db():
    db = Database()
    db.create("Emp", MultiSet([
        Tup({"name": "amy", "age": 31}),
        Tup({"name": "bob", "age": 45}),
        Tup({"name": "cal", "age": 28})]))
    db.create("Empty", MultiSet())
    db.create("Nums", MultiSet([1, 2, 2, 3]))
    db.create("Unky", MultiSet([Tup({"age": UNK}), Tup({"age": 50})]))
    db.create("Top", Arr([10, 20, 30, 40]))
    return db


def emp_sigma(op, value, source=None):
    return SetApply(
        Comp(Atom(TupExtract("age", Input()), op, Const(value)), Input()),
        source or Named("Emp"))


# -- lattices ---------------------------------------------------------------

def test_interval_arithmetic():
    a, b = Interval(2, 5), Interval(1, 3)
    assert a.add(b) == Interval(3, 8)
    assert a.mul(b) == Interval(2, 15)
    assert a.join(b) == Interval(1, 5)
    assert a.minus_floor(b) == Interval(0, 5)
    assert Interval.exact(0).mul(Interval(0, INF)) == Interval.exact(0)
    assert Interval.top().is_trivial()
    assert Interval(2, 5).describe() == "[2..5]"
    assert Interval(0, INF).describe() == "[0..∞]"


def test_abs_of_value_exactness():
    ms = abs_of_value(MultiSet([1, 2, 2]))
    assert ms.card == Interval.exact(3)
    assert ms.definitely("set") and ms.never_null()
    arr = abs_of_value(Arr(["a", "b"]))
    assert arr.length == Interval.exact(2)
    tup = abs_of_value(Tup({"x": 1, "y": UNK}))
    assert tup.closed and "x" in tup.always and "y" in tup.always
    num = abs_of_value(17)
    assert num.num == (17, 17) and num.const == 17
    assert abs_of_value(DNE).may_dne and not abs_of_value(DNE).maybe_value


def test_absvalue_join_widens():
    j = abs_of_value(MultiSet([1])).join(abs_of_value(MultiSet([1, 2, 3])))
    assert j.card == Interval(1, 3)
    j2 = abs_of_value(5).join(abs_of_value(UNK))
    assert j2.may_unk and j2.maybe_value


# -- cardinality transfer ----------------------------------------------------

def test_named_extent_seeds_exact_cardinality():
    db = build_db()
    plan = Named("Emp")
    an = analyze(plan, database=db)
    assert an.card_bounds(plan) == (3, 3)
    assert an.describe_bounds(plan) == "[3..3]"


def test_operator_bounds_flow_bottom_up():
    db = build_db()
    emp, nums = Named("Emp"), Named("Nums")
    cases = [
        (SetApply(Input(), emp), (3, 3)),          # per-element map
        (DE(nums), (1, 4)),                        # dups collapse
        (AddUnion(emp, Named("Emp")), (6, 6)),
        (Diff(nums, Named("Nums")), (0, 4)),
        (Cross(emp, nums), (12, 12)),
        (Grp(TupExtract("age", Input()), emp), (1, 3)),
        (SetCreate(Const(1)), (1, 1)),
        (SetCollapse(Named("Nums")), None),        # not a set-of-sets
    ]
    for plan, expected in cases:
        an = analyze(plan, database=db)
        assert an.card_bounds(plan) == expected, plan.describe()


def test_sigma_interval_and_findings():
    db = build_db()
    unsat = emp_sigma("<", 0)
    an = analyze(unsat, database=db)
    assert an.card_bounds(unsat) == (0, 0)
    assert an.is_statically_empty(unsat)
    assert any(f.kind == "unsat_sigma" for f in an.findings)

    taut = emp_sigma(">", 0)
    an2 = analyze(taut, database=db)
    assert an2.card_bounds(taut) == (3, 3)
    assert any(f.kind == "taut_sigma" for f in an2.findings)

    some = emp_sigma(">", 30)
    an3 = analyze(some, database=db)
    assert an3.card_bounds(some) == (0, 3)
    assert not an3.is_statically_empty(some)


def test_unknown_fields_block_unsat_proof():
    """A σ whose predicate may see UNK can't be proven unsatisfiable —
    the verdict set must keep U, so no finding and no empty proof."""
    db = build_db()
    plan = emp_sigma("<", 0, source=Named("Unky"))
    an = analyze(plan, database=db)
    assert not an.is_statically_empty(plan)
    assert not any(f.kind == "unsat_sigma" for f in an.findings)


def test_kleene_connectives_in_sigma_proofs():
    db = build_db()
    pred = And(Atom(TupExtract("age", Input()), ">", Const(0)),
               Not(Atom(TupExtract("age", Input()), "<", Const(100))))
    plan = SetApply(Comp(pred, Input()), Named("Emp"))
    an = analyze(plan, database=db)
    assert an.card_bounds(plan) == (0, 0)
    plan2 = SetApply(Comp(And(TruePred(), TruePred()), Input()),
                     Named("Emp"))
    an2 = analyze(plan2, database=db)
    assert an2.card_bounds(plan2) == (3, 3)


def test_empty_join_and_grp_findings():
    db = build_db()
    join = Cross(Named("Empty"), Named("Emp"))
    an = analyze(join, database=db)
    assert an.card_bounds(join) == (0, 0)
    assert any(f.kind == "empty_join_input" for f in an.findings)

    grp = Grp(TupExtract("age", Input()), Named("Empty"))
    an2 = analyze(grp, database=db)
    assert any(f.kind == "empty_grp_input" for f in an2.findings)


# -- array-length transfer ---------------------------------------------------

def test_array_bounds_proofs():
    db = build_db()
    safe = ArrExtract(2, Named("Top"))
    an = analyze(safe, database=db)
    assert an.is_bounds_safe(safe)
    assert not an.findings

    oob = ArrExtract(9, Named("Top"))
    an2 = analyze(oob, database=db)
    assert not an2.is_bounds_safe(oob)
    assert any(f.kind == "oob_subscript" for f in an2.findings)

    last = ArrExtract("last", Named("Top"))
    an3 = analyze(last, database=db)
    assert an3.is_bounds_safe(last)


def test_subarr_length_interval():
    db = build_db()
    sub = SubArr(2, 3, Named("Top"))
    an = analyze(sub, database=db)
    assert an.length_bounds(sub) == (2, 2)
    clipped = SubArr(3, 9, Named("Top"))
    an2 = analyze(clipped, database=db)
    assert an2.length_bounds(clipped) == (2, 2)


def test_subscript_into_subarr_composes():
    db = build_db()
    plan = ArrExtract(2, SubArr(2, 3, Named("Top")))
    an = analyze(plan, database=db)
    assert an.is_bounds_safe(plan)


# -- fact flow ---------------------------------------------------------------

def test_extend_facts_licenses():
    db = build_db()
    unsat = emp_sigma("<", 0)
    root = AddUnion(unsat, Named("Nums"))
    an = analyze(root, database=db)
    facts = an.extend_facts(PlanFacts())
    assert facts.is_statically_empty(unsat)
    assert facts.statically_empty_sort(unsat) == "set"
    assert facts.cardinality_bounds(root) == (4, 4)

    safe = ArrExtract(2, Named("Top"))
    an2 = analyze(safe, database=db)
    facts2 = an2.extend_facts()
    assert facts2.is_bounds_safe(safe)


def test_empty_source_licenses_any_body():
    """SET_APPLY over a proven-empty source never runs its body, so the
    empty short-circuit is licensed regardless of what the body does."""
    db = build_db()
    plan = SetApply(ArrExtract(9, Const(Arr([1]))), Named("Empty"))
    an = analyze(plan, database=db)
    assert an.extend_facts().is_statically_empty(plan)
    from repro.core.expr import evaluate
    assert (evaluate(plan, db.context(), mode="compiled",
                     analysis=analyze(plan, database=db))
            == evaluate(plan, db.context(), mode="interpreted"))


def test_facts_not_licensed_without_totality():
    """Work-skipping licenses require totality: a plan over an extent
    the analyzer knows nothing about (TOP, non-total) must never be
    declared statically empty, whatever its proven upper bound."""
    db = build_db()
    plan = Diff(Named("Empty"), Named("NoSuchExtent"))
    an = analyze(plan, database=db)
    bounds = an.card_bounds(plan)
    assert bounds is None or bounds[1] == 0  # hi is 0 either way
    assert not an.extend_facts().is_statically_empty(plan)


def test_bounds_map_is_structural():
    db = build_db()
    plan = DE(Named("Nums"))
    an = analyze(plan, database=db)
    bounds = an.bounds_map()
    # A *fresh* structurally-equal node hits the map (cost model use).
    assert bounds.get(Named("Nums")) == (4, 4)
    assert bounds.get(DE(Named("Nums"))) == (1, 4)


def test_cost_model_clamps_to_proven_bounds():
    from repro.core.optimizer import CostModel, Statistics
    db = build_db()
    plan = DE(Named("Nums"))
    an = analyze(plan, database=db)
    model = CostModel(Statistics.from_database(db), bounds=an.bounds_map())
    est = model.estimate(plan)
    assert 1 <= est.card <= 4


def test_explain_analyze_shows_static_bounds():
    import repro
    db = build_db()
    conn = repro.connect(db, repro.ExecutionOptions(checks="analyze", trace=True))
    result = conn.execute("retrieve (E) from E in Emp")
    text = result.explain()
    assert "static [" in text


def test_statically_empty_pruning_preserves_value():
    import repro
    db = build_db()
    conn = repro.connect(db, repro.ExecutionOptions(checks="analyze"))
    plain = repro.connect(db)
    q = "retrieve (E.name) from E in Emp where E.age < 0"
    assert conn.execute(q).value == plain.execute(q).value
    assert len(conn.execute(q).rows()) == 0


def test_sanitizer_catches_stale_facts():
    """Facts from analyzing one tree must not be applied to another
    database state: the sanitizer exists to catch exactly this."""
    from repro.core.expr import evaluate
    db = build_db()
    plan = Named("Emp")
    an = analyze(plan, database=db)
    db2 = Database()
    db2.create("Emp", MultiSet([Tup({"name": "x", "age": 1})] * 7))
    with pytest.raises(SanitizerError):
        evaluate(plan, db2.context(), mode="compiled", analysis=an,
                 sanitize=True)


def test_sanitizer_metrics_counters_move():
    import repro
    from repro.obs import metrics
    before = metrics.SANITIZER_CHECKS_TOTAL.value()
    conn = repro.connect(build_db(), repro.ExecutionOptions(checks="sanitize"))
    conn.execute("retrieve (E) from E in Emp")
    assert metrics.SANITIZER_CHECKS_TOTAL.value() > before
