"""Unit tests for the streaming plan compiler and its satellites:
the deref cache, hash-join recognition, engine selection, session
stats hygiene, and the engine-aware cost model.
"""

import re

import pytest

from repro.core.engine import (DerefCache, Pipeline, compile_plan,
                               match_hash_join)
from repro.core.engine.compiler import _compile_driver
from repro.core.expr import AlgebraError, Const, Input, Named, evaluate
from repro.core.operators import (Pi, SetApply, TupCreate, TupExtract,
                                  rel_join, sigma)
from repro.core.optimizer import CostModel, ObjectStats, Optimizer, Statistics
from repro.core.predicates import Atom
from repro.core.values import DNE, UNK, Arr, MultiSet, Tup
from repro.excess.pipeline import prepare, statements
from repro.options import ExecutionOptions
from repro.storage import Database
from repro.workloads import build_university, figures
from repro.workloads.dispatch import (build_population, define_boss_methods,
                                      switch_plan, union_plan)
from tests.conftest import INTERPRETED, last_value


@pytest.fixture(scope="module")
def uni():
    handle = build_university(n_departments=3, n_employees=24,
                              n_students=36, advisor_pool=4,
                              employee_name_pool=4, seed=5)
    figures.value_views(handle)
    build_population(handle)
    define_boss_methods(handle)
    return handle


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------


def test_unknown_mode_rejected(uni):
    with pytest.raises(ValueError):
        evaluate(figures.figure_3(), uni.db.context(), mode="vectorized")


def test_compiled_mode_runs_figures(uni):
    ctx = uni.db.context()
    for builder in (figures.figure_3, figures.figure_4, figures.figure_6,
                    figures.figure_9, figures.figure_11):
        expr = builder()
        ctx.begin_query()
        assert (evaluate(expr, ctx, mode="compiled")
                == evaluate(expr, uni.db.context()))


def test_pipeline_is_reusable_and_explains(uni):
    pipeline = compile_plan(figures.figure_4())
    assert isinstance(pipeline, Pipeline)
    first = pipeline.execute(uni.db.context())
    second = pipeline.execute(uni.db.context())
    assert first == second
    text = pipeline.explain()
    assert "FUSED_APPLY" in text and "compiled plan" in text
    assert "Pipeline" in repr(pipeline)


def test_compiled_input_binding(uni):
    tup = Tup(name="x", city="Lodi")
    assert (evaluate(TupExtract("city", Input()), uni.db.context(),
                    input_value=tup, mode="compiled") == "Lodi")
    with pytest.raises(AlgebraError):
        evaluate(Input(), uni.db.context(), mode="compiled")


# ---------------------------------------------------------------------------
# Deref cache
# ---------------------------------------------------------------------------


def test_deref_cache_lru_eviction():
    cache = DerefCache(capacity=2)
    cache.put(1, "a")
    cache.put(2, "b")
    assert cache.get(1) == "a"   # refreshes 1; 2 is now oldest
    cache.put(3, "c")
    assert 2 not in cache and 1 in cache and 3 in cache
    assert len(cache) == 2


def test_deref_cache_clear_resets_counters():
    cache = DerefCache()
    cache.put(1, "a")
    cache.hits, cache.misses = 5, 7
    cache.clear()
    assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)


def test_deref_cache_rejects_silly_capacity():
    with pytest.raises(ValueError):
        DerefCache(capacity=0)


def test_compiled_deref_populates_cache_and_stats(uni):
    ctx = uni.db.context()
    ctx.begin_query()
    evaluate(figures.figure_4(), ctx, mode="compiled")
    stats = ctx.stats
    assert stats["deref_cache_hit"] > 0
    assert stats["deref_cache_miss"] > 0
    assert (stats["deref_count"]
            == stats["deref_cache_hit"] + stats["deref_cache_miss"])
    assert len(ctx.deref_cache) > 0


def test_begin_query_clears_the_cache(uni):
    ctx = uni.db.context()
    evaluate(figures.figure_4(), ctx, mode="compiled")
    assert len(ctx.deref_cache) > 0
    ctx.begin_query()
    assert len(ctx.deref_cache) == 0 and ctx.stats == {}


def test_compiled_matches_interpreter_deref_count(uni):
    """The cache changes the *cost* of a deref, never the count."""
    interp = uni.db.context()
    evaluate(figures.figure_9(2), interp)
    comp = uni.db.context()
    evaluate(figures.figure_9(2), comp, mode="compiled")
    assert comp.stats["deref_count"] == interp.stats["deref_count"]


# ---------------------------------------------------------------------------
# Hash join
# ---------------------------------------------------------------------------


def _join(uni):
    return rel_join(
        Atom(TupExtract("sdept", TupExtract("field1", Input())), "=",
             TupExtract("ename", TupExtract("field2", Input()))),
        Named("StudentsV"), Named("EmployeesV"))


def test_hash_join_shape_recognized(uni):
    match = match_hash_join(_join(uni))
    assert match is not None
    assert match.left == Named("StudentsV")
    assert match.right == Named("EmployeesV")


def test_non_equality_join_not_matched(uni):
    plan = rel_join(
        Atom(TupExtract("sdept", TupExtract("field1", Input())), "<",
             TupExtract("ename", TupExtract("field2", Input()))),
        Named("StudentsV"), Named("EmployeesV"))
    assert match_hash_join(plan) is None


def test_plain_sigma_not_matched(uni):
    plan = sigma(Atom(TupExtract("city", Input()), "=", Const("Madison")),
                 Named("EmployeesV"))
    assert match_hash_join(plan) is None


def test_hash_join_equivalent_and_never_forms_pairs(uni):
    plan = _join(uni)
    interp = uni.db.context()
    expected = evaluate(plan, interp)
    comp = uni.db.context()
    got = evaluate(plan, comp, mode="compiled")
    assert got == expected
    assert interp.stats["cross_pairs"] > 0
    assert comp.stats.get("cross_pairs", 0) == 0
    assert comp.stats["hash_join_build"] > 0
    assert comp.stats["hash_join_probes"] > 0


def test_hash_join_appears_in_explain(uni):
    assert "HASH_JOIN" in compile_plan(_join(uni)).explain()


# ---------------------------------------------------------------------------
# Typed dispatch
# ---------------------------------------------------------------------------


def test_dispatch_strategies_agree_compiled(uni):
    ctx = uni.db.context()
    interp = evaluate(switch_plan("boss"), uni.db.context())
    for plan in (switch_plan("boss"), union_plan(uni, "boss")):
        ctx.begin_query()
        assert evaluate(plan, ctx, mode="compiled") == interp


def test_typed_set_apply_filters_compiled(uni):
    plan = union_plan(uni, "boss", collapse=False)
    assert (evaluate(plan, uni.db.context(), mode="compiled")
            == evaluate(plan, uni.db.context()))


# ---------------------------------------------------------------------------
# Session stats hygiene
# ---------------------------------------------------------------------------


def test_session_stats_reset_between_statements():
    from repro.excess import Session
    db = Database()
    db.create("Nums", MultiSet([Tup(n=1), Tup(n=2), Tup(n=3)]))
    session = Session(db, INTERPRETED)
    session.run("range of X is Nums")
    first = session.run("retrieve (X.n)")[-1]
    second = session.run("retrieve (X.n) where X.n = 2")[-1]
    assert first.stats["elements_scanned"] == 3
    # Counters restart per statement instead of accumulating: the second
    # statement's stats match the same statement run in a fresh session.
    fresh = Session(db, INTERPRETED)
    fresh.run("range of X is Nums")
    baseline = fresh.run("retrieve (X.n) where X.n = 2")[-1]
    assert second.stats == baseline.stats
    assert session.context.stats == second.stats


def test_session_engine_choice_and_validation():
    from repro.excess import Session
    db = Database()
    db.create("Nums", MultiSet([Tup(n=1), Tup(n=2)]))
    compiled = Session(db, ExecutionOptions(engine="compiled"))
    value = last_value(compiled, "range of X is Nums retrieve (X.n)")
    assert value == MultiSet([Tup(n=1), Tup(n=2)])
    with pytest.raises(ValueError):
        Session(db, ExecutionOptions(engine="jit"))


def test_cli_engine_meta_command():
    from repro.cli import Shell
    shell = Shell()
    assert "interpreted" in shell.handle_meta(".engine")
    assert "compiled" in shell.handle_meta(".engine compiled")
    assert shell.conn.engine == "compiled"
    assert "usage" in shell.handle_meta(".engine warp")
    shell.handle_meta(".demo")
    assert shell.conn.engine == "compiled"  # survives reloads
    out = shell.feed("range of E is Employees retrieve (E)")
    assert out and not out[0].startswith("error")


# ---------------------------------------------------------------------------
# Engine-aware cost model
# ---------------------------------------------------------------------------


def _stats():
    stats = Statistics()
    stats.set_object("StudentsV", ObjectStats(cardinality=500, distinct=400))
    stats.set_object("EmployeesV", ObjectStats(cardinality=800, distinct=100))
    return stats


def test_cost_model_rejects_unknown_engine():
    with pytest.raises(ValueError):
        CostModel(engine="quantum")


def test_compiled_cost_model_prefers_hash_join(uni):
    plan = _join(uni)
    interp_cost = CostModel(_stats()).cost(plan)
    compiled_cost = CostModel(_stats(), engine="compiled").cost(plan)
    assert compiled_cost < interp_cost
    # Linear-plus-output beats the quadratic pair set by a wide margin.
    assert compiled_cost < interp_cost / 5


def test_compiled_cost_model_keeps_paper_rankings(uni):
    stats = Statistics.from_database(uni.db)
    for engine in ("interpreted", "compiled"):
        model = CostModel(stats, engine=engine)
        assert model.cost(figures.figure_8()) < model.cost(figures.figure_7())
        assert (model.cost(figures.figure_10())
                < model.cost(figures.figure_9()))
        assert (model.cost(figures.figure_11())
                < model.cost(figures.figure_9()))


# ---------------------------------------------------------------------------
# Streaming semantics details
# ---------------------------------------------------------------------------


def test_fused_chain_keeps_duplicate_cardinalities():
    db = Database()
    db.create("S", MultiSet([Tup(a=1), Tup(a=1), Tup(a=2)]))
    plan = SetApply(Pi(["a"], Input()),
                    SetApply(Input(), Named("S")))
    result = evaluate(plan, db.context(), mode="compiled")
    assert result == MultiSet([Tup(a=1), Tup(a=1), Tup(a=2)])
    assert len(result) == 3 and result.distinct_count() == 2


def test_fused_chain_drops_dne_fields():
    db = Database()
    db.create("S", MultiSet([Tup(a=1, b=2), Tup(a=DNE, b=3)]))
    plan = SetApply(TupExtract("a", Input()), Named("S"))
    assert (evaluate(plan, db.context(), mode="compiled")
            == MultiSet([1]))


def test_compiled_error_messages_match_interpreter():
    db = Database()
    db.create("S", MultiSet([3]))
    plan = SetApply(TupExtract("a", Input()), Named("S"))
    with pytest.raises(AlgebraError) as interp_err:
        evaluate(plan, db.context())
    with pytest.raises(AlgebraError) as comp_err:
        evaluate(plan, db.context(), mode="compiled")
    assert str(comp_err.value) == str(interp_err.value)


# ---------------------------------------------------------------------------
# Inlined fused-loop steps
# ---------------------------------------------------------------------------

#: One row per kind of field value an order atom can meet: comparable
#: scalars of every type, mismatched structures, and both nulls (DNE
#: drops the row, UNK turns it into an unk occurrence).
_ORDER_FIELDS = [-3, 0, 2, 7, 2.5, -0.5, 1e9, "", "a", "m", "zz", True,
                 False, Arr([1]), Tup(g=1), DNE, UNK, 2, "a", UNK]


@pytest.mark.parametrize("literal", [2, 2.5, "m"])
@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_inlined_order_atom_and_tup_create_match_interpreter(op, literal):
    db = Database()
    db.create("R", MultiSet(Tup(f=value, i=i)
                            for i, value in enumerate(_ORDER_FIELDS)))
    plan = SetApply(TupCreate("x", TupExtract("f", Input())),
                    sigma(Atom(TupExtract("f", Input()), op,
                               Const(literal)), Named("R")))
    assert ("FUSED_APPLY[2 stage(s), 2 inlined] over Named"
            in compile_plan(plan).notes)
    runs = []
    for mode in ("interpreted", "compiled"):
        ctx = db.context()
        value = evaluate(plan, ctx, mode=mode)
        runs.append((value, {name: ctx.stats.get(name, 0) for name in
                             ("comp_evals", "atom_evals",
                              "elements_scanned")}))
    assert runs[0] == runs[1]


def test_indexed_range_retrieve_runs_without_closure_stages():
    """`retrieve (t.v) … where t.k < c` over an ordered index — the
    wire benchmark's range reply — compiles both its scan and its
    probe-fed chain to fully inlined loops; a shape that falls back to
    per-element closures would show fewer inlined than stages."""
    db = Database()
    db.create("Big", MultiSet(Tup(k=k, v=k % 97) for k in range(1000)))
    db.indexes.create_index("ordered", "Big", TupExtract("k", Input()))
    statement, = statements("retrieve (t.v) from t in Big where t.k < 300")
    step = prepare(statement, db, {}, ExecutionOptions(), Optimizer())
    pattern = re.compile(r"FUSED_APPLY\[(\d+) stage\(s\), (\d+) inlined\]")
    fused = [m.groups() for m in map(pattern.match, step.plan.notes) if m]
    assert len(fused) == 2      # the scan fallback and the probe's chain
    assert all(stages == inlined for stages, inlined in fused)


def test_plans_differing_in_a_literal_share_a_driver_but_not_answers():
    """Generated drivers read literals from their namespace, so a second
    plan of the same shape reuses the byte-compiled driver — and must
    still answer with its own literal."""
    db = Database()
    db.create("R", MultiSet(Tup(k=k, v=k * 10) for k in range(6)))

    def plan(op, literal):
        return SetApply(TupCreate("x", TupExtract("v", Input())),
                        sigma(Atom(TupExtract("k", Input()), op,
                                   Const(literal)), Named("R")))

    compile_plan(plan("<", 2))
    hits = _compile_driver.cache_info().hits
    got = evaluate(plan("<", 4), db.context(), mode="compiled")
    assert _compile_driver.cache_info().hits > hits
    assert got == MultiSet(Tup(x=v) for v in (0, 10, 20, 30))
    assert (evaluate(plan(">=", 4), db.context(), mode="compiled")
            == MultiSet([Tup(x=40), Tup(x=50)]))
