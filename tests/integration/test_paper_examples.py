"""End-to-end reproduction of every figure and worked example.

These integration tests are the executable version of the experiment
index in DESIGN.md: each figure's alternatives must agree on values,
and the work counters must move in the direction the paper claims.
"""

import pytest

from repro.core.expr import evaluate
from repro.core.optimizer import Optimizer
from repro.core.transform import ALL_RULES, RewriteEngine, RewriteFacts
from repro.core.values import MultiSet, Tup
from repro.workloads import build_university
from repro.workloads import figures
from repro.workloads.dispatch import (build_population, define_boss_methods,
                                      define_rich_subords_methods,
                                      switch_plan, union_plan)
from tests.conftest import last_value


@pytest.fixture(scope="module")
def uni():
    handle = build_university(n_departments=4, n_employees=24,
                              n_students=48, advisor_pool=4,
                              employee_name_pool=4,
                              subords_per_employee=6, seed=11)
    figures.value_views(handle)
    build_population(handle)
    define_boss_methods(handle)
    define_rich_subords_methods(handle)
    return handle


def run(uni, expr):
    ctx = uni.db.context()
    return evaluate(expr, ctx), ctx.stats


# ---------------------------------------------------------------------------
# Figures 3 and 4
# ---------------------------------------------------------------------------


def test_figure_3_matches_store(uni):
    result, stats = run(uni, figures.figure_3())
    fifth = uni.db.store.get(uni.db.get("TopTen").extract(5).oid)
    assert result == Tup(name=fifth["name"], salary=fifth["salary"])
    assert stats["deref_count"] == 1


def test_figure_3_equals_excess_query(uni):
    algebra_result, _ = run(uni, figures.figure_3())
    excess_result = last_value(uni.session,
        "retrieve (TopTen[5].name, TopTen[5].salary)")
    assert algebra_result == excess_result


def test_figure_4_matches_excess_query(uni):
    algebra_result, _ = run(uni, figures.figure_4())
    excess_result = last_value(uni.session,
        'retrieve (Employees.dept.name) where Employees.city = "Madison"')
    assert algebra_result == excess_result


# ---------------------------------------------------------------------------
# Example 1 (Figures 6–8)
# ---------------------------------------------------------------------------


def test_example1_all_three_trees_agree(uni):
    r6, _ = run(uni, figures.figure_6())
    r7, _ = run(uni, figures.figure_7())
    r8, _ = run(uni, figures.figure_8())
    assert r6 == r7 == r8
    assert r6.distinct_count() > 0


def test_example1_groups_are_duplicate_free(uni):
    result, _ = run(uni, figures.figure_6())
    for group in result.elements():
        assert group.is_set()


def test_example1_de_work_shrinks(uni):
    """Figure 8's point: DE operates on ~|S|+|E| occurrences instead of
    the join's |S|·|E|-scale output."""
    _, s7 = run(uni, figures.figure_7())
    _, s8 = run(uni, figures.figure_8())
    assert s8["de_elements"] < s7["de_elements"]
    assert s8["cross_pairs"] < s7["cross_pairs"]


def test_example1_rule8_derivable_by_engine(uni):
    """GRP(DE(x)) ↔ SET_APPLY_DE(GRP(x)) — the figure 6→7 move is a
    genuine rule application, not a hand-built pair."""
    from repro.core.expr import Input, Named
    from repro.core.operators import DE, Grp, SetApply, TupExtract
    engine = RewriteEngine(ALL_RULES, max_depth=1, max_trees=500)
    start = Grp(TupExtract("sdept", Input()), DE(Named("StudentsV")))
    reachable = {d.expr for d in engine.explore(start)}
    assert SetApply(DE(Input()),
                    Grp(TupExtract("sdept", Input()),
                        Named("StudentsV"))) in reachable


# ---------------------------------------------------------------------------
# Example 2 (Figures 9–11)
# ---------------------------------------------------------------------------

FLOOR = 2


def test_example2_all_three_trees_agree(uni):
    r9, _ = run(uni, figures.figure_9(FLOOR))
    r10, _ = run(uni, figures.figure_10(FLOOR))
    r11, _ = run(uni, figures.figure_11(FLOOR))
    assert r9 == r10 == r11


def test_example2_matches_excess_query(uni):
    r9, _ = run(uni, figures.figure_9(FLOOR))
    excess_result = last_value(uni.session, """
        range of S is Students
        retrieve (S.name) by S.dept.division where S.dept.floor = %d
    """ % FLOOR)
    names = lambda groups: {t["name"] for g in groups.elements() for t in g}
    assert names(r9) == names(excess_result)


def test_example2_rule15_collapse_reduces_scans(uni):
    """Figure 10 eliminates one scan of the group set."""
    _, s9 = run(uni, figures.figure_9(FLOOR))
    _, s10 = run(uni, figures.figure_10(FLOOR))
    assert s10["elements_scanned"] < s9["elements_scanned"]


def test_example2_rule26_halves_derefs(uni):
    """Figure 11: "the dept attribute needs to be DEREF'd only once"."""
    _, s9 = run(uni, figures.figure_9(FLOOR))
    _, s11 = run(uni, figures.figure_11(FLOOR))
    n_students = len(uni.student_refs)
    assert s9["deref_count"] == 3 * n_students   # entry + key + filter
    assert s11["deref_count"] == 2 * n_students  # entry + rebuild


def test_example2_figure10_derivable_by_rule_15(uni):
    """Figure 9 → Figure 10 is two applications of rule 15."""
    engine = RewriteEngine(ALL_RULES, max_depth=2, max_trees=4000)
    reachable = {d.expr for d in engine.explore(figures.figure_9(FLOOR))}
    assert figures.figure_10(FLOOR) in reachable


# ---------------------------------------------------------------------------
# Section 4 (Figure 5 and the trade-off discussion)
# ---------------------------------------------------------------------------


def test_dispatch_strategies_agree_cheap_method(uni):
    r1, _ = run(uni, switch_plan("boss"))
    r2, _ = run(uni, union_plan(uni, "boss"))
    assert r1 == r2
    assert len(r1) == len(uni.db.get("P"))


def test_dispatch_strategies_agree_expensive_method(uni):
    r1, _ = run(uni, switch_plan("rich_subords"))
    r2, _ = run(uni, union_plan(uni, "rich_subords"))
    assert r1 == r2


def test_cheap_method_union_pays_scan_penalty(uni):
    """For the "boss" case the paper prefers switch-table: the ⊎-plan
    scans P once per distinct body."""
    _, s_switch = run(uni, switch_plan("boss"))
    _, s_union = run(uni, union_plan(uni, "boss"))
    assert s_union["elements_scanned"] == 3 * s_switch["elements_scanned"]


def test_expensive_method_scan_penalty_is_negligible(uni):
    """With large sub_ords the extra scans are a small fraction of
    total work — the ⊎-plan's preferred regime."""
    _, s_switch = run(uni, switch_plan("rich_subords"))
    _, s_union = run(uni, union_plan(uni, "rich_subords"))
    extra = s_union["elements_scanned"] - s_switch["elements_scanned"]
    total = sum(v for k, v in s_union.items())
    assert extra / total < 0.25


def test_indexes_remove_the_scan_penalty(uni):
    """"the need to scan P three times … disappears"."""
    uni.db.indexes.build_typed("P")
    r_idx, s_idx = run(uni, union_plan(uni, "boss", use_index=True))
    r_sw, s_sw = run(uni, switch_plan("boss"))
    assert r_idx == r_sw
    assert s_idx["elements_scanned"] == s_sw["elements_scanned"]
    assert s_idx["index_lookups"] == 3


def test_union_plan_is_compile_time_optimizable(uni):
    """The whole point of Figure 5: the inlined bodies optimize with
    the invoking query; here the optimizer strips the stored methods'
    redundant DEs, which the switch-table plan can never see."""
    plan = union_plan(uni, "rich_subords")
    optimizer = Optimizer(max_depth=2, max_trees=600)
    result = optimizer.optimize(plan)
    assert "de-idempotence" in result.steps
    optimized_value, s_opt = run(uni, result.best)
    original_value, s_orig = run(uni, plan)
    assert optimized_value == original_value
    assert s_opt["de_elements"] < s_orig["de_elements"]


def test_switch_table_dispatches_at_runtime(uni):
    _, stats = run(uni, switch_plan("boss"))
    assert stats["method_dispatches"] == len(uni.db.get("P"))
