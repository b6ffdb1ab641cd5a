"""Differential tests for the columnar batch engine.

The batch-stressing corpus (wide arrays, deep deref chains, disjoint
typed unions, skewed partition pools) must be bit-identical across
interpreted / compiled / batched / partition-parallel execution, and
the generator's coverage is pinned so refactors can't gut it.
"""

import pytest

from repro import Database, ExecutionOptions, MultiSet, connect
from repro.core.engine import compile_batch_plan
from repro.core.expr import evaluate
from repro.core.values import Tup
from repro.workloads.plangen import (BATCH_SEED_BASE, N_BATCH_PLANS,
                                     build_fixture_db, generate_batch_plan,
                                     run_modes)


@pytest.fixture(scope="module")
def fixture_db():
    return build_fixture_db()


# ---------------------------------------------------------------------------
# The batch-stressing differential sweep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(BATCH_SEED_BASE,
                                       BATCH_SEED_BASE + N_BATCH_PLANS))
def test_batch_differential_plan(seed, fixture_db):
    expr = generate_batch_plan(seed)
    modes = run_modes(expr, fixture_db, batched=True, parallel=2)
    reference = modes.pop("interpreted")
    assert "batched" in modes and "parallel" in modes
    for mode, outcome in modes.items():
        assert outcome == reference, "%s diverged on %s" % (mode,
                                                            expr.describe())


def test_batch_corpus_coverage(fixture_db):
    """Pin the corpus shape: deref chains, wide arrays, fused unions,
    and skewed scans must all appear, and most plans must succeed."""
    chains = arrays = unions = skewed = fused = ok = 0
    for seed in range(BATCH_SEED_BASE, BATCH_SEED_BASE + N_BATCH_PLANS):
        expr = generate_batch_plan(seed)
        described = expr.describe()
        chains += "Links" in described
        arrays += "WideArr" in described
        unions += "People" in described
        skewed += "SkewedRefs" in described
        plan = compile_batch_plan(expr)
        fused += any("FUSED_UNION" in note for note in plan.notes)
        outcome, _ = run_modes(expr, fixture_db)["interpreted"]
        ok += outcome == "ok"
    assert chains >= 10, "too few deep deref-chain plans (%d)" % chains
    assert arrays >= 8, "too few wide-array plans (%d)" % arrays
    assert unions >= 10, "too few typed-union plans (%d)" % unions
    assert skewed >= 3, "too few skewed-scan plans (%d)" % skewed
    assert fused >= 10, "fused union scan under-exercised (%d)" % fused
    assert ok >= N_BATCH_PLANS * 0.8, "too many plans fail (%d ok)" % ok


# ---------------------------------------------------------------------------
# Batch-size invariance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch_size", [1, 3, 7, 1024])
def test_results_invariant_under_batch_size(batch_size, fixture_db):
    for seed in range(BATCH_SEED_BASE, BATCH_SEED_BASE + 12):
        expr = generate_batch_plan(seed)
        try:
            reference = evaluate(expr, fixture_db.context(),
                                 mode="interpreted")
        except Exception:
            continue
        value = evaluate(expr, fixture_db.context(), mode="batched",
                         batch_size=batch_size)
        assert value == reference, expr.describe()


# ---------------------------------------------------------------------------
# The batched engine through the public API
# ---------------------------------------------------------------------------

SCRIPT = """
create Nums: { int4 }
append to Nums value (1)
append to Nums value (2)
append to Nums value (2)
retrieve (N) from N in Nums where N > 1
"""


def test_batched_engine_via_connect():
    reference = connect(Database(),
                        ExecutionOptions(engine="interpreted"))
    batched = connect(Database(), ExecutionOptions(engine="batched"))
    assert batched.engine == "batched"
    expected = reference.execute(SCRIPT).value
    result = batched.execute(SCRIPT)
    assert result.engine == "batched"
    assert result.value == expected == MultiSet([Tup(N=2), Tup(N=2)])


def test_batched_engine_per_statement_override():
    conn = connect(Database())
    assert conn.engine == "compiled"
    result = conn.execute(
        SCRIPT, options=conn.options.replace(engine="batched",
                                             batch_size=2, parallel=2))
    assert result.engine == "batched"
    assert result.value == MultiSet([Tup(N=2), Tup(N=2)])
    # The override is scoped to the one call.
    assert conn.engine == "compiled"
    assert conn.session.options.parallel == 0
