"""Differential sweep: static inference vs. the interpreter, 240 plans.

Reuses the seeded sort-directed generator from the engine-equivalence
suite. Inference is conservative, so the precise property is:

* any generated plan the interpreter runs to a **non-vacuous** result
  (a value that is not an empty collection) must pass inference — no
  false positives on plans that actually touch data;
* any plan inference rejects either fails at runtime or succeeds only
  vacuously: its result is empty or all-unk, because an ill-typed body
  guarded by a type filter, an empty intermediate, or unk propagation
  never executed on real data, so the run proves nothing about it.
"""

import random

import pytest

from repro.core.analysis import AlgebraTypeError, inference_for_database
from repro.core.values import UNK, Arr, MultiSet

from tests.engine.test_engine_equivalence import (N_PLANS, PlanGen, build_db,
                                                  run_engine)


@pytest.fixture(scope="module")
def env():
    return inference_for_database(build_db())


def _vacuous(payload) -> bool:
    """Empty, unk, or a collection of nothing but vacuous occurrences.

    A run whose every surviving occurrence is unk proves nothing about
    the plan's body: operators map unk to unk without ever reading it.
    """
    if payload is UNK:
        return True
    if isinstance(payload, (MultiSet, Arr)):
        return all(_vacuous(element) for element in payload)
    return False


@pytest.mark.parametrize("seed", range(N_PLANS))
def test_verifier_sound_and_complete_on_generated_plan(seed, env):
    expr = PlanGen(random.Random(seed)).plan()
    outcome, payload = run_engine(expr, "interpreted")
    try:
        env.check(expr)
    except AlgebraTypeError:
        # The verifier's rejections are real: such a plan never
        # produces data (it crashes, or its bad body never runs).
        assert outcome == "error" or _vacuous(payload), expr.describe()
    else:
        return  # accepted; runtime failures (dangling refs etc.) are fine


def test_sweep_is_not_trivial(env):
    accepted = rejected = nonvacuous = 0
    for seed in range(N_PLANS):
        expr = PlanGen(random.Random(seed)).plan()
        try:
            env.check(expr)
            accepted += 1
        except AlgebraTypeError:
            rejected += 1
            continue
        outcome, payload = run_engine(expr, "interpreted")
        if outcome == "ok" and not _vacuous(payload):
            nonvacuous += 1
    # The generator mostly emits typable plans, but both sides of the
    # differential must actually occur for the sweep to mean anything.
    assert accepted >= N_PLANS * 0.8
    assert rejected > 0
    assert nonvacuous >= N_PLANS * 0.5
