"""The rewrite-soundness gate: compatibility relation, verifier hooks,
and the optimizer debug mode over the paper's worked examples."""

import pytest

from repro.core.analysis import (RewriteSoundnessError, SoundnessChecker,
                                 inference_for_database, schemas_compatible)
from repro.core.expr import Const, Input, Named
from repro.core.operators import DE, SetApply, TupCat, TupCreate, TupExtract
from repro.core.optimizer import CostModel, Optimizer, Statistics
from repro.core.schema import SchemaNode
from repro.core.transform import ALL_RULES
from repro.core.transform.engine import RewriteEngine
from repro.core.transform.rule import Rule
from repro.core.values import MultiSet
from repro.storage import Database
from repro.workloads.figures import ALL_FIGURES, value_views
from repro.workloads.university import build_university


class TestSchemasCompatible:
    def test_tuple_field_order_is_ignored(self):
        a = SchemaNode.tup({"x": SchemaNode.val(int),
                            "y": SchemaNode.val(str)})
        b = SchemaNode.tup({"y": SchemaNode.val(str),
                            "x": SchemaNode.val(int)})
        assert schemas_compatible(a, b)

    def test_differing_fields_are_incompatible(self):
        a = SchemaNode.tup({"x": SchemaNode.val(int)})
        b = SchemaNode.tup({"z": SchemaNode.val(int)})
        assert not schemas_compatible(a, b)

    def test_unknowns_unify(self):
        from repro.core.schema import unknown_schema
        assert schemas_compatible(None, SchemaNode.val(int))
        assert schemas_compatible(
            SchemaNode.set_of(unknown_schema()),
            SchemaNode.set_of(SchemaNode.tup({"a": SchemaNode.val(int)})))

    def test_kind_mismatch(self):
        assert not schemas_compatible(SchemaNode.val(int),
                                      SchemaNode.set_of(SchemaNode.val(int)))


class _BrokenRule(Rule):
    """A deliberately unsound 'rule': drops a DE and renames the field."""

    name = "broken"

    def apply(self, expr, facts=None):
        if isinstance(expr, DE):
            return [SetApply(TupCreate("oops", Input()), expr.source)]
        return []


def _broken_rule() -> Rule:
    return _BrokenRule()


class TestSoundnessChecker:
    def _env(self):
        db = Database()
        db.create("People", MultiSet([]))
        env = inference_for_database(db)
        env.named["People"] = SchemaNode.set_of(
            SchemaNode.tup({"name": SchemaNode.val(str)}))
        return env

    def test_schema_change_raises(self):
        env = self._env()
        gate = SoundnessChecker(env)
        rule = _broken_rule()
        before = DE(Named("People"))
        after = rule.apply(before)[0]
        with pytest.raises(RewriteSoundnessError) as excinfo:
            gate(rule, before, after)
        assert "broken" in str(excinfo.value)
        assert excinfo.value.rule is rule

    def test_ill_typed_result_raises(self):
        env = self._env()
        gate = SoundnessChecker(env)
        before = DE(Named("People"))
        after = DE(TupExtract("name", Named("People")))  # set→tup misuse
        with pytest.raises(RewriteSoundnessError):
            gate("fake", before, after)

    def test_ill_typed_input_is_skipped(self):
        env = self._env()
        gate = SoundnessChecker(env)
        bad = TupExtract("name", Named("People"))
        gate("fake", bad, bad)
        assert gate.skipped == 1 and gate.checked == 0

    def test_sound_step_counts(self):
        env = self._env()
        gate = SoundnessChecker(env)
        gate("fake", DE(Named("People")), DE(DE(Named("People"))))
        assert gate.checked == 1


class TestEngineHooks:
    def _db_env(self):
        db = Database()
        db.create("People", MultiSet([]))
        env = inference_for_database(db)
        env.named["People"] = SchemaNode.set_of(
            SchemaNode.tup({"name": SchemaNode.val(str)}))
        return env

    def test_rewrite_engine_verifier_catches_broken_rule(self):
        env = self._db_env()
        engine = RewriteEngine([_broken_rule()],
                               verifier=SoundnessChecker(env))
        with pytest.raises(RewriteSoundnessError):
            engine.explore(DE(Named("People")))

    def test_rewrite_engine_verifier_passes_sound_rules(self):
        env = self._db_env()
        gate = SoundnessChecker(env)
        engine = RewriteEngine(ALL_RULES, max_trees=200, verifier=gate)
        engine.explore(DE(DE(Named("People"))))
        assert gate.checked > 0

    def test_optimizer_greedy_verifier(self):
        env = self._db_env()
        gate = SoundnessChecker(env)
        optimizer = Optimizer(strategy="greedy", verifier=gate)
        optimizer.optimize(DE(DE(Named("People"))))
        assert gate.checked > 0


class TestWorkedExamples:
    """Debug-mode optimization of Figures 6-11: every admitted rewrite
    must preserve the inferred schema of the worked examples."""

    @pytest.fixture(scope="class")
    def university(self):
        uni = build_university()
        value_views(uni)
        return uni

    @pytest.mark.parametrize("name", ["figure_6", "figure_7", "figure_8",
                                      "figure_9", "figure_10", "figure_11"])
    def test_optimizer_debug_mode_preserves_schemas(self, university, name):
        expr = ALL_FIGURES[name]()
        gate = SoundnessChecker(inference_for_database(university.db))
        model = CostModel(Statistics.from_database(university.db))
        optimizer = Optimizer(cost_model=model, max_depth=2, max_trees=200,
                              verifier=gate)
        optimizer.optimize(expr)  # raises RewriteSoundnessError on a bug
        assert gate.checked + gate.skipped > 0
