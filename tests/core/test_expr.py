"""Expression framework tests: evaluation, INPUT, substitution, stats."""

import pytest

from repro.core.expr import (AlgebraError, Const, EvalContext, Func, Input,
                             Named, evaluate, substitute_input)
from repro.core.operators import (Comp, SetApply, TupExtract)
from repro.core.predicates import Atom, TruePred
from repro.core.values import DNE, UNK, MultiSet, Tup


def test_named_lookup():
    ctx = EvalContext({"A": 5})
    assert evaluate(Named("A"), ctx) == 5


def test_named_missing():
    with pytest.raises(AlgebraError):
        evaluate(Named("B"), EvalContext({}))


def test_const():
    assert evaluate(Const(MultiSet([1])), EvalContext()) == MultiSet([1])


def test_input_unbound_at_top_level():
    with pytest.raises(AlgebraError):
        evaluate(Input(), EvalContext())


def test_input_bound_explicitly():
    assert evaluate(Input(), EvalContext(), input_value=42) == 42


def test_func_calls_registered_function():
    ctx = EvalContext(functions={"inc": lambda x: x + 1})
    assert evaluate(Func("inc", [Const(1)]), ctx) == 2
    assert ctx.stats["func_calls"] == 1


def test_func_missing():
    with pytest.raises(AlgebraError):
        evaluate(Func("nope", [Const(1)]), EvalContext())


def test_func_null_propagation():
    ctx = EvalContext(functions={"inc": lambda x: x + 1})
    assert evaluate(Func("inc", [Const(DNE)]), ctx) is DNE
    assert evaluate(Func("inc", [Const(UNK)]), ctx) is UNK


def test_structural_equality_and_hash():
    a = SetApply(TupExtract("f", Input()), Named("X"))
    b = SetApply(TupExtract("f", Input()), Named("X"))
    c = SetApply(TupExtract("g", Input()), Named("X"))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_replace_and_map_children():
    node = SetApply(Input(), Named("X"))
    replaced = node.replace(source=Named("Y"))
    assert replaced.source == Named("Y")
    assert node.source == Named("X")  # original untouched
    with pytest.raises(KeyError):
        node.replace(bogus=1)
    mapped = node.map_children(
        lambda child: Named("Z") if child == Named("X") else child)
    assert mapped.source == Named("Z")


def test_walk_and_size():
    tree = SetApply(TupExtract("f", Input()), Named("X"))
    assert tree.size() == 4
    kinds = [type(n).__name__ for n in tree.walk()]
    assert kinds == ["SetApply", "TupExtract", "Input", "Named"]


def test_walk_sees_predicate_operands():
    tree = Comp(Atom(TupExtract("a", Input()), "=", Const(1)), Named("X"))
    assert any(isinstance(n, TupExtract) for n in tree.walk())


def test_uses_input_excludes_binding_bodies():
    # The SET_APPLY body's INPUT is rebound, so the apply itself does
    # not use the *enclosing* INPUT…
    inner = SetApply(TupExtract("f", Input()), Named("X"))
    assert not inner.uses_input()
    # …but an INPUT in the source position does count.
    outer = SetApply(TupExtract("f", Input()), Input())
    assert outer.uses_input()


def test_substitute_input_simple():
    body = TupExtract("a", Input())
    result = substitute_input(body, Named("T"))
    assert result == TupExtract("a", Named("T"))


def test_substitute_input_skips_binding_bodies():
    # Rule 15's composition must not capture the inner SET_APPLY's INPUT.
    nested = SetApply(TupExtract("x", Input()), Input())
    result = substitute_input(nested, Named("T"))
    assert result == SetApply(TupExtract("x", Input()), Named("T"))


def test_substitution_composition_semantics():
    """E1(E2) evaluates like E1 after E2 (rule 15's soundness core)."""
    ctx = EvalContext(functions={"inc": lambda x: x + 1,
                                 "dbl": lambda x: x * 2})
    e1 = Func("inc", [Input()])
    e2 = Func("dbl", [Input()])
    composed = substitute_input(e1, e2)
    assert composed.evaluate(5, ctx) == 11


def test_stats_tick_and_reset():
    ctx = EvalContext()
    ctx.tick("x")
    ctx.tick("x", 4)
    assert ctx.stats == {"x": 5}
    ctx.reset_stats()
    assert ctx.stats == {}


def test_describe_round_trip_readable():
    tree = SetApply(Comp(TruePred(), Input()), Named("Employees"))
    text = tree.describe()
    assert "SET_APPLY" in text and "Employees" in text


# ---------------------------------------------------------------------------
# Plan explanation (explain.py)
# ---------------------------------------------------------------------------


def test_explain_draws_figure_style_trees():
    from repro.core.explain import explain
    from repro.core.operators import DE, Cross
    tree = DE(Cross(Named("S"), Named("E")))
    text = explain(tree)
    assert text.splitlines()[0] == "DE"
    assert "└─ CROSS" in text
    assert "├─ S" in text and "└─ E" in text


def test_explain_inlines_subscripts_and_costs():
    from repro.core.explain import explain
    from repro.core.optimizer import CostModel
    tree = SetApply(TupExtract("name", Input()), Named("P"))
    text = explain(tree, CostModel())
    assert "SET_APPLY [INPUT.name]" in text
    assert "cost≈" in text and "card≈" in text


def test_explain_shows_type_filters_and_methods():
    from repro.core.explain import explain
    from repro.core.methods import IndexedTypeScan, MethodCall
    tree = SetApply(MethodCall("boss", [], Input()), Named("P"),
                    type_filter="Employee")
    text = explain(tree)
    assert "<Employee>" in text
    scan = explain(IndexedTypeScan("P", ["A", "B"]))
    assert "INDEX SCAN P<A/B>" in scan


def test_explain_parameters_of_plain_nodes():
    from repro.core.explain import explain
    from repro.core.operators import ArrExtract, SubArr
    assert "ARREXTRACT 5" in explain(ArrExtract(5, Named("R")))
    assert "SUBARR 2 last" in explain(SubArr(2, "last", Named("R")))
