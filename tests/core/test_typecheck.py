"""The sort discipline of the one type checker: every operator's
accepted input sorts and inferred output schema, without a type
hierarchy (the inheritance-aware cases live in
``tests/analysis/test_inference.py``)."""

import pytest

from repro.core.analysis import (AlgebraTypeError, TypeInference,
                                 inference_for_database)
from repro.core.expr import Const, Func, Input, Named
from repro.core.operators import (DE, AddUnion, ArrCat, ArrCollapse,
                                  ArrCreate, ArrExtract, Cross, Deref, Grp,
                                  Pi, RefOp, SetApply, SetCollapse,
                                  SetCreate, SubArr, TupCat, TupCreate,
                                  TupExtract, sigma)
from repro.core.predicates import Atom
from repro.core.schema import SchemaCatalog, SchemaNode
from repro.core.values import MultiSet
from tests.conftest import INTERPRETED


def tup_schema(**fields):
    return SchemaNode.tup({k: v for k, v in fields.items()})


@pytest.fixture
def checker():
    person = tup_schema(name=SchemaNode.val(str), age=SchemaNode.val(int))
    catalog = SchemaCatalog()
    catalog.register(person, "Person")
    return TypeInference(
        named_schemas={
            "People": SchemaNode.set_of(person),
            "Ages": SchemaNode.set_of(SchemaNode.val(int)),
            "Board": SchemaNode.arr_of(SchemaNode.ref_to("Person")),
        },
        catalog=catalog)


# ---------------------------------------------------------------------------
# Successful inference
# ---------------------------------------------------------------------------


def test_named_and_const(checker):
    assert checker.check(Named("Ages")).describe() == "{ int }"
    assert checker.check(Const(MultiSet([1]))).kind == "set"
    assert checker.check(Const(5)).scalar_type is int


def test_set_apply_infers_element_schema(checker):
    expr = SetApply(TupExtract("age", Input()), Named("People"))
    schema = checker.check(expr)
    assert schema.describe() == "{ int }"


def test_pi_and_extract(checker):
    expr = SetApply(Pi(["name"], Input()), Named("People"))
    assert checker.check(expr).describe() == "{ (name: str) }"


def test_grp_doubles_nesting(checker):
    expr = Grp(TupExtract("age", Input()), Named("People"))
    schema = checker.check(expr)
    assert schema.kind == "set" and schema.component.kind == "set"
    assert schema.component.component.kind == "tup"


def test_cross_builds_pair_schema(checker):
    schema = checker.check(Cross(Named("Ages"), Named("People")))
    pair = schema.component
    assert pair.field("field1").scalar_type is int
    assert pair.field("field2").kind == "tup"


def test_comp_preserves_schema_and_checks_pred(checker):
    expr = sigma(Atom(TupExtract("age", Input()), ">", Const(30)),
                 Named("People"))
    assert checker.check(expr).component.kind == "tup"


def test_deref_resolves_through_catalog(checker):
    expr = Deref(ArrExtract(1, Named("Board")))
    assert checker.check(expr).describe().startswith("(name: str")


def test_refop_wraps(checker):
    schema = checker.check(RefOp(Const(5)))
    assert schema.kind == "ref"


def test_tupcat_merges(checker):
    expr = TupCat(TupCreate("a", Const(1)), TupCreate("b", Const("x")))
    assert checker.check(expr).field_names == ["a", "b"]


def test_collapse_unwraps(checker):
    expr = SetCollapse(SetCreate(Named("Ages")))
    assert checker.check(expr).describe() == "{ int }"


def test_array_chain(checker):
    expr = ArrCat(ArrCreate(Const(1)), ArrCreate(Const(2)))
    assert checker.check(expr).kind == "arr"
    assert checker.check(SubArr(1, 2, expr)).kind == "arr"
    assert checker.check(ArrCollapse(ArrCreate(expr))).kind == "arr"


def test_unknown_pieces_stay_opaque(checker):
    # Function results have no declared schema: None, not an error.
    assert checker.check(Func("mystery", [Named("Ages")])) is None
    # And feeding an unknown into a sorted operator is tolerated.
    assert checker.check(DE(Func("mystery", []))) is None


def test_function_signatures(checker):
    checker.signatures["count"] = SchemaNode.val(int)
    assert checker.check(Func("count", [Named("Ages")])).scalar_type is int


# ---------------------------------------------------------------------------
# Static rejections
# ---------------------------------------------------------------------------


def test_pi_on_set_rejected(checker):
    with pytest.raises(AlgebraTypeError):
        checker.check(Pi(["name"], Named("People")))


def test_set_apply_on_array_rejected(checker):
    with pytest.raises(AlgebraTypeError):
        checker.check(SetApply(Input(), Named("Board")))


def test_missing_field_rejected(checker):
    with pytest.raises(AlgebraTypeError):
        checker.check(SetApply(TupExtract("salary", Input()),
                               Named("People")))
    with pytest.raises(AlgebraTypeError):
        checker.check(SetApply(Pi(["salary"], Input()), Named("People")))


def test_tupcat_clash_rejected(checker):
    expr = TupCat(TupCreate("a", Const(1)), TupCreate("a", Const(2)))
    with pytest.raises(AlgebraTypeError):
        checker.check(expr)


def test_addunion_on_scalars_rejected(checker):
    with pytest.raises(AlgebraTypeError):
        checker.check(AddUnion(Const(1), Const(2)))


def test_deref_of_non_ref_rejected(checker):
    with pytest.raises(AlgebraTypeError):
        checker.check(Deref(Const(5)))


def test_collapse_of_flat_set_rejected(checker):
    with pytest.raises(AlgebraTypeError):
        checker.check(SetCollapse(Named("Ages")))


def test_pred_operands_are_checked(checker):
    bad = sigma(Atom(TupExtract("ghost", Input()), "=", Const(1)),
                Named("People"))
    with pytest.raises(AlgebraTypeError):
        checker.check(bad)


# ---------------------------------------------------------------------------
# Against a real database and the EXCESS translator
# ---------------------------------------------------------------------------


def test_checker_for_university():
    from repro.workloads import build_university
    uni = build_university(n_departments=2, n_employees=6, n_students=6,
                           seed=3)
    checker = inference_for_database(uni.db)
    plan = uni.session.compile(
        "range of E is Employees retrieve (E.name) where E.dept.floor = 1")
    schema = checker.check(plan)
    assert schema.kind == "set"
    assert schema.component.field("name").scalar_type is str


def test_translator_output_always_typechecks():
    """Every compiled paper query passes the static checker — the
    translator never builds sort-invalid trees."""
    from repro.workloads import build_university
    uni = build_university(n_departments=2, n_employees=8, n_students=8,
                           seed=3)
    checker = inference_for_database(uni.db)
    queries = [
        "retrieve (TopTen[5].name, TopTen[5].salary)",
        'retrieve (Employees.dept.name) where Employees.city = "Madison"',
        "range of E is Employees retrieve (C.name) from C in E.kids "
        "where E.dept.floor = 2",
        "range of S is Students retrieve (S.name) by S.dept.division "
        "where S.dept.floor = 1",
    ]
    for query in queries:
        from repro.excess import Session
        plan = Session(uni.db, INTERPRETED).compile(query)
        checker.check(plan)  # must not raise


def test_rewrites_preserve_inferred_schema():
    """Transformation rules are schema-preserving (a weaker, static
    companion to the semantic property tests)."""
    from repro.core.transform import ALL_RULES, single_step_rewrites
    person = tup_schema(name=SchemaNode.val(str), age=SchemaNode.val(int))
    checker = TypeInference({"P": SchemaNode.set_of(person)})
    tree = DE(SetApply(Pi(["name"], Input()),
                       sigma(Atom(TupExtract("age", Input()), ">",
                                  Const(30)), Named("P"))))
    want = checker.check(tree)
    for _, rewritten in single_step_rewrites(tree, ALL_RULES):
        got = checker.check(rewritten)
        if got is not None and want is not None:
            assert got.structurally_equal(want)
