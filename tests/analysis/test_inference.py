"""Inheritance-aware inference: substitutability, lubs, narrowing,
declared signatures, and the structured type-error fields."""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.core.analysis import (AlgebraTypeError, TypeInference,
                                 inference_for_database, substitutable)
from repro.core.expr import Const, Expr, Func, Input, Named
from repro.core.hierarchy import TypeHierarchy
from repro.core.methods import IndexedTypeScan, MethodCall
from repro.core.operators import (AddUnion, ArrApply, ArrCat, ArrCreate,
                                  SetApply, TupCreate, TupExtract)
from repro.core.schema import (SchemaCatalog, SchemaNode, is_unknown,
                               unknown_schema)
from repro.core.values import MultiSet, Tup
from repro.storage import Database


def make_hierarchy() -> TypeHierarchy:
    h = TypeHierarchy()
    h.add_type("Person")
    h.add_type("Student", ["Person"])
    h.add_type("Employee", ["Person"])
    return h


def person_schema() -> SchemaNode:
    return SchemaNode.tup({"name": SchemaNode.val(str),
                           "age": SchemaNode.val(int)}, name="Person")


def student_schema() -> SchemaNode:
    return SchemaNode.tup({"name": SchemaNode.val(str),
                           "age": SchemaNode.val(int),
                           "gpa": SchemaNode.val(float)}, name="Student")


def make_inference() -> TypeInference:
    h = make_hierarchy()
    catalog = SchemaCatalog()
    catalog.register(person_schema(), "Person")
    catalog.register(student_schema(), "Student")
    employee = SchemaNode.tup({"name": SchemaNode.val(str),
                               "age": SchemaNode.val(int),
                               "salary": SchemaNode.val(int)},
                              name="Employee")
    catalog.register(employee, "Employee")
    named = {"Students": SchemaNode.set_of(student_schema()),
             "Employees": SchemaNode.set_of(employee.clone()),
             "People": SchemaNode.set_of(person_schema())}
    return TypeInference(named, catalog, hierarchy=h)


class TestSubstitutable:
    def test_subtype_tuple_is_substitutable(self):
        h = make_hierarchy()
        assert substitutable(student_schema(), person_schema(), h)
        assert not substitutable(person_schema(), student_schema(), h)

    def test_width_subtyping_without_hierarchy(self):
        wide = SchemaNode.tup({"a": SchemaNode.val(int),
                               "b": SchemaNode.val(str)})
        narrow = SchemaNode.tup({"a": SchemaNode.val(int)})
        assert substitutable(wide, narrow)
        assert not substitutable(narrow, wide)

    def test_ref_targets_use_hierarchy(self):
        h = make_hierarchy()
        assert substitutable(SchemaNode.ref_to("Student"),
                             SchemaNode.ref_to("Person"), h)
        assert not substitutable(SchemaNode.ref_to("Person"),
                                 SchemaNode.ref_to("Student"), h)

    def test_unknown_unifies(self):
        assert substitutable(None, person_schema())
        assert substitutable(person_schema(), None)

    def test_collections_componentwise(self):
        h = make_hierarchy()
        assert substitutable(SchemaNode.set_of(student_schema()),
                             SchemaNode.set_of(person_schema()), h)
        assert not substitutable(SchemaNode.set_of(person_schema()),
                                 SchemaNode.arr_of(person_schema()), h)


class TestLub:
    def test_sibling_types_lub_to_common_supertype(self):
        env = make_inference()
        merged = env.lub(student_schema(),
                         env._schema_of_type("Employee"))
        assert merged is not None and merged.kind == "tup"
        assert merged.base_name == "Person"

    def test_addunion_of_sibling_sets_infers_supertype_set(self):
        env = make_inference()
        schema = env.check(AddUnion(Named("Students"), Named("Employees")))
        assert schema.kind == "set"
        assert schema.children[0].base_name == "Person"

    def test_lub_of_unrelated_tuples_keeps_shared_fields(self):
        env = TypeInference()
        a = SchemaNode.tup({"x": SchemaNode.val(int),
                            "y": SchemaNode.val(str)})
        b = SchemaNode.tup({"x": SchemaNode.val(int),
                            "z": SchemaNode.val(str)})
        merged = env.lub(a, b)
        assert merged.kind == "tup"
        assert set(merged.field_names) == {"x"}

    def test_lub_ref_targets(self):
        env = make_inference()
        merged = env.lub(SchemaNode.ref_to("Student"),
                         SchemaNode.ref_to("Employee"))
        assert merged.kind == "ref" and merged.target == "Person"

    def test_arr_cat_of_sibling_arrays_infers_supertype_array(self):
        # ARR_CAT keeps every element of both operands, so like ⊎ its
        # element schema is the lub — not the left operand's.
        env = make_inference()
        cat = ArrCat(ArrCreate(Named("Students")),
                     ArrCreate(Named("Employees")))
        schema = env.check(cat)
        assert schema.kind == "arr"
        assert schema.children[0].children[0].base_name == "Person"
        gpas = ArrApply(SetApply(TupExtract("gpa", Input()), Input()), cat)
        with pytest.raises(AlgebraTypeError):
            env.check(gpas)
        with pytest.raises(AlgebraTypeError):
            env.check(SetApply(TupExtract("gpa", Input()),
                               AddUnion(Named("Students"),
                                        Named("Employees"))))


class TestNarrowing:
    def test_type_filter_narrows_body_input(self):
        env = make_inference()
        # Only Students reach the body, so .gpa is well-typed even
        # though People's static element type lacks the field.
        expr = SetApply(TupExtract("gpa", Input()), Named("People"),
                        type_filter=frozenset(["Student"]))
        schema = env.check(expr)
        assert schema.kind == "set"
        assert schema.children[0].scalar_type is float

    def test_without_filter_the_same_body_fails(self):
        env = make_inference()
        expr = SetApply(TupExtract("gpa", Input()), Named("People"))
        with pytest.raises(AlgebraTypeError):
            env.check(expr)

    def test_indexed_type_scan_narrows_like_a_type_filter(self):
        # The index variant of the Figure 5 ⊎ plan must type exactly as
        # the scan variant: only Students come out of the scan.
        env = make_inference()
        body = TupExtract("gpa", Input())
        scanned = SetApply(body, Named("People"),
                           type_filter=frozenset(["Student"]))
        indexed = SetApply(body, IndexedTypeScan("People", ["Student"]))
        assert env.check(scanned).describe() == "{ float }"
        assert env.check(indexed).describe() == "{ float }"

    def test_indexed_type_scan_of_unknown_object_is_opaque(self):
        assert make_inference().check(
            IndexedTypeScan("Nowhere", ["Student"])) is None


class TestSignatures:
    def test_builtin_count_signature(self):
        db = Database()
        db.create("Nums", MultiSet([1, 2, 3]))
        env = inference_for_database(db)
        schema = env.check(Func("count", [Named("Nums")]))
        assert schema.kind == "val" and schema.scalar_type is int

    def test_aggregate_signature_is_element_schema(self):
        db = Database()
        db.create("Nums", MultiSet([1, 2, 3]))
        env = inference_for_database(db)
        schema = env.check(Func("min", [Named("Nums")]))
        assert schema.kind == "val" and schema.scalar_type is int

    def test_drop_field_signature_reads_const_argument(self):
        db = Database()
        from repro.core.operators.library import register_library_functions
        register_library_functions(db)
        db.create("People", MultiSet([Tup({"name": "n", "age": 3})]))
        env = inference_for_database(db)
        expr = SetApply(Func("drop_field", [Input(), Const("age")]),
                        Named("People"))
        schema = env.check(expr)
        assert schema.kind == "set"
        assert list(schema.children[0].field_names) == ["name"]

    def test_registered_signature_flows_through(self):
        db = Database()
        db.register_function("twice", lambda v: v * 2,
                             signature=lambda args: SchemaNode.val(int))
        env = inference_for_database(db)
        schema = env.check(Func("twice", [Const(3)]))
        assert schema.scalar_type is int

    def test_unregistered_function_is_opaque(self):
        db = Database()
        env = inference_for_database(db)
        assert env.check(Func("mystery", [Const(1)])) is None

    def test_every_builtin_has_a_signature(self):
        from repro.excess.builtins import BUILTIN_SIGNATURES, BUILTINS
        assert set(BUILTIN_SIGNATURES) == set(BUILTINS)

    def test_every_library_function_has_a_signature(self):
        from repro.core.operators.library import LIBRARY_SIGNATURES
        db = Database()
        from repro.core.operators.library import register_library_functions
        register_library_functions(db)
        env = inference_for_database(db)
        for name in LIBRARY_SIGNATURES:
            assert env.signatures.get(name) is not None, name


class TestMethodDispatch:
    def test_method_schema_is_lub_over_implementations(self):
        db = Database()
        h = db.hierarchy
        h.add_type("Person")
        h.add_type("Student", ["Person"])
        db.methods.define("Person", "tag", [], TupCreate("k", Const(1)))
        db.methods.define("Student", "tag", [], TupCreate("k", Const(2)))
        db.create("People", MultiSet([
            Tup({"name": "a"}, type_name="Person"),
            Tup({"name": "b"}, type_name="Person")]))
        env = inference_for_database(db)
        schema = env.check(SetApply(MethodCall("tag", [], Input()),
                                    Named("People")))
        assert schema.kind == "set"
        element = schema.children[0]
        assert element.kind == "tup" and list(element.field_names) == ["k"]


class TestStructuredErrors:
    def test_error_carries_operator_and_sorts(self):
        env = make_inference()
        with pytest.raises(AlgebraTypeError) as excinfo:
            env.check(TupExtract("name", Named("People")))
        error = excinfo.value
        assert error.operator == "TUP_EXTRACT"
        assert error.expected == "tup"
        assert error.got == "set"
        assert error.expr is not None

    def test_unknown_schema_helpers(self):
        assert is_unknown(unknown_schema())
        assert is_unknown(None)
        assert not is_unknown(SchemaNode.val(int))


def _expr_kinds(cls=Expr):
    for sub in cls.__subclasses__():
        yield sub
        yield from _expr_kinds(sub)


def test_every_operator_has_a_check():
    """``check`` returns None for a node kind it has no method for, so
    a forgotten ``_chk_*`` would silently leave the operator untyped."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    kinds = {cls for cls in _expr_kinds()
             if cls.__module__.startswith("repro.")
             and not inspect.isabstract(cls)}
    assert len(kinds) >= 31
    missing = sorted(cls.__name__ for cls in kinds
                     if not hasattr(TypeInference, "_chk_" + cls.__name__))
    assert missing == []
