"""End-to-end wiring: ExecutionOptions(checks="verify"), the compiled engine's
duplicate-freedom license, and the lint surfaces (CLI + shell)."""

import pytest

from repro.cli import Shell, lint_source, run_lint
from repro.core.analysis import AlgebraTypeError, facts_for_database
from repro.core.engine.compiler import compile_plan
from repro.core.expr import Const, Input, Named, evaluate
from repro.core.operators import DE, Comp, SetApply, TupExtract
from repro.core.predicates import Atom
from repro.core.values import UNK, MultiSet, Tup
from repro.excess import parse, pipeline
from repro.excess.session import Session
from repro.options import ExecutionOptions
from repro.storage import Database
from repro.workloads.university import build_university
from tests.conftest import INTERPRETED


@pytest.fixture(scope="module")
def uni():
    return build_university()


QUERY = ("retrieve (E.name, E.salary) from E in Employees "
         "where E.salary > 50000")


class TestSessionVerify:
    def test_both_engines_agree_under_verify(self, uni):
        interp = Session(uni.db, INTERPRETED.replace(checks="verify"))
        compiled = Session(uni.db, ExecutionOptions(engine="compiled",
                                                    checks="verify"))
        a = interp.run(QUERY)[-1].value
        b = compiled.run(QUERY)[-1].value
        assert a == b and len(a) > 0

    def test_verify_matches_unverified_results(self, uni):
        plain = Session(uni.db, INTERPRETED).run(QUERY)[-1].value
        checked = Session(uni.db, INTERPRETED.replace(checks="verify")) \
            .run(QUERY)[-1].value
        assert plain == checked

    def test_verify_rejects_ill_typed_plan_before_execution(self, uni):
        uni.db.create("VCodes", MultiSet([1, 2, 3]))
        session = Session(uni.db, INTERPRETED.replace(checks="verify"))
        with pytest.raises(AlgebraTypeError):
            session.run("retrieve (C.name) from C in VCodes")


class TestDuplicateFreedomLicense:
    def _db(self):
        db = Database()
        db.create("Unique", MultiSet([1, 2, 3]))
        return db

    def test_facts_license_de_pass_through(self):
        db = self._db()
        plan = DE(Named("Unique"))
        pipeline = compile_plan(plan, facts=facts_for_database(db))
        assert any("pass-through" in note for note in pipeline.notes)
        got = pipeline.execute(db.context())
        want = evaluate(plan, db.context(), mode="interpreted")
        assert got == want

    def test_without_facts_de_does_real_work(self):
        db = self._db()
        pipeline = compile_plan(DE(Named("Unique")))
        assert not any("pass-through" in note for note in pipeline.notes)

    def test_verified_compiled_session_receives_facts(self, uni):
        # verify on the compiled engine threads plan facts into the
        # lowered plan: DE over a duplicate-free extent is a pass-through.
        statement, = parse("retrieve value (de(Employees))")

        def notes(checks):
            options = ExecutionOptions(engine="compiled", checks=checks)
            return pipeline.prepare(statement, uni.db, {}, options,
                                    None).plan.notes

        assert any("pass-through" in note for note in notes("verify"))
        assert not any("pass-through" in note for note in notes("off"))


class TestSigmaDupFreeLicense:
    """σ over a duplicate-free extent preserves duplicate-freedom when
    its predicate provably never returns U over the stored population,
    so a DE above the σ compiles to a pass-through."""

    def _sigma(self, name="U"):
        return SetApply(
            Comp(Atom(TupExtract("k", Input()), ">", Const(0)), Input()),
            Named(name))

    def test_sigma_over_dupfree_extent_licenses_de(self):
        db = Database()
        db.create("U", MultiSet([Tup({"k": 1}), Tup({"k": 2})]))
        sigma = self._sigma()
        plan = DE(sigma)
        facts = facts_for_database(db, plan)
        assert facts.is_duplicate_free(sigma)
        pipeline = compile_plan(plan, facts=facts)
        assert any("pass-through" in note for note in pipeline.notes)
        got = pipeline.execute(db.context())
        want = evaluate(plan, db.context(), mode="interpreted")
        assert got == want

    def test_unk_field_blocks_sigma_license(self):
        # An unk in the compared field means the predicate may return
        # U; maybe-kept occurrences cannot be proven pass-through.
        db = Database()
        db.create("U", MultiSet([Tup({"k": 1}), Tup({"k": UNK})]))
        sigma = self._sigma()
        facts = facts_for_database(db, DE(sigma))
        assert not facts.is_duplicate_free(sigma)
        pipeline = compile_plan(DE(sigma), facts=facts)
        assert not any("pass-through" in note for note in pipeline.notes)

    def test_duplicate_source_blocks_sigma_license(self):
        db = Database()
        db.create("U", MultiSet([Tup({"k": 1}), Tup({"k": 1})]))
        sigma = self._sigma()
        facts = facts_for_database(db, DE(sigma))
        assert not facts.is_duplicate_free(sigma)


class TestLintSurfaces:
    def test_cli_reports_five_distinct_codes(self, uni):
        session = uni.session
        uni.db.create("Codes", MultiSet([1, 2, 3]))
        uni.db.store.delete(uni.employee_refs[5].oid)  # dangle one ref
        queries = [
            "retrieve (C.name) from C in Codes",                   # L100
            "retrieve (de(de(E.sub_ords))) from E in Employees",   # L102
            "retrieve (E.name) from E in Employees",               # L103
            "retrieve (E.name) from E in Employees "
            "where min(E.kids.age) < 10",                          # L104
            "retrieve (mystery(E.salary)) from E in Employees",    # L106
        ]
        seen = set()
        for query in queries:
            blocks, _errors = lint_source(session, query)
            seen |= {block.split()[0] for block in blocks
                     if block.startswith("L")}
        assert {"L100", "L102", "L103", "L104", "L106"} <= seen

    def test_lint_blocks_carry_source_spans(self, uni):
        blocks, errors = lint_source(
            uni.session, "retrieve (mystery(E.salary)) from E in Employees")
        assert errors == 0
        assert any("L106 info at 1:" in block for block in blocks)

    def test_shell_dot_lint(self):
        shell = Shell()
        shell.handle_meta(".demo")
        out = shell.handle_meta(
            ".lint retrieve (mystery(E.salary)) from E in Employees")
        assert "L106" in out
        assert shell.handle_meta(".lint").startswith("usage:")

    def test_run_lint_demo_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.xs"
        clean.write_text("retrieve (E.name) from E in Employees\n")
        assert run_lint(["--demo", str(clean)]) == 0
        assert "ok: no findings" in capsys.readouterr().out

        broken = tmp_path / "broken.xs"
        broken.write_text("retrieve (E.nosuchfield) from E in Employees\n")
        assert run_lint(["--demo", str(broken)]) == 2
        assert "error:" in capsys.readouterr().out
