"""Seeded random plan generation and the sanitizer differential sweep.

Two consumers share this module:

* the test suite (``tests/analysis/test_sanitizer.py``) runs the
  240-plan differential — every generated plan must produce
  bit-identical values whether the abstract interpreter's facts are
  consumed as optimization licenses, checked as runtime assertions, or
  ignored entirely;
* ``python -m repro.cli sanitize`` runs the same sweep (plus the
  paper-figure queries over the university database) as a standalone
  command with a nonzero exit status on any violation, so CI can gate
  on it.

The grammar is sort-directed (every plan is well-formed) and
deliberately hostile: ``unk`` occurrences and ``unk``/``dne`` tuple
fields, dangling references, duplicate cardinalities, nested multisets,
typed SET_APPLY filtering, method dispatch over an inheritance
hierarchy, and array subscripts that stray out of bounds.  REF is
excluded — it mints OIDs, so occurrence-level identity need not line up
across engines.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Tuple

from ..core.expr import Const, Expr, Input, Named, evaluate
from ..core.methods import switch_table_plan
from ..core.operators import (DE, AddUnion, ArrCat, ArrExtract, Comp, Cross,
                              Deref, Diff, Grp, Pi, SetApply, SetCollapse,
                              SetCreate, SubArr, TupCat, TupCreate,
                              TupExtract, rel_join)
from ..core.predicates import And, Atom, Not, TruePred
from ..core.values import DNE, UNK, Arr, MultiSet, Ref, Tup
from ..storage import Database

#: The canonical sweep size; tests parametrize over range(N_PLANS).
N_PLANS = 240

#: Size of the batch-stressing sweep (wide arrays, deep deref chains,
#: disjoint typed unions, a skewed type mix); tests parametrize
#: over range(N_BATCH_PLANS) with seeds offset by BATCH_SEED_BASE so
#: the two corpora never overlap.
N_BATCH_PLANS = 60
BATCH_SEED_BASE = 10_000

PERSON_FIELDS = ("name", "age", "city")
SCALARS = (1, 2, 3, 17, "Madison", "Lodi", UNK)


def build_fixture_db() -> Database:
    """The hostile fixture database the generated plans range over."""
    db = Database()
    h = db.hierarchy
    h.add_type("Person")
    h.add_type("Student", ["Person"])
    h.add_type("Employee", ["Person"])

    people = []
    refs = []
    cities = ["Madison", "Lodi", "Monona", UNK]
    for i in range(14):
        exact = ("Person", "Student", "Employee")[i % 3]
        fields = {"name": "p%d" % (i % 9),  # collisions → duplicates
                  "age": (20 + i % 5) if i % 7 else UNK,
                  "city": cities[i % len(cities)]}
        if i % 6 == 5:
            fields["age"] = DNE  # a field that does-not-exist
        person = Tup(fields, type_name=exact)
        people.append(person)
        refs.append(db.store.insert(person, exact))
    refs.append(Ref("dangling-oid", "Person"))  # deref → dne → dropped

    db.create("People", MultiSet(people + people[:4]))  # duplicates
    db.create("Refs", MultiSet(refs))
    db.create("Nums", MultiSet([1, 2, 2, 3, 3, 3, UNK, 17]))
    db.create("Nested", MultiSet([MultiSet([1, 2]), MultiSet([2, 2, UNK]),
                                  MultiSet([])]))
    db.create("Cities", MultiSet([
        Tup({"cname": c, "tag": i % 2}) for i, c in
        enumerate(["Madison", "Lodi", "Madison", "Stoughton"])]))
    db.create("Letters", Arr(["a", "b", "c", "d", "e"]))
    db.create("Pair", Arr([10, 20]))

    db.methods.define("Person", "describe", [],
                      TupCreate("kind", Const("person")))
    db.methods.define("Student", "describe", [],
                      TupCreate("kind", TupExtract("name", Input())))
    db.methods.define("Person", "pay", ["bonus"],
                      TupExtract("age", Input()))

    # -- batch-stressing extensions (appended after the classic data so
    # the OIDs of the original 14 people are unchanged) ----------------

    # Deep deref chains: Link_i.next → Link_{i-1}; the chain ends on an
    # UNK next and one link points at a dangling reference, so deref
    # depth k crosses both null disciplines.
    h.add_type("Link")
    link_ref: Any = UNK
    link_refs = []
    for i in range(12):
        link = Tup({"tag": i, "next": link_ref}, type_name="Link")
        link_ref = db.store.insert(link, "Link")
        link_refs.append(link_ref)
    broken = Tup({"tag": 99, "next": Ref("dangling-link", "Link")},
                 type_name="Link")
    link_refs.append(db.store.insert(broken, "Link"))
    db.create("Links", MultiSet(link_refs))

    # Wide arrays: enough elements that one array spans whole batches
    # when exploded, with UNK occurrences in-band.
    db.create("WideArr", Arr([(i if i % 9 else UNK) for i in range(40)]))

    # A skewed type mix: one exact type (Student) dwarfs the other, so
    # a scan meets long same-type runs and a lone outlier.
    skewed = []
    for i in range(30):
        student = Tup({"name": "s%d" % (i % 4), "age": 18 + i % 3,
                       "city": "Madison"}, type_name="Student")
        skewed.append(db.store.insert(student, "Student"))
    lone = Tup({"name": "boss", "age": 60, "city": "Lodi"},
               type_name="Employee")
    skewed.append(db.store.insert(lone, "Employee"))
    db.create("SkewedRefs", MultiSet(skewed + skewed[:5]))  # duplicates
    return db


class PlanGen:
    """Sort-directed random plan generator over the fixture database."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def pick(self, options):
        return self.rng.choice(options)

    # -- scalar/tuple-valued expressions over INPUT = a person tuple ----

    def person_value(self, depth: int) -> Expr:
        if depth <= 0:
            return self.pick([Input(), TupExtract(self.pick(PERSON_FIELDS),
                                                  Input())])
        roll = self.rng.random()
        if roll < 0.35:
            return TupExtract(self.pick(PERSON_FIELDS), Input())
        if roll < 0.5:
            return Pi(sorted(self.rng.sample(PERSON_FIELDS,
                                             self.rng.randint(1, 2))),
                      Input())
        if roll < 0.65:
            return TupCreate(self.pick(["a", "b"]),
                             self.person_value(depth - 1))
        if roll < 0.8:
            return TupCat(TupCreate("l", TupExtract("name", Input())),
                          TupCreate("r", self.person_value(depth - 1)))
        return Input()

    def person_pred(self, depth: int):
        roll = self.rng.random()
        if roll < 0.45:
            return Atom(TupExtract(self.pick(PERSON_FIELDS), Input()),
                        self.pick(["=", "!=", "<", ">="]),
                        Const(self.pick(SCALARS)))
        if roll < 0.6 and depth > 0:
            return And(self.person_pred(depth - 1),
                       self.person_pred(depth - 1))
        if roll < 0.75 and depth > 0:
            return Not(self.person_pred(depth - 1))
        if roll < 0.85:
            return TruePred()
        return Atom(TupExtract("name", Input()), "=",
                    TupExtract("city", Input()))

    # -- multisets of person tuples ------------------------------------

    def person_set(self, depth: int) -> Expr:
        if depth <= 0:
            return self.pick([Named("People"),
                              SetApply(Deref(Input()), Named("Refs"))])
        roll = self.rng.random()
        src = self.person_set(depth - 1)
        if roll < 0.3:
            type_filter = self.pick([None, frozenset(["Student"]),
                                     frozenset(["Student", "Employee"])])
            return SetApply(self.person_value(depth - 1), src,
                            type_filter=type_filter) \
                if type_filter else SetApply(self.person_value(depth - 1),
                                             src)
        if roll < 0.5:
            return SetApply(Comp(self.person_pred(depth - 1), Input()), src)
        if roll < 0.6:
            return DE(src)
        if roll < 0.7:
            return AddUnion(src, self.person_set(depth - 1))
        if roll < 0.8:
            return Diff(src, self.person_set(depth - 1))
        if roll < 0.9:
            return switch_table_plan("describe", [], src)
        return SetApply(Input(), src)

    # -- arrays ---------------------------------------------------------

    def array_plan(self) -> Expr:
        """Array operators, including subscripts the analyzer must prove
        in or out of bounds (Letters has 5 elements, Pair has 2)."""
        roll = self.rng.random()
        if roll < 0.3:
            return ArrExtract(self.pick([1, 3, 5, "last", 7, 9]),
                              Named("Letters"))
        if roll < 0.5:
            lo = self.rng.randint(1, 4)
            return SubArr(lo, lo + self.rng.randint(0, 4), Named("Letters"))
        if roll < 0.7:
            return ArrCat(Named("Pair"), Named("Letters"))
        if roll < 0.85:
            return ArrExtract(self.pick([1, 2, 3]),
                              ArrCat(Named("Pair"), Named("Pair")))
        return SubArr(2, 2, ArrCat(Named("Letters"), Named("Pair")))

    # -- whole plans ----------------------------------------------------

    def plan(self) -> Expr:
        roll = self.rng.random()
        if roll < 0.4:
            return self.person_set(self.rng.randint(1, 3))
        if roll < 0.48:
            return Grp(TupExtract("city", Input()),
                       self.person_set(self.rng.randint(0, 2)))
        if roll < 0.55:
            return SetCollapse(Named("Nested"))
        if roll < 0.6:
            return SetCreate(Const(self.pick(SCALARS)))
        if roll < 0.66:
            return DE(Named("Nums"))
        if roll < 0.74:
            return Cross(SetApply(TupCreate("n", TupExtract("name", Input())),
                                  self.person_set(0)),
                         Named("Cities"))
        if roll < 0.82:
            return rel_join(
                Atom(TupExtract("city", TupExtract("field1", Input())), "=",
                     TupExtract("cname", TupExtract("field2", Input()))),
                self.person_set(self.rng.randint(0, 1)), Named("Cities"))
        if roll < 0.92:
            return self.array_plan()
        return SetApply(
            Comp(Atom(Input(), self.pick(["=", "!=", "<"]),
                      Const(self.pick([2, 3, 17]))), Input()),
            Named("Nums"))


def generate_plan(seed: int) -> Expr:
    """The canonical plan for one seed (deterministic)."""
    return PlanGen(random.Random(seed)).plan()


class BatchPlanGen(PlanGen):
    """Plans that stress the batched engine's distinctive machinery:
    wide arrays (one value spanning whole batches), deep deref chains
    (suffix memoization and the deref LRU), pairwise-disjoint typed
    unions over one extent (the fused union scan), and scans over an
    extent whose exact types are heavily skewed."""

    def deref_chain(self) -> Expr:
        """tag-of-next^k over the Links chain: k nested derefs per
        element, crossing an UNK tail and a dangling link."""
        depth = self.rng.randint(1, 5)
        body: Expr = Deref(Input())
        for _ in range(depth):
            body = Deref(TupExtract("next", body))
        body = TupExtract(self.pick(["tag", "next"]), body)
        return SetApply(body, Named("Links"))

    def wide_array_plan(self) -> Expr:
        roll = self.rng.random()
        if roll < 0.3:
            lo = self.rng.randint(1, 30)
            return SubArr(lo, lo + self.rng.randint(0, 20),
                          Named("WideArr"))
        if roll < 0.5:
            return ArrExtract(self.pick([1, 9, 40, "last", 41]),
                              Named("WideArr"))
        if roll < 0.75:
            return ArrCat(Named("WideArr"), Named("Pair"))
        return SubArr(35, 45, ArrCat(Named("WideArr"), Named("Letters")))

    def disjoint_union(self) -> Expr:
        """A ⊎-tree of typed SET_APPLY branches over People with
        pairwise-disjoint filters — the shape the batched engine fuses
        into a single scan.  Bodies are error-free paths so branch
        order cannot change which error surfaces."""
        def branch(types) -> Expr:
            body = self.pick([Input(),
                              TupExtract(self.pick(PERSON_FIELDS), Input()),
                              Pi(["name", "city"], Input())])
            return SetApply(body, Named("People"),
                            type_filter=frozenset(types))
        branches = [branch(["Student"]), branch(["Employee"])]
        if self.rng.random() < 0.5:
            branches.append(branch(["Person"]))
        self.rng.shuffle(branches)
        plan = branches[0]
        for extra in branches[1:]:
            plan = AddUnion(plan, extra)
        return plan

    def skewed_scan(self) -> Expr:
        src: Expr = SetApply(Deref(Input()), Named("SkewedRefs"))
        roll = self.rng.random()
        if roll < 0.4:
            return SetApply(TupExtract(self.pick(PERSON_FIELDS), Input()),
                            src)
        if roll < 0.7:
            return SetApply(Comp(self.person_pred(1), Input()), src)
        return DE(src)

    def plan(self) -> Expr:
        roll = self.rng.random()
        if roll < 0.25:
            return self.deref_chain()
        if roll < 0.45:
            return self.wide_array_plan()
        if roll < 0.65:
            return self.disjoint_union()
        if roll < 0.85:
            return self.skewed_scan()
        return super().plan()


def generate_batch_plan(seed: int) -> Expr:
    """The canonical batch-stressing plan for one seed (deterministic)."""
    return BatchPlanGen(random.Random(seed)).plan()


# ---------------------------------------------------------------------------
# The differential sweep
# ---------------------------------------------------------------------------

def run_modes(expr: Expr, db: Database, batched: bool = False) -> dict:
    """Evaluate *expr* several ways; returns ``{mode: (outcome, payload)}``.

    * ``interpreted`` — the reference semantics;
    * ``compiled`` — streaming pipelines, no analysis;
    * ``licensed`` — compiled, consuming the abstract interpreter's
      facts as optimization licenses (empty short-circuits, bounds-check
      elision);
    * ``sanitized`` — compiled, with every proven fact asserted against
      the values actually flowing (SanitizerError on violation);
    * ``batched`` (with ``batched=True``) — the columnar batch engine.
    """
    from ..core.analysis.absint import analyze
    modes = ["interpreted", "compiled", "licensed", "sanitized"]
    if batched:
        modes.append("batched")
    out = {}
    for mode in modes:
        ctx = db.context()
        try:
            if mode == "interpreted":
                value = evaluate(expr, ctx, mode="interpreted")
            elif mode == "compiled":
                value = evaluate(expr, ctx, mode="compiled")
            elif mode == "licensed":
                analysis = analyze(expr, database=db)
                value = evaluate(expr, ctx, mode="compiled",
                                 analysis=analysis)
            elif mode == "sanitized":
                analysis = analyze(expr, database=db)
                value = evaluate(expr, ctx, mode="compiled",
                                 analysis=analysis, sanitize=True)
            else:
                value = evaluate(expr, ctx, mode="batched")
            out[mode] = ("ok", value)
        except Exception as error:  # noqa: BLE001 — comparing identity
            out[mode] = ("error", (type(error).__name__, str(error)))
    return out


class SweepReport:
    """Outcome of a differential sweep: per-plan mismatches and
    sanitizer violations, printable for the CLI."""

    def __init__(self) -> None:
        self.plans = 0
        self.ok = 0
        self.mismatches: List[Tuple[str, str, dict]] = []
        self.violations: List[Tuple[str, str]] = []

    def record(self, label: str, expr: Expr, modes: dict) -> None:
        self.plans += 1
        reference = modes["interpreted"]
        bad = {m: r for m, r in modes.items() if r != reference}
        for mode, (outcome, payload) in modes.items():
            if outcome == "error" and payload[0] == "SanitizerError":
                self.violations.append((label, payload[1]))
        if bad:
            self.mismatches.append((label, expr.describe(), bad))
        else:
            self.ok += 1

    @property
    def failed(self) -> bool:
        return bool(self.mismatches or self.violations)

    def render(self) -> str:
        lines = ["sanitize sweep: %d plan(s), %d ok, %d mismatch(es), "
                 "%d sanitizer violation(s)"
                 % (self.plans, self.ok, len(self.mismatches),
                    len(self.violations))]
        for label, message in self.violations:
            lines.append("  VIOLATION %s: %s" % (label, message))
        for label, described, bad in self.mismatches:
            lines.append("  MISMATCH %s: %s" % (label, described))
            for mode, (outcome, payload) in sorted(bad.items()):
                lines.append("    %s: %s %r" % (mode, outcome, payload))
        return "\n".join(lines)


def differential_sweep(n_plans: int = N_PLANS, seed: int = 0,
                       batched: bool = False,
                       report: Optional[SweepReport] = None) -> SweepReport:
    """Run *n_plans* generated plans through all requested modes."""
    report = report or SweepReport()
    db = build_fixture_db()
    for i in range(n_plans):
        expr = generate_plan(seed + i)
        report.record("plan[seed=%d]" % (seed + i), expr,
                      run_modes(expr, db, batched=batched))
    return report


def batch_differential_sweep(n_plans: int = N_BATCH_PLANS,
                             seed: int = BATCH_SEED_BASE,
                             report: Optional[SweepReport] = None,
                             ) -> SweepReport:
    """The batch-stressing corpus through every mode, the batched
    engine included."""
    report = report or SweepReport()
    db = build_fixture_db()
    for i in range(n_plans):
        expr = generate_batch_plan(seed + i)
        report.record("batch-plan[seed=%d]" % (seed + i), expr,
                      run_modes(expr, db, batched=True))
    return report


def university_sweep(report: Optional[SweepReport] = None,
                     batched: bool = False) -> SweepReport:
    """The paper-figure queries over the populated university database,
    through the same modes."""
    from .figures import (figure_3, figure_4, figure_6, figure_7, figure_8,
                          figure_9, figure_10, figure_11, value_views)
    from .university import build_university
    report = report or SweepReport()
    uni = build_university(seed=7)
    value_views(uni)
    builders = [("figure_3", figure_3), ("figure_4", figure_4),
                ("figure_6", figure_6), ("figure_7", figure_7),
                ("figure_8", figure_8), ("figure_9", figure_9),
                ("figure_10", figure_10), ("figure_11", figure_11)]
    for label, builder in builders:
        built: Any = builder()
        plans = built if isinstance(built, (list, tuple)) else [built]
        for j, expr in enumerate(plans):
            suffix = "[%d]" % j if len(plans) > 1 else ""
            report.record(label + suffix, expr,
                          run_modes(expr, uni.db, batched=batched))
    return report


def run_sanitize_sweep(n_plans: int = N_PLANS, seed: int = 0,
                       batched: bool = False) -> SweepReport:
    """The full CLI sweep: university figures, the random corpus, and
    (always) the batch-stressing corpus.  ``batched`` additionally runs
    the first two corpora through the batch engine."""
    report = university_sweep(batched=batched)
    differential_sweep(n_plans=n_plans, seed=seed, batched=batched,
                       report=report)
    return batch_differential_sweep(report=report)
