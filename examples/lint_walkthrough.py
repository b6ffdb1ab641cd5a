"""Static analysis walkthrough: the verifier, the gate, and the linter.

Three layers on top of the algebra, demonstrated on the Figure 1
university database:

1. **Inheritance-aware inference** — the one type checker: every plan
   is typed before it runs (``ExecutionOptions(checks="verify")``, the
   first rung of the ``"off"`` < ``"verify"`` < ``"analyze"`` <
   ``"sanitize"`` ladder), with DOM(S) substitutability and declared
   builtin/method signatures.
2. **The rewrite-soundness gate** — every rewrite the optimizer admits
   must preserve the inferred schema (debug mode for rule authors).
3. **The plan linter** — coded findings (L100…L106) with source spans
   pointing back at the EXCESS query text.

Run:  python examples/lint_walkthrough.py
"""

from repro.cli import lint_source
from repro.core.analysis import (SoundnessChecker, inference_for_database,
                                 facts_for_database)
from repro.core.analysis.rulecheck import verify_all_rules
from repro.core.engine.compiler import compile_plan
from repro.core.optimizer import CostModel, Optimizer, Statistics
from repro.core.values import MultiSet
from repro import ExecutionOptions, connect
from repro.workloads.university import build_university


def main():
    uni = build_university()
    db = uni.db

    # -- 1. verified execution -----------------------------------------
    print("== Verified execution ==")
    conn = connect(db, ExecutionOptions(checks="verify"))
    session = conn.session
    result = conn.execute(
        "retrieve (E.name, E.salary) from E in Employees "
        "where E.salary > 60000", optimize=False)
    print("query typechecked and returned %d rows" % len(result.value))

    env = inference_for_database(db)
    schema = env.check(session.compile(
        "retrieve (E.name) from E in Employees"))
    print("inferred result schema:", schema.describe())

    # -- 2. the rewrite-soundness gate ---------------------------------
    print("\n== Rewrite-soundness gate ==")
    report = verify_all_rules()
    print(report.describe().splitlines()[0])
    print(report.describe().splitlines()[-1])

    # Debug mode: the same gate hooks into the optimizer, so every
    # admitted rewrite of a real query is checked as it is explored.
    gate = SoundnessChecker(env)
    plan = session.compile(
        "retrieve (E.name) from E in Employees where E.dept.floor = 2")
    optimizer = Optimizer(cost_model=CostModel(Statistics.from_database(db)),
                          max_depth=2, verifier=gate)
    best = optimizer.optimize(plan)
    print("optimizer admitted %d verified rewrites (cost %.0f -> %.0f)"
          % (gate.checked, best.initial_cost, best.best_cost))

    # -- 3. the plan linter --------------------------------------------
    print("\n== Plan linter ==")
    db.create("Codes", MultiSet([1, 2, 3]))
    queries = [
        "retrieve (C.name) from C in Codes",                       # L100
        "retrieve (de(de(E.sub_ords))) from E in Employees",       # L102
        "retrieve (E.name) from E in Employees "
        "where min(E.kids.age) < 10",                              # L104
        "retrieve (mystery(E.salary)) from E in Employees",        # L106
    ]
    for query in queries:
        print("query:", query)
        blocks, _errors = lint_source(session, query)
        for block in blocks:
            print("  ", block)

    # -- 4. analysis facts license physical optimizations --------------
    print("\n== Duplicate-freedom as an optimization license ==")
    from repro.core.expr import Named
    from repro.core.operators import DE
    # The verifier proves Employees duplicate-free, so the compiled
    # engine turns this DE into a pass-through instead of hashing.
    pipeline = compile_plan(DE(Named("Employees")),
                            facts=facts_for_database(db))
    for note in pipeline.notes:
        print("  compiler note:", note)


if __name__ == "__main__":
    main()
