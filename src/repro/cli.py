"""An interactive EXCESS shell: ``python -m repro``.

Reads EXTRA/EXCESS statements (DDL, queries, updates), executes them
against an in-memory database, and pretty-prints results.  Meta
commands (lines starting with a dot):

    .help                this text
    .names               list named top-level objects
    .types               list defined EXTRA types
    .plan <retrieve …>   show the algebra tree without executing
    .lint <retrieve …>   run the plan linter (typing, dead π, redundant
                         DE, dangling DEREF, dne hazards, dispatch)
    .optimize on|off     toggle rule-based optimization of queries
    .engine [name]       show or set the execution engine
                         (interpreted | compiled | batched)
    .begin               begin an explicit transaction
    .commit              commit the active transaction
    .abort               abort (roll back) the active transaction
    .stats               work counters of the last executed query
    .trace on|off        toggle per-operator trace spans on statements
    .sanitize on|off     set the checks level to "sanitize" or "off":
                         on, every plan is type-checked and every
                         statically proven fact (cardinality bounds,
                         emptiness, array bounds, duplicate freedom)
                         is asserted against the values the compiled
                         engine actually produces
    .analyze <stmt …>    EXPLAIN ANALYZE: execute under tracing and
                         show the plan with actual vs estimated
                         cardinalities and per-operator wall time
    .metrics [json]      the process-wide metrics registry (Prometheus
                         text format, or JSON)
    .indexes             access methods: one row per index definition
                         with kind, key, size, probe hits, liveness
    .indexes create typed|keyed|ordered <name> [field]
    .indexes drop   typed|keyed|ordered <name> [field]
    .slowlog [clear]     the slow-query log (or clear it)
    .demo                load the populated Figure-1 university
    .save <path>         persist the database to a JSON snapshot
    .load <path>         replace the database with a saved snapshot
    .quit                exit

Statements may span lines; they execute when the line ends with ``;``
(the terminator is stripped — the languages themselves don't use it).

``python -m repro.cli bench --smoke`` runs the quick benchmark smoke
check (the paper's claimed plan-quality directions plus
interpreted/compiled engine agreement) without entering the shell.

``python -m repro.cli lint [--demo] [path]`` lints the retrieve
statements in *path* (stdin when omitted) without executing them,
printing coded diagnostics with source positions; the exit status is 1
when any error-severity finding is reported.

``python -m repro.cli metrics [--json]`` prints the process metrics
registry and exits.

``python -m repro.cli sanitize [--plans N] [--seed N] [--batched]``
runs the abstract-interpretation sanitizer sweep — the paper-figure
queries plus seeded random plans, each executed interpreted, compiled,
compiled with analysis licenses, and compiled with every proven fact
asserted at runtime — and exits nonzero on any disagreement or
violation.  ``--batched`` adds the batched engine as a fifth mode and
the batch-stressing plan corpus.

``python -m repro.cli index list|create|drop <dir> …`` manages index
definitions of an existing durable database directory (one holding
``snapshot.json`` or ``wal.log``): creates and drops are journaled DDL
(they survive restarts and replay from the WAL), and ``list`` shows
the same table as the shell's ``.indexes``.

``python -m repro.cli serve --db <dir> [--port N] [--metrics-port N]``
hosts the concurrent network server (:mod:`repro.server`): newline-
delimited JSON over TCP, MVCC snapshot readers, group-committed
writes, and an optional HTTP ``/metrics`` endpoint.  Equivalent to
``python -m repro.server``; see ``--help`` there for every flag.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional

from .api import connect
from .core.optimizer import CostModel, Optimizer, Statistics
from .options import ENGINES, ExecutionOptions
from .core.values import Arr, MultiSet
from .lang import ParseError
from .storage import Database

PROMPT = "excess> "
CONTINUATION = "   ...> "

#: Non-shell entry points: ``python -m repro.cli <subcommand> …``.
SUBCOMMANDS = ("bench", "index", "lint", "metrics", "sanitize", "serve")


def format_value(value, indent: str = "  ", limit: int = 20) -> str:
    """Human-oriented rendering of an algebra value."""
    if isinstance(value, MultiSet):
        lines = ["{multiset, %d occurrence(s), %d distinct}"
                 % (len(value), value.distinct_count())]
        for i, (element, count) in enumerate(sorted(
                value.items(), key=lambda kv: repr(kv[0]))):
            if i >= limit:
                lines.append(indent + "… (%d more)"
                             % (value.distinct_count() - limit))
                break
            suffix = "  ×%d" % count if count > 1 else ""
            lines.append(indent + repr(element) + suffix)
        return "\n".join(lines)
    if isinstance(value, Arr):
        return "[array, %d element(s)] %r" % (len(value), value)
    return repr(value)


def render_indexes(catalog) -> str:
    """The ``.indexes`` table: one row per index definition."""
    rows = catalog.describe_rows()
    if not rows:
        return "(no indexes defined)"
    lines = ["%-8s %-16s %-20s %8s %6s %s"
             % ("kind", "name", "key", "size", "hits", "state")]
    for row in rows:
        lines.append("%-8s %-16s %-20s %8s %6d %s" % (
            row["kind"], row["name"], row["key"] or "-",
            "-" if row["size"] is None else row["size"],
            row["hits"], "live" if row["live"] else "stale"))
    return "\n".join(lines)


def _index_key(kind: str, field: str, value=None):
    """The key expression for a keyed/ordered index CLI argument:
    ``field`` names a tuple field (TUP_EXTRACT over INPUT — behind a
    DEREF when the stored collection holds references, mirroring what
    the translator emits for ``var.field``); an empty field indexes the
    element itself."""
    if kind == "typed":
        return None
    from .core.expr import Input
    from .core.operators.tuples import TupExtract
    if not field:
        return Input()
    base = Input()
    from .core.values import MultiSet, Ref
    if isinstance(value, MultiSet) and any(
            isinstance(element, Ref) for element, _ in value.items()):
        from .core.operators.refs import Deref
        base = Deref(base)
    return TupExtract(field, base)


def lint_source(session, source: str):
    """Lint every retrieve statement in *source* without executing.

    Range declarations update the session's bindings so later
    statements resolve; DDL and update statements are skipped.  Returns
    ``(blocks, errors)`` — printable text blocks and the count of
    error-severity diagnostics.
    """
    from .core.analysis import Linter
    from .excess import ast as excess_ast
    from .excess.parser import Parser
    blocks: List[str] = []
    errors = 0
    for statement in Parser(source).parse_statements():
        if isinstance(statement, excess_ast.RangeDecl):
            for var, collection in statement.bindings:
                session.ranges[var] = collection
            continue
        if not isinstance(statement, excess_ast.Retrieve):
            continue
        translator = session.translator()
        expr, _ = translator.translate_retrieve(statement)
        diagnostics = Linter(session.db,
                             source_map=translator.source_map).lint(expr)
        errors += sum(1 for d in diagnostics if d.severity == "error")
        if diagnostics:
            blocks.extend(d.describe() for d in diagnostics)
        else:
            blocks.append("ok: no findings")
    return blocks, errors


class Shell:
    """The REPL engine, separated from I/O for testability."""

    def __init__(self, database: Optional[Database] = None):
        self.db = database or Database()
        self.conn = connect(self.db,
                            ExecutionOptions(engine="interpreted"))
        self.session = self.conn.session
        self.optimize = False
        self.last_stats = {}
        # (Database.version, engine) the session's optimizer was built
        # at, or None before the first build.
        self._optimizer_stamp = None

    def _reconnect(self) -> None:
        """Rebind the connection after the database was swapped out
        (``.load``) or repopulated (``.demo``), preserving the chosen
        execution options and tracing state."""
        self.conn = connect(self.db, self.conn.options)
        self.session = self.conn.session
        self._optimizer_stamp = None

    # -- meta commands -------------------------------------------------

    def handle_meta(self, line: str) -> str:
        command, _, argument = line.partition(" ")
        command = command.lower()
        if command == ".help":
            return __doc__.strip()
        if command == ".names":
            names = self.db.names()
            return "\n".join(names) if names else "(no named objects)"
        if command == ".types":
            types = getattr(self.db, "types", None)
            if types is None or not types.names():
                return "(no types defined)"
            return "\n".join(
                "%s%s" % (name,
                          " inherits " + ", ".join(
                              self.db.hierarchy.parents(name))
                          if self.db.hierarchy.parents(name) else "")
                for name in types.names())
        if command == ".plan":
            try:
                expr = self.session.compile(argument)
            except (ParseError, Exception) as error:
                return "error: %s" % error
            from .core.explain import explain
            model = CostModel(Statistics.from_database(self.db))
            text = explain(expr, model)
            if self.optimize:
                result = self._optimizer().optimize(expr)
                text += ("\n-- optimized (%.0f -> %.0f, via %s) --\n%s"
                         % (result.initial_cost, result.best_cost,
                            " -> ".join(result.steps) or "<unchanged>",
                            explain(result.best, model)))
            return text
        if command == ".lint":
            if not argument.strip():
                return "usage: .lint <retrieve …>"
            try:
                blocks, _ = lint_source(self.session, argument)
            except (ParseError, Exception) as error:
                return "error: %s" % error
            return "\n".join(blocks) if blocks else "(nothing to lint)"
        if command == ".optimize":
            self.optimize = argument.strip().lower() == "on"
            return "optimization %s" % ("on" if self.optimize else "off")
        if command == ".engine":
            choice = argument.strip().lower()
            if not choice:
                return "engine: %s" % self.conn.engine
            if choice not in ENGINES:
                return "usage: .engine %s" % "|".join(ENGINES)
            self.conn.options = self.conn.options.replace(engine=choice)
            return "engine set to %s" % choice
        if command == ".begin":
            from .storage import TxnError
            try:
                txid = self.session.begin()
            except TxnError as error:
                return "error: %s" % error
            return "transaction %d begun" % txid
        if command == ".commit":
            from .storage import TxnError
            try:
                self.session.commit()
            except TxnError as error:
                return "error: %s" % error
            return "committed"
        if command == ".abort":
            from .storage import TxnError
            try:
                self.session.abort()
            except TxnError as error:
                return "error: %s" % error
            return "aborted (rolled back)"
        if command == ".stats":
            if not self.last_stats:
                return "(no query executed yet)"
            return "\n".join("%-22s %d" % (k, v)
                             for k, v in sorted(self.last_stats.items()))
        if command == ".trace":
            choice = argument.strip().lower()
            if choice in ("on", "off"):
                self.conn.tracing = choice == "on"
            return "tracing %s" % ("on" if self.conn.tracing else "off")
        if command == ".sanitize":
            choice = argument.strip().lower()
            if choice in ("on", "off"):
                self.conn.options = self.conn.options.replace(
                    checks="sanitize" if choice == "on" else "off")
            sanitizing = self.conn.options.checks == "sanitize"
            state = "on" if sanitizing else "off"
            if sanitizing and self.conn.engine == "interpreted":
                return ("sanitizer %s (note: a no-op on the %s engine — "
                        "switch with .engine compiled or .engine batched)"
                        % (state, self.conn.engine))
            return "sanitizer %s" % state
        if command == ".analyze":
            if not argument.strip():
                return "usage: .analyze <statement …>"
            try:
                if self.optimize:
                    self._refresh_optimizer()
                result = self.conn.execute(
                    argument, optimize=self.optimize,
                    options=self.conn.options.replace(trace=True))
            except (ParseError, Exception) as error:
                return "error: %s" % error
            if result.trace is None:
                return "(nothing to analyze: %s statement)" % result.kind
            self.last_stats = dict(result.stats)
            model = CostModel(Statistics.from_database(self.db),
                              engine=self.conn.engine,
                              indexes=self.db.indexes)
            return result.explain(cost_model=model)
        if command == ".metrics":
            from .obs import REGISTRY
            if argument.strip().lower() == "json":
                import json
                return json.dumps(REGISTRY.to_json(), indent=2,
                                  sort_keys=True)
            return REGISTRY.to_prometheus().rstrip("\n")
        if command == ".indexes":
            words = argument.split()
            if not words:
                return render_indexes(self.db.indexes)
            action = words[0].lower()
            if action not in ("create", "drop") or len(words) < 3:
                return ("usage: .indexes [create|drop "
                        "typed|keyed|ordered <name> [field]]")
            kind, name = words[1].lower(), words[2]
            try:
                stored = self.db.get(name)
            except KeyError:
                stored = None
            field = words[3] if len(words) > 3 else ""
            key = (None if action == "drop" and not field
                   else _index_key(kind, field, stored))
            try:
                if action == "create":
                    self.db.indexes.create_index(kind, name, key)
                    return "created %s index on %s" % (kind, name)
                dropped = self.db.indexes.drop_index(kind, name, key)
                return ("dropped %s index on %s" % (kind, name)
                        if dropped else "no such index")
            except (KeyError, ValueError, TypeError) as error:
                return "error: %s" % error
        if command == ".slowlog":
            if argument.strip().lower() == "clear":
                self.conn.slow_log.clear()
                return "slow-query log cleared"
            return self.conn.slow_log.render()
        if command == ".demo":
            from .workloads import build_university
            build_university(database=self.db)
            self._reconnect()
            return ("loaded the Figure-1 university "
                    "(Employees, Students, Departments, TopTen)")
        if command == ".save":
            if not argument.strip():
                return "usage: .save <path>"
            from .storage import save_database
            save_database(self.db, argument.strip())
            return "saved to %s" % argument.strip()
        if command == ".load":
            if not argument.strip():
                return "usage: .load <path>"
            from .storage import load_database
            try:
                self.db = load_database(argument.strip())
            except (OSError, ValueError) as error:
                return "error: %s" % error
            self._reconnect()
            missing = getattr(self.db, "missing_functions", [])
            note = (" (re-register functions: %s)" % ", ".join(missing)
                    if missing else "")
            return "loaded %s%s" % (argument.strip(), note)
        if command in (".quit", ".exit"):
            raise EOFError
        return "unknown command %r (try .help)" % command

    def _optimizer(self) -> Optimizer:
        stats = Statistics.from_database(self.db)
        model = CostModel(stats, engine=self.conn.engine,
                          indexes=self.db.indexes)
        return Optimizer(cost_model=model, max_depth=3, max_trees=500)

    def _refresh_optimizer(self) -> None:
        """Give the session an optimizer over current statistics when
        the database or the engine moved since the last one was built.
        Only then: a new optimizer drops the session's cached plans."""
        stamp = (self.db.version, self.conn.engine)
        if stamp != self._optimizer_stamp:
            self.conn.session.optimizer = self._optimizer()
            self._optimizer_stamp = stamp

    # -- statements -------------------------------------------------------

    def execute(self, source: str) -> List[str]:
        """Execute statements; returns printable result blocks."""
        out: List[str] = []
        try:
            if self.optimize:
                self._refresh_optimizer()
            last = self.conn.execute(source, optimize=self.optimize)
        except (ParseError, Exception) as error:
            return ["error: %s" % error]
        for result in last.all:
            if result.expression is None:
                out.append("ok")
                continue
            self.last_stats = dict(result.stats)
            if result.kind in ("delete", "replace"):
                out.append("ok (%r affected %s)"
                           % (result.value, result.into))
            elif result.into:
                out.append("stored %s" % result.into)
            else:
                out.append(format_value(result.value))
        return out

    def feed(self, line: str) -> List[str]:
        """One input line → zero or more output blocks."""
        stripped = line.strip()
        if not stripped:
            return []
        if stripped.startswith("."):
            return [self.handle_meta(stripped)]
        return self.execute(stripped)


def run_lint(argv: List[str]) -> int:
    """The ``lint`` subcommand: diagnostics only, no execution."""
    database = Database()
    if "--demo" in argv:
        from .workloads import build_university
        build_university(database=database)
        argv = [a for a in argv if a != "--demo"]
    if argv:
        with open(argv[0]) as handle:
            source = handle.read()
    else:
        source = sys.stdin.read()
    session = connect(database).session
    try:
        blocks, errors = lint_source(session, source.replace(";", "\n"))
    except (ParseError, Exception) as error:
        print("error: %s" % error)
        return 2
    for block in blocks:
        print(block)
    return 1 if errors else 0


def run_sanitize(argv: List[str]) -> int:
    """The ``sanitize`` subcommand: the differential sanitizer sweep.

    Runs the paper-figure queries over the university database plus a
    seeded batch of random plans through four modes — interpreted,
    compiled, compiled-with-licenses, compiled-with-sanitizer — plus
    the batched engine with ``--batched``, and exits nonzero if any
    mode disagrees with the interpreter or any statically proven fact
    is violated at runtime.  A missing or non-integer count, or a
    negative ``--plans``, is a usage error (exit 2).
    """
    from .workloads.plangen import N_PLANS, run_sanitize_sweep
    usage = ("usage: python -m repro.cli sanitize "
             "[--plans N] [--seed N] [--batched]")
    counts = {"--plans": N_PLANS, "--seed": 0}
    batched = False
    it = iter(argv)
    try:
        for word in it:
            if word == "--batched":
                batched = True
            elif word in counts:
                counts[word] = int(next(it))
            else:
                raise ValueError(word)
        if counts["--plans"] < 0:
            raise ValueError(counts["--plans"])
    except (StopIteration, ValueError):
        print(usage)
        return 2
    report = run_sanitize_sweep(n_plans=counts["--plans"],
                                seed=counts["--seed"], batched=batched)
    print(report.render())
    return 1 if report.failed else 0


def run_index(argv: List[str]) -> int:
    """The ``index`` subcommand: journaled index DDL on a durable
    database directory, without entering the shell."""
    usage = ("usage: python -m repro.cli index list <dir>\n"
             "       python -m repro.cli index create <dir> "
             "typed|keyed|ordered <name> [field]\n"
             "       python -m repro.cli index drop <dir> "
             "typed|keyed|ordered <name> [field]")
    if len(argv) < 2 or argv[0] not in ("list", "create", "drop"):
        print(usage)
        return 2
    action, directory = argv[0], argv[1]
    if not any(os.path.exists(os.path.join(directory, name))
               for name in ("snapshot.json", "wal.log")):
        print("error: no database at %s" % directory)
        return 1
    from .storage import open_database
    db = open_database(directory)
    try:
        if action == "list":
            print(render_indexes(db.indexes))
            return 0
        if len(argv) < 4:
            print(usage)
            return 2
        kind, name = argv[2].lower(), argv[3]
        try:
            stored = db.get(name)
        except KeyError:
            stored = None
        field = argv[4] if len(argv) > 4 else ""
        key = (None if action == "drop" and not field
               else _index_key(kind, field, stored))
        try:
            if action == "create":
                db.indexes.create_index(kind, name, key)
                print("created %s index on %s" % (kind, name))
            else:
                dropped = db.indexes.drop_index(kind, name, key)
                if not dropped:
                    print("no such index")
                    return 1
                print("dropped %s index on %s" % (kind, name))
        except (KeyError, ValueError, TypeError) as error:
            print("error: %s" % error)
            return 1
        return 0
    finally:
        wal = getattr(getattr(db, "journal", None), "wal", None)
        if wal is not None:
            wal.close()


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "index":
        return run_index(argv[1:])
    if argv and argv[0] == "bench":
        from .workloads.smoke import run_smoke
        return run_smoke(smoke="--smoke" in argv[1:] or len(argv) == 1)
    if argv and argv[0] == "lint":
        return run_lint(argv[1:])
    if argv and argv[0] == "sanitize":
        return run_sanitize(argv[1:])
    if argv and argv[0] == "serve":
        from .server.__main__ import main as serve_main
        return serve_main(argv[1:])
    if argv and argv[0] == "metrics":
        from .obs import REGISTRY
        if "--json" in argv[1:]:
            import json
            print(json.dumps(REGISTRY.to_json(), indent=2, sort_keys=True))
        else:
            print(REGISTRY.to_prometheus(), end="")
        return 0
    shell = Shell()
    banner = ("repro — the EXCESS algebra (Vandenberg & DeWitt, "
              "SIGMOD 1991)\nType .help for commands, .demo for sample "
              "data; end statements with ';'.")
    if argv and argv[0] == "--demo":
        print(shell.handle_meta(".demo"))
        argv = argv[1:]
    if not sys.stdin.isatty():
        # Batch mode: read everything, execute statement blocks.
        source = sys.stdin.read()
        for block in _split_statements(source):
            for output in shell.feed(block):
                print(output)
        return 0
    print(banner)
    buffer: List[str] = []
    while True:
        try:
            line = input(CONTINUATION if buffer else PROMPT)
        except EOFError:
            print()
            return 0
        if line.strip().startswith(".") and not buffer:
            try:
                print(shell.handle_meta(line.strip()))
            except EOFError:
                return 0
            continue
        buffer.append(line)
        if line.rstrip().endswith(";"):
            statement = "\n".join(buffer).rstrip().rstrip(";")
            buffer = []
            for output in shell.feed(statement):
                print(output)


def _split_statements(source: str) -> List[str]:
    """Split batch input on ';' terminators (dots pass through whole)."""
    blocks: List[str] = []
    for chunk in source.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        # Meta commands are line-oriented even in batch mode.
        lines = chunk.splitlines()
        plain: List[str] = []
        for line in lines:
            if line.strip().startswith("."):
                if plain:
                    blocks.append("\n".join(plain))
                    plain = []
                blocks.append(line.strip())
            else:
                plain.append(line)
        if plain:
            blocks.append("\n".join(plain))
    return blocks


if __name__ == "__main__":
    raise SystemExit(main())
