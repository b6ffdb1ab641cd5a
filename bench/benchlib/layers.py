"""The traced pass: per-layer timing from outside the program.

Nothing inside ``src/repro`` is instrumented.  The functions here call
each module's public functions in the order the server's read path and
``Session`` call them, with a :class:`~.spans.SpanRecorder` span around
every call, and time a few stand-alone probes of the storage layers.
A layer's number is the self time of its spans.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
from collections import OrderedDict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro import connect
from repro.core.engine import compile_batch_plan, compile_plan
from repro.core.expr import evaluate
from repro.core.optimizer import CostModel, Optimizer, Statistics
from repro.excess import ast
from repro.excess.parser import Parser
from repro.excess.session import Result
from repro.excess.translate import Translator
from repro.lang import Lexer
from repro.server.protocol import (bind_params, classify_source,
                                   decode_request, encode_response,
                                   result_response)
from repro.storage import open_database
from repro.storage.wal import WriteAheadLog, read_records

from . import gen
from .spans import SpanRecorder
from .wire import BIG_KEY

#: Entries in the server's per-connection plan cache, which the replay
#: emulates to decide which requests prepare.
PLAN_CACHE_ENTRIES = 64

PREPARE_SPANS = ("lang.tokenize", "excess.parse", "excess.translate",
                 "optimizer.optimize", "engine.compile")

Prepared = List[Tuple[Any, Any, Any]]      # (statement, expr, plan)


def median_us(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1e6


def median_ms(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1e3


def timed(fn: Callable[[Any], Any], args: Iterable[Any]) -> List[float]:
    """Seconds of ``fn(arg)`` for each of *args*."""
    out = []
    for arg in args:
        started = perf_counter()
        fn(arg)
        out.append(perf_counter() - started)
    return out


class Replay:
    """Runs statements through the layers under spans and keeps the
    work counters the per-layer ratios need."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.examined = 0
        self.returned = 0
        self.deref_hits = 0
        self.deref_misses = 0
        #: Optimizer rule firings of each op they were counted for.
        self.rules_fired: List[int] = []
        #: Wall seconds of each measured op (request or round), taken
        #: outside the spans so it reads the same with spans off.
        self.op_seconds: List[float] = []

    def prepare(self, source: str, database: Any, ranges: Dict[str, str],
                optimizer: Optimizer) -> Prepared:
        """parse -> translate -> optimize -> compile, one span per
        public call; range declarations land in *ranges*."""
        rec = self.rec
        with rec.span("excess.parse"):
            with rec.span("lang.tokenize"):
                lexer = Lexer(source)
            # Session.run and the server wrap an existing token cursor
            # the same way; Parser(source) would tokenize again.
            parser = Parser.__new__(Parser)
            parser.lexer = lexer
            statements = parser.parse_statements()
        out: Prepared = []
        for statement in statements:
            if isinstance(statement, ast.RangeDecl):
                ranges.update(statement.bindings)
                continue
            with rec.span("excess.translate"):
                expr, _ = Translator(database, ranges) \
                    .translate_retrieve(statement)
            with rec.span("optimizer.optimize"):
                expr = optimizer.optimize(expr).best
            with rec.span("engine.compile"):
                plan = compile_plan(expr, cost_model=optimizer.cost_model)
            out.append((statement, expr, plan))
        return out

    def execute(self, prepared: Prepared, ctx: Any) -> List[Result]:
        results = []
        for statement, expr, plan in prepared:
            ctx.begin_query()
            with self.rec.span("engine.compiled.exec"):
                value = plan.execute(ctx)
            result = Result(statement, expr, value, None, stats=ctx.stats)
            self.examined += result.stats.elements_scanned
            self.returned += len(result.rows())
            self.deref_hits += result.stats.deref_cache_hit
            self.deref_misses += result.stats.deref_cache_miss
            results.append(result)
        return results

    def alternatives(self, prepared: Prepared, ctx: Any,
                     optimizer: Optimizer) -> None:
        """What the default path does not run: the batched codegen and
        the other two engines over the same optimized plans."""
        rec = self.rec
        for _, expr, _ in prepared:
            with rec.span("engine.batch_compile"):
                batch_plan = compile_batch_plan(
                    expr, cost_model=optimizer.cost_model)
            ctx.begin_query()
            with rec.span("engine.batched.exec"):
                batch_plan.execute(ctx)
            ctx.begin_query()
            with rec.span("engine.interpreted.exec"):
                evaluate(expr, ctx, mode="interpreted")

    @staticmethod
    def rule_fires(source: str, database: Any, ranges: Dict[str, str],
                   optimizer: Optimizer) -> int:
        """Rule firings of optimizing every retrieve in *source*, off
        the clock: collecting them slows the optimizer."""
        fired = 0
        optimizer.collect_rule_stats = True
        try:
            for statement in Parser(source).parse_statements():
                if isinstance(statement, ast.RangeDecl):
                    ranges.update(statement.bindings)
                    continue
                expr, _ = Translator(database, ranges) \
                    .translate_retrieve(statement)
                rows = optimizer.optimize(expr).rule_stats or {}
                fired += sum(row["fires"] for row in rows.values())
        finally:
            optimizer.collect_rule_stats = False
        return fired

    def protocol_in(self, q: str, params: Dict[str, Any]) -> str:
        """The server's work on a request line before dispatch."""
        line = (json.dumps({"q": q, "params": params}) + "\n").encode()
        rec = self.rec
        with rec.span("protocol.decode"):
            request = decode_request(line)
        with rec.span("protocol.bind"):
            source = bind_params(request.q, request.params)
        with rec.span("protocol.classify"):
            classify_source(source)
        return source

    def protocol_out(self, results: List[Result]) -> bytes:
        with self.rec.span("protocol.encode"):
            return encode_response(result_response(results))

    def common_metrics(self) -> Dict[str, float]:
        """The per-layer metrics every workload reports.  A layer's
        time is its spans' self time summed within one op (a request,
        or a round of seven statements), then the median over ops."""
        per_op = self.rec.per_request
        hits, misses = self.deref_hits, self.deref_misses
        return {
            "lang.tokenize_us": median_us(per_op("lang.tokenize")),
            "excess.parse_us": median_us(per_op("excess.parse")),
            "excess.translate_us": median_us(per_op("excess.translate")),
            "optimizer.optimize_us": median_us(per_op("optimizer.optimize")),
            "optimizer.rules_fired": statistics.mean(self.rules_fired),
            "engine.compile_us": median_us(per_op("engine.compile")),
            "engine.batch_compile_us":
                median_us(per_op("engine.batch_compile")),
            "engine.compiled.exec_ms":
                median_ms(per_op("engine.compiled.exec")),
            "engine.batched.exec_ms":
                median_ms(per_op("engine.batched.exec")),
            "engine.interpreted.exec_ms":
                median_ms(per_op("engine.interpreted.exec")),
            "engine.rows_examined_per_result":
                self.examined / max(1, self.returned),
            "engine.deref_cache_hit_ratio": hits / max(1, hits + misses),
            "protocol.decode_us": median_us(per_op("protocol.decode")),
            "protocol.classify_us": median_us(per_op("protocol.classify")),
            "protocol.bind_us": median_us(per_op("protocol.bind")),
            "protocol.encode_us_per_row":
                sum(per_op("protocol.encode")) * 1e6 / max(1, self.returned),
            "txn.snapshot_us": median_us(per_op("txn.snapshot")),
        }


# ---------------------------------------------------------------------------
# Wire workloads: replay the op stream in-process
# ---------------------------------------------------------------------------

def replay_wire(db: Any, ops: List[gen.Op], rec: SpanRecorder) -> Replay:
    """Replay *ops* against *db* the way the server serves them: reads
    on a fresh snapshot through an emulated 64-entry LRU plan cache,
    writes through ``connect(db).execute`` (each commit clears the
    cache, as the epoch bump does).  The sample runs twice, like
    warm-up then window; only the second pass carries integer request
    ids and feeds ``op_seconds``.  The engine alternatives run after
    each fresh compile, outside the request span, spans on only."""
    replay = Replay(rec)
    writer = connect(db)
    plans: "OrderedDict[str, Prepared]" = OrderedDict()
    epoch = stats = None
    for warm in (True, False):
        for i, op in enumerate(ops):
            rec.request_id = "warm-%d" % i if warm else i
            compiled_with = None
            started = perf_counter()
            with rec.span("request." + op.kind):
                source = replay.protocol_in(op.q, {"k": op.k})
                if op.kind in ("log", "big"):
                    with rec.span("write.execute"):
                        writer.execute(source)
                    plans.clear()
                    continue
                with rec.span("txn.snapshot"):
                    view = db.txn.snapshot()
                prepared = plans.get(source)
                if prepared is None:
                    # The server memoizes statistics per epoch and
                    # builds a fresh optimizer per compile.
                    if epoch != view.version:
                        epoch = view.version
                        stats = Statistics.from_database(view)
                    compiled_with = Optimizer(
                        cost_model=CostModel(stats, engine="compiled",
                                             indexes=view.indexes),
                        max_depth=3, max_trees=500)
                    prepared = plans[source] = replay.prepare(
                        source, db, {}, compiled_with)
                    if len(plans) > PLAN_CACHE_ENTRIES:
                        plans.popitem(last=False)
                else:
                    plans.move_to_end(source)
                ctx = view.context()
                reply = replay.protocol_out(replay.execute(prepared, ctx))
            if not warm:
                replay.op_seconds.append(perf_counter() - started)
            if not gen.reply_ok(op, json.loads(reply)["rows"]):
                raise AssertionError("in-process replay answered %s wrongly"
                                     % (op,))
            if compiled_with is not None and rec.enabled:
                replay.alternatives(prepared, ctx, compiled_with)
                if warm:
                    replay.rules_fired.append(replay.rule_fires(
                        source, db, {}, compiled_with))
    return replay


def prepare_share(rec: SpanRecorder) -> float:
    """Share of second-pass read-request time spent in prepare steps."""
    prepare = total = 0.0
    for span in rec.spans:
        if isinstance(span.request_id, int):
            if span.name in PREPARE_SPANS:
                prepare += span.self_time
            elif span.name in ("request.point", "request.range"):
                total += span.duration
    return prepare / total if total else 0.0


def index_probes(db: Any, ops: List[gen.Op]) -> Dict[str, float]:
    """Catalog probe + answer walk for the sample's point keys and
    range bounds (one 1 % bound when the workload has no ranges), and
    timed rebuilds of both indexes."""
    view = db.txn.snapshot()
    points = [op.k for op in ops if op.kind == "point"][:200]
    bounds = ([op.k for op in ops if op.kind == "range"][:200]
              or [len(db.get("Big")) // 100])

    def point(k: int) -> None:
        list(view.indexes.probe_keyed("Big", BIG_KEY).probe(k))

    def below(k: int) -> None:
        list(view.indexes.probe_ordered("Big", BIG_KEY)
             .probe_range(high=k, incl_high=False))

    point(points[0])        # the snapshot's lazy builds, off the clock
    below(bounds[0])

    def build(_: int) -> None:
        db.indexes.build_keyed("Big", BIG_KEY)
        db.indexes.build_ordered("Big", BIG_KEY)

    return {
        "indexes.point_probe_us": median_us(timed(point, points)),
        "indexes.range_probe_us": median_us(timed(below, bounds)),
        "indexes.build_ms": median_ms(timed(build, range(3))),
    }


def write_probes(db: Any, scratch: str) -> Dict[str, float]:
    """Stand-alone costs of the write path: a no-fsync commit, an
    append into the indexed ``Big`` of *db*, and the WAL append + fsync
    of one commit's records on the bench's own temp directory."""
    quiet_dir = os.path.join(scratch, "nosync")
    quiet = open_database(quiet_dir, sync=False)
    try:
        conn = connect(quiet)
        conn.execute("create Log: { int4 }")
        nosync = timed(lambda k: conn.execute(
            "append to Log value (%d)" % k), range(100))
        records = read_records(os.path.join(quiet_dir, "wal.log"))
    finally:
        quiet.txn.wal.close()
        shutil.rmtree(quiet_dir, ignore_errors=True)
    # The last commit group: begin ... commit of one Log append.
    group = records[max(i for i, record in enumerate(records)
                        if record.get("op") == "begin"):]

    big = connect(db)
    rows = len(db.get("Big"))
    append_big = timed(lambda k: big.execute(
        "append to Big (k = %d, v = 1)" % k), range(rows, rows + 3))

    wal_path = os.path.join(scratch, "probe-wal.log")
    wal = WriteAheadLog(wal_path, sync=False)
    try:
        before = wal.tell()

        def commit(_: int) -> None:
            wal.append_batch(group)
            wal.sync_now()

        fsync = timed(commit, range(100))
        bytes_per_commit = (wal.tell() - before) / 100.0
    finally:
        wal.close()
        os.remove(wal_path)
    return {
        "txn.commit_nosync_us": median_us(nosync),
        "txn.append_big_ms": median_ms(append_big),
        "wal.fsync_us": median_us(fsync),
        "wal.bytes_per_commit": bytes_per_commit,
    }


# ---------------------------------------------------------------------------
# embedded_analytic: replay rounds in-process
# ---------------------------------------------------------------------------

def replay_rounds(conn: Any, rounds: int, rec: SpanRecorder) -> Replay:
    """*rounds* rounds of the seven statements, decomposed the way
    ``Session`` runs a retrieve under default options.  Outside the
    round span: the same optimized plans on the other two engines, what
    shipping the statements and results over the wire would cost, and
    the price of an MVCC snapshot of this database."""
    replay = Replay(rec)
    db = conn.db
    optimizer = conn.session.optimizer
    ctx = conn.session.context
    for i in range(rounds):
        rec.request_id = i
        ranges: Dict[str, str] = {}
        done: List[Tuple[Prepared, List[Result]]] = []
        started = perf_counter()
        with rec.span("round"):
            for name, text in gen.ANALYTIC:
                with rec.span("statement." + name):
                    prepared = replay.prepare(text, db, ranges, optimizer)
                    done.append((prepared, replay.execute(prepared, ctx)))
        replay.op_seconds.append(perf_counter() - started)
        if not rec.enabled:
            continue
        for (name, text), (prepared, results) in zip(gen.ANALYTIC, done):
            replay.alternatives(prepared, ctx, optimizer)
            replay.protocol_in(text, {})
            replay.protocol_out(results)
    if rec.enabled:
        ranges = {}
        replay.rules_fired.append(sum(
            replay.rule_fires(text, db, ranges, optimizer)
            for _, text in gen.ANALYTIC))
        manager = db.transactions()
        for i in range(50):
            rec.request_id = "snapshot-%d" % i
            with rec.span("txn.snapshot"):
                manager.snapshot()
    return replay


def engine_share(rec: SpanRecorder) -> float:
    """core.engine execution as a share of the replayed rounds."""
    selfs = rec.self_times()
    rounds = sum(span.duration for span in rec.spans
                 if span.name == "round")
    return sum(selfs["engine.compiled.exec"]) / rounds
