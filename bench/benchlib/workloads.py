"""The four workloads.  ``run(name, seed, seconds, trace, out_dir)``
builds the workload's data from the seed, drives the program, checks
every answer, and returns ``correct``/``attempted``/``failed``, the
metrics, and an ``info`` dict that records how they were measured.

``trace=False`` measures the end-to-end metrics for ``seconds`` with
nothing traced.  ``trace=True`` spends ``seconds`` on the per-layer
numbers instead: half of it on an untraced window for the counts the
child serves on ``/metrics``, the rest on the in-process replay under
spans (``layers``); no end-to-end number comes from such a run.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import threading
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro import ExecutionOptions, connect
from repro.core.expr import evaluate
from repro.server.client import ServerClient
from repro.storage import load_database, open_database, replay_log
from repro.storage.wal import read_records
from repro.workloads.dispatch import (build_population, define_boss_methods,
                                      define_rich_subords_methods,
                                      switch_plan, union_plan)
from repro.workloads.university import build_university

from . import gen, layers, stats, wire
from .metrics import WORKLOADS, WRITE_TAIL
from .spans import SpanRecorder

#: The issue's 30 s window has 3 s of warm-up before it.
WARMUP_SHARE = 0.1

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Reads between two writes in ``wire_mixed_rw``'s replay sample —
#: about the ratio the timed run sees (~1 000 reads/s to 20 writes/s).
READS_PER_WRITE = 50

READ_TAIL = {w.name: w.read_tail for w in WORKLOADS}


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str,
        setups: int = SETUP_REPEATS) -> Dict[str, Any]:
    """One pass of one workload.  An untraced pass sets up *setups*
    times and reports the median; a traced pass sets up once."""
    os.makedirs(out_dir, exist_ok=True)
    cpu = pin_to_one_cpu()
    runner = run_embedded if name == "embedded_analytic" else run_wire
    result = runner(name, seed, seconds, trace, out_dir,
                    1 if trace else setups)
    result["correct"] = result["failed"] == 0
    result["info"].update(workload=name, seed=seed, seconds=seconds,
                          traced=trace, cpu=cpu)
    return result


def pin_to_one_cpu() -> int:
    """Confine this process, and the server child it will start, to the
    highest-numbered CPU it may use.  With one closed-loop connection
    every step of a request is sequential — generator, socket, event
    loop, reader thread, and back — so a second CPU adds no speed, only
    a wake-up of an idle virtual CPU at each hop: 0.53 ms or 1.0 ms for
    the same point lookup, depending on where the scheduler happened to
    put the two processes, which was the largest run-to-run difference
    the benchmark had."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _run_threads(targets: List[Callable[[], None]],
                 body: Callable[[], None], stop: threading.Event) -> None:
    """Run *targets* on threads around *body*; the first exception of
    any of them is re-raised here after all have ended."""
    errors: List[BaseException] = []

    def guarded(target: Callable[[], None]) -> Callable[[], None]:
        def call() -> None:
            try:
                target()
            except BaseException as exc:  # re-raised below
                errors.append(exc)
                stop.set()
        return call

    threads = [threading.Thread(target=guarded(t), daemon=True)
               for t in targets]
    for thread in threads:
        thread.start()
    try:
        body()
    finally:
        stop.set()
        for thread in threads:
            thread.join(60.0)
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a generator thread did not stop")


def _sleep_until(deadline: float, stop: threading.Event) -> None:
    stop.wait(max(0.0, deadline - perf_counter()))


def _cpu_ticks() -> Tuple[int, int]:
    """(stolen, all) jiffies of the machine so far.  Time the
    hypervisor gave to other guests is stolen from every number here;
    each run records the share stolen during its timed window."""
    with open("/proc/stat") as handle:
        fields = [int(field) for field in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def _tail_info(summary: Dict[str, float], pinned: int) -> Dict[str, Any]:
    """How well this run's sample count supports the pinned tail."""
    return {"read_samples": summary["count"],
            "read_tail_percentile": pinned,
            "read_beyond_tail": summary["beyond_tail"],
            "read_tail_by_rule": stats.pick_tail(summary["count"])}


def _steal_share(before: Tuple[int, int]) -> float:
    stolen, total = _cpu_ticks()
    return (stolen - before[0]) / max(1, total - before[1])


# ---------------------------------------------------------------------------
# Wire workloads
# ---------------------------------------------------------------------------

def _setup_wire(name: str, seed: int, tmp: str, log_path: str
                ) -> Tuple[Dict[str, List[gen.Op]], str, wire.ServerProcess]:
    """Generate, build, checkpoint, serve, first reply."""
    ops = gen.streams(name, seed)
    directory = tempfile.mkdtemp(prefix=name + "-", dir=tmp)
    wire.build_directory(directory, name)
    server = wire.ServerProcess(directory, log_path).start()
    try:
        probe = gen.Op("point", gen.POINT, 0)
        with ServerClient(server.port, timeout=30.0) as client:
            rows = client.execute(probe.q, params={"k": probe.k}).raw_rows
        if not gen.reply_ok(probe, rows):
            raise RuntimeError("first reply is wrong: %r" % (rows,))
    except BaseException:
        server.kill()
        raise
    return ops, directory, server


def run_wire(name: str, seed: int, seconds: float, trace: bool,
             out_dir: str, setups: int) -> Dict[str, Any]:
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=out_dir)
    log_path = os.path.join(out_dir, "server-%s.log" % name)
    open(log_path, "w").close()
    server = None
    try:
        setup_seconds = []
        for _ in range(setups):
            if server is not None:
                server.kill()
                shutil.rmtree(directory)
            started = perf_counter()
            ops, directory, server = _setup_wire(name, seed, tmp, log_path)
            setup_seconds.append(perf_counter() - started)
        return _measure_wire(name, seed, seconds, trace, out_dir, tmp, ops,
                             directory, server,
                             statistics.median(setup_seconds))
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(tmp, ignore_errors=True)


def _measure_wire(name: str, seed: int, seconds: float, trace: bool,
                  out_dir: str, tmp: str, ops: Dict[str, List[gen.Op]],
                  directory: str, server: wire.ServerProcess,
                  setup_s: float) -> Dict[str, Any]:
    window = seconds / 2 if trace else seconds
    info: Dict[str, Any] = {
        "inputs_sha256": gen.inputs_sha256(name, seed, ops),
        "window_s": window, "warmup_s": window * WARMUP_SHARE,
        "flush_policy": "fsync per group commit (server default)",
        "clients": ("1 closed-loop reader + 1 writer paced at %g/s"
                    % gen.WRITE_RATE if "writer" in ops
                    else "1 closed-loop connection")}
    layer: Dict[str, float] = {}
    if trace:
        layer["client.roundtrip_floor_us"] = wire.roundtrip_floor_us(
            server.port)

    tally = wire.Tally()
    stop = threading.Event()
    begin = perf_counter() + 0.05
    opens = begin + info["warmup_s"]
    closes = opens + window
    targets = [lambda stream=stream: wire.closed_loop(
                   server.port, stream, stop, tally)
               for client, stream in sorted(ops.items())
               if client != "writer"]
    if "writer" in ops:
        targets.append(lambda: wire.paced_writer(
            server.port, ops["writer"], gen.WRITE_RATE, begin, stop, tally))
    counts: Dict[str, Any] = {}

    def body() -> None:
        _sleep_until(opens, stop)
        ticks = _cpu_ticks()
        if trace:
            counts["before"] = server.scrape()
            counts["cpu"] = -server.cpu_seconds()
        _sleep_until(closes, stop)
        info["steal_share"] = _steal_share(ticks)
        if trace:
            counts["cpu"] += server.cpu_seconds()
            counts["after"] = server.scrape()

    _run_threads(targets, body, stop)
    rss = server.peak_rss_mb()
    server.kill()

    def inside(samples: List[tuple]) -> List[tuple]:
        return [s for s in samples if opens <= s[0] < closes]

    read_samples = inside(tally.reads)
    reads = stats.summarize(read_samples, opens, closes, READ_TAIL[name])
    info.update(_tail_info(reads, READ_TAIL[name]), errors=tally.errors)
    failed = tally.failed
    ops_done = reads["count"]
    if "writer" in ops:
        writes = stats.summarize(inside(tally.writes), opens, closes,
                                 WRITE_TAIL)
        ops_done += writes["count"]
        info.update(write_samples=writes["count"],
                    write_tail_percentile=WRITE_TAIL,
                    write_rate_per_s=writes["count"] / window,
                    acked_writes=len(tally.acked))
        layer.update({
            "write_p50_ms": writes["p50"], "write_tail_ms": writes["tail"],
            "gen.late_p99_ms": stats.percentile(
                [s[1] for s in inside(tally.late_ms)], 99)})
    if trace:
        layer["read_p99_ms"] = stats.percentile(
            [s[1] for s in read_samples], 99)
        layer.update(_count_metrics(counts, ops_done))
        layer.update(_timed_recovery(directory, "writer" in ops, info))
    if trace or "writer" in ops:
        # The user's way back in after a crash; the traced pass replays
        # against the database it returns.
        db = open_database(directory)
        try:
            if "writer" in ops:
                info["lost_writes"] = _lost_writes(db, tally.acked)
                failed += info["lost_writes"]
            if trace:
                point_p50 = stats.percentile(
                    [s[1] for s in read_samples if s[2] == "point"], 50)
                layer.update(_traced_wire(
                    db, name, _replay_sample(seconds, ops), out_dir, tmp,
                    point_p50, info))
        finally:
            db.txn.wal.close()
    if trace:
        metrics = layer
    else:
        metrics = {"throughput_ops_s": reads["rate"],
                   "read_p50_ms": reads["p50"],
                   "read_tail_ms": reads["tail"],
                   "peak_rss_mb": rss, "setup_s": setup_s}
    return {"attempted": tally.attempted, "failed": failed,
            "metrics": metrics, "info": info}


def _lost_writes(db: Any, acked: List[gen.Op]) -> int:
    """Acknowledged appends missing from the recovered database."""
    log = Counter(db.get("Log").elements())
    big = Counter(row["k"] for row in db.get("Big").elements())
    lost = 0
    for op in acked:
        have = log if op.kind == "log" else big
        if have[op.k] > 0:
            have[op.k] -= 1
        else:
            lost += 1
    return lost


def _count_metrics(counts: Dict[str, Any], ops_done: int
                   ) -> Dict[str, float]:
    """Per-layer counts of the timed window, from the child's
    ``/metrics`` before and after it."""
    before, after = counts["before"], counts["after"]

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    hits = delta("repro_server_plan_cache_hits")
    misses = delta("repro_server_plan_cache_misses")
    batches = delta("repro_server_group_commit_batch_count")
    return {
        "server.plan_cache_hit_ratio": hits / max(1.0, hits + misses),
        "server.cpu_s_per_kop": counts["cpu"] / (ops_done / 1000.0),
        "server.group_commit_mean_batch":
            delta("repro_server_group_commit_batch_sum") / max(1.0, batches),
        "server.admission_rejects":
            delta("repro_server_admission_rejects_total"),
        "server.timeouts": delta("repro_server_query_timeouts_total"),
        "indexes.builds": delta("repro_index_builds_total"),
        "wal.fsyncs_per_commit":
            delta("repro_wal_fsyncs_total")
            / max(1.0, delta("repro_txn_commits_total")),
    }


def _replay_sample(seconds: float,
                   ops: Dict[str, List[gen.Op]]) -> List[gen.Op]:
    """The first requests of the op stream (360 at 18 s); on
    ``wire_mixed_rw`` a writer op follows every 50 reads."""
    reads = next(stream for client, stream in sorted(ops.items())
                 if client != "writer")[:max(20, int(20 * seconds))]
    if "writer" not in ops:
        return reads
    sample: List[gen.Op] = []
    writes = iter(ops["writer"])
    for i, op in enumerate(reads, 1):
        sample.append(op)
        if i % READS_PER_WRITE == 0:
            sample.append(next(writes))
    return sample


def _timed_recovery(directory: str, has_log: bool,
                    info: Dict[str, Any]) -> Dict[str, float]:
    """What ``open_database`` does after the kill, split into snapshot
    load and log replay (on a database that is then dropped)."""
    started = perf_counter()
    loaded = load_database(os.path.join(directory, "snapshot.json"))
    out = {"persist.load_ms": (perf_counter() - started) * 1e3}
    if has_log:
        records = read_records(os.path.join(directory, "wal.log"))
        commits = sum(1 for r in records if r.get("op") == "commit")
        started = perf_counter()
        replay_log(loaded, records)
        out["txn.replay_ms_per_kcommit"] = (
            (perf_counter() - started) * 1e3 / commits * 1000.0)
        info["replayed_commits"] = commits
    return out


def _traced_wire(db: Any, name: str, sample: List[gen.Op], out_dir: str,
                 tmp: str, wire_point_p50_ms: float,
                 info: Dict[str, Any]) -> Dict[str, float]:
    """The in-process half of a traced run, on the database recovered
    from the directory the killed server left behind."""
    rec = SpanRecorder()
    replay = layers.replay_wire(db, sample, rec)
    bare = layers.replay_wire(db, sample, SpanRecorder(enabled=False))
    out = replay.common_metrics()
    out["obs.trace_overhead_ratio"] = (
        statistics.median(replay.op_seconds)
        / statistics.median(bare.op_seconds))
    in_process_point_us = layers.median_us(
        [s.duration for s in rec.spans if s.name == "request.point"
         and isinstance(s.request_id, int)])
    out["server.unattributed_us"] = (wire_point_p50_ms * 1e3
                                     - in_process_point_us)
    info.update(in_process_point_us=in_process_point_us,
                wire_point_p50_ms=wire_point_p50_ms,
                prepare_share_of_request=layers.prepare_share(rec),
                replayed_requests=len(sample))
    out.update(layers.index_probes(db, sample))
    out.update(layers.write_probes(db, tmp))
    started = perf_counter()
    db.txn.checkpoint()
    out["persist.checkpoint_ms"] = (perf_counter() - started) * 1e3
    rec.dump(os.path.join(out_dir, "trace-%s.json" % name),
             workload=name, inputs_sha256=info["inputs_sha256"])
    return out


# ---------------------------------------------------------------------------
# embedded_analytic
# ---------------------------------------------------------------------------

def _setup_embedded(seed: int) -> Tuple[Any, Any]:
    uni = build_university(seed=seed, **gen.UNIVERSITY)
    build_population(uni)
    define_boss_methods(uni)
    define_rich_subords_methods(uni)
    return uni, connect(uni.db)


def _round(conn: Any, cardinalities: Dict[str, int]) -> Tuple[float, int]:
    """One round through ``Connection.execute``: its milliseconds, and
    how many statements came back with the wrong cardinality."""
    values = []
    started = perf_counter()
    for _, text in gen.ANALYTIC:
        values.append(conn.execute(text).value)
    elapsed = (perf_counter() - started) * 1e3
    wrong = sum(1 for (name, _), value in zip(gen.ANALYTIC, values)
                if len(value) != cardinalities[name])
    return elapsed, wrong


def run_embedded(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: str, setups: int) -> Dict[str, Any]:
    setup_seconds = []
    for _ in range(setups):
        uni = conn = None       # one university in memory at a time
        started = perf_counter()
        uni, conn = _setup_embedded(seed)
        setup_seconds.append(perf_counter() - started)
    info: Dict[str, Any] = {"inputs_sha256": gen.inputs_sha256(name, seed),
                            "clients": "1 thread, in-process",
                            "window_s": seconds,
                            "warmup_s": seconds * WARMUP_SHARE}

    # Once per run every statement must equal the interpreter's answer.
    oracle = ExecutionOptions(engine="interpreted")
    cardinalities: Dict[str, int] = {}
    mismatches = []
    for label, text in gen.ANALYTIC:
        expected = conn.execute(text, options=oracle).value
        if conn.execute(text).value != expected:
            mismatches.append(label)
        cardinalities[label] = len(expected)
    info["oracle_mismatches"] = mismatches
    info["cardinalities"] = cardinalities

    attempted, failed = len(gen.ANALYTIC), len(mismatches)
    if trace:
        metrics = _traced_embedded(uni, conn, seconds, out_dir, info)
        return {"attempted": attempted, "failed": failed,
                "metrics": metrics, "info": info}

    begin = perf_counter()
    opens = begin + seconds * WARMUP_SHARE
    closes = opens + seconds
    samples: List[Tuple[float, float]] = []
    ticks = None
    while True:
        elapsed, wrong = _round(conn, cardinalities)
        now = perf_counter()
        if now >= closes:
            break
        if now >= opens:
            ticks = ticks or _cpu_ticks()
            samples.append((now, elapsed))
            attempted += len(gen.ANALYTIC)
            failed += wrong
    info["steal_share"] = _steal_share(ticks)
    rounds = stats.summarize(samples, opens, closes, READ_TAIL[name])
    info.update(_tail_info(rounds, READ_TAIL[name]))
    metrics = {"throughput_ops_s": rounds["rate"],
               "read_p50_ms": rounds["p50"], "read_tail_ms": rounds["tail"],
               "peak_rss_mb": wire.peak_rss_mb(os.getpid()),
               "setup_s": statistics.median(setup_seconds)}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "info": info}


def _traced_embedded(uni: Any, conn: Any, seconds: float, out_dir: str,
                     info: Dict[str, Any]) -> Dict[str, float]:
    rounds = max(1, int(seconds / 3))       # 6 at 18 s
    out: Dict[str, float] = {}
    rec = SpanRecorder()

    # Statement by statement through the public call, spans outside.
    for i in range(rounds):
        rec.request_id = "execute-%d" % i
        for label, text in gen.ANALYTIC:
            with rec.span("query." + label):
                conn.execute(text)
    selfs = rec.self_times()
    for label, _ in gen.ANALYTIC:
        out["query.%s.p50_ms" % label] = layers.median_ms(
            selfs["query." + label])
    untraced_round = sum(out.values())

    # The program's own tracing: the same round with trace=True.
    traced = ExecutionOptions(trace=True)
    traced_rounds = []
    for _ in range(max(1, rounds // 2)):
        started = perf_counter()
        for _, text in gen.ANALYTIC:
            conn.execute(text, options=traced)
        traced_rounds.append((perf_counter() - started) * 1e3)
    out["obs.trace_overhead_ratio"] = (statistics.median(traced_rounds)
                                       / untraced_round)

    # The paper's section-4 pair on the default engine.
    ctx = conn.session.context
    model = conn.session.optimizer.cost_model
    for label, plan in (("switch", switch_plan("boss")),
                        ("union", union_plan(uni, "boss"))):
        def once(_: int, plan: Any = plan) -> None:
            ctx.begin_query()
            evaluate(plan, ctx, mode="compiled", cost_model=model)
        out["engine.fig5_%s.exec_ms" % label] = layers.median_ms(
            layers.timed(once, range(rounds)))

    replay = layers.replay_rounds(conn, rounds, rec)
    out.update(replay.common_metrics())
    info["engine_share_of_round"] = layers.engine_share(rec)
    info["replayed_rounds"] = rounds
    info["replayed_round_ms"] = layers.median_ms(replay.op_seconds)
    info["untraced_round_ms"] = untraced_round
    rec.dump(os.path.join(out_dir, "trace-embedded_analytic.json"),
             workload="embedded_analytic",
             inputs_sha256=info["inputs_sha256"])
    return out
