"""The benchmark's vocabulary: workloads, end-to-end metrics, per-layer
metrics.  ``BENCHMARK.json`` states the same names for the driver
(``bench/tests`` keeps the two in step); ``bench/README.md`` is the
glossary for people.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from .gen import ANALYTIC


class Workload(NamedTuple):
    name: str
    why: str
    #: Pinned tail percentile of reads (rounds, on embedded_analytic):
    #: fixed, so the metric means the same thing on every run, and the
    #: highest of p75/p90/p95/p99 that repeats from run to run with
    #: >= 10 samples beyond it in every one-second slice.  It names a
    #: regime: p90 on wire_hot is the median range query, p95 on
    #: wire_mixed_rw the middle of the re-prepares a commit causes
    #: (p87-p97).  p99 is scheduler and collector jitter (on
    #: wire_mixed_rw, index rebuilds), reported as per-layer
    #: ``read_p99_ms``.
    read_tail: int


WORKLOADS: Tuple[Workload, ...] = (
    Workload("wire_hot",
             "16 scripts fit the 64-entry plan cache, so socket, protocol "
             "and thread hop dominate; front-end work must show no change",
             90),
    Workload("wire_cold",
             "uniform keys make nearly every request a plan-cache miss, so "
             "parse, translate, optimize and compile dominate",
             90),
    Workload("wire_mixed_rw",
             "a paced writer bumps the index epoch 20 times a second, so "
             "read-side caches that cost the write path show; ends in "
             "SIGKILL and a durability check",
             95),
    Workload("embedded_analytic",
             "in-process rounds of seven paper queries over 17 500 people; "
             "no socket, no WAL, so core.engine execution dominates",
             75),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)

#: Pinned tail percentile of the ~20/s paced appends (p90 keeps >= 10
#: of a 9 s traced-run window's ~180 samples beyond it).
WRITE_TAIL = 90


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: Where the metric is measured: "all" workloads, the "wire" ones,
    #: "mixed" or "embedded" only.  The driver sees the "all" metrics;
    #: the report prints every metric its workload measures.
    scope: str


END_TO_END: Tuple[Metric, ...] = (
    Metric("throughput_ops_s", "1/s", "higher", 0.20),
    Metric("read_p50_ms", "ms", "lower", 0.20),
    Metric("read_tail_ms", "ms", "lower", 0.20),
    Metric("peak_rss_mb", "MiB", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
)

PER_LAYER: Tuple[Layer, ...] = (
    Layer("lang.tokenize_us", "us", "lower", "all"),
    Layer("excess.parse_us", "us", "lower", "all"),
    Layer("excess.translate_us", "us", "lower", "all"),
    Layer("optimizer.optimize_us", "us", "lower", "all"),
    Layer("optimizer.rules_fired", "count", "lower", "all"),
    Layer("engine.compile_us", "us", "lower", "all"),
    Layer("engine.batch_compile_us", "us", "lower", "all"),
    Layer("engine.compiled.exec_ms", "ms", "lower", "all"),
    Layer("engine.batched.exec_ms", "ms", "lower", "all"),
    Layer("engine.interpreted.exec_ms", "ms", "lower", "all"),
    Layer("engine.rows_examined_per_result", "ratio", "lower", "all"),
    Layer("engine.deref_cache_hit_ratio", "ratio", "higher", "all"),
    Layer("protocol.decode_us", "us", "lower", "all"),
    Layer("protocol.classify_us", "us", "lower", "all"),
    Layer("protocol.bind_us", "us", "lower", "all"),
    Layer("protocol.encode_us_per_row", "us", "lower", "all"),
    Layer("txn.snapshot_us", "us", "lower", "all"),
    Layer("obs.trace_overhead_ratio", "ratio", "lower", "all"),
    Layer("indexes.point_probe_us", "us", "lower", "wire"),
    Layer("indexes.range_probe_us", "us", "lower", "wire"),
    Layer("indexes.build_ms", "ms", "lower", "wire"),
    Layer("indexes.builds", "count", "lower", "wire"),
    Layer("txn.commit_nosync_us", "us", "lower", "wire"),
    Layer("txn.append_big_ms", "ms", "lower", "wire"),
    Layer("wal.fsync_us", "us", "lower", "wire"),
    Layer("wal.bytes_per_commit", "bytes", "lower", "wire"),
    Layer("wal.fsyncs_per_commit", "ratio", "lower", "wire"),
    Layer("persist.checkpoint_ms", "ms", "lower", "wire"),
    Layer("persist.load_ms", "ms", "lower", "wire"),
    Layer("client.roundtrip_floor_us", "us", "lower", "wire"),
    Layer("server.unattributed_us", "us", "lower", "wire"),
    Layer("server.cpu_s_per_kop", "s", "lower", "wire"),
    Layer("server.plan_cache_hit_ratio", "ratio", "higher", "wire"),
    Layer("server.group_commit_mean_batch", "count", "higher", "wire"),
    Layer("server.admission_rejects", "count", "lower", "wire"),
    Layer("server.timeouts", "count", "lower", "wire"),
    Layer("read_p99_ms", "ms", "lower", "wire"),
    Layer("write_p50_ms", "ms", "lower", "mixed"),
    Layer("write_tail_ms", "ms", "lower", "mixed"),
    Layer("txn.replay_ms_per_kcommit", "ms", "lower", "mixed"),
    Layer("gen.late_p99_ms", "ms", "lower", "mixed"),
    Layer("engine.fig5_switch.exec_ms", "ms", "lower", "embedded"),
    Layer("engine.fig5_union.exec_ms", "ms", "lower", "embedded"),
) + tuple(Layer("query.%s.p50_ms" % name, "ms", "lower", "embedded")
          for name, _ in ANALYTIC)

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}

_SCOPES = {
    "wire_hot": ("all", "wire"),
    "wire_cold": ("all", "wire"),
    "wire_mixed_rw": ("all", "wire", "mixed"),
    "embedded_analytic": ("all", "embedded"),
}


def per_layer_names(workload: str, driver: bool) -> Tuple[str, ...]:
    """Per-layer metrics *workload* reports: those every workload can
    measure when *driver* (the ``BENCHMARK.json`` list), else all the
    workload measures."""
    scopes = ("all",) if driver else _SCOPES[workload]
    return tuple(m.name for m in PER_LAYER if m.scope in scopes)
