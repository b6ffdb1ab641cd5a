"""The process-wide metrics registry: counters, gauges, histograms.

Instruments follow the Prometheus data model with a deliberately tiny
surface: a metric family has a name, a help string, a kind, and a map
from label sets to values.  Exports come in two shapes —
:meth:`MetricsRegistry.to_json` for programmatic consumption and
:meth:`MetricsRegistry.to_prometheus` in the Prometheus text
exposition format (``repro.cli metrics`` and the shell's ``.metrics``
print the latter).  :func:`parse_prometheus` parses that text back
into sample values, so the export round-trips (asserted by
``tests/obs/test_metrics.py``).

The module-level :data:`REGISTRY` is the process-wide default; the
standard instruments used across the engines, the transaction manager,
and the WAL live at the bottom of this module so every subsystem
shares one set of names.
"""

from __future__ import annotations

import re
import threading
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
    "parse_prometheus",
]

#: A label set, normalized to a sorted tuple of (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: One exported sample: (metric name, label pairs, value).
Sample = Tuple[str, LabelKey, float]


def _labelkey(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _fmt_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _fmt_labels(labels: LabelKey) -> str:
    if not labels:
        return ""
    body = ",".join('%s="%s"' % (k, v.replace("\\", "\\\\")
                                 .replace('"', '\\"').replace("\n", "\\n"))
                    for k, v in labels)
    return "{%s}" % body


class Metric:
    """Base class: one metric family (name + help + per-labelset state)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str):
        if not _NAME_RE.match(name):
            raise ValueError("invalid metric name %r" % name)
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()

    def samples(self) -> List[Sample]:
        raise NotImplementedError

    def to_json(self) -> Dict[str, Any]:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help_text: str):
        super().__init__(name, help_text)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _labelkey(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_labelkey(labels), 0.0)

    def samples(self) -> List[Sample]:
        with self._lock:
            return [(self.name, key, value)
                    for key, value in sorted(self._values.items())]

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "help": self.help,
                "values": [{"labels": dict(k), "value": v}
                           for k, v in sorted(self._values.items())]}


class Gauge(Metric):
    """A value that goes up and down; optionally provider-backed
    (the callable is sampled at export time)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str):
        super().__init__(name, help_text)
        self._values: Dict[LabelKey, float] = {}
        self._providers: Dict[LabelKey, Callable[[], float]] = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_labelkey(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _labelkey(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def set_provider(self, fn: Callable[[], float], **labels: str) -> None:
        """Back this gauge by a callable, evaluated at export time
        (e.g. "age of the oldest live snapshot view")."""
        with self._lock:
            self._providers[_labelkey(labels)] = fn

    def value(self, **labels: str) -> float:
        key = _labelkey(labels)
        provider = self._providers.get(key)
        if provider is not None:
            try:
                return float(provider())
            except Exception:
                return 0.0
        return self._values.get(key, 0.0)

    def samples(self) -> List[Sample]:
        with self._lock:
            keys = sorted(set(self._values) | set(self._providers))
        return [(self.name, key,
                 self.value(**dict(key))) for key in keys]

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "help": self.help,
                "values": [{"labels": dict(k), "value": v}
                           for _, k, v in self.samples()]}


class _HistogramState:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets
        self.total = 0.0
        self.count = 0


class Histogram(Metric):
    """Fixed-bucket cumulative histogram (Prometheus ``le`` semantics)."""

    kind = "histogram"

    #: Default latency-ish buckets, in seconds.
    DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                       0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

    def __init__(self, name: str, help_text: str,
                 buckets: Optional[Iterable[float]] = None):
        super().__init__(name, help_text)
        bounds = sorted(set(float(b) for b in (buckets or
                                               self.DEFAULT_BUCKETS)))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._states: Dict[LabelKey, _HistogramState] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _labelkey(labels)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _HistogramState(len(self.bounds))
            index = bisect_left(self.bounds, value)
            if index < len(state.bucket_counts):
                state.bucket_counts[index] += 1
            state.total += value
            state.count += 1

    def count(self, **labels: str) -> int:
        state = self._states.get(_labelkey(labels))
        return state.count if state is not None else 0

    def sum(self, **labels: str) -> float:
        state = self._states.get(_labelkey(labels))
        return state.total if state is not None else 0.0

    def samples(self) -> List[Sample]:
        out: List[Sample] = []
        with self._lock:
            for key, state in sorted(self._states.items()):
                cumulative = 0
                for bound, in_bucket in zip(self.bounds,
                                            state.bucket_counts):
                    cumulative += in_bucket
                    le = _fmt_value(bound)
                    out.append((self.name + "_bucket",
                                key + (("le", le),), float(cumulative)))
                out.append((self.name + "_bucket",
                            key + (("le", "+Inf"),), float(state.count)))
                out.append((self.name + "_sum", key, state.total))
                out.append((self.name + "_count", key, float(state.count)))
        return out

    def to_json(self) -> Dict[str, Any]:
        values = []
        for key, state in sorted(self._states.items()):
            values.append({
                "labels": dict(key),
                "count": state.count,
                "sum": state.total,
                "buckets": {_fmt_value(b): c for b, c in
                            zip(self.bounds, state.bucket_counts)},
            })
        return {"kind": self.kind, "help": self.help,
                "buckets": [_fmt_value(b) for b in self.bounds],
                "values": values}


class MetricsRegistry:
    """A named set of metric families with idempotent constructors —
    asking twice for the same name returns the same instrument (and
    raises if the kinds disagree)."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _intern(self, cls: type, name: str, help_text: str,
                **kwargs: Any) -> Metric:
        with self._lock:
            found = self._metrics.get(name)
            if found is not None:
                if not isinstance(found, cls):
                    raise ValueError(
                        "metric %r already registered as %s"
                        % (name, found.kind))
                return found
            metric = cls(name, help_text, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        metric = self._intern(Counter, name, help_text)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        metric = self._intern(Gauge, name, help_text)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, help_text: str = "",
                  buckets: Optional[Iterable[float]] = None) -> Histogram:
        metric = self._intern(Histogram, name, help_text, buckets=buckets)
        assert isinstance(metric, Histogram)
        return metric

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def reset(self) -> None:
        """Forget every instrument (tests only — live code holds
        references to instruments, which keep working but detached)."""
        with self._lock:
            self._metrics.clear()

    # -- exports -------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {name: metric.to_json()
                for name, metric in sorted(self._metrics.items())}

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append("# HELP %s %s"
                             % (name, metric.help.replace("\n", " ")))
            lines.append("# TYPE %s %s" % (name, metric.kind))
            for sample_name, labels, value in metric.samples():
                lines.append("%s%s %s" % (sample_name, _fmt_labels(labels),
                                          _fmt_value(value)))
        return "\n".join(lines) + ("\n" if lines else "")


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> Dict[Tuple[str, LabelKey], float]:
    """Parse Prometheus exposition text into ``{(name, labels): value}``.

    Strict enough to validate our own exporter round-trip; not a full
    OpenMetrics parser.  Raises ``ValueError`` on a malformed sample.
    """
    out: Dict[Tuple[str, LabelKey], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError("malformed sample line %r" % raw)
        labels_src = match.group("labels") or ""
        labels: List[Tuple[str, str]] = []
        consumed = 0
        for lm in _LABEL_RE.finditer(labels_src):
            labels.append((lm.group(1),
                           lm.group(2).replace('\\"', '"')
                           .replace("\\n", "\n").replace("\\\\", "\\")))
            consumed = lm.end()
        leftover = labels_src[consumed:].strip().strip(",")
        if leftover:
            raise ValueError("malformed labels in %r" % raw)
        value_src = match.group("value")
        if value_src == "+Inf":
            value = float("inf")
        elif value_src == "-Inf":
            value = float("-inf")
        else:
            value = float(value_src)
        out[(match.group("name"), tuple(sorted(labels)))] = value
    return out


# ---------------------------------------------------------------------------
# The process-wide registry and the standard instruments
# ---------------------------------------------------------------------------

#: Default registry used by every built-in subsystem.
REGISTRY = MetricsRegistry()

QUERY_SECONDS = REGISTRY.histogram(
    "repro_query_seconds",
    "End-to-end Connection.execute latency (parse+optimize+run).")
QUERIES_TOTAL = REGISTRY.counter(
    "repro_queries_total", "Statements executed through Connection.execute.")
QUERY_ERRORS_TOTAL = REGISTRY.counter(
    "repro_query_errors_total",
    "Connection.execute calls that raised.")
SLOW_QUERIES_TOTAL = REGISTRY.counter(
    "repro_slow_queries_total",
    "Statements slower than the slow-query threshold.")
TXN_COMMITS_TOTAL = REGISTRY.counter(
    "repro_txn_commits_total", "Committed transactions.")
TXN_ABORTS_TOTAL = REGISTRY.counter(
    "repro_txn_aborts_total", "Aborted (rolled back) transactions.")
WAL_FSYNCS_TOTAL = REGISTRY.counter(
    "repro_wal_fsyncs_total", "fsync calls issued by the write-ahead log.")
WAL_APPENDED_BYTES_TOTAL = REGISTRY.counter(
    "repro_wal_appended_bytes_total", "Bytes appended to the WAL.")
WAL_BATCH_RECORDS = REGISTRY.histogram(
    "repro_wal_batch_records",
    "Records per group-commit batch.",
    buckets=(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144))
SNAPSHOTS_TOTAL = REGISTRY.counter(
    "repro_snapshots_total", "Snapshot read views created.")
SNAPSHOT_VIEWS_LIVE = REGISTRY.gauge(
    "repro_snapshot_views_live", "Live (not yet collected) snapshot views.")
SNAPSHOT_OLDEST_AGE_SECONDS = REGISTRY.gauge(
    "repro_snapshot_oldest_age_seconds",
    "Age of the oldest live snapshot view.")
DEREF_CACHE_HITS_TOTAL = REGISTRY.counter(
    "repro_deref_cache_hits_total", "Deref-cache hits (compiled engine).")
DEREF_CACHE_MISSES_TOTAL = REGISTRY.counter(
    "repro_deref_cache_misses_total",
    "Deref-cache misses (compiled engine).")
REWRITE_FIRES_TOTAL = REGISTRY.counter(
    "repro_rewrite_fires_total",
    "Transformation-rule firings during optimization, by rule.")
REWRITE_SECONDS_TOTAL = REGISTRY.counter(
    "repro_rewrite_seconds_total",
    "Time spent inside rule matchers during optimization, by rule.")
INDEX_BUILDS_TOTAL = REGISTRY.counter(
    "repro_index_builds_total",
    "Index (re)builds by the catalog, by kind.")
INDEX_PROBES_TOTAL = REGISTRY.counter(
    "repro_index_probes_total",
    "Index probes served to the execution engines, by kind.")
INDEX_DROPS_TOTAL = REGISTRY.counter(
    "repro_index_drops_total", "Index definitions dropped, by kind.")
SANITIZER_CHECKS_TOTAL = REGISTRY.counter(
    "repro_sanitizer_checks_total",
    "Static facts asserted at runtime under sanitizer mode.")
SANITIZER_VIOLATIONS_TOTAL = REGISTRY.counter(
    "repro_sanitizer_violations_total",
    "Sanitizer assertions that failed (analyzer bugs).")
CONNECTION_PLAN_CACHE_HITS = REGISTRY.counter(
    "repro_connection_plan_cache_hits",
    "Session plan-cache hits (per-session caches of local connections, "
    "keyed by script text, execution options, and Database.version).")
CONNECTION_PLAN_CACHE_MISSES = REGISTRY.counter(
    "repro_connection_plan_cache_misses",
    "Session plan-cache misses (every optimized, untraced script that "
    "had to be prepared, writes included).")

# -- network server (repro.server) ------------------------------------------

SERVER_CONNECTIONS_ACTIVE = REGISTRY.gauge(
    "repro_server_connections_active",
    "Client connections currently open on the network server.")
SERVER_CONNECTIONS_TOTAL = REGISTRY.counter(
    "repro_server_connections_total",
    "Client connections accepted since server start.")
SERVER_REQUESTS_TOTAL = REGISTRY.counter(
    "repro_server_requests_total",
    "Requests processed by the network server, by kind (read/write/txn).")
SERVER_QUERIES_QUEUED = REGISTRY.gauge(
    "repro_server_queries_queued",
    "Queries waiting for admission (write queue + reader backlog).")
SERVER_INFLIGHT_QUERIES = REGISTRY.gauge(
    "repro_server_inflight_queries",
    "Queries currently executing on the server.")
SERVER_TIMEOUTS_TOTAL = REGISTRY.counter(
    "repro_server_query_timeouts_total",
    "Queries that exceeded their per-query timeout.")
SERVER_ADMISSION_REJECTS_TOTAL = REGISTRY.counter(
    "repro_server_admission_rejects_total",
    "Requests rejected by admission control (queue depth exceeded).")
SERVER_GROUP_COMMIT_BATCH = REGISTRY.histogram(
    "repro_server_group_commit_batch",
    "Write statements batched per cross-connection group-commit fsync.",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128))
SERVER_ERRORS_TOTAL = REGISTRY.counter(
    "repro_server_errors_total",
    "Error responses sent to clients, by code.")
SERVER_PLAN_CACHE_HITS = REGISTRY.counter(
    "repro_server_plan_cache_hits",
    "Reader-path compiled-plan cache hits (per-connection caches, "
    "keyed by script text, index epoch, and execution options).")
SERVER_PLAN_CACHE_MISSES = REGISTRY.counter(
    "repro_server_plan_cache_misses",
    "Reader-path compiled-plan cache misses (each one is a full "
    "parse + optimize + compile against the snapshot).")
INDEX_EPOCH = REGISTRY.gauge(
    "repro_index_epoch",
    "Current index epoch: the committed-transaction version of the "
    "most advanced live transaction manager (every commit, including "
    "index DDL, advances it).")


def now() -> float:
    """Wall-clock seconds (indirection point for tests)."""
    return time.time()
