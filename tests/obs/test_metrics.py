"""Metrics registry semantics and the Prometheus export round-trip."""

import json

import pytest

from repro.obs.metrics import (REGISTRY, Counter, Gauge, Histogram,
                               MetricsRegistry, parse_prometheus)


def build_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    queries = reg.counter("queries_total", "Statements executed.")
    queries.inc()
    queries.inc(2, engine="compiled")
    queries.inc(1, engine="interpreted")
    depth = reg.gauge("queue_depth", "Work queue depth.")
    depth.set(4)
    depth.inc()
    depth.dec(2)
    lat = reg.histogram("latency_seconds", "Latency.",
                        buckets=[0.01, 0.1, 1.0])
    for value in (0.005, 0.05, 0.05, 0.5, 5.0):
        lat.observe(value)
    lat.observe(0.02, engine="compiled")
    return reg


# -- instrument semantics --------------------------------------------------

def test_counter_labels_are_independent():
    reg = build_registry()
    queries = reg.counter("queries_total")
    assert queries.value() == 1
    assert queries.value(engine="compiled") == 2
    assert queries.value(engine="interpreted") == 1
    with pytest.raises(ValueError):
        queries.inc(-1)


def test_gauge_set_inc_dec_and_provider():
    reg = build_registry()
    depth = reg.gauge("queue_depth")
    assert depth.value() == 3
    live = {"n": 7}
    depth.set_provider(lambda: float(live["n"]), pool="a")
    assert depth.value(pool="a") == 7
    live["n"] = 9
    assert depth.value(pool="a") == 9  # sampled at read time


def test_histogram_buckets_are_cumulative():
    reg = build_registry()
    lat = reg.histogram("latency_seconds")
    assert lat.count() == 5
    assert lat.sum() == pytest.approx(5.605)
    samples = dict(((name, labels), value)
                   for name, labels, value in lat.samples())
    assert samples[("latency_seconds_bucket", (("le", "0.01"),))] == 1
    assert samples[("latency_seconds_bucket", (("le", "0.1"),))] == 3
    assert samples[("latency_seconds_bucket", (("le", "1"),))] == 4
    assert samples[("latency_seconds_bucket", (("le", "+Inf"),))] == 5


def test_registry_interning_is_idempotent_and_kind_checked():
    reg = MetricsRegistry()
    a = reg.counter("hits_total")
    b = reg.counter("hits_total")
    assert a is b
    with pytest.raises(ValueError):
        reg.gauge("hits_total")


# -- exports ---------------------------------------------------------------

def test_json_export_is_json_serializable():
    reg = build_registry()
    payload = json.loads(json.dumps(reg.to_json()))
    assert payload["queries_total"]["kind"] == "counter"
    assert payload["latency_seconds"]["kind"] == "histogram"
    assert set(payload) == {"queries_total", "queue_depth",
                            "latency_seconds"}


def test_prometheus_round_trip():
    """to_prometheus → parse_prometheus reproduces every sample."""
    reg = build_registry()
    text = reg.to_prometheus()
    assert "# TYPE queries_total counter" in text
    assert "# TYPE latency_seconds histogram" in text
    parsed = parse_prometheus(text)
    for metric in (reg.counter("queries_total"), reg.gauge("queue_depth"),
                   reg.histogram("latency_seconds")):
        for name, labels, value in metric.samples():
            assert parsed[(name, labels)] == pytest.approx(value), name
    # And nothing extra was invented by the exporter.
    n_samples = sum(len(m.samples()) for m in
                    (reg.counter("queries_total"), reg.gauge("queue_depth"),
                     reg.histogram("latency_seconds")))
    assert len(parsed) == n_samples


def test_parse_prometheus_rejects_garbage():
    with pytest.raises(ValueError):
        parse_prometheus("not a metric line at all!")


def test_global_registry_round_trips_after_real_queries():
    """The process-wide registry (with live query/WAL/txn series)
    survives its own export format."""
    from repro import connect

    conn = connect()
    conn.execute("create Nums: { int4 }")
    conn.execute("append to Nums value (7)")
    text = REGISTRY.to_prometheus()
    parsed = parse_prometheus(text)
    assert parsed, "global registry exported no samples"
    expected = {(name, labels): value
                for metric_name in REGISTRY.names()
                for name, labels, value in REGISTRY.get(metric_name).samples()}
    for key, value in expected.items():
        # Gauges with providers may move between export and re-read;
        # compare only stable series exactly.  (repro_index_epoch reads
        # a WeakSet of managers, which GC can shrink between samples.)
        if key[0].startswith(("repro_snapshot_oldest",
                              "repro_index_epoch")):
            continue
        assert parsed[key] == pytest.approx(value), key


def test_plan_cache_and_epoch_metrics_round_trip():
    """The plan-cache instruments of server readers and of local
    sessions survive the export format, and the epoch gauge tracks a
    live manager's committed version."""
    from repro.core.values import MultiSet
    from repro.obs.metrics import (CONNECTION_PLAN_CACHE_HITS,
                                   CONNECTION_PLAN_CACHE_MISSES,
                                   INDEX_EPOCH, SERVER_PLAN_CACHE_HITS,
                                   SERVER_PLAN_CACHE_MISSES)
    from repro.storage import Database

    db = Database()
    manager = db.transactions()
    db.create("M", MultiSet([1, 2, 3]))  # one commit → epoch advances
    assert manager.index_epoch == manager.version >= 1
    assert INDEX_EPOCH.value() >= manager.version
    counters = (SERVER_PLAN_CACHE_HITS, SERVER_PLAN_CACHE_MISSES,
                CONNECTION_PLAN_CACHE_HITS, CONNECTION_PLAN_CACHE_MISSES)
    for counter in counters:
        counter.inc()
    parsed = parse_prometheus(REGISTRY.to_prometheus())
    for counter in counters:
        assert parsed[(counter.name, ())] == pytest.approx(counter.value())
    assert parsed[("repro_index_epoch", ())] >= manager.version
