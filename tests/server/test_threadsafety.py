"""Concurrency regressions for the shared-state audit: metrics,
OID allocation, and store version bumps must be exact under threads.

These are the pieces the server hammers from the event loop, the
reader pool, and the writer thread simultaneously; a lost update in
any of them shows up as corrupted counters, duplicate OIDs, or stale
deref caches.
"""

import threading

from repro.core.hierarchy import TypeHierarchy
from repro.core.oid import OIDGenerator
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.storage.store import ObjectStore

THREADS = 8
ROUNDS = 2000


def _hammer(worker):
    """Run *worker(thread_index)* on THREADS threads, rethrowing."""
    errors = []

    def wrapped(index):
        try:
            worker(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,))
               for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def test_counter_increments_are_exact():
    counter = Counter("ts_counter", "test")
    _hammer(lambda i: [counter.inc() for _ in range(ROUNDS)])
    assert counter.value() == THREADS * ROUNDS


def test_labelled_counter_increments_are_exact():
    counter = Counter("ts_counter_labels", "test")
    _hammer(lambda i: [counter.inc(kind="k%d" % (i % 2))
                       for _ in range(ROUNDS)])
    total = counter.value(kind="k0") + counter.value(kind="k1")
    assert total == THREADS * ROUNDS


def test_gauge_inc_dec_balances_to_zero():
    gauge = Gauge("ts_gauge", "test")

    def worker(i):
        for _ in range(ROUNDS):
            gauge.inc()
            gauge.dec()

    _hammer(worker)
    assert gauge.value() == 0


def test_histogram_count_and_sum_are_exact():
    hist = Histogram("ts_hist", "test", buckets=(1, 10, 100))
    _hammer(lambda i: [hist.observe(1.0) for _ in range(ROUNDS)])
    state = hist.to_json()["values"][0]
    assert state["count"] == THREADS * ROUNDS
    assert state["sum"] == float(THREADS * ROUNDS)


def test_oid_generator_never_duplicates():
    hierarchy = TypeHierarchy()
    for name in ("A", "B"):
        hierarchy.add_type(name)
    gen = OIDGenerator(hierarchy)
    allocated = [[] for _ in range(THREADS)]

    def worker(i):
        mine = allocated[i]
        for _ in range(ROUNDS):
            mine.append(gen.new_ref("A" if i % 2 else "B").oid)

    _hammer(worker)
    oids = [oid for per in allocated for oid in per]
    assert len(set(oids)) == THREADS * ROUNDS


def test_store_version_bumps_are_exact():
    store = ObjectStore()
    before = store.version
    _hammer(lambda i: [store._bump_version() for _ in range(ROUNDS)])
    assert store.version == before + THREADS * ROUNDS


def test_store_inserts_from_threads_stay_consistent():
    store = ObjectStore()
    refs = [[] for _ in range(THREADS)]

    def worker(i):
        mine = refs[i]
        for k in range(ROUNDS // 4):
            mine.append(store.insert((i, k), "T%d" % i))

    _hammer(worker)
    flat = [ref for per in refs for ref in per]
    assert len({ref.oid for ref in flat}) == len(flat)
    assert store.inserts == len(flat)   # a Database.version term
    for i, per in enumerate(refs):
        for k, ref in enumerate(per):
            assert store.get(ref.oid) == (i, k)
            assert store.exact_type(ref.oid) == "T%d" % i
