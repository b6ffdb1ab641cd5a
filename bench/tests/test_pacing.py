"""Open-loop accounting: an op is timed from when it was *due*, and a
slow op delays — never drops — the ops behind it."""

import threading
import time
from time import perf_counter

import pytest

from benchlib import gen, wire


class SlowFirstClient:
    """Stands in for ServerClient: the first execute takes 60 ms."""

    calls = 0

    def __init__(self, port, timeout=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass

    def execute(self, q, params=None):
        type(self).calls += 1
        if type(self).calls == 1:
            time.sleep(0.060)


def test_latency_runs_from_due_time(monkeypatch):
    monkeypatch.setattr(wire, "ServerClient", SlowFirstClient)
    SlowFirstClient.calls = 0
    ops = [gen.Op("log", gen.APPEND_LOG, i) for i in range(1000)]
    tally = wire.Tally()
    stop = threading.Event()
    rate = 50.0                      # one op due every 20 ms
    start = perf_counter() + 0.01
    timer = threading.Timer(0.25, stop.set)
    timer.start()
    try:
        wire.paced_writer(0, ops, rate, start, stop, tally)
    finally:
        timer.cancel()

    late = [ms for _, ms in tally.late_ms]
    latency = [ms for _, ms in tally.writes]
    # Op 0 went out on time and took the 60 ms itself.
    assert late[0] < 5.0
    assert latency[0] == pytest.approx(60.0, abs=15.0)
    # Ops 1 and 2 were due at 20 and 40 ms but could only be sent at
    # ~60 ms: the wait is theirs, both as lateness and as latency.
    assert late[1] == pytest.approx(40.0, abs=15.0)
    assert late[2] == pytest.approx(20.0, abs=15.0)
    assert latency[1] >= late[1] and latency[2] >= late[2]
    # Nothing was dropped: every op up to the stop was sent, in order,
    # and the generator caught up with its schedule.
    assert [op.k for op in tally.acked] == list(range(len(tally.acked)))
    assert 9 <= len(tally.acked) <= 14       # ~0.24 s at 50/s
    assert late[-1] < 5.0
    assert tally.attempted == len(tally.acked) and tally.failed == 0
