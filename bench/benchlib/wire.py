"""The wire workloads' program under test: a durable directory built
through the storage API, served by ``python -m repro.server`` as a
child process, and driven through ``ServerClient``.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro import connect
from repro.core.expr import Input
from repro.core.operators.tuples import TupExtract
from repro.core.values import MultiSet, Tup
from repro.server.client import ServerClient, ServerError
from repro.storage import open_database

from . import gen

SRC = os.path.normpath(os.path.join(os.path.dirname(__file__),
                                    os.pardir, os.pardir, "src"))

#: The key expression of both indexes on ``Big``.
BIG_KEY = TupExtract("k", Input())

#: A named collection that stays empty: a retrieve over it is the
#: cheapest request the server can answer (client.roundtrip_floor_us).
FLOOR_QUERY = "retrieve (x) from x in Empty"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def build_directory(path: str, workload: str) -> None:
    """Create the workload's durable directory without touching the
    wire: loading rows by ``append`` statements copies the collection
    once per row, so the collections are created whole, the indexes
    defined through the journaled catalog, and the log folded into a
    checkpoint before any server sees the directory."""
    db = open_database(path)
    try:
        db.create("Big", MultiSet(
            Tup({"k": k, "v": gen.value_of(k)})
            for k in range(gen.BIG_ROWS[workload])))
        db.indexes.create_index("keyed", "Big", BIG_KEY)
        db.indexes.create_index("ordered", "Big", BIG_KEY)
        connect(db).execute("create Log: { int4 } create Empty: { int4 }")
        db.txn.checkpoint()
    finally:
        db.txn.wal.close()


class ServerProcess:
    """``python -m repro.server`` as a child process on ephemeral
    ports.  Its output goes to a log file (an inherited pipe would fill
    and hang it), and :meth:`kill` always reaps it."""

    def __init__(self, directory: str, log_path: str):
        self.directory = directory
        self.log_path = log_path
        self.port = 0
        self.metrics_port = 0
        self._proc: Optional[subprocess.Popen] = None

    @property
    def pid(self) -> int:
        return self._proc.pid

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        port_file = os.path.join(self.directory, "ports")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        with open(self.log_path, "ab") as log:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro.server", "--db",
                 self.directory, "--port", "0", "--port-file", port_file,
                 "--metrics-port", "0"],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env)
        deadline = time.monotonic() + timeout
        try:
            while True:
                if self._proc.poll() is not None:
                    raise RuntimeError("server exited with code %s; see %s"
                                       % (self._proc.returncode,
                                          self.log_path))
                try:
                    with open(port_file) as handle:
                        text = handle.read()
                except OSError:
                    text = ""
                if text.endswith("\n"):
                    port, metrics_port = text.split()
                    self.port, self.metrics_port = int(port), int(metrics_port)
                    return self
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not listen within %.0fs"
                                       % timeout)
                time.sleep(0.005)
        except BaseException:
            self.kill()
            raise

    def kill(self) -> None:
        """SIGKILL and reap (idempotent).  Every workload ends this
        way: the directories are temporary, and ``wire_mixed_rw``'s
        durability check needs a crash, not a shutdown checkpoint."""
        proc = self._proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait()

    # -- outside-in observations ---------------------------------------

    def scrape(self) -> Dict[str, float]:
        """The child's ``/metrics.json`` flattened to ``name -> value``
        (labels summed; histograms as ``name_count`` / ``name_sum``)."""
        url = "http://127.0.0.1:%d/metrics.json" % self.metrics_port
        with urllib.request.urlopen(url, timeout=30) as reply:
            families = json.load(reply)
        out: Dict[str, float] = {}
        for name, family in families.items():
            if family["kind"] == "histogram":
                out[name + "_count"] = sum(v["count"]
                                           for v in family["values"])
                out[name + "_sum"] = sum(v["sum"] for v in family["values"])
            else:
                out[name] = sum(v["value"] for v in family["values"])
        return out

    def cpu_seconds(self) -> float:
        """utime + stime of the child so far."""
        with open("/proc/%d/stat" % self.pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)


def peak_rss_mb(pid: int) -> float:
    """VmHWM of *pid*, in MiB."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------

class Tally:
    """What the generator threads observed.  Each list is appended to
    by exactly one thread; the main thread reads after joining."""

    def __init__(self) -> None:
        self.reads: List[Tuple[float, float, str]] = []  # (done_at, ms, kind)
        self.writes: List[Tuple[float, float]] = []   # (done_at, ms from due)
        self.late_ms: List[Tuple[float, float]] = []  # (done_at, sent - due)
        self.acked: List[gen.Op] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def count(self, attempted: int, failed: int) -> None:
        with self._lock:
            self.attempted += attempted
            self.failed += failed

    def note(self, error: str) -> None:
        """Keep the first few failures for the report."""
        with self._lock:
            if len(self.errors) < 20:
                self.errors.append(error)


def closed_loop(port: int, ops: List[gen.Op], stop: threading.Event,
                tally: Tally) -> None:
    """One closed-loop connection: send the next read only after the
    previous reply arrived; check every reply."""
    samples: List[Tuple[float, float, str]] = []
    attempted = failed = 0
    try:
        with ServerClient(port, timeout=30.0) as client:
            for op in itertools.cycle(ops):
                if stop.is_set():
                    break
                attempted += 1
                started = perf_counter()
                try:
                    rows = client.execute(op.q, params={"k": op.k}).raw_rows
                except ServerError as exc:
                    failed += 1
                    tally.note("%s: %s" % (op, exc))
                    continue
                done = perf_counter()
                samples.append((done, (done - started) * 1e3, op.kind))
                if not gen.reply_ok(op, rows):
                    failed += 1
                    tally.note("wrong answer to %s: %r" % (op, rows[:3]))
    finally:
        with tally._lock:
            tally.reads.extend(samples)
        tally.count(attempted, failed)


def paced_writer(port: int, ops: List[gen.Op], rate: float, start: float,
                 stop: threading.Event, tally: Tally) -> None:
    """One open-loop connection: op *i* is due at ``start + i / rate``
    whatever happened to op *i - 1*, and its latency runs from that due
    time — a slow append delays the next send, and the wait is charged
    to the delayed request, not dropped."""
    attempted = failed = 0
    try:
        with ServerClient(port, timeout=30.0) as client:
            for i, op in enumerate(ops):
                due = start + i / rate
                wait = due - perf_counter()
                if wait > 0 and stop.wait(wait):
                    break
                if stop.is_set():
                    break
                attempted += 1
                sent = perf_counter()
                try:
                    client.execute(op.q, params={"k": op.k})
                except ServerError as exc:
                    failed += 1
                    tally.note("%s: %s" % (op, exc))
                    continue
                done = perf_counter()
                tally.writes.append((done, (done - due) * 1e3))
                tally.late_ms.append((done, (sent - due) * 1e3))
                tally.acked.append(op)
            else:
                raise RuntimeError("writer stream exhausted")
    finally:
        tally.count(attempted, failed)


def roundtrip_floor_us(port: int, repeats: int = 300) -> float:
    """Median round trip of the cheapest request, in microseconds."""
    times = []
    with ServerClient(port, timeout=30.0) as client:
        for _ in range(repeats):
            started = perf_counter()
            client.execute(FLOOR_QUERY)
            times.append(perf_counter() - started)
    return statistics.median(times) * 1e6
