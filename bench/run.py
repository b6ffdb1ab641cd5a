#!/usr/bin/env python3
"""The repo's benchmark.  Two ways to run it, from the repo root:

The driver's contract — one workload, one pass, one JSON object as the
last line of standard output::

    python3 bench/run.py --workload wire_hot --seed 7 --seconds 20 --trace 0

The report — every metric of every workload by name with its unit, the
untraced pass first and the traced pass after it::

    python3 bench/run.py [--workload NAME] [--seed N] [--out FILE]
                         [--repeat N] [--smoke]

See ``bench/README.md`` for what the workloads and metrics mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
try:
    import repro
except ImportError as exc:
    sys.exit("bench/run.py: cannot import the program under test from "
             "%s: %s" % (SRC, exc))
if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
    sys.exit("bench/run.py: measuring %s, not this checkout's %s"
             % (repro.__file__, SRC))

from benchlib import metrics, workloads  # noqa: E402


def fingerprint() -> Dict[str, Any]:
    """Where and on what this run happened."""
    nproc = len(os.sched_getaffinity(0))
    load1 = os.getloadavg()[0]
    cpu = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            universal_newlines=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"      # the driver's checkout is not a git repo
    started = perf_counter()
    for _ in range(1000000):        # how fast is this box right now?
        pass
    return {"nproc": nproc, "cpu_model": cpu,
            "python": platform.python_version(), "load1_at_start": load1,
            "noisy": load1 > nproc, "commit": commit,
            "spin_1m_loops_ms": (perf_counter() - started) * 1e3}


def labelled(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in values.items()}


def result_path(workload: str, trace: int) -> str:
    return os.path.join(OUT, "result-%s-trace%d.json" % (workload, trace))


def driver_run(args: argparse.Namespace) -> int:
    """One workload, one pass; the contract's JSON line.  The whole
    result, with how it was measured, goes to ``bench/out``."""
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), OUT, args.setups)
    with open(result_path(args.workload, args.trace), "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if args.trace:
        wanted = metrics.per_layer_names(args.workload, driver=True)
    else:
        wanted = tuple(m.name for m in metrics.END_TO_END)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": labelled({name: result["metrics"][name]
                             for name in wanted}),
    }))
    return 0 if result["correct"] else 1


def one_pass(workload: str, seed: int, seconds: float, trace: int,
             setups: int) -> Dict[str, Any]:
    """Run one pass the way the driver does — a process of its own, so
    no pass inherits another's heap — and read back its whole result."""
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), "--setups", str(setups)],
        stdout=subprocess.DEVNULL)
    try:
        code = child.wait()
    except BaseException:
        child.terminate()       # SIGTERM: it reaps its server, then exits
        child.wait()
        raise
    if code not in (0, 1):      # 1: it ran, but an answer was wrong
        raise RuntimeError("%s --trace %d exited with code %d"
                           % (workload, trace, code))
    with open(result_path(workload, trace)) as handle:
        return json.load(handle)


def report_run(args: argparse.Namespace) -> int:
    """Both passes of the chosen workloads, printed by name."""
    seconds = 2.0 if args.smoke else args.seconds
    setups = 1 if args.smoke else args.setups
    names = [args.workload] if args.workload else metrics.WORKLOAD_NAMES
    stamp = fingerprint()
    print("# %s" % json.dumps(stamp, sort_keys=True))
    if stamp["noisy"]:
        print("# noisy: 1-minute load %.2f exceeds nproc %d"
              % (stamp["load1_at_start"], stamp["nproc"]))
    runs: List[Dict[str, Any]] = []
    for repeat in range(args.repeat):
        for name in names:
            untraced = one_pass(name, args.seed, seconds, 0, setups)
            traced = one_pass(name, args.seed, seconds, 1, setups)
            attempted = untraced["attempted"] + traced["attempted"]
            failed = untraced["failed"] + traced["failed"]
            run = {"workload": name, "seed": args.seed, "repeat": repeat,
                   "correct": untraced["correct"] and traced["correct"],
                   "fail_ratio": failed / attempted,
                   "end_to_end": labelled({
                       m.name: untraced["metrics"][m.name]
                       for m in metrics.END_TO_END}),
                   "per_layer": labelled({
                       layer: traced["metrics"][layer] for layer in
                       metrics.per_layer_names(name, driver=False)}),
                   "info": {"untraced": untraced["info"],
                            "traced": traced["info"]}}
            runs.append(run)
            print_run(run)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"fingerprint": stamp, "seconds": seconds,
                       "runs": runs}, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.out)
    green = all(run["correct"] for run in runs)
    print("bench: %s" % ("PASS" if green else "FAIL"))
    return 0 if green else 1


def print_run(run: Dict[str, Any]) -> None:
    info = run["info"]["untraced"]
    print("\n== %s  seed %d  window %.1f s  %s  inputs %s =="
          % (run["workload"], run["seed"], info["window_s"],
             info["clients"], info["inputs_sha256"][:12]))
    print("end-to-end (untraced; tail = p%d over %d samples, %d beyond; "
          "%.1f%% of CPU time stolen%s)"
          % (info["read_tail_percentile"], info["read_samples"],
             info["read_beyond_tail"], 100 * info["steal_share"],
             " - NOISY" if info["steal_share"] > 0.02 else ""))
    for name, cell in run["end_to_end"].items():
        print("  %-34s %14.4f %s" % (name, cell["value"], cell["unit"]))
    print("  %-34s %14.6f ratio  (%s)"
          % ("fail_ratio", run["fail_ratio"],
             "correct" if run["correct"] else "WRONG"))
    print("per-layer (traced pass)")
    for name, cell in run["per_layer"].items():
        print("  %-34s %14.4f %s" % (name, cell["value"], cell["unit"]))
    for key, value in sorted(run["info"]["traced"].items()):
        if key.endswith(("_share_of_request", "_share_of_round",
                         "_rate_per_s", "_writes", "_commits")):
            print("  %-34s %14.4f" % ("(" + key + ")", value))


def main(argv: List[str] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        run_seconds = json.load(handle)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="timed window (default: BENCHMARK.json's "
                             "run_seconds, %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: 0 = end-to-end metrics, "
                             "1 = per-layer metrics; needs --workload")
    parser.add_argument("--out", help="report mode: write every run here")
    parser.add_argument("--repeat", type=int, default=1,
                        help="report mode: full runs per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="report mode with 2 s windows and one "
                             "set-up per run")
    parser.add_argument("--setups", type=int,
                        default=workloads.SETUP_REPEATS,
                        help="set-ups per untraced pass; setup_s is their "
                             "median (default %(default)s)")
    args = parser.parse_args(argv)
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload")
    # A terminated benchmark must still reap its server child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.trace is not None:
        return driver_run(args)
    return report_run(args)


if __name__ == "__main__":
    sys.exit(main())
