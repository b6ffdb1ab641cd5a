"""The benchmark end to end, small: every workload, both passes."""

import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")


def test_smoke_is_green_in_under_a_minute(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    done = subprocess.run([sys.executable, RUN, "--smoke", "--out", str(out)],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, universal_newlines=True,
                          timeout=120)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout
    assert "bench: PASS" in done.stdout
    assert elapsed < 60, "smoke took %.1f s" % elapsed
    document = json.loads(out.read_text())
    from benchlib import metrics
    assert [run["workload"] for run in document["runs"]] == list(
        metrics.WORKLOAD_NAMES)
    for run in document["runs"]:
        assert run["correct"] and run["fail_ratio"] == 0
        assert sorted(run["end_to_end"]) == sorted(
            m.name for m in metrics.END_TO_END)
        assert sorted(run["per_layer"]) == sorted(
            metrics.per_layer_names(run["workload"], driver=False))
        sha = run["info"]["untraced"]["inputs_sha256"]
        assert sha == run["info"]["traced"]["inputs_sha256"]
    mixed = document["runs"][2]["info"]["untraced"]
    assert mixed["acked_writes"] > 0 and mixed["lost_writes"] == 0
    # No child outlives the run, no temp directory is left behind.
    leftovers = [name for name in os.listdir(os.path.join(ROOT, "bench",
                                                          "out"))
                 if name.startswith("tmp-")]
    assert leftovers == []


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is
    nothing to measure: exit non-zero, print no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        ["python3", "bench/run.py", "--workload", "wire_hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert done.stdout.strip() == ""
