"""BENCHMARK.json says what benchlib.metrics says, inside the limits
of the driver's contract."""

import json
import os
import re

from benchlib import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_keys_and_limits():
    spec = load()
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int)
    assert 15 <= spec["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    for entry in spec["workloads"]:
        assert sorted(entry) == ["name", "why"]
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    # 4 + 22 x workloads runs must fit 3420 s with their set-up.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 12) <= 3420


def test_same_vocabulary_as_the_code():
    spec = load()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in metrics.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(m)
                                             for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
        if m.scope == "all"]
    for workload in metrics.WORKLOAD_NAMES:
        assert [m["name"] for m in spec["per_layer"]] == list(
            metrics.per_layer_names(workload, driver=True))


def test_bounds():
    bounds = {m.name: m.bound for m in metrics.END_TO_END}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in metrics.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
