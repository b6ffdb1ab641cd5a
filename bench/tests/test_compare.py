import compare

BOUNDS = {"read_p50_ms": ("lower", 0.10), "throughput_ops_s": ("higher", 0.10),
          "write_p50_ms": ("lower", 0.10)}


def document(p50s, rates, fails=None, writes=None):
    runs = []
    for i, (p50, rate) in enumerate(zip(p50s, rates)):
        per_layer = {"lang.tokenize_us": {"value": 1.0, "unit": "us"}}
        if writes:
            per_layer["write_p50_ms"] = {"value": writes[i], "unit": "ms"}
        runs.append({
            "workload": "wire_hot",
            "fail_ratio": fails[i] if fails else 0.0,
            "end_to_end": {
                "read_p50_ms": {"value": p50, "unit": "ms"},
                "throughput_ops_s": {"value": rate, "unit": "1/s"}},
            "per_layer": per_layer})
    return {"runs": runs}


def verdicts(a, b):
    return {row["metric"]: row["verdict"]
            for row in compare.compare(a, b, BOUNDS)}


STEADY = [1.00, 1.01, 0.99, 1.00, 1.02]
RATES = [1000, 1010, 990, 1000, 1005]


def test_same_better_worse():
    base = document(STEADY, RATES)
    assert verdicts(base, document(STEADY, RATES)) == {
        "read_p50_ms": "same", "throughput_ops_s": "same",
        "fail_ratio": "same"}
    slower = document([v * 1.2 for v in STEADY], [r / 1.2 for r in RATES])
    assert verdicts(base, slower)["read_p50_ms"] == "worse"
    assert verdicts(base, slower)["throughput_ops_s"] == "worse"
    faster = document([v / 1.2 for v in STEADY], [r * 1.2 for r in RATES])
    assert verdicts(base, faster)["read_p50_ms"] == "better"
    assert verdicts(base, faster)["throughput_ops_s"] == "better"
    # 8 % slower is inside the 10 % bound.
    assert verdicts(base, document([v * 1.08 for v in STEADY],
                                   RATES))["read_p50_ms"] == "same"


def test_wide_spread_is_unresolved_not_same():
    noisy = document([1.0, 1.3, 0.8, 1.2, 0.9], RATES)
    assert verdicts(document(STEADY, RATES), noisy)["read_p50_ms"] == \
        "unresolved"


def test_ratio_is_b_over_a():
    rows = compare.compare(document([2.0, 2.0], [10, 10]),
                           document([3.0, 3.0], [10, 10]), BOUNDS)
    row = next(r for r in rows if r["metric"] == "read_p50_ms")
    assert (row["a"], row["b"], row["ratio"]) == (2.0, 3.0, 1.5)


def test_any_rise_in_fail_ratio_is_worse():
    base = document(STEADY, RATES)
    failing = document(STEADY, RATES, fails=[0, 0.001, 0.001, 0.001, 0])
    assert verdicts(base, failing)["fail_ratio"] == "worse"


def test_write_latency_rows_ride_along():
    a = document(STEADY, RATES, writes=[10, 10, 10, 10, 10])
    b = document(STEADY, RATES, writes=[13, 13, 13, 13, 13])
    assert verdicts(a, b)["write_p50_ms"] == "worse"


def test_exit_code(tmp_path, capsys):
    import json
    paths = []
    for name, doc in (("a.json", document(STEADY, RATES)),
                      ("b.json", document([v * 1.5 for v in STEADY], RATES))):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main(paths) == 1
    assert "worse" in capsys.readouterr().out
