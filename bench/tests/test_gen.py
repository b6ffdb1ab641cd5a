from collections import Counter

from benchlib import gen


def row(v):
    return {"t": "tup", "type": None,
            "fields": [["v", {"t": "val", "v": v}]]}


def test_same_seed_same_inputs():
    for workload in ("wire_hot", "wire_cold", "wire_mixed_rw",
                     "embedded_analytic"):
        first = gen.inputs_sha256(workload, 7)
        assert first == gen.inputs_sha256(workload, 7)
        assert first != gen.inputs_sha256(workload, 8)
    assert gen.streams("wire_cold", 7) == gen.streams("wire_cold", 7)


def test_hot_stream_is_sixteen_scripts_eighty_percent_points():
    ops = gen.streams("wire_hot", 3)
    assert sorted(ops) == ["c0"]        # one connection: see pin_to_one_cpu
    scripts = {(op.q, op.k) for op in ops["c0"]}
    assert len(scripts) == 16
    kinds = Counter(op.kind for op in ops["c0"])
    assert 0.78 < kinds["point"] / len(ops["c0"]) < 0.82
    bounds = sorted({op.k for op in ops["c0"] if op.kind == "range"})
    assert [(b - 284) // 4 for b in bounds] == list(range(8))  # one a stratum


def test_cold_stream_outruns_the_plan_cache():
    stream = gen.streams("wire_cold", 3)["c0"]
    assert len(set(op.k for op in stream[:1000])) > 900


def test_writer_sends_every_tenth_append_to_big():
    writer = gen.streams("wire_mixed_rw", 3)["writer"]
    assert len(writer) == gen.WRITER_OPS
    at = [i for i, op in enumerate(writer) if op.kind == "big"]
    assert len(at) == len(writer) // 10
    assert {b - a for a, b in zip(at, at[1:])} == {10}  # one per half second
    keys = [op.k for op in writer if op.kind == "big"]
    assert min(keys) >= gen.BIG_ROWS["wire_mixed_rw"]    # never a set-up row
    assert len(set(keys)) == len(keys)


def test_checker_accepts_right_answers():
    assert gen.reply_ok(gen.Op("point", gen.POINT, 200), [row(200 % 97)])
    bound = 300
    assert gen.reply_ok(gen.Op("range", gen.RANGE, bound),
                        [row(k % 97) for k in range(bound)])


def test_checker_rejects_corrupted_replies():
    point = gen.Op("point", gen.POINT, 200)
    assert not gen.reply_ok(point, [row(7)])                  # wrong value
    assert not gen.reply_ok(point, [])                        # lost row
    assert not gen.reply_ok(point, [row(6), row(6)])          # extra row
    assert not gen.reply_ok(point, [{"t": "val", "v": 6}])    # wrong shape
    assert not gen.reply_ok(point, [{"t": "tup", "type": None, "fields": [
        ["w", {"t": "val", "v": 6}]]}])                       # wrong field
    bound = 300
    rows = [row(k % 97) for k in range(bound)]
    wrong_multiset = [row(0)] + rows[1:]
    wrong_multiset[1] = row(0)
    assert not gen.reply_ok(gen.Op("range", gen.RANGE, bound),
                            wrong_multiset)
    assert not gen.reply_ok(gen.Op("range", gen.RANGE, bound), rows[:-1])
