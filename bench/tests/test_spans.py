import json

from benchlib import spans


class FakeClock:
    """perf_counter that returns scripted instants."""

    def __init__(self, instants):
        self.instants = iter(instants)

    def __call__(self):
        return next(self.instants)


def test_self_time_is_duration_minus_children(monkeypatch, tmp_path):
    # request [0, 10]; parse [1, 4] containing tokenize [2, 3];
    # execute [5, 9].
    monkeypatch.setattr(spans, "perf_counter",
                        FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    rec = spans.SpanRecorder()
    rec.request_id = 7
    with rec.span("request"):
        with rec.span("parse"):
            with rec.span("tokenize"):
                pass
        with rec.span("execute"):
            pass
    by_name = {s.name: s for s in rec.spans}
    assert by_name["request"].duration == 10
    assert by_name["request"].self_time == 10 - 3 - 4
    assert by_name["parse"].self_time == 3 - 1
    assert by_name["tokenize"].self_time == 1
    assert by_name["execute"].self_time == 4
    assert by_name["tokenize"].parent == rec.spans.index(by_name["parse"])
    assert by_name["request"].parent is None
    assert {s.request_id for s in rec.spans} == {7}
    # Self times partition the root's duration.
    assert sum(s.self_time for s in rec.spans) == 10

    path = tmp_path / "trace.json"
    rec.dump(str(path), workload="w")
    document = json.loads(path.read_text())
    assert document["workload"] == "w"
    assert [row["name"] for row in document["spans"]] == [
        "request", "parse", "tokenize", "execute"]
    assert document["spans"][2]["parent"] == 1
    assert document["spans"][0]["self_us"] == 3e6


def test_per_request_sums_within_a_request(monkeypatch):
    monkeypatch.setattr(spans, "perf_counter",
                        FakeClock([0, 1, 1, 3, 10, 14]))
    rec = spans.SpanRecorder()
    rec.request_id = "a"
    with rec.span("exec"):
        pass
    with rec.span("exec"):
        pass
    rec.request_id = "b"
    with rec.span("exec"):
        pass
    assert sorted(rec.per_request("exec")) == [3, 4]


def test_disabled_recorder_records_nothing():
    rec = spans.SpanRecorder(enabled=False)
    with rec.span("anything"):
        pass
    assert rec.spans == []
