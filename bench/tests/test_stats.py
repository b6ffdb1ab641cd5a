import pytest

from benchlib import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("count, expected", [
    (20000, 99),    # 200 beyond p99
    (1000, 99),     # exactly 10 beyond p99
    (999, 95),      # 9 beyond p99, 49 beyond p95
    (300, 95),      # 3 beyond p99, 15 beyond p95
    (150, 90),      # 7 beyond p95, 15 beyond p90
    (60, 75),       # 6 beyond p90, 15 beyond p75
    (30, 75),       # nothing qualifies: p75, and the caller records it
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.pick_tail(count) == expected
    if count >= 40:
        assert stats.beyond(count, expected) >= stats.MIN_BEYOND


def test_slice_count_keeps_ten_beyond_in_every_slice():
    assert stats.slice_count(20000, 90, 18.0) == 18     # one a second
    assert stats.slice_count(3000, 99, 18.0) == 3
    assert stats.slice_count(33, 75, 18.0) == 1         # pooled
    assert stats.slice_count(5, 99, 18.0) == 1


def test_summarize_reports_the_least_disturbed_quarter():
    # Eight 1 s slices.  In five of them a neighbour on the host triples
    # the latencies and thirds the rate; the program's own speed is
    # what the other three show, and that is what is reported.
    samples = []
    for second in range(8):
        quiet = second in (1, 4, 6)
        count, latency = (900, 1.0) if quiet else (300, 3.0)
        samples += [(second + (i + 0.5) / count, latency)
                    for i in range(count)]
    out = stats.summarize(samples, 0.0, 8.0, 90)
    assert out["slices"] == 8
    assert out["p50"] == 1.0 and out["tail"] == 1.0
    assert out["rate"] == pytest.approx(900.0, rel=0.01)
    assert out["count"] == 4200 and out["beyond_tail"] == 420


def test_summarize_moves_when_every_slice_moves():
    def window(latency):
        return [(second + (i + 0.5) / 500.0, latency)
                for second in range(6) for i in range(500)]
    assert stats.summarize(window(1.2), 0.0, 6.0, 90)["p50"] == 1.2


def test_completion_rate_does_not_move_in_steps():
    # 4 completions 0.6 s apart: 3 intervals over 1.8 s, whatever the
    # window's width.
    part = [(0.3 + 0.6 * i, 600.0) for i in range(4)]
    assert stats.completion_rate(part, 20.0) == pytest.approx(1 / 0.6)
    assert stats.completion_rate(part[:1], 4.0) == 0.25


def test_spread_is_iqr_over_median():
    # statistics.quantiles(1..10) = 2.75, 5.5, 8.25
    assert stats.spread(list(range(1, 11))) == pytest.approx(1.0)
    assert stats.spread([5.0] * 10) == 0.0
