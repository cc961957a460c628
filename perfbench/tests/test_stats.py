"""The percentile guard, per-request best latencies and the span self-time arithmetic."""

import stats


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile([1.0] * 199, 0.95) is None
    assert stats.percentile([1.0] * 200, 0.95) == 1.0
    assert stats.percentile(list(range(999)), 0.99) is None
    assert stats.percentile(list(range(1000)), 0.99) is not None
    assert stats.percentile(list(range(19)), 0.5) is None
    assert stats.percentile([], 0.5) is None


def test_percentile_interpolates():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 0.5) == 50.5
    assert abs(stats.percentile(values, 0.9) - 90.1) < 1e-9


def test_median_of_set_ups_has_no_guard():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0]) == 2.5
    assert stats.median([]) is None


def test_best_per_request_skips_failed_answers():
    samples = [(0, 0.3), (1, 0.5), (0, 0.2), (1, -1.0), (0, 0.4), (1, 0.6)]
    assert stats.best_per_request(samples) == {0: 0.2, 1: 0.5}
    assert stats.best_per_request([(0, -1.0)]) == {}


def test_min_repeats_counts_correct_answers_only():
    samples = [(0, 0.1), (1, 0.1), (0, 0.1), (1, -1.0), (2, 0.1)]
    assert stats.min_repeats(samples, 3) == 1
    assert stats.min_repeats(samples, 4) == 0


def span(span_id, parent, start, end):
    return {"id": span_id, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_child_coverage():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 0, 3.0, 6.0),  # overlaps span 1: the union covers 1..6
        span(3, 0, 9.0, 12.0),  # runs past its parent: only 9..10 counts
        span(4, 1, 1.5, 2.0),
    ]
    self_time = stats.self_times(spans)
    assert self_time[0] == 10.0 - 5.0 - 1.0
    assert self_time[1] == 3.0 - 0.5
    assert self_time[2] == 3.0
    assert self_time[4] == 0.5


def test_self_times_partition_a_well_nested_root():
    spans = [span(0, None, 0.0, 8.0), span(1, 0, 0.0, 2.0), span(2, 0, 2.0, 5.0), span(3, 0, 5.0, 8.0)]
    assert sum(stats.self_times(spans).values()) == 8.0
