"""The benchmark's own arithmetic: percentiles, medians, unions, ledgers.

Run with ``python3 -m pytest tagbench/tests``.
"""

import statistics

import pytest

import stats


def test_min_samples_leave_ten_beyond_the_percentile():
    assert stats.min_samples_for(50) == 20
    assert stats.min_samples_for(90) == 100
    assert stats.min_samples_for(99) == 1000
    with pytest.raises(ValueError):
        stats.min_samples_for(100)


@pytest.mark.parametrize("q", [50, 75, 90])
def test_percentile_is_withheld_below_the_sample_rule(q):
    need = stats.min_samples_for(q)
    assert stats.percentile(list(range(need - 1)), q) is None
    assert stats.percentile(list(range(need)), q) is not None


@pytest.mark.parametrize("q", [50, 90])
def test_percentile_has_ten_samples_beyond_it_at_the_threshold(q):
    values = [float(v) for v in range(1, stats.min_samples_for(q) + 1)]
    value = stats.percentile(values, q)
    assert value in values
    assert sum(v > value for v in values) == stats.MIN_BEYOND


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4
    assert stats.percentile(values, 50) == 3.0


def test_quartile_spread_matches_python_quantiles():
    values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.4, 9.9]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / median)


@pytest.mark.parametrize("values, weights, median", [
    ([3.0, 1.0, 2.0], [1, 1, 1], 2.0),
    ([1.0, 2.0], [1, 1], 1.0),
    ([1.0, 2.0, 3.0], [1, 1, 10], 3.0),
    ([5.0, 1.0], [2, 50], 1.0),
])
def test_weighted_median_is_the_sample_at_half_the_weight(values, weights,
                                                          median):
    assert stats.weighted_median(values, weights) == median


def test_weighted_median_with_equal_weights_is_a_plain_median():
    values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8]
    assert stats.weighted_median(values, [2] * 7) == statistics.median(values)


def test_weighted_median_needs_weight():
    assert stats.weighted_median([], []) is None
    assert stats.weighted_median([1.0], [0]) is None


@pytest.mark.parametrize("intervals, length", [
    ([], 0.0),
    ([(0.0, 1.0), (2.0, 3.0)], 2.0),
    ([(0.0, 2.0), (1.0, 3.0)], 3.0),
    ([(0.0, 10.0), (2.0, 3.0), (4.0, 5.0)], 10.0),
    ([(3.0, 4.0), (0.0, 1.0), (0.5, 3.5)], 4.0),
    ([(1.0, 1.0), (2.0, 1.5)], 0.0),
])
def test_union_length(intervals, length):
    assert stats.union_length(intervals) == pytest.approx(length)


def test_clip_drops_what_falls_outside():
    assert stats.clip([(0.0, 2.0), (3.0, 9.0), (10.0, 11.0)], 1.0, 5.0) == [
        (1.0, 2.0), (3.0, 5.0)]


def _ledger(**overrides):
    ledger = {"offered": 100, "shed": 5, "pending": 10, "delivered": 80,
              "lost_in_crash": 5, "received": 80, "accepted": 70,
              "quarantined": 10}
    ledger.update(overrides)
    return ledger


def test_balanced_ledger_passes():
    assert stats.ledger_violations("d", _ledger()) == []


@pytest.mark.parametrize("key", ["offered", "shed", "pending", "delivered",
                                 "lost_in_crash"])
def test_any_unbalanced_report_bucket_is_reported(key):
    ledger = _ledger()
    ledger[key] += 1
    problems = stats.ledger_violations("site-1", ledger)
    assert len(problems) == 1
    assert problems[0].startswith("site-1: offered")


def test_validated_reports_must_partition():
    problems = stats.ledger_violations("d", _ledger(quarantined=11))
    assert len(problems) == 1 and "received 80" in problems[0]


def test_stream_identity():
    assert stats.stream_violations("r:1", 10, 7, 3) == []
    assert stats.stream_violations("r:1", 10, 7, 2) == [
        "r:1: received 10 != accepted 7 + quarantined 2"]
