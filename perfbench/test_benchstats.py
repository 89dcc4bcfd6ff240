"""Tests for the benchmark's own arithmetic (run with pytest)."""

import math

import pytest

import benchstats


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]  # 1..100, shuffled order must not matter
    value, pct = benchstats.tail(list(reversed(samples)))
    assert value == 90.0
    assert pct == pytest.approx(90.0)
    assert sum(1 for s in samples if s > value) == benchstats.TAIL_BEYOND


def test_tail_percentile_moves_with_sample_count():
    value, pct = benchstats.tail([float(i) for i in range(40)])
    assert value == 29.0
    assert pct == pytest.approx(75.0)
    value, pct = benchstats.tail([float(i) for i in range(11)])
    assert value == 0.0
    assert pct == pytest.approx(100 / 11)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        benchstats.tail([1.0] * 10)


def test_failed_ratio():
    assert benchstats.failed_ratio(0, 5) == 0.0
    assert benchstats.failed_ratio(1, 4) == 0.25
    assert benchstats.failed_ratio(3, 3) == 1.0
    with pytest.raises(ValueError):
        benchstats.failed_ratio(0, 0)
    with pytest.raises(ValueError):
        benchstats.failed_ratio(5, 4)
    with pytest.raises(ValueError):
        benchstats.failed_ratio(-1, 4)


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = benchstats.quartiles(values)
    assert benchstats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert benchstats.spread([0.0, 0.0, 0.0]) == 0.0
    assert math.isinf(benchstats.spread([-1.0, 0.0, 1.0]))


def _pairs(parent, change, better="lower", bound=0.1):
    return benchstats.pair_verdict(parent, change, better, bound)


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_iqr():
    parent = [100.0 + i * 0.1 for i in range(10)]
    change = [90.0 + i * 0.1 for i in range(10)]
    verdict = _pairs(parent, change)
    assert verdict["verdict"] == "gain"
    assert verdict["wins"] == 10

    # Eight wins out of ten is not enough, however large the gap.
    eight = change[:8] + [200.0, 200.0]
    verdict = _pairs(parent, eight, bound=10.0)
    assert verdict["wins"] == 8
    assert verdict["verdict"] != "gain"

    # Nine wins suffice.
    nine = change[:9] + [200.0]
    assert _pairs(parent, nine, bound=10.0)["verdict"] == "gain"


def test_ties_count_for_neither_side():
    parent = [100.0] * 10
    change = [90.0] * 8 + [100.0, 100.0]
    verdict = _pairs(parent, change)
    assert (verdict["wins"], verdict["ties"], verdict["losses"]) == (8, 2, 0)
    assert verdict["verdict"] != "gain"


def test_gain_must_exceed_the_parent_spread():
    parent = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
    change = [p - 1.0 for p in parent]  # wins every pair, by less than the IQR
    verdict = _pairs(parent, change, bound=10.0)
    assert verdict["wins"] == 10
    assert verdict["verdict"] == "unchanged"


def test_higher_is_better_direction():
    parent = [100.0 + i * 0.1 for i in range(10)]
    change = [120.0 + i * 0.1 for i in range(10)]
    assert _pairs(parent, change, better="higher")["verdict"] == "gain"
    assert _pairs(change, parent, better="higher")["verdict"] == "regression"


def test_wide_spread_is_unresolved_not_unchanged():
    parent = [50.0, 150.0] * 5
    change = [150.0, 50.0] * 5
    assert _pairs(parent, change)["verdict"] == "unresolved"


def test_wide_spread_with_every_change_run_better():
    parent = [25.8, 18.94] * 5
    change = [18.9, 18.85] * 5
    verdict = _pairs(parent, change, bound=0.24)
    assert verdict["spread"] > 0.24
    assert verdict["verdict"] == "better in every run"


def test_regression_beyond_the_bound():
    parent = [100.0 + i * 0.1 for i in range(10)]
    change = [120.0 + i * 0.1 for i in range(10)]
    assert _pairs(parent, change)["verdict"] == "regression"
    slightly = [105.0 + i * 0.1 for i in range(10)]
    assert _pairs(parent, slightly)["verdict"] == "unchanged"


def test_pairs_must_line_up():
    with pytest.raises(ValueError):
        _pairs([1.0] * 10, [1.0] * 9)


def test_a_verdict_needs_ten_pairs():
    # One won pair would otherwise be a "gain": its IQR is 0.
    with pytest.raises(ValueError):
        _pairs([100.0], [50.0])
    with pytest.raises(ValueError):
        _pairs([100.0] * 9, [50.0] * 9)
    assert _pairs([100.0] * 10, [50.0] * 10)["verdict"] == "gain"
