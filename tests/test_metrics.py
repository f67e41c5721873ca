import math

import pytest
from hypothesis import given, strategies as st

from relucert import compute_curve, compute_stats
from relucert.metrics import write_curve_csv


def test_stats_hand_arithmetic():
    stats = compute_stats([5.0, 25.0, 10.0, 30.0], 20.0)
    assert stats.frequency == 0.5
    assert stats.severity == 7.5
    assert stats.count_below == 2
    assert stats.total == 4


def test_stats_all_infinite():
    stats = compute_stats([math.inf, math.inf, math.inf], 20.0)
    assert stats.frequency == 0.0
    assert stats.severity is None
    assert stats.count_below == 0


def test_stats_threshold_is_inclusive():
    stats = compute_stats([20.0, 21.0], 20.0)
    assert stats.count_below == 1


def test_stats_rejects_empty_and_bad_epsilon():
    with pytest.raises(ValueError):
        compute_stats([], 20.0)
    for bad in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            compute_stats([1.0], bad)


def test_curve_step_points():
    curve = compute_curve([5.0, 25.0, 10.0])
    assert curve.points == ((5.0, 1), (10.0, 2), (25.0, 3))


def test_curve_duplicates_collapse():
    curve = compute_curve([5.0, 5.0, 7.0])
    assert curve.points == ((5.0, 2), (7.0, 3))


def test_curve_all_infinite_is_empty():
    curve = compute_curve([math.inf, math.inf])
    assert curve.points == ()
    assert curve.count_at(100.0) == 0


def test_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(compute_curve([5.0, 25.0, 10.0]), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epsilon,count"
    assert lines[1].split(",") == ["5.0", "1"]


finite_rhos = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
rho_lists = st.lists(st.one_of(finite_rhos, st.just(math.inf)), min_size=1, max_size=50)


@given(rho_lists, st.floats(min_value=0.01, max_value=500.0))
def test_stats_match_hand_computation(rhos, epsilon):
    stats = compute_stats(rhos, epsilon)
    below = [r for r in rhos if r <= epsilon]
    assert stats.frequency == len(below) / len(rhos)
    assert stats.count_below == len(below)
    if below:
        assert stats.severity == pytest.approx(sum(below) / len(below))
        assert 0.0 <= stats.severity <= epsilon
    else:
        assert stats.severity is None


@given(rho_lists, st.floats(min_value=0.01, max_value=500.0))
def test_curve_agrees_with_stats_at_breakpoints(rhos, epsilon):
    curve = compute_curve(rhos)
    assert curve.count_at(epsilon) == compute_stats(rhos, epsilon).count_below
    for value, count in curve.points:
        assert count == sum(1 for r in rhos if r <= value)
        if value > 0:
            assert count == compute_stats(rhos, value).count_below
    counts = [c for _, c in curve.points]
    assert counts == sorted(counts)


@given(st.lists(st.tuples(finite_rhos, st.floats(min_value=0.0, max_value=100.0)),
                min_size=1, max_size=30),
       st.floats(min_value=0.01, max_value=500.0))
def test_pointwise_dominance_implies_frequency_dominance(pairs, epsilon):
    # if estimator A reports rho_a <= rho_b everywhere, A finds at least as
    # many adversarial points at every threshold
    a = [rho for rho, _ in pairs]
    b = [rho + bump for rho, bump in pairs]
    assert compute_stats(a, epsilon).frequency >= compute_stats(b, epsilon).frequency
