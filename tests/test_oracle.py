import math

import numpy as np
import pytest

from relucert import (Dense, Network, Relu, build_disjunctive, classify,
                      exact_robustness, extract_region, grid_robustness,
                      pattern_robustness, pointwise_robustness, satisfiable_at,
                      satisfiable_labels)
from relucert import oracle
from relucert.encoder import output_constraints
from relucert.lp import ITERATION_LIMIT, LazyStats, LPSolution, SimplexError
from helpers import highs_min_eps, random_conv_pool_net, random_dense_relu_net, small_pool_net


def test_exact_on_linear_three_label(gradient_trap_net):
    result = exact_robustness(gradient_trap_net, np.array([0.0]))
    assert result.rho == pytest.approx(4 * math.log(9 / 8), abs=1e-9)
    assert result.witness[0] == pytest.approx(-4 * math.log(9 / 8), abs=1e-9)
    assert result.patterns_total == 1
    assert result.patterns_feasible == 1


def _hinge_net():
    # logit_0 = relu(x) - relu(-x) = x, logit_1 = 0; the label flips at x = 0
    return Network([Dense(np.array([[1.0], [-1.0]]), np.zeros(2)), Relu(),
                    Dense(np.array([[1.0, -1.0], [0.0, 0.0]]), np.zeros(2))], 1, 2)


def test_exact_on_hinge_net():
    net = _hinge_net()
    result = exact_robustness(net, np.array([2.0]))
    assert result.rho == pytest.approx(2.0, abs=1e-9)
    assert abs(result.witness[0]) <= 1e-9
    assert result.patterns_total == 4


def test_exact_constant_output_net_is_zero_by_tie():
    net = Network([Dense(np.zeros((2, 1)), np.zeros(2))], 1, 2)
    result = exact_robustness(net, np.array([5.0]))
    # ties satisfy the non-strict output constraints at the seed itself
    assert result.rho == pytest.approx(0.0, abs=1e-9)


def test_exact_refuses_oversized_networks():
    rng = np.random.default_rng(5)
    net = random_dense_relu_net(rng, [2, 20, 2])
    with pytest.raises(ValueError, match="20 sites"):
        exact_robustness(net, np.zeros(2), max_sites=16)


def test_exact_witness_lies_in_its_pattern():
    rng = np.random.default_rng(89)
    for _ in range(10):
        net = random_dense_relu_net(rng, [2, 4, 2])
        seed = rng.normal(size=2)
        result = exact_robustness(net, seed)
        if not math.isfinite(result.rho):
            continue
        enc = build_disjunctive(net)
        region = enc.instantiate(result.pattern)
        slacks = region.constraints @ result.witness + region.bias
        assert slacks.min(initial=0.0) >= -1e-6
        assert np.abs(result.witness - seed).max() == pytest.approx(result.rho, abs=1e-6)


def test_pattern_robustness_matches_seed_region_estimate():
    rng = np.random.default_rng(97)
    for _ in range(10):
        net = random_dense_relu_net(rng, [2, 5, 3])
        seed = rng.normal(size=2)
        region = extract_region(net, seed)
        rho, _, _ = pattern_robustness(net, seed, region.pattern)
        record = pointwise_robustness(net, seed, targets="all")
        if math.isfinite(rho) or math.isfinite(record.rho_hat):
            assert record.rho_hat == pytest.approx(rho, abs=1e-6)


def test_grid_matches_exact_on_linear_classifier(gradient_trap_net):
    value = grid_robustness(gradient_trap_net, np.array([0.0]), radius=2.0,
                            resolution=1e-3)
    assert value == pytest.approx(4 * math.log(9 / 8), abs=1e-3)


def test_grid_constant_net_is_infinite():
    net = Network([Dense(np.zeros((2, 1)), np.array([1.0, 0.0]))], 1, 2)
    assert grid_robustness(net, np.array([0.0]), radius=2.0, resolution=0.1) == math.inf


def test_grid_dimension_guard():
    rng = np.random.default_rng(1)
    net = random_dense_relu_net(rng, [4, 4, 2])
    with pytest.raises(ValueError):
        grid_robustness(net, np.zeros(4), radius=1.0, resolution=0.1)


@pytest.mark.parametrize("radius, resolution", [(math.nan, 0.1), (math.inf, 0.1),
                                                (2.0, math.nan), (2.0, math.inf)])
def test_grid_rejects_non_finite_radius_and_resolution(gradient_trap_net, radius, resolution):
    with pytest.raises(ValueError, match="radius and resolution must be positive and finite"):
        grid_robustness(gradient_trap_net, np.array([0.0]), radius=radius,
                        resolution=resolution)


def test_grid_rejects_non_finite_step_count(gradient_trap_net):
    with pytest.raises(ValueError, match="step count is not finite"):
        grid_robustness(gradient_trap_net, np.array([0.0]), radius=1e300, resolution=1e-300)


def test_grid_size_guard(gradient_trap_net, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(np, "meshgrid", no_grid)
    net = Network([Dense(np.eye(2), np.zeros(2))], 2, 2)
    with pytest.raises(ValueError, match="over the limit"):
        grid_robustness(net, np.zeros(2), radius=1e6, resolution=1.0)
    with pytest.raises(ValueError, match="over the limit"):
        grid_robustness(gradient_trap_net, np.array([0.0]), radius=1e300, resolution=1.0)


def test_grid_upper_bounds_exact():
    rng = np.random.default_rng(101)
    for _ in range(50):
        net = random_dense_relu_net(rng, [2, 4, 2])
        seed = rng.normal(size=2)
        exact = exact_robustness(net, seed).rho
        grid = grid_robustness(net, seed, radius=2.0, resolution=0.05)
        assert grid >= exact - 0.05 - 1e-9


def test_enumeration_finds_own_pattern_of_every_point():
    rng = np.random.default_rng(103)
    for _ in range(20):
        net = random_dense_relu_net(rng, [2, 5, 3])
        x = rng.normal(size=2) * 2
        assert satisfiable_at(net, x, classify(net, x))


def test_satisfiable_labels_with_pool_layers():
    rng = np.random.default_rng(107)
    net = random_conv_pool_net(rng)
    X = rng.normal(size=(10, 16))
    table = satisfiable_labels(net, X)
    for i in range(10):
        predicted = classify(net, X[i])
        assert table[i, predicted]
        assert table[i].sum() == 1


def test_pattern_total_formula():
    net = random_conv_pool_net(np.random.default_rng(3))
    result_total = build_disjunctive(net).num_patterns()
    assert result_total == 2 ** 8 * 4 * 4
    small = random_dense_relu_net(np.random.default_rng(4), [2, 3, 2])
    assert exact_robustness(small, np.zeros(2)).patterns_total == 8


def test_exact_sandwich_on_small_pool_net():
    rng = np.random.default_rng(211)
    for _ in range(3):
        net = small_pool_net(rng)
        seed = rng.normal(size=9)
        exact = exact_robustness(net, seed)
        assert exact.patterns_total == 2 ** 4 * 4
        estimate = pointwise_robustness(net, seed).rho_hat
        assert estimate >= exact.rho - 1e-6


def _stop_solves(monkeypatch, min_eps_only=False):
    """Make oracle's lazy_solve stop at the iteration limit: on every LP, or
    only on the per-target LPs (output rows in G), leaving the pattern
    feasibility checks (no output rows)."""
    real = oracle.lazy_solve

    def stopped(seed, A, b, G, h, *args, **kwargs):
        if min_eps_only and not len(G):
            return real(seed, A, b, G, h, *args, **kwargs)
        return LPSolution(ITERATION_LIMIT, None, math.nan, 0), LazyStats()

    monkeypatch.setattr(oracle, "lazy_solve", stopped)


@pytest.mark.parametrize("min_eps_only, stage", [(False, "pattern feasibility"),
                                                 (True, "target")])
def test_exact_raises_on_solver_stop(monkeypatch, min_eps_only, stage):
    """An iteration-limit stop proves nothing: it must not drop a pattern or
    a target, which could make the exact rho too large."""
    net = random_dense_relu_net(np.random.default_rng(4), [2, 3, 2])
    _stop_solves(monkeypatch, min_eps_only)
    with pytest.raises(SimplexError, match=f"iteration_limit on {stage}"):
        exact_robustness(net, np.zeros(2))


def test_pattern_robustness_raises_on_solver_stop(monkeypatch):
    net = random_dense_relu_net(np.random.default_rng(4), [2, 3, 2])
    pattern = next(build_disjunctive(net).patterns())
    _stop_solves(monkeypatch)
    with pytest.raises(SimplexError, match="iteration_limit on target"):
        pattern_robustness(net, np.zeros(2), pattern)


def _cross_check_nets():
    rng = np.random.default_rng(263)
    nets = [(random_dense_relu_net(rng, [2, 3, 3]), rng.normal(size=2)) for _ in range(4)]
    rng = np.random.default_rng(211)  # the first net of the sandwich test above
    return nets + [(small_pool_net(rng), rng.normal(size=9))]


@pytest.mark.parametrize("net, seed", _cross_check_nets(),
                         ids=["dense1", "dense2", "dense3", "dense4", "conv-pool"])
def test_oracle_agrees_with_highs_on_every_pattern(net, seed):
    """The oracle solves with lazy_solve, the estimate's own solver, so scipy's
    HiGHS checks it: on every pattern, the feasibility verdict and the
    minimum over targets of the whole LP."""
    encoding = build_disjunctive(net)
    label = classify(net, seed)
    no_rows = (np.zeros((0, len(seed))), np.zeros(0))
    feasible = 0
    for pattern in encoding.patterns():
        region = encoding.instantiate(pattern)
        A, b = region.constraints, region.bias
        nonempty = highs_min_eps(seed, A, b, *no_rows) is not None
        assert oracle._signs_feasible(region, seed) is nonempty
        feasible += nonempty
        refs = [highs_min_eps(seed, A, b, *output_constraints(region, t))
                for t in range(net.num_labels) if t != label]
        expected = min((r for r in refs if r is not None), default=math.inf)
        rho, _, _ = pattern_robustness(net, seed, pattern)
        if expected == math.inf:
            assert rho == math.inf
        else:
            assert rho == pytest.approx(expected, abs=1e-6)
    assert feasible > 0
    if len(seed) == 2:  # 3 lines cut the plane into at most 7 of the 8 patterns' cells
        assert feasible <= 7
