import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize  # noqa: F401  (HiGHS, the reference of highs_min_eps)

import relucert.robustness
from relucert import (Dense, LPSolution, Network, Relu, SimplexError, classify,
                      exact_robustness, extract_adversarial, extract_region, forward,
                      lazy_solve, load_dataset, load_model, output_constraints,
                      pointwise_robustness, record_from_json, record_to_json,
                      verify_record)
from relucert.lp import INFEASIBLE, ITERATION_LIMIT, OPTIMAL, LazyStats, holder_bounds
from relucert.robustness import RobustnessRecord
from helpers import highs_min_eps, naive_forward, random_dense_relu_net

DATA = Path(__file__).parent / "data"


def test_second_label_estimate_on_linear_classifier(gradient_trap_net):
    record = pointwise_robustness(gradient_trap_net, np.array([0.0]))
    assert record.seed_label == 0
    assert record.target_label == 1
    assert record.rho_hat == pytest.approx(4 * math.log(9 / 8), abs=1e-9)
    assert record.adversarial[0] == pytest.approx(-4 * math.log(9 / 8), abs=1e-9)


@pytest.mark.parametrize("seed", [[math.nan, 0.0], [math.inf, 0.0]])
def test_non_finite_seed_is_rejected_before_forward(seed, monkeypatch):
    """A NaN seed gave rho inf and an infinite one rho 0.0, each read as a result."""
    net = random_dense_relu_net(np.random.default_rng(0), [2, 4, 3])

    def unreachable(*args):
        raise AssertionError("forward called on a non-finite seed")

    monkeypatch.setattr(relucert.robustness, "forward", unreachable)
    with pytest.raises(ValueError, match="non-finite"):
        pointwise_robustness(net, np.array(seed))


def test_fixed_target_estimate(gradient_trap_net):
    # label 2 must beat both others; the binding constraint is against label 1:
    # score_2 - score_1 = -x + ln(1/3) >= 0, i.e. x <= -ln 3
    record = pointwise_robustness(gradient_trap_net, np.array([0.0]), targets=2)
    assert record.rho_hat == pytest.approx(math.log(3.0), abs=1e-9)
    assert record.adversarial[0] == pytest.approx(-math.log(3.0), abs=1e-9)


def test_fixed_target_equal_to_label_rejected(gradient_trap_net):
    with pytest.raises(ValueError):
        pointwise_robustness(gradient_trap_net, np.array([0.0]), targets=0)


def test_seed_on_decision_tie_has_zero_radius():
    net = Network([Dense(np.array([[1.0], [1.0]]), np.zeros(2))], 1, 2)
    record = pointwise_robustness(net, np.array([3.0]))
    assert record.rho_hat == pytest.approx(0.0, abs=1e-9)


def test_all_policy_is_min_over_fixed_targets():
    rng = np.random.default_rng(109)
    for _ in range(10):
        net = random_dense_relu_net(rng, [2, 5, 3])
        seed = rng.normal(size=2)
        label = classify(net, seed)
        fixed = [pointwise_robustness(net, seed, targets=t).rho_hat
                 for t in range(3) if t != label]
        combined = pointwise_robustness(net, seed, targets="all").rho_hat
        expected = min(fixed)
        if math.isfinite(expected):
            assert combined == pytest.approx(expected, abs=1e-9)
        else:
            assert combined == math.inf


def test_iteration_limit_raises_instead_of_not_found(gradient_trap_net, monkeypatch):
    def stopped(seed, A, b, G, h, domain=None):
        return LPSolution(ITERATION_LIMIT, None, float("nan"), 7), LazyStats()

    monkeypatch.setattr(relucert.robustness, "lazy_solve", stopped)
    with pytest.raises(SimplexError, match="iteration_limit on target 1"):
        pointwise_robustness(gradient_trap_net, np.array([0.0]))


def test_margin_monotonicity():
    rng = np.random.default_rng(113)
    for _ in range(20):
        net = random_dense_relu_net(rng, [2, 6, 3])
        seed = rng.normal(size=2)
        base = pointwise_robustness(net, seed, margin=0.0).rho_hat
        wide = pointwise_robustness(net, seed, margin=3.0).rho_hat
        assert wide >= base - 1e-9


def test_infeasible_region_reports_infinite_radius():
    # constant logits with a strict gap: no point in the region flips the label
    net = Network([Dense(np.zeros((2, 1)), np.array([1.0, 0.0]))], 1, 2)
    record = pointwise_robustness(net, np.array([0.0]))
    assert record.rho_hat == math.inf
    assert record.adversarial is None
    assert not record.found


def test_not_found_record_reports_the_sums_of_its_solves(monkeypatch):
    """Seed (1, 2) of h = relu(x) with logits (1, -h_1, -h_2): target 1 needs
    x_1 <= -1 and target 2 needs x_2 <= -1, which the region rows x >= 0 rule
    out. Each solve takes a pivot and a cut before it proves that."""
    net = Network([Dense(np.eye(2), np.zeros(2)), Relu(),
                   Dense(np.array([[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]),
                         np.array([1.0, 0.0, 0.0]))], 2, 3)
    solves = []

    def spy(*args, **kwargs):
        solves.append(lazy_solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(relucert.robustness, "lazy_solve", spy)
    record = pointwise_robustness(net, np.array([1.0, 2.0]), targets="all")
    assert not record.found and len(solves) == 2
    assert all(sol.status == INFEASIBLE for sol, _ in solves)
    stats = [st for _, st in solves]
    assert all(st.total_pivots >= 1 and st.constraints_added >= 1 for st in stats)
    assert record.lazy.outer_iterations == sum(st.outer_iterations for st in stats)
    assert record.lazy.constraints_added == sum(st.constraints_added for st in stats)
    assert record.lazy.total_pivots == sum(st.total_pivots for st in stats)
    assert record.lazy.final_active_count == max(st.final_active_count for st in stats)
    assert record.lazy.wall_time == sum(st.wall_time for st in stats) > 0.0
    assert record_to_json(record)["timing"]["wall_time"] == record.lazy.wall_time


def test_overapproximates_exact():
    rng = np.random.default_rng(127)
    for _ in range(30):
        net = random_dense_relu_net(rng, [2, 4, 2])
        seed = rng.normal(size=2)
        estimate = pointwise_robustness(net, seed).rho_hat
        exact = exact_robustness(net, seed).rho
        assert estimate >= exact - 1e-6


def test_certificate_validity_on_random_nets():
    rng = np.random.default_rng(131)
    checked = 0
    for _ in range(30):
        net = random_dense_relu_net(rng, [3, 6, 3])
        seed = rng.normal(size=3)
        for margin in (0.0, 3.0):
            record = pointwise_robustness(net, seed, margin=margin)
            if not record.found:
                continue
            checked += 1
            check = verify_record(net, seed, record, margin=margin)
            assert check.min_slack >= -1e-6
            assert check.norm_gap <= 1e-6
            assert check.ranking_slack >= -1e-6
    assert checked >= 20


def test_verify_record_scales_rows_like_the_solver():
    """The witness x = 0.50000005 misses the region row -1000 x + 500 >= 0 by
    5e-8 after unit scaling, within the solver's FEAS_TOL; the raw slack,
    -5e-5, failed the check on this valid record."""
    net = Network([Dense([[1000.0], [-1000.0]], [1000.0, 500.0]), Relu(),
                   Dense([[0.0, 0.0], [0.001, 0.0]], [1.5 + 5e-8, 0.0])], 1, 2)
    seed = np.zeros(1)
    record = pointwise_robustness(net, seed)
    assert record.rho_hat == pytest.approx(0.50000005, abs=1e-12)
    check = verify_record(net, seed, record)
    assert -1e-7 <= check.min_slack < 0.0
    assert check.ok


def test_verify_record_fails_a_witness_off_a_small_row():
    """Output row 1e-3 x - 1e-3 >= 0 (x >= 1) met short by 5e-7 raw, 5e-4 after
    unit scaling: the raw slack passed the 1e-6 check."""
    net = Network([Dense([[0.0], [1e-3]], [0.0, -1e-3])], 1, 2)
    x = np.array([1.0 - 5e-4])
    record = RobustnessRecord(0, 0, 1, 1.0 - 5e-4, adversarial=x)
    check = verify_record(net, np.zeros(1), record)
    assert check.min_slack == pytest.approx(-5e-4, rel=1e-9)
    assert check.norm_gap == 0.0 and check.ranking_slack >= -1e-6
    assert not check.ok


def test_extract_adversarial_unrounded(gradient_trap_net):
    record = pointwise_robustness(gradient_trap_net, np.array([0.0]))
    x_adv, ok = extract_adversarial(record, gradient_trap_net)
    assert ok is None
    assert x_adv[0] == pytest.approx(-4 * math.log(9 / 8), abs=1e-9)


def test_extract_adversarial_margin_forces_strict_win():
    rng = np.random.default_rng(137)
    produced = 0
    for _ in range(20):
        net = random_dense_relu_net(rng, [2, 6, 3])
        seed = rng.normal(size=2)
        record = pointwise_robustness(net, seed, margin=3.0)
        if not record.found:
            continue
        produced += 1
        x_adv, _ = extract_adversarial(record, net)
        logits = forward(net, x_adv)
        target = record.target_label
        others = [logits[j] for j in range(3) if j != target]
        assert logits[target] >= max(others) + 3.0 - 1e-6
        assert classify(net, x_adv) == target
    assert produced >= 5


def test_extract_adversarial_integral_optimum_survives_rounding():
    # scores (-x - 1, 0): the seed 0 is labeled 1 and the flip to label 0
    # happens exactly at the integer x = -1, so the optimum needs no rounding
    net = Network([Dense(np.array([[-1.0], [0.0]]), np.array([-1.0, 0.0])), ],
                  1, 2, input_domain=(-5.0, 5.0))
    record = pointwise_robustness(net, np.array([0.0]))
    assert record.seed_label == 1
    assert record.rho_hat == pytest.approx(1.0, abs=1e-9)
    x_adv, ok = extract_adversarial(record, net, round_to_integers=True)
    assert ok is True
    assert x_adv[0] == pytest.approx(-1.0, abs=1e-9)
    assert record.rounded_ok is True


def test_extract_adversarial_requires_feasible_record():
    net = Network([Dense(np.zeros((2, 1)), np.array([1.0, 0.0]))], 1, 2)
    record = pointwise_robustness(net, np.array([0.0]))
    with pytest.raises(ValueError):
        extract_adversarial(record, net)


def test_respect_domain_constrains_search():
    # the flip needs x <= -1 but the domain stops at 0, so nothing is found
    net = Network([Dense(np.array([[0.0], [-1.0]]), np.array([0.0, -1.0])), ],
                  1, 2, input_domain=(0.0, 5.0))
    free = pointwise_robustness(net, np.array([2.0]), respect_domain=False)
    boxed = pointwise_robustness(net, np.array([2.0]), respect_domain=True)
    assert free.rho_hat == pytest.approx(3.0, abs=1e-9)
    assert boxed.rho_hat == math.inf


def test_misclassified_seed_uses_predicted_label():
    net = Network([Dense(np.array([[1.0], [-1.0]]), np.zeros(2))], 1, 2)
    # a point with ground-truth label 1 but predicted 0
    record = pointwise_robustness(net, np.array([2.0]))
    assert record.seed_label == 0


def test_adversarial_norm_equals_rho():
    rng = np.random.default_rng(139)
    for _ in range(20):
        net = random_dense_relu_net(rng, [2, 5, 2])
        seed = rng.normal(size=2)
        record = pointwise_robustness(net, seed)
        if record.found:
            gap = abs(np.abs(record.adversarial - seed).max() - record.rho_hat)
            assert gap <= 1e-6


def test_record_json_round_trip(gradient_trap_net):
    record = pointwise_robustness(gradient_trap_net, np.array([0.0]), seed_index=7)
    obj = record_to_json(record)
    assert obj["index"] == 7 and obj["target"] == 1
    back = record_from_json(obj)
    assert back.rho_hat == pytest.approx(record.rho_hat)
    assert back.adversarial == pytest.approx(record.adversarial)
    assert back.lazy.outer_iterations == record.lazy.outer_iterations


def test_record_json_infeasible_round_trip():
    net = Network([Dense(np.zeros((2, 1)), np.array([1.0, 0.0]))], 1, 2)
    record = pointwise_robustness(net, np.array([0.0]), seed_index=0)
    obj = record_to_json(record)
    assert obj["rho"] is None
    back = record_from_json(obj)
    assert back.rho_hat == math.inf


def test_record_json_carries_flips_and_reads_records_without_it(gradient_trap_net):
    record = pointwise_robustness(gradient_trap_net, np.array([0.0]))
    obj = record_to_json(record)
    assert obj["flips"] is record.flips is not None
    assert record_from_json(obj).flips == record.flips
    del obj["flips"]
    assert record_from_json(obj).flips is None
    net = Network([Dense(np.zeros((2, 1)), np.array([1.0, 0.0]))], 1, 2)
    assert record_to_json(pointwise_robustness(net, np.array([0.0])))["flips"] is None


def test_flips_matches_naive_forward():
    """flips against an independent evaluator, wherever that evaluator's
    decision is clear: a margin-0 witness sits on a logit tie, where the two
    evaluators may round apart."""
    rng = np.random.default_rng(239)
    clear = {True: 0, False: 0}
    for _ in range(40):
        net = random_dense_relu_net(rng, [3, int(rng.integers(3, 8)), 4])
        seed = rng.normal(size=3)
        for margin in (0.0, 0.5):
            record = pointwise_robustness(net, seed, targets="all", margin=margin)
            if not record.found:
                assert record.flips is None
                continue
            logits = naive_forward(net, record.adversarial)
            gap = np.delete(logits, record.seed_label).max() - logits[record.seed_label]
            if abs(gap) > 1e-9:
                naive_flips = bool(np.argmax(logits) != record.seed_label)
                assert record.flips == naive_flips
                clear[naive_flips] += 1
            if margin > 0:
                assert record.flips is True
    assert clear[True] >= 20


def _count_solves(monkeypatch):
    """Route pointwise_robustness's lazy_solve through a counter; returns the
    list that gains one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return lazy_solve(*args, **kwargs)

    monkeypatch.setattr(relucert.robustness, "lazy_solve", counted)
    return calls


def test_conv_all_point_19_regression(monkeypatch):
    """The conv-all benchmark net and row 19 of its dataset: one target of this
    point once stopped phase 1 as "unbounded" and lost the whole point. Of its
    nine targets at most two are solved; the rest cannot win."""
    net = load_model(DATA / "conv_all_model.json")
    point = load_dataset(DATA / "conv_all_point19.csv", "csv", input_dim=net.input_dim,
                         num_labels=net.num_labels)[0]
    calls = _count_solves(monkeypatch)
    record = pointwise_robustness(net, point.x, targets="all")
    assert len(calls) <= 2
    assert record.seed_label == point.label == 9
    assert record.target_label == 0
    assert record.rho_hat == pytest.approx(0.0639089123, abs=1e-9)
    region = extract_region(net, point.x)
    refs = [highs_min_eps(point.x, region.constraints, region.bias,
                          *output_constraints(region, t))
            for t in range(net.num_labels) if t != record.seed_label]
    assert min(r for r in refs if r is not None) == pytest.approx(record.rho_hat, abs=1e-6)


@pytest.mark.parametrize("weights, bias, label, flips", [
    ([[-1.0], [0.0]], [1.0, 0.0], 0, False),  # the tie goes to the seed's label 0
    ([[0.0], [-1.0]], [0.0, 1.0], 1, True),   # the tie goes to the target 0
])
def test_flips_at_an_exact_tie_follows_argmax(weights, bias, label, flips):
    net = Network([Dense(np.array(weights), np.array(bias))], 1, 2)
    record = pointwise_robustness(net, np.array([0.0]))
    assert record.seed_label == label and record.adversarial[0] == 1.0
    logits = naive_forward(net, record.adversarial)
    assert logits[0] == logits[1]
    assert record.flips is flips is bool(np.argmax(logits) != label)


@pytest.mark.parametrize("with_region", [False, True])
@pytest.mark.parametrize("with_domain", [False, True])
def test_rho_lower_bound_is_below_highs(with_region, with_domain):
    """gap / ||g||_1 of any violated output row (the largest holder_bounds, or
    0) never exceeds the whole LP's optimum; a violated all-zero row makes the
    bound and the LP infinite."""
    rng = np.random.default_rng(241 + 2 * with_region + with_domain)
    domain = (-2.0, 2.0) if with_domain else None
    positive = 0
    for trial in range(60):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        seed = rng.uniform(-1.0, 1.0, size=n)
        G = rng.normal(size=(k, n))
        if trial % 10 == 0:
            G[0] = 0.0
        h = -G @ seed + rng.normal(scale=0.5, size=k)
        m = int(rng.integers(1, 6)) if with_region else 0
        A = rng.normal(size=(m, n))
        b = -A @ seed + rng.uniform(0.0, 0.5, size=m)
        bound = holder_bounds(seed, G, h).max(initial=0.0)
        ref = highs_min_eps(seed, A, b, G, h, domain)
        if bound == math.inf:
            assert ref is None
        elif ref is not None:
            assert bound <= ref + 1e-9
            positive += bound > 0
    assert positive >= 20


def test_rho_lower_bound_is_exact_for_one_row():
    rng = np.random.default_rng(251)
    none = (np.zeros((0, 3)), np.zeros(0))
    for _ in range(20):
        seed = rng.normal(size=3)
        g = rng.normal(size=(1, 3))
        h = -g @ seed - rng.uniform(0.1, 1.0, size=1)
        assert holder_bounds(seed, g, h).max(initial=0.0) == pytest.approx(
            highs_min_eps(seed, *none, g, h), abs=1e-9)
    # the row shifted so that the seed meets it gives no bound
    assert holder_bounds(seed, g, -h - 2 * g @ seed).max(initial=0.0) == 0.0


def test_target_lower_bounds_equal_the_per_target_bound():
    """The one stacked pass over every label's output rows gives each label
    the bound of its own rows, on random nets and margins; duplicated logit
    rows give all-zero output rows, which a positive margin violates (+inf)."""
    rng = np.random.default_rng(263)
    infinite = 0
    for trial in range(80):
        dims = [int(rng.integers(1, 6)), int(rng.integers(2, 8)), int(rng.integers(2, 7))]
        net = random_dense_relu_net(rng, dims)
        if trial % 4 == 0:
            last = net.layers[-1]
            last.weights[-1], last.bias[-1] = last.weights[0], last.bias[0]
        seed = rng.normal(size=dims[0])
        margin = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
        region = extract_region(net, seed)

        def stacked_bounds(targets):
            return holder_bounds(seed, *output_constraints(region, targets, margin)).max(
                axis=-1, initial=0.0)

        labels = list(range(dims[-1]))
        bounds = stacked_bounds(labels)
        assert bounds.shape == (dims[-1],)
        for t in labels:
            ref = holder_bounds(seed, *output_constraints(region, t, margin)).max(initial=0.0)
            assert bounds[t] == pytest.approx(ref, rel=1e-9, abs=1e-12)
            assert stacked_bounds([t])[0] == bounds[t]
            infinite += ref == math.inf
    assert infinite >= 5


def _solve_every_target(net, seed, margin, respect_domain, seed_index):
    """Every other label solved in label order, the strict minimum kept (so a
    tie goes to the lower label): the record that target skipping must keep.
    Nothing is skipped when nothing is found, so a not-found record carries
    the sums over every target's solve."""
    label = classify(net, seed)
    region = extract_region(net, seed)
    domain = net.input_domain if respect_domain else None
    best = RobustnessRecord(seed_index, label, None, math.inf)
    spent = []
    for target in range(net.num_labels):
        if target == label:
            continue
        G, h = output_constraints(region, target, margin)
        solution, stats = lazy_solve(seed, region.constraints, region.bias, G, h, domain)
        spent.append(stats.to_json())
        if solution.status == INFEASIBLE:
            continue
        assert solution.status == OPTIMAL
        rho = max(solution.objective_value, 0.0)
        if rho < best.rho_hat:
            best = RobustnessRecord(seed_index, label, target, rho,
                                    adversarial=solution.z[: net.input_dim], lazy=stats)
    if best.found:
        best.flips = bool(classify(net, best.adversarial) != label)
    else:
        best.lazy = LazyStats(**{key: (max if key == "final_active_count" else sum)(
            s[key] for s in spent) for key in spent[0]})
    return best


def _without_timing(record):
    obj = record_to_json(record)
    del obj["timing"]
    return obj


@pytest.mark.parametrize("margin", [0.0, 0.3])
@pytest.mark.parametrize("respect_domain", [False, True])
def test_target_skipping_keeps_the_record_of_solving_every_target(margin, respect_domain,
                                                                   monkeypatch):
    rng = np.random.default_rng(257)
    calls = _count_solves(monkeypatch)
    found = solves = targets = 0
    for i in range(40):
        dims = [int(rng.integers(2, 5)), int(rng.integers(3, 8)), int(rng.integers(3, 7))]
        net = random_dense_relu_net(rng, dims, domain=(-1.0, 1.0))
        seed = rng.uniform(-1.0, 1.0, size=dims[0])
        calls.clear()
        record = pointwise_robustness(net, seed, targets="all", margin=margin,
                                      respect_domain=respect_domain, seed_index=i)
        reference = _solve_every_target(net, seed, margin, respect_domain, i)
        assert _without_timing(record) == _without_timing(reference)
        found += record.found
        solves += len(calls)
        targets += dims[-1] - 1
    assert found >= 10
    assert solves < targets


def test_equal_rho_goes_to_the_lower_target():
    # l1 = x1 - 1 and l2 = x2 - x1 - 1 against l0 = 0 on the domain x >= 0:
    # both targets need radius 1, but target 2's only violated row gives the
    # smaller bound 1/2, so target 2 is solved first and target 1 must still win
    net = Network([Dense(np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 1.0]]),
                         np.array([0.0, -1.0, -1.0]))], 2, 3, input_domain=(0.0, 5.0))
    seed = np.zeros(2)
    region = extract_region(net, seed)
    assert [holder_bounds(seed, *output_constraints(region, t)).max(initial=0.0)
            for t in (1, 2)] == [1.0, 0.5]
    fixed = {t: pointwise_robustness(net, seed, targets=t, respect_domain=True)
             for t in (1, 2)}
    assert fixed[1].rho_hat == fixed[2].rho_hat == 1.0
    record = pointwise_robustness(net, seed, targets="all", respect_domain=True)
    assert record.target_label == 1
    assert _without_timing(record) == _without_timing(fixed[1])



@pytest.mark.parametrize("targets", ["second", "all"])
@pytest.mark.parametrize("margin", [math.nan, math.inf, -1.0])
def test_margin_not_finite_and_nonnegative_is_rejected_before_any_bound_or_solve(
        monkeypatch, targets, margin):
    """A NaN or infinite margin passed the margin < 0 check, and the solve
    died inside the dual simplex on the argmin of an empty sequence."""
    net = random_dense_relu_net(np.random.default_rng(0), [3, 6, 4])

    def unreachable(*args, **kwargs):
        raise AssertionError("a bound or a solve ran")

    monkeypatch.setattr(relucert.robustness, "holder_bounds", unreachable)
    monkeypatch.setattr(relucert.robustness, "lazy_solve", unreachable)
    with pytest.raises(ValueError, match="margin must be finite and >= 0"):
        pointwise_robustness(net, np.zeros(3), targets=targets, margin=margin)


@pytest.mark.parametrize("targets", [2.7, True, np.bool_(True), "2", None])
def test_fixed_target_must_be_an_int(gradient_trap_net, targets):
    """2.7 solved target 2 and True target 1. A string is not a label;
    output_constraints rejects every other target that is not an int."""
    message = ("targets must be 'second', 'all' or an int label" if isinstance(targets, str)
               else "target must be an int label")
    with pytest.raises(ValueError, match=message):
        pointwise_robustness(gradient_trap_net, np.array([0.0]), targets=targets)


def test_fixed_target_may_be_a_numpy_integer(gradient_trap_net):
    records = [pointwise_robustness(gradient_trap_net, np.array([0.0]), targets=t)
               for t in (2, np.int64(2), np.uint8(2))]
    assert {(r.target_label, r.rho_hat) for r in records} == {(2, records[0].rho_hat)}
    for r in records:
        assert type(r.target_label) is int
        json.dumps(record_to_json(r))


@pytest.mark.parametrize("targets", ["second", "all", "fixed"])
def test_output_rows_are_built_once_per_point(monkeypatch, targets):
    """Every target's output rows come from one output_constraints call, which
    both the target bounds and the solves read."""
    rng = np.random.default_rng(31)
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return output_constraints(*args, **kwargs)

    monkeypatch.setattr(relucert.robustness, "output_constraints", spy)
    for _ in range(10):
        net = random_dense_relu_net(rng, [3, 6, 5])
        seed = rng.normal(size=3)
        target = (classify(net, seed) + 1) % 5 if targets == "fixed" else targets
        calls.clear()
        pointwise_robustness(net, seed, targets=target)
        assert len(calls) == 1
