"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with -s to see them on success)."""

import math
import time

import numpy as np

from relucert import (classify, compute_curve, compute_stats,
                      exact_robustness, extract_region, fgsm, forward_batch,
                      grid_robustness, input_gradient, lazy_solve,
                      loss_and_gradients, pointwise_robustness,
                      satisfiable_labels, second_label, verify_record)
from relucert.encoder import output_constraints
from relucert.model import Dense

from helpers import (TOY_EPS_FINETUNE, TOY_EPS_MATCHED, highs_min_eps,
                     random_conv_pool_net, random_dense_relu_net, toy_run)


class _report:
    def __init__(self, number, name):
        self.line = f"[criterion {number}] {name}"

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"{self.line}: {'PASS' if exc_type is None else 'FAIL'}")
        return False


def _random_tiny_net(rng):
    n = int(rng.integers(1, 4))
    labels = int(rng.integers(2, 4))
    if rng.random() < 0.6:
        dims = [n, int(rng.integers(1, 9)), labels]
    else:
        dims = [n, int(rng.integers(1, 5)), int(rng.integers(1, 5)), labels]
    return random_dense_relu_net(rng, dims)


def test_01_satisfiability_equivalence():
    # 200 random nets (n <= 3, <= 8 relu sites, L <= 3), 50 inputs each:
    # an activation pattern admitting label l at x exists iff classify(x) == l
    with _report(1, "classification matches pattern satisfiability"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        failures = 0
        for _ in range(200):
            net = _random_tiny_net(rng)
            X = rng.normal(size=(50, net.input_dim)) * 2.0
            table = satisfiable_labels(net, X)
            predicted = np.argmax(forward_batch(net, X), axis=1)
            expected = np.zeros_like(table)
            expected[np.arange(50), predicted] = True
            failures += int((table != expected).sum())
        elapsed = time.perf_counter() - start
        assert failures == 0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_02_overapproximation():
    # restricted estimate >= exact - 1e-6 and grid >= exact - resolution
    with _report(2, "region estimate overapproximates exact robustness"):
        rng = np.random.default_rng(2025)
        resolution = 0.05
        for _ in range(100):
            n = int(rng.integers(1, 3))
            net = random_dense_relu_net(
                rng, [n, int(rng.integers(2, 7)), int(rng.integers(2, 4))])
            seed = rng.normal(size=n)
            exact = exact_robustness(net, seed).rho
            estimate = pointwise_robustness(net, seed).rho_hat
            assert estimate >= exact - 1e-6
            grid = grid_robustness(net, seed, radius=2.0, resolution=resolution)
            assert grid >= exact - resolution - 1e-9


def _certification_instance(rng):
    net = random_dense_relu_net(rng, [2, 6, 3])
    seed = rng.normal(size=2)
    region = extract_region(net, seed)
    target = int(rng.integers(0, 3))
    return (seed, region.constraints, region.bias) + output_constraints(region, target, 0.0)


def _eager(seed, A, b, G, h):
    """The whole LP at once, every row present, by scipy's HiGHS: its optimum,
    or None when it is infeasible."""
    return highs_min_eps(seed, A, b, G, h)


def test_03_lazy_equals_eager():
    with _report(3, "working-set solve equals full solve; big net stays lazy"):
        rng = np.random.default_rng(2026)
        for _ in range(100):
            instance = _certification_instance(rng)
            lazy_sol, stats = lazy_solve(*instance)
            eager = _eager(*instance)
            assert lazy_sol.status == ("infeasible" if eager is None else "optimal")
            if eager is not None:
                assert abs(lazy_sol.objective_value - eager) <= 1e-6

        # a 512-relu network: the loop must activate a small fraction of the
        # pool; the wall-time ratio is informational
        big_rng = np.random.default_rng(99)
        net = random_dense_relu_net(big_rng, [10, 256, 256, 3])
        ratios = []
        solved = None
        for trial in range(40):
            seed = big_rng.normal(size=10) * (0.5 + trial * 0.1)
            region = extract_region(net, seed)
            instance = ((seed, region.constraints, region.bias)
                        + output_constraints(region, second_label(net, seed), 0.0))
            t0 = time.perf_counter()
            lazy_sol, stats = lazy_solve(*instance)
            lazy_time = time.perf_counter() - t0
            if lazy_sol.status != "optimal":
                continue
            assert stats.constraints_added < 0.5 * len(region.constraints)
            t0 = time.perf_counter()
            eager = _eager(*instance)
            eager_time = time.perf_counter() - t0
            assert abs(lazy_sol.objective_value - eager) <= 1e-6
            ratios.append(eager_time / max(lazy_time, 1e-9))
            solved = (len(region.constraints), stats.constraints_added)
            break
        assert solved is not None, "no feasible big instance found"
        assert ratios[0] > 1.0  # lazy must beat the eager wall time outright
        print(f"\n  512-relu net: activated {solved[1]}/{solved[0]} pool"
              f" constraints, eager/lazy wall-time ratio {ratios[0]:.0f}x")


def test_04_line_classifier_fixture(gradient_trap_net):
    with _report(4, "1-d three-label fixture: label, gradient sign, both radii"):
        start = time.perf_counter()
        net = gradient_trap_net
        x = np.array([0.0])
        assert classify(net, x) == 0
        # gradient of the label-1 log-score at the origin is positive
        d_logscore_1 = -input_gradient(net, x, 1)[0]
        assert d_logscore_1 > 0
        expected = 4 * math.log(9 / 8)
        assert abs(exact_robustness(net, x).rho - expected) <= 1e-6
        assert abs(pointwise_robustness(net, x, targets="second").rho_hat
                   - expected) <= 1e-6
        assert time.perf_counter() - start < 1.0


def test_05_estimators():
    with _report(5, "frequency/severity estimators and curve agreement"):
        stats = compute_stats([5.0, 25.0, 10.0, 30.0], 20.0)
        assert stats.frequency == 0.5
        assert stats.severity == 7.5
        mixed = [5.0, math.inf, 12.5, 20.0, 31.0, math.inf, 0.25]
        curve = compute_curve(mixed)
        for value, count in curve.rows():
            assert count == compute_stats(mixed, value).count_below
        assert curve.count_at(20.0) == compute_stats(mixed, 20.0).count_below


def test_06_certificate_validity():
    # every finite record across a property sweep satisfies its constraints
    # with slack >= -1e-6 and attains its radius within 1e-6
    with _report(6, "adversarial certificates satisfy their constraint systems"):
        rng = np.random.default_rng(2027)
        finite = 0
        for case in range(120):
            if case % 10 == 9:
                net = random_conv_pool_net(rng)
            else:
                net = _random_tiny_net(rng)
            seed = rng.normal(size=net.input_dim)
            for margin in (0.0, 3.0):
                record = pointwise_robustness(net, seed, margin=margin)
                if not record.found:
                    continue
                finite += 1
                check = verify_record(net, seed, record, margin=margin)
                assert check.min_slack >= -1e-6
                assert check.norm_gap <= 1e-6
                assert check.ranking_slack >= -1e-6
        assert finite >= 40, f"only {finite} finite certificates generated"


def test_07_finetuning_reduces_frequency():
    with _report(7, "one-round adversarial fine-tuning lowers frequency"):
        start = time.perf_counter()
        eps = TOY_EPS_FINETUNE
        for seed in (0, 1, 2):
            run = toy_run(seed)
            base_freq = compute_stats(run["base"]["rhos"], eps).frequency
            tuned_freq = compute_stats(run["tuned"]["rhos"], eps).frequency
            acc_drop = run["base"]["acc"] - run["tuned"]["acc"]
            print(f"\n  seed {seed}: frequency {base_freq:.4f} -> {tuned_freq:.4f},"
                  f" accuracy {run['base']['acc']:.4f} -> {run['tuned']['acc']:.4f}")
            assert tuned_freq < base_freq
            assert acc_drop <= 0.02 + 1e-12
        assert time.perf_counter() - start < 300.0


def test_08_lp_dominates_signed_gradient():
    with _report(8, "certification finds at least as many flips as the"
                    " one-step attack"):
        eps = TOY_EPS_MATCHED
        for seed in (0, 1, 2):
            run = toy_run(seed)
            net = run["base"]["net"]
            lp_freq = compute_stats(run["base"]["rhos"], eps).frequency
            flips = [classify(net, fgsm(net, p.x, eps)) != classify(net, p.x)
                     for p in run["test"]]
            fgsm_freq = sum(flips) / len(flips)
            print(f"\n  seed {seed}: lp {lp_freq:.4f} vs signed-gradient"
                  f" {fgsm_freq:.4f}")
            assert lp_freq >= fgsm_freq


def test_09_gradient_check():
    with _report(9, "backprop matches central finite differences to 1e-4"):
        rng = np.random.default_rng(2028)
        net = random_dense_relu_net(rng, [2, 3, 2])
        X = rng.normal(size=(6, 2))
        y = rng.integers(0, 2, size=6)
        _, grad = loss_and_gradients(net, X, y)
        step = 1e-5
        for li, layer in enumerate(net.layers):
            if not isinstance(layer, Dense):
                continue
            for arr, analytic in ((layer.weights, grad.params[li][0]),
                                  (layer.bias, grad.params[li][1])):
                numeric = np.zeros_like(arr)
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + step
                    plus, _ = loss_and_gradients(net, X, y)
                    arr[idx] = orig - step
                    minus, _ = loss_and_gradients(net, X, y)
                    arr[idx] = orig
                    numeric[idx] = (plus - minus) / (2 * step)
                rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
                assert rel.max() <= 1e-4
