import numpy as np
import pytest

from relucert import (AffineVector, Dense, MaxPool, Network, Relu, affine_dense,
                      build_disjunctive, classify, extract_region, forward,
                      output_constraints)
from helpers import random_conv_pool_net, random_dense_relu_net


def _slacks(region, x):
    return region.constraints @ x + region.bias


def _two_unit_net():
    return Network([Dense(np.array([[1.0], [-1.0]]), np.zeros(2)), Relu(),
                    Dense(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))], 1, 2)


def test_extract_region_one_dim_hand_check():
    net = _two_unit_net()
    region = extract_region(net, np.array([2.0]))
    # unit 0 active at the seed: x >= 0; unit 1 (pre-activation -x) inactive:
    # -(-x) >= 0, i.e. the same halfspace x >= 0
    assert np.array_equal(region.constraints, [[1.0], [1.0]])
    assert np.array_equal(region.bias, [0.0, 0.0])
    assert np.array_equal(region.origin, [[1, 0], [1, 1]])
    assert region.signature == (True, False)


def test_extract_region_linear_classifier_is_unconstrained(gradient_trap_net):
    region = extract_region(gradient_trap_net, np.array([0.0]))
    assert region.constraints.shape == (0, 1) and region.bias.shape == (0,)
    assert region.logits.eval(np.array([0.0])) == pytest.approx(
        forward(gradient_trap_net, np.array([0.0])))


def test_region_logits_classify_like_network_inside_region():
    # sample points inside the region by rejection and compare the symbolic
    # argmax with the network's own prediction
    rng = np.random.default_rng(43)
    net = random_dense_relu_net(rng, [2, 8, 2])
    seed = rng.normal(size=2)
    region = extract_region(net, seed)
    accepted = 0
    trials = 0
    while accepted < 1000 and trials < 200_000:
        trials += 1
        y = seed + rng.normal(size=2) * 0.5
        if _slacks(region, y).min() < 0:
            continue
        accepted += 1
        symbolic = int(np.argmax(region.logits.eval(y)))
        assert symbolic == classify(net, y)
    assert accepted >= 1000


def test_seed_satisfies_its_region():
    rng = np.random.default_rng(47)
    for _ in range(20):
        net = random_dense_relu_net(rng, [3, 6, 4, 3])
        seed = rng.normal(size=3)
        region = extract_region(net, seed)
        assert _slacks(region, seed).min() >= -1e-9
    for _ in range(5):
        net = random_conv_pool_net(rng)
        seed = rng.normal(size=16)
        region = extract_region(net, seed)
        assert _slacks(region, seed).min() >= -1e-9


def test_exactly_one_branch_holds_off_boundary():
    rng = np.random.default_rng(53)
    net = random_dense_relu_net(rng, [2, 5, 2])
    enc = build_disjunctive(net)
    for _ in range(20):
        x = rng.normal(size=2)
        consistent = []
        for pattern in enc.patterns():
            if np.all(_slacks(enc.instantiate(pattern), x) >= 0):
                consistent.append(pattern)
        assert len(consistent) == 1
        assert consistent[0] == extract_region(net, x).signature


def test_output_constraints_counts_and_margin():
    net = random_dense_relu_net(np.random.default_rng(3), [2, 4, 3])
    region = extract_region(net, np.zeros(2))
    G, h = output_constraints(region, 1, 0.0)
    assert G.shape == (2, 2) and h.shape == (2,)
    G_shifted, h_shifted = output_constraints(region, 1, 3.0)
    assert h_shifted == pytest.approx(h - 3.0)
    assert np.array_equal(G, G_shifted)


def test_output_constraints_two_labels():
    net = random_dense_relu_net(np.random.default_rng(5), [2, 4, 2])
    region = extract_region(net, np.zeros(2))
    G, h = output_constraints(region, 1, 0.0)
    W, c = region.logits.coeffs, region.logits.bias
    assert np.array_equal(G, [W[1] - W[0]])
    assert np.array_equal(h, [c[1] - c[0]])


def test_satisfying_points_classify_as_target():
    rng = np.random.default_rng(59)
    net = random_dense_relu_net(rng, [2, 6, 3])
    seed = rng.normal(size=2)
    region = extract_region(net, seed)
    target = classify(net, seed)
    G, h = output_constraints(region, target, 0.01)
    A, b = np.vstack([region.constraints, G]), np.concatenate([region.bias, h])
    accepted = 0
    for _ in range(20_000):
        y = seed + rng.normal(size=2)
        if np.all(A @ y + b >= 0):
            accepted += 1
            assert classify(net, y) == target
    assert accepted > 10


def test_build_disjunctive_site_and_pattern_counts():
    net = Network([Dense(np.random.default_rng(0).normal(size=(3, 2)), np.zeros(3)),
                   Relu(), Dense(np.ones((2, 3)), np.zeros(2))], 2, 2)
    enc = build_disjunctive(net)
    assert len(enc.sites) == 3
    assert enc.num_patterns() == 8
    assert len(list(enc.patterns())) == 8


def test_build_disjunctive_linear_only():
    net = Network([Dense(np.eye(2), np.zeros(2))], 2, 2)
    enc = build_disjunctive(net)
    assert len(enc.sites) == 0
    assert enc.num_patterns() == 1
    region = enc.instantiate(())
    assert region.constraints.shape == (0, 2)
    assert np.array_equal(region.logits.coeffs, np.eye(2))


def test_pattern_counts_with_pool():
    net = random_conv_pool_net(np.random.default_rng(2))
    enc = build_disjunctive(net)
    relu_sites = [s for s in enc.sites if s.kind == "relu"]
    pool_sites = [s for s in enc.sites if s.kind == "pool"]
    assert len(relu_sites) == 8 and len(pool_sites) == 2
    assert enc.num_patterns() == 2 ** 8 * 4 * 4


def test_instantiating_seed_signature_reproduces_region():
    rng = np.random.default_rng(61)
    for make in (lambda: random_dense_relu_net(rng, [3, 5, 3]),
                 lambda: random_conv_pool_net(rng)):
        net = make()
        seed = rng.normal(size=net.input_dim)
        region = extract_region(net, seed)
        enc = build_disjunctive(net)
        again = enc.instantiate(region.signature)
        assert np.array_equal(again.constraints, region.constraints)
        assert np.array_equal(again.bias, region.bias)
        assert np.array_equal(again.origin, region.origin)
        assert again.signature == region.signature
        assert np.array_equal(again.logits.coeffs, region.logits.coeffs)
        assert np.array_equal(again.logits.bias, region.logits.bias)


def test_classification_matches_constraint_satisfiability():
    from relucert import satisfiable_at

    rng = np.random.default_rng(67)
    for _ in range(10):
        net = random_dense_relu_net(rng, [2, 4, 3])
        for _ in range(10):
            x = rng.normal(size=2) * 2
            predicted = classify(net, x)
            for label in range(3):
                assert satisfiable_at(net, x, label) == (label == predicted)


def _rows_one_unit_at_a_time(net, seed):
    """Reference region rows, built per ReLU unit and per pool pair in a loop."""
    v = AffineVector.identity(net.input_dim)
    rows = []
    for i, layer in enumerate(net.layers):
        if isinstance(layer, Relu):
            pre = v.eval(seed)
            for j in range(len(v)):
                if pre[j] > 0.0:
                    rows.append((v.coeffs[j], v.bias[j], (i, j)))
                else:
                    rows.append((-v.coeffs[j], -v.bias[j], (i, j)))
            keep = (pre > 0.0).astype(float)
            v = AffineVector(v.coeffs * keep[:, None], v.bias * keep)
        elif isinstance(layer, MaxPool):
            pre = v.eval(seed)
            chosen = [int(w[np.argmax(pre[w])]) for w in layer.windows]
            for w, window in enumerate(layer.windows):
                for m in window:
                    if m != chosen[w]:
                        rows.append((v.coeffs[chosen[w]] - v.coeffs[m],
                                     v.bias[chosen[w]] - v.bias[m], (i, w)))
            v = AffineVector(v.coeffs[chosen], v.bias[chosen])
        else:
            v = affine_dense(layer, v)
    return rows


def test_region_rows_match_per_unit_construction():
    # same rows, same order, same bits as building each row on its own
    rng = np.random.default_rng(71)
    for make in (lambda: random_dense_relu_net(rng, [3, 6, 5, 3]),
                 lambda: random_conv_pool_net(rng)):
        for _ in range(5):
            net = make()
            seed = rng.normal(size=net.input_dim)
            region = extract_region(net, seed)
            expected = _rows_one_unit_at_a_time(net, seed)
            assert len(region.constraints) == len(expected)
            for k, (coeffs, bias, origin) in enumerate(expected):
                assert np.array_equal(region.constraints[k], coeffs)
                assert region.bias[k] == bias
                assert tuple(region.origin[k]) == origin
