from itertools import product

import numpy as np
import pytest

from relucert import (AffineVector, Dense, MaxPool, Network, Relu, affine_dense,
                      build_disjunctive, classify, encoder, extract_region, forward,
                      output_constraints)
from helpers import random_conv_pool_net, random_dense_relu_net, small_pool_net


def _slacks(region, x):
    return region.constraints @ x + region.bias


def _same_pattern(p, q):
    """Per-layer patterns with equal arrays, dtypes included."""
    return len(p) == len(q) and all(a.dtype == b.dtype and np.array_equal(a, b)
                                    for a, b in zip(p, q))


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
    assert np.array_equal(build_disjunctive(net).origin, [[1, 0], [1, 1]])
    assert _same_pattern(region.pattern, (np.array([True, False]),))


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
        assert _same_pattern(consistent[0], extract_region(net, x).pattern)


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


@pytest.mark.parametrize("target, ok", [
    (-1, False), (4, False), (True, False), (2.0, False), (1.5, False),
    (np.array([0, 4]), False), (np.array([3, 0, 2, 0, 1]), True),
    (np.array([2], dtype=np.uint8), True), (np.arange(4, dtype=np.int32), True),
], ids=["negative", "L", "bool", "integral-float", "fraction", "one-bad-in-array",
        "int64-array", "uint8-array", "int32-array"])
def test_output_constraints_take_integer_labels(target, ok):
    """A target that is not an integer label in [0, L) raises; an int array
    gives each label's single-target rows, bit for bit, in its own block."""
    net = random_dense_relu_net(np.random.default_rng(7), [3, 5, 4])
    region = extract_region(net, np.ones(3))
    if not ok:
        with pytest.raises(ValueError, match="target"):
            output_constraints(region, target, 0.5)
        return
    G, h = output_constraints(region, target, 0.5)
    assert G.shape == (len(target), 3, 3) and h.shape == (len(target), 3)
    for block, t in enumerate(target.tolist()):
        G_t, h_t = output_constraints(region, t, 0.5)
        assert G[block].tobytes() == G_t.tobytes() and h[block].tobytes() == h_t.tobytes()


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
    assert enc.layers == ((1, 3, 2),)
    assert enc.num_patterns() == 8
    assert len(list(enc.patterns())) == 8


def test_build_disjunctive_linear_only():
    net = Network([Dense(np.eye(2), np.zeros(2))], 2, 2)
    enc = build_disjunctive(net)
    assert enc.layers == ()
    assert enc.num_patterns() == 1
    region = enc.instantiate(())
    assert region.constraints.shape == (0, 2)
    assert np.array_equal(region.logits.coeffs, np.eye(2))


def test_pattern_counts_with_pool():
    net = random_conv_pool_net(np.random.default_rng(2))
    enc = build_disjunctive(net)
    # conv -> relu (8 units) -> 2x2 pool (2 windows of 4) -> dense
    assert enc.layers == ((1, 8, 2), (2, 2, 4))
    assert enc.num_patterns() == 2 ** 8 * 4 * 4


def test_instantiating_seed_signature_reproduces_region():
    # instantiate(region.pattern) gives extract_region's region bit for bit
    rng = np.random.default_rng(61)
    for make in (lambda: random_dense_relu_net(rng, [3, 5, 3]),
                 lambda: random_dense_relu_net(rng, [4, 6, 6, 5, 3]),
                 lambda: random_conv_pool_net(rng),
                 lambda: small_pool_net(rng)):
        for _ in range(3):
            net = make()
            seed = rng.normal(size=net.input_dim)
            region = extract_region(net, seed)
            enc = build_disjunctive(net)
            again = enc.instantiate(region.pattern)
            for a, b in [(again.constraints, region.constraints), (again.bias, region.bias),
                         (again.logits.coeffs, region.logits.coeffs),
                         (again.logits.bias, region.logits.bias)]:
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert enc.origin.shape == (len(region.constraints), 2)
            assert _same_pattern(again.pattern, region.pattern)
            assert [p.dtype.kind for p in region.pattern] == [
                "b" if isinstance(net.layers[i], Relu) else "i" for i, _, _ in enc.layers]


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
    # the last net starts with a ReLU on the inputs, so the pass starts from
    # the identity instead of a first layer's weights
    for make in (lambda: random_dense_relu_net(rng, [3, 6, 5, 3]),
                 lambda: random_conv_pool_net(rng),
                 lambda: Network([Relu(), *random_dense_relu_net(rng, [3, 6, 3]).layers], 3, 3)):
        for _ in range(5):
            net = make()
            seed = rng.normal(size=net.input_dim)
            region = extract_region(net, seed)
            origins = build_disjunctive(net).origin
            expected = _rows_one_unit_at_a_time(net, seed)
            assert len(region.constraints) == len(origins) == len(expected)
            for k, (coeffs, bias, origin) in enumerate(expected):
                assert np.array_equal(region.constraints[k], coeffs)
                assert region.bias[k] == bias
                assert tuple(origins[k]) == origin


def _per_unit_patterns(net):
    """Every pattern flattened, in the order of itertools.product over one
    choice per unit: (False, True) per ReLU unit, each position per pool
    window."""
    dims = net.layer_dims()
    choices = []
    for i, layer in enumerate(net.layers):
        if isinstance(layer, Relu):
            choices += [(False, True)] * dims[i]
        elif isinstance(layer, MaxPool):
            choices += [tuple(range(layer.windows.shape[1]))] * layer.windows.shape[0]
    return list(product(*choices))


def test_patterns_follow_per_unit_product_order():
    # exact_robustness keeps the first strict minimum, so the order is part
    # of its result
    rng = np.random.default_rng(73)
    for net in (random_dense_relu_net(rng, [2, 3, 2, 2]), small_pool_net(rng)):
        enc = build_disjunctive(net)
        patterns = list(enc.patterns())
        flat = [tuple(v for layer in p for v in layer.tolist()) for p in patterns]
        assert flat == _per_unit_patterns(net)
        assert len(patterns) == enc.num_patterns() == len(set(flat))
        for p in patterns:
            assert len(enc.instantiate(p).constraints) == len(enc.origin)
    assert len(patterns) == 2 ** 4 * 4


@pytest.mark.parametrize("pattern, message", [
    ((np.ones(4, dtype=bool),), "pattern has 1 layers, expected 2"),
    ((np.ones(4, dtype=bool), [0], [0]), "pattern has 3 layers, expected 2"),
    ((np.ones(5, dtype=bool), [0]), r"layer 1: pattern shape \(5,\), expected \(4,\)"),
    ((np.ones(4, dtype=bool), [0, 0]), r"layer 2: pattern shape \(2,\), expected \(1,\)"),
    ((np.ones(4, dtype=bool), [4]), r"layer 2: window position outside \[0, 4\)"),
    ((np.ones(4, dtype=bool), [-1]), r"layer 2: window position outside \[0, 4\)")])
def test_instantiate_rejects_malformed_patterns(monkeypatch, pattern, message):
    enc = build_disjunctive(small_pool_net(np.random.default_rng(79)))
    enc.instantiate((np.ones(4, dtype=bool), [3]))

    def no_rows(*args):
        raise AssertionError("rows built for a malformed pattern")

    monkeypatch.setattr(encoder, "_propagate", no_rows)
    with pytest.raises(ValueError, match=message):
        enc.instantiate(pattern)
