import numpy as np
import pytest

from relucert import (AffineVector, Dense, MaxPool, affine_dense, forward, maxpool_fix,
                      relu_fix)
from helpers import random_conv_pool_net, random_dense_relu_net


def test_identity_dense_keeps_expressions():
    v = AffineVector.identity(2)
    out = affine_dense(Dense(np.eye(2), np.zeros(2)), v)
    assert np.array_equal(out.coeffs, np.eye(2))
    assert np.array_equal(out.bias, np.zeros(2))


def test_dense_hand_expansion():
    v = AffineVector.identity(2)
    out = affine_dense(Dense(np.array([[2.0, 1.0]]), np.array([3.0])), v)
    assert np.array_equal(out.coeffs, [[2.0, 1.0]])
    assert np.array_equal(out.bias, [3.0])


def test_dense_dimension_mismatch():
    with pytest.raises(ValueError):
        affine_dense(Dense(np.eye(3), np.zeros(3)), AffineVector.identity(2))


def test_propagation_matches_forward_on_linear_net():
    rng = np.random.default_rng(23)
    layers = [Dense(rng.normal(size=(4, 3)), rng.normal(size=4)),
              Dense(rng.normal(size=(4, 4)), rng.normal(size=4)),
              Dense(rng.normal(size=(2, 4)), rng.normal(size=2))]
    from relucert import Network

    net = Network(layers, 3, 2)
    v = AffineVector.identity(3)
    for layer in layers:
        v = affine_dense(layer, v)
    for _ in range(100):
        x = rng.normal(size=3) * 3
        assert v.eval(x) == pytest.approx(forward(net, x), abs=1e-9)


def test_relu_fix_rules():
    v = AffineVector.identity(1)
    active = relu_fix(v, [True])
    assert np.array_equal(active.coeffs, [[1.0]])
    inactive = relu_fix(v, [False])
    assert np.array_equal(inactive.coeffs, [[0.0]])
    assert np.array_equal(inactive.bias, [0.0])


def test_relu_fix_mixed_vector():
    rng = np.random.default_rng(1)
    v = AffineVector(rng.normal(size=(4, 2)), rng.normal(size=4))
    signs = [True, False, False, True]
    out = relu_fix(v, signs)
    for j, sign in enumerate(signs):
        if sign:
            assert np.array_equal(out.coeffs[j], v.coeffs[j])
            assert out.bias[j] == v.bias[j]
        else:
            assert np.array_equal(out.coeffs[j], np.zeros(2))
            assert out.bias[j] == 0.0


def test_relu_fix_length_mismatch():
    with pytest.raises(ValueError):
        relu_fix(AffineVector.identity(2), [True])


def test_maxpool_fix_selects_expression():
    v = AffineVector.identity(2)
    windows = np.array([[0, 1]])
    out = maxpool_fix(v, [0], windows)
    assert np.array_equal(out.coeffs, [[1.0, 0.0]])
    out = maxpool_fix(v, [1], windows)
    assert np.array_equal(out.coeffs, [[0.0, 1.0]])


def test_maxpool_fix_two_by_two():
    v = AffineVector.identity(4)
    windows = np.array([[0, 1, 2, 3]])
    out = maxpool_fix(v, [3], windows)
    assert np.array_equal(out.coeffs, [[0.0, 0.0, 0.0, 1.0]])


def test_maxpool_fix_out_of_window():
    v = AffineVector.identity(4)
    with pytest.raises(ValueError):
        maxpool_fix(v, [4], np.array([[0, 1, 2, 3]]))


def test_maxpool_fix_matches_concrete_pool_at_seed():
    rng = np.random.default_rng(31)
    pool = MaxPool((2, 2), 2, input_shape=(1, 4, 4))
    for _ in range(10):
        x = rng.normal(size=16)
        v = AffineVector.identity(16)
        values = v.eval(x)
        selected = np.argmax(values[pool.windows], axis=1)
        pooled = maxpool_fix(v, selected, pool.windows)
        assert pooled.eval(x) == pytest.approx(x[pool.windows].max(axis=1))


def test_region_local_exactness_at_seed():
    # the fully propagated logits, with signs/selections taken at the seed,
    # reproduce forward() at the seed itself
    from relucert import extract_region

    rng = np.random.default_rng(37)
    for _ in range(20):
        net = random_dense_relu_net(rng, [3, 5, 4, 3])
        seed = rng.normal(size=3)
        region = extract_region(net, seed)
        assert region.logits.eval(seed) == pytest.approx(forward(net, seed), abs=1e-9)
    for _ in range(5):
        net = random_conv_pool_net(rng)
        seed = rng.normal(size=16)
        region = extract_region(net, seed)
        assert region.logits.eval(seed) == pytest.approx(forward(net, seed), abs=1e-9)


def test_coefficients_stay_input_sized():
    rng = np.random.default_rng(41)
    net = random_dense_relu_net(rng, [3, 8, 6, 2])
    v = AffineVector.identity(3)
    for layer in net.layers:
        if isinstance(layer, Dense):
            v = affine_dense(layer, v)
        else:
            v = relu_fix(v, v.eval(np.zeros(3)) > 0)
        assert v.num_inputs == 3

