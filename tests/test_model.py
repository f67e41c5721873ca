import gzip
import json
import math
import struct

import numpy as np
import pytest

from relucert import (Conv, DatasetError, Dense, MaxPool, ModelError, Network, Relu,
                      classify, forward, forward_batch, load_dataset, load_model,
                      networks_equal, save_model, second_label)
from helpers import naive_forward, random_conv_pool_net, random_dense_relu_net


def test_forward_identity_dense():
    net = Network([Dense(np.eye(2), np.zeros(2))], 2, 2)
    assert np.array_equal(forward(net, np.array([3.0, -2.0])), [3.0, -2.0])


def test_forward_linear_three_label(gradient_trap_net):
    logits = forward(gradient_trap_net, np.array([0.0]))
    assert logits == pytest.approx([math.log(9 / 8), 0.0, math.log(1 / 3)])


def test_forward_matches_naive_evaluator():
    rng = np.random.default_rng(7)
    for _ in range(10):
        net = random_dense_relu_net(rng, [2, 4, 3])
        for _ in range(10):
            x = rng.normal(size=2) * 2
            assert forward(net, x) == pytest.approx(naive_forward(net, x), abs=1e-9)


def test_forward_conv_pool_matches_naive_evaluator():
    rng = np.random.default_rng(11)
    for _ in range(5):
        net = random_conv_pool_net(rng)
        for _ in range(5):
            x = rng.normal(size=16)
            assert forward(net, x) == pytest.approx(naive_forward(net, x), abs=1e-9)


def test_forward_conv_with_padding_and_stride():
    rng = np.random.default_rng(13)
    conv = Conv(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3),
                stride=2, padding=1, input_shape=(2, 5, 5))
    net = Network([conv], 50, conv.out_dim)
    for _ in range(5):
        x = rng.normal(size=50)
        assert forward(net, x) == pytest.approx(naive_forward(net, x), abs=1e-9)


def test_forward_batch_agrees_with_single():
    rng = np.random.default_rng(3)
    net = random_dense_relu_net(rng, [3, 5, 4, 2])
    X = rng.normal(size=(20, 3))
    batch = forward_batch(net, X)
    for i in range(20):
        assert batch[i] == pytest.approx(forward(net, X[i]), abs=1e-12)


def test_forward_dimension_mismatch():
    net = Network([Dense(np.eye(2), np.zeros(2))], 2, 2)
    with pytest.raises(ValueError):
        forward(net, np.array([1.0, 2.0, 3.0]))


def test_classify_basic_and_ties():
    net = Network([Dense(np.eye(2), np.zeros(2))], 2, 2)
    assert classify(net, np.array([3.0, -2.0])) == 0
    assert classify(net, np.array([1.0, 1.0])) == 0  # tie -> lowest index


def test_classify_trap_points(gradient_trap_net):
    assert classify(gradient_trap_net, np.array([0.0])) == 0
    # scores at x=-1 are [-5/4 + ln(9/8), -1, ln(1/3)]; the middle one wins
    scores = [-5 / 4 + math.log(9 / 8), -1.0, math.log(1 / 3)]
    assert classify(gradient_trap_net, np.array([-1.0])) == int(np.argmax(scores)) == 1


def test_second_label(gradient_trap_net):
    net = Network([Dense(np.eye(2), np.zeros(2))], 2, 2)
    assert second_label(net, np.array([3.0, -2.0])) == 1
    assert second_label(gradient_trap_net, np.array([0.0])) == 1
    tie_net = Network([Dense(np.array([[1.0], [1.0], [0.2]]), np.zeros(3))], 1, 3)
    assert second_label(tie_net, np.array([5.0])) == 1  # max tie at 0 and 1


def test_classify_invariant_under_logit_shift():
    rng = np.random.default_rng(21)
    for _ in range(100):
        net = random_dense_relu_net(rng, [2, 4, 3])
        x = rng.normal(size=2)
        shift = rng.normal() * 10
        last = net.layers[-1]
        shifted = Network(net.layers[:-1] + (Dense(last.weights, last.bias + shift),),
                          2, 3)
        assert classify(net, x) == classify(shifted, x)


def test_forward_is_piecewise_affine_on_lines():
    rng = np.random.default_rng(5)
    ts = np.linspace(-2.0, 2.0, 801)
    for _ in range(5):
        net = random_dense_relu_net(rng, [2, 6, 2])
        x = rng.normal(size=2)
        d = rng.normal(size=2)
        values = forward_batch(net, x + ts[:, None] * d[None, :])
        for coord in range(2):
            v = values[:, coord]
            second = v[2:] - 2 * v[1:-1] + v[:-2]
            scale = max(1.0, np.abs(v).max())
            kinks = np.abs(second) > 1e-7 * scale
            # affine between breakpoints: all curvature concentrates on kinks
            assert np.abs(second[~kinks]).max(initial=0.0) <= 1e-7 * scale
            assert kinks.sum() <= 3 * 6  # a kink spans <= 3 grid triples per unit


def test_network_validation():
    with pytest.raises(ModelError):
        Network([], 2, 2)
    with pytest.raises(ModelError, match="layer 1"):
        Network([Dense(np.eye(2), np.zeros(2)), Dense(np.ones((2, 3)), np.zeros(2))], 2, 2)
    with pytest.raises(ModelError):
        Network([Dense(np.eye(2), np.zeros(2))], 2, 3)
    with pytest.raises(ModelError, match="layer 0"):
        Network([Dense(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros(2))], 2, 2)


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    net = random_dense_relu_net(rng, [2, 4, 3], domain=(0.0, 255.0))
    path = tmp_path / "model.json"
    save_model(net, path)
    assert networks_equal(load_model(path), net)


def test_model_round_trip_conv_pool(tmp_path):
    net = random_conv_pool_net(np.random.default_rng(4))
    path = tmp_path / "model.json"
    save_model(net, path)
    assert networks_equal(load_model(path), net)


def _pool_conv_net(window=(2, 2), stride=3, padding=0, weight=0.0, relu=True, domain=None):
    """Pool (1, 6, 6) -> (1, 3, 3), 3x3 conv -> (2, 1, 1), ReLU, dense 2 -> 2;
    every variant the arguments allow has the same layer dims."""
    dense = np.eye(2)
    dense[0, 1] = weight
    layers = [MaxPool(window, 2, (1, 6, 6)),
              Conv(np.ones((2, 1, 3, 3)), np.zeros(2), stride, padding, (1, 3, 3))]
    layers += [Relu()] if relu else []
    layers.append(Dense(dense, np.zeros(2)))
    return Network(layers, 36, 2, domain)


def test_networks_equal_treats_signed_zeros_as_equal():
    assert networks_equal(_pool_conv_net(weight=-0.0), _pool_conv_net())


@pytest.mark.parametrize("change", [
    {"weight": np.nextafter(0.0, 1.0)}, {"stride": 2}, {"padding": 1}, {"window": (2, 1)},
    {"domain": (0.0, 1.0)}, {"relu": False}])
def test_networks_equal_detects_each_difference(change):
    assert not networks_equal(_pool_conv_net(), _pool_conv_net(**change))
    assert not networks_equal(_pool_conv_net(**change), _pool_conv_net())


def test_load_model_ragged_row_cites_layer(tmp_path):
    doc = {"input_dim": 2, "num_labels": 2, "input_domain": None,
           "layers": [{"type": "dense", "weights": [[1.0, 0.0], [0.0]], "bias": [0.0, 0.0]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="layer 0"):
        load_model(path)


def test_load_model_rejects_nan(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"input_dim": 1, "num_labels": 1, "input_domain": null,'
                    ' "layers": [{"type": "dense", "weights": [[NaN]], "bias": [0.0]}]}')
    with pytest.raises(ModelError, match="layer 0"):
        load_model(path)


def test_load_model_invalid_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ModelError):
        load_model(path)


def test_load_csv_dataset(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("1, 0.5, -0.5\n0, 1.25, 2.5\n")
    points = load_dataset(path, "csv", input_dim=2, num_labels=3)
    assert len(points) == 2
    assert points[0].label == 1
    assert np.array_equal(points[0].x, [0.5, -0.5])


def test_load_csv_label_out_of_range(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("7, 0.5, -0.5\n")
    with pytest.raises(DatasetError, match="label 7"):
        load_dataset(path, "csv", input_dim=2, num_labels=3)


def test_load_csv_row_length_mismatch(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("1, 0.5, -0.5\n0, 1.0\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(path, "csv", input_dim=2, num_labels=3)


def _write_idx_pair(tmp_path, images, labels, compress=False):
    count, rows, cols = images.shape
    img_bytes = struct.pack(">IIII", 0x803, count, rows, cols) + images.tobytes()
    lbl_bytes = struct.pack(">II", 0x801, count) + labels.tobytes()
    opener = gzip.open if compress else open
    suffix = ".gz" if compress else ""
    img_path = tmp_path / f"images.idx{suffix}"
    lbl_path = tmp_path / f"labels.idx{suffix}"
    with opener(img_path, "wb") as fh:
        fh.write(img_bytes)
    with opener(lbl_path, "wb") as fh:
        fh.write(lbl_bytes)
    return img_path, lbl_path


def test_load_idx_pair(tmp_path):
    rng = np.random.default_rng(9)
    images = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=10, dtype=np.uint8)
    img_path, lbl_path = _write_idx_pair(tmp_path, images, labels)
    points = load_dataset(img_path, "idx", labels_path=lbl_path, num_labels=10)
    assert len(points) == 10
    assert points[0].x.shape == (784,)
    assert np.array_equal(points[3].x, images[3].reshape(-1).astype(float))
    assert points[5].label == labels[5]


def test_load_idx_scales_to_domain(tmp_path):
    images = np.array([[[0, 255], [51, 102]]], dtype=np.uint8)
    labels = np.array([1], dtype=np.uint8)
    img_path, lbl_path = _write_idx_pair(tmp_path, images, labels, compress=True)
    points = load_dataset(img_path, "idx", labels_path=lbl_path,
                          input_domain=(0.0, 1.0))
    assert points[0].x == pytest.approx([0.0, 1.0, 0.2, 0.4])


def test_load_idx_checks_pixel_count_against_input_dim(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.zeros(3, dtype=np.uint8)
    img_path, lbl_path = _write_idx_pair(tmp_path, images, labels)
    assert len(load_dataset(img_path, "idx", labels_path=lbl_path, input_dim=4)) == 3
    with pytest.raises(DatasetError, match=r"images\.idx: 2x2 = 4 pixels .* input_dim 3"):
        load_dataset(img_path, "idx", labels_path=lbl_path, input_dim=3)


def test_load_idx_bad_magic(tmp_path):
    img_path = tmp_path / "images.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x123, 1, 2, 2) + b"\0" * 4)
    lbl_path = tmp_path / "labels.idx"
    lbl_path.write_bytes(struct.pack(">II", 0x801, 1) + b"\0")
    with pytest.raises(DatasetError, match="magic"):
        load_dataset(img_path, "idx", labels_path=lbl_path)


def test_load_idx_count_mismatch(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.zeros(3, dtype=np.uint8)
    img_path = tmp_path / "images.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + images.tobytes())
    lbl_path = tmp_path / "labels.idx"
    lbl_path.write_bytes(struct.pack(">II", 0x801, 3) + labels.tobytes())
    with pytest.raises(DatasetError, match="count"):
        load_dataset(img_path, "idx", labels_path=lbl_path)


def test_conv_unroll_matches_naive():
    rng = np.random.default_rng(17)
    conv = Conv(rng.normal(size=(2, 1, 2, 2)), rng.normal(size=2),
                stride=1, padding=0, input_shape=(1, 3, 3))
    dense = conv.as_dense
    net = Network([conv], 9, conv.out_dim)
    for _ in range(5):
        x = rng.normal(size=9)
        assert dense.weights @ x + dense.bias == pytest.approx(naive_forward(net, x))


def test_maxpool_windows():
    pool = MaxPool((2, 2), 2, input_shape=(1, 4, 4))
    assert pool.out_dim == 4
    assert sorted(pool.windows[0]) == [0, 1, 4, 5]
    assert sorted(pool.windows[3]) == [10, 11, 14, 15]


def test_maxpool_overlapping_windows_match_naive():
    rng = np.random.default_rng(29)
    pool = MaxPool((2, 2), 1, input_shape=(1, 3, 3))
    net = Network([pool], 9, pool.out_dim)
    assert pool.out_dim == 4
    for _ in range(10):
        x = rng.normal(size=9)
        assert forward(net, x) == pytest.approx(naive_forward(net, x), abs=1e-12)
