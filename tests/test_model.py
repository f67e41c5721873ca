import gzip
import json
import math
import struct
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relucert import model
from relucert import (Conv, DatasetError, Dense, MaxPool, ModelError, Network, Relu,
                      classify, forward, forward_batch, load_dataset, load_model,
                      networks_equal, save_model, second_label)
from helpers import (naive_forward, random_conv_pool_net, random_dense_relu_net,
                     reference_load_csv)


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


# every size load_model reads, as (layer or None for the document, field,
# list index or None), on random_conv_pool_net: conv 0, relu 1, pool 2, dense 3
_SIZE_FIELDS = [(None, "input_dim", None), (None, "num_labels", None),
                (0, "stride", None), (0, "padding", None),
                (0, "input_shape", 0), (0, "input_shape", 1), (0, "input_shape", 2),
                (2, "window", 0), (2, "window", 1), (2, "stride", None),
                (2, "input_shape", 0), (2, "input_shape", 1), (2, "input_shape", 2)]


def _write_with_size(tmp_path, net, where, change):
    """Save net, then replace one size field by change(old value)."""
    layer, field, k = where
    path = tmp_path / "model.json"
    save_model(net, path)
    doc = json.loads(path.read_text())
    obj = doc if layer is None else doc["layers"][layer]
    if k is None:
        obj[field] = change(obj[field])
    else:
        obj[field][k] = change(obj[field][k])
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("where", _SIZE_FIELDS, ids=lambda w: "-".join(map(str, w)))
@pytest.mark.parametrize("change", [lambda v: v + 0.7, lambda v: True, lambda v: str(v)],
                         ids=["fraction", "bool", "string"])
def test_load_model_rejects_non_integral_sizes(tmp_path, where, change):
    # int() would load 2.7 as 2, true as 1 and "3" as 3: a different network
    net = random_conv_pool_net(np.random.default_rng(4))
    layer, field, k = where
    path = _write_with_size(tmp_path, net, where, change)
    name = field if k is None else f"{field}[{k}]"
    prefix = "" if layer is None else f"layer {layer}: "
    bad = json.loads(path.read_text())
    bad = bad if layer is None else bad["layers"][layer]
    bad = bad[field] if k is None else bad[field][k]
    with pytest.raises(ModelError) as exc:
        load_model(path)
    assert str(exc.value) == f"{prefix}{name}: expected an integer, got {bad!r}"


@pytest.mark.parametrize("where", _SIZE_FIELDS, ids=lambda w: "-".join(map(str, w)))
def test_load_model_accepts_integral_float_sizes(tmp_path, where):
    net = random_conv_pool_net(np.random.default_rng(4))
    path = _write_with_size(tmp_path, net, where, float)
    assert networks_equal(load_model(path), net)


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


@pytest.mark.parametrize("text, domain", [("0,0.5,0.5\n1,0.5,nan\n", (0.0, 1.0)),
                                          ("0,0.5,0.5\n1,0.5,inf\n", None),
                                          ("0,0.5,0.5\n1,-inf,0.5\n", (0.0, 1.0))])
def test_load_csv_rejects_non_finite_features(tmp_path, text, domain):
    path = tmp_path / "points.csv"
    path.write_text(text)
    with pytest.raises(DatasetError, match="^line 2: non-finite feature$"):
        load_dataset(path, "csv", input_domain=domain)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_load_csv_rejects_non_finite_labels(tmp_path, token):
    path = tmp_path / "points.csv"
    path.write_text(f"1,0.5\n\n{token} ,0.5\n")
    with pytest.raises(DatasetError, match=f"^line 3: non-integer label '{token} '$"):
        load_dataset(path, "csv", num_labels=3)


def test_load_csv_rejects_underscored_digits(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("1,0.5\n1,1_0\n")
    with pytest.raises(DatasetError,
                       match="^line 2: could not convert string to float: '1_0'$"):
        load_dataset(path, "csv")


@pytest.mark.parametrize("text", ["", "\n", "  \n\t\r\n\n"])
def test_load_csv_without_rows_is_empty_and_silent(tmp_path, text):
    path = tmp_path / "points.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_dataset(path, "csv", input_dim=2, num_labels=3,
                            input_domain=(0.0, 1.0)) == []


_FAULTS = ["token", "empty", "ragged", "fraction", "range", "domain"]


@st.composite
def csv_files(draw):
    """(text, load_dataset keywords) of a random CSV file with up to two
    faults, on one line or two; blank lines, CRLF, padded tokens and varied
    label spellings."""
    dim = draw(st.integers(1, 4))
    num_labels = draw(st.integers(1, 4))
    domain = draw(st.sampled_from([None, (-1.0, 1.0)]))
    feature = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
        st.floats(-1.0, 1.0) if domain else st.floats(allow_nan=False, allow_infinity=False))
    pad = st.sampled_from(["", " ", "\t", "  "])
    rows = []
    for _ in range(draw(st.integers(1, 25))):
        label = draw(st.integers(0, num_labels - 1))
        spelling = draw(st.sampled_from(["{}", "{}.0", "+{}", "{}e0"]))
        rows.append([spelling.format(label)]
                    + [repr(draw(feature)) for _ in range(dim)])
    # ragged last, so that the other faults find every column in place
    for fault in sorted(draw(st.lists(st.sampled_from(_FAULTS), max_size=2, unique=True)),
                        key=lambda fault: fault == "ragged"):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        column = draw(st.integers(1, dim))
        if fault == "token":
            row[column] = draw(st.sampled_from(["abc", "1x", "0.5.5", "--1"]))
        elif fault == "empty":
            row[column] = draw(st.sampled_from(["", " "]))
        elif fault == "fraction":
            row[0] = "1.5"
        elif fault == "range":
            row[0] = draw(st.sampled_from([str(num_labels), "-1"]))
        elif fault == "domain":
            row[column] = "1.5"
        elif draw(st.booleans()):
            del row[column]
        else:
            row.append("0.5")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(["", " ", "\t "]), max_size=2))
        lines.append(",".join(draw(pad) + token + draw(pad) for token in row))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    kwargs = {"input_dim": draw(st.sampled_from([None, dim])),
              "num_labels": draw(st.sampled_from([None, num_labels])),
              "input_domain": domain}
    return text, kwargs


_LABELS_AND_DOMAIN = {"input_dim": None, "num_labels": 2, "input_domain": (-1.0, 1.0)}


@settings(max_examples=200, deadline=None)
@given(csv_files(), st.sampled_from([1, 40, 1 << 18]))
@example(("0,0.5\n0,1.5\n7,0.5\n", _LABELS_AND_DOMAIN), 1 << 18)
@example(("0,0.5\n7,1.5\n", _LABELS_AND_DOMAIN), 1 << 18)
@example(("0,0.5\n0.5,9,1.5\n", _LABELS_AND_DOMAIN), 1 << 18)
@example(("0\n", {"input_dim": None, "num_labels": None, "input_domain": (-1.0, 1.0)}), 1)
def test_load_csv_matches_per_line_reference(tmp_path_factory, case, block_bytes):
    text, kwargs = case
    path = tmp_path_factory.getbasetemp() / "parity.csv"
    path.write_bytes(text.encode())
    try:
        expected = reference_load_csv(path, **kwargs)
    except DatasetError as exc:
        expected = exc
    with patch.object(model, "_CSV_BLOCK_BYTES", block_bytes), warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expected, DatasetError):
            with pytest.raises(DatasetError) as raised:
                load_dataset(path, "csv", **kwargs)
            assert str(raised.value) == str(expected)
            return
        points = load_dataset(path, "csv", **kwargs)
    assert [p.label for p in points] == [p.label for p in expected]
    assert all(type(p.label) is int for p in points)
    assert [p.x.tobytes() for p in points] == [p.x.tobytes() for p in expected]


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
