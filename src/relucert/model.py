"""Piecewise-linear feedforward networks: layers, exact evaluation, file I/O.

Networks are immutable after construction and safe to share across threads.
Supported layers are dense (fully connected), convolution, ReLU and max
pooling; convolutions and pools carry their input shape so they unroll to
flat affine maps / index windows.
"""

from __future__ import annotations

import gzip
import itertools
import json
import struct
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class ModelError(ValueError):
    """Malformed model file or violated shape/finiteness invariant."""


class DatasetError(ValueError):
    """Malformed dataset file or out-of-range value."""


def _as_int(value, field: str) -> int:
    """An integral number (2, 2.0 or a NumPy integer) as an int; 2.7, True or
    "3" raise ModelError naming field."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            or isinstance(value, (float, np.floating)) and float(value).is_integer()):
        raise ModelError(f"{field}: expected an integer, got {value!r}")
    return int(value)


def _as_ints(values, field: str) -> tuple[int, ...]:
    return tuple(_as_int(v, f"{field}[{k}]") for k, v in enumerate(values))


def _float_array(value, ndim, what):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{what}: not a numeric array ({exc})") from None
    if arr.ndim != ndim:
        raise ModelError(f"{what}: expected {ndim}-d array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Dense:
    """Fully connected layer y = W x + b with W of shape (out, in)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = _float_array(self.weights, 2, "dense weights")
        b = _float_array(self.bias, 1, "dense bias")
        if b.shape[0] != w.shape[0]:
            raise ModelError(
                f"dense bias length {b.shape[0]} != weight rows {w.shape[0]}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class Conv:
    """2-D convolution over a (channels, height, width) input.

    kernel has shape (out_channels, in_channels, kh, kw). The layer unrolls
    to its equivalent flat affine map on demand, which unifies it with Dense
    for both evaluation and constraint encoding.
    """

    kernel: np.ndarray
    bias: np.ndarray
    stride: int
    padding: int
    input_shape: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "stride", _as_int(self.stride, "stride"))
        object.__setattr__(self, "padding", _as_int(self.padding, "padding"))
        object.__setattr__(self, "input_shape", _as_ints(self.input_shape, "input_shape"))
        k = _float_array(self.kernel, 4, "conv kernel")
        b = _float_array(self.bias, 1, "conv bias")
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "bias", b)
        if len(self.input_shape) != 3:
            raise ModelError("conv input_shape must be (channels, height, width)")
        if b.shape[0] != k.shape[0]:
            raise ModelError(f"conv bias length {b.shape[0]} != out channels {k.shape[0]}")
        if self.input_shape[0] != k.shape[1]:
            raise ModelError(
                f"conv input channels {self.input_shape[0]} != kernel channels {k.shape[1]}")
        if self.stride < 1 or self.padding < 0:
            raise ModelError("conv stride must be >= 1 and padding >= 0")
        oc, oh, ow = self.output_shape
        if oh < 1 or ow < 1:
            raise ModelError(f"conv output shape {(oc, oh, ow)} is empty")

    @cached_property
    def output_shape(self):
        _, h, w = self.input_shape
        oc, _, kh, kw = self.kernel.shape
        oh = (h + 2 * self.padding - kh) // self.stride + 1
        ow = (w + 2 * self.padding - kw) // self.stride + 1
        return (oc, oh, ow)

    @property
    def in_dim(self):
        c, h, w = self.input_shape
        return c * h * w

    @property
    def out_dim(self):
        oc, oh, ow = self.output_shape
        return oc * oh * ow

    @cached_property
    def as_dense(self) -> Dense:
        """Unrolled flat affine map equivalent to this convolution."""
        c, h, w = self.input_shape
        oc, ic, kh, kw = self.kernel.shape
        _, oh, ow = self.output_shape
        oy, ox, ky, kx = np.indices((oh, ow, kh, kw))
        iy = oy * self.stride - self.padding + ky
        ix = ox * self.stride - self.padding + kx
        inside = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
        # Each (output pixel, input pixel) pair inside the image gets the
        # kernel tap that joins them, for every (out, in) channel pair.
        weights = np.zeros((oc, oh * ow, ic, h * w))
        weights[:, (oy * ow + ox)[inside], :, (iy * w + ix)[inside]] = \
            np.moveaxis(self.kernel[:, :, ky[inside], kx[inside]], -1, 0)
        return Dense(weights.reshape(self.out_dim, self.in_dim), np.repeat(self.bias, oh * ow))


@dataclass(frozen=True, eq=False)
class Relu:
    """Elementwise max(x, 0)."""


@dataclass(frozen=True, eq=False)
class MaxPool:
    """Max pooling with a (wh, ww) window over a (channels, height, width) input.

    Only full windows are emitted (floor semantics, no padding).
    """

    window: tuple[int, int]
    stride: int
    input_shape: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "window", _as_ints(self.window, "window"))
        object.__setattr__(self, "stride", _as_int(self.stride, "stride"))
        object.__setattr__(self, "input_shape", _as_ints(self.input_shape, "input_shape"))
        if len(self.window) != 2 or min(self.window) < 1:
            raise ModelError("pool window must be (wh, ww) with positive entries")
        if self.stride < 1:
            raise ModelError("pool stride must be >= 1")
        c, h, w = self.input_shape
        if h < self.window[0] or w < self.window[1]:
            raise ModelError(f"pool window {self.window} larger than input {(h, w)}")

    @cached_property
    def output_shape(self):
        c, h, w = self.input_shape
        oh = (h - self.window[0]) // self.stride + 1
        ow = (w - self.window[1]) // self.stride + 1
        return (c, oh, ow)

    @property
    def in_dim(self):
        c, h, w = self.input_shape
        return c * h * w

    @property
    def out_dim(self):
        c, oh, ow = self.output_shape
        return c * oh * ow

    @cached_property
    def windows(self) -> np.ndarray:
        """Flat input indices per output unit, shape (out_dim, wh * ww)."""
        c, h, w = self.input_shape
        _, oh, ow = self.output_shape
        wh, ww = self.window
        ch, oy, ox, dy, dx = np.indices((c, oh, ow, wh, ww))
        flat = (ch * h + oy * self.stride + dy) * w + ox * self.stride + dx
        return flat.reshape(self.out_dim, wh * ww)


Layer = Dense | Conv | Relu | MaxPool


def _out_dim(layer: Layer, in_dim: int) -> int:
    if isinstance(layer, Relu):
        return in_dim
    if layer.in_dim != in_dim:
        raise ModelError(
            f"expects input dim {layer.in_dim}, previous layer produces {in_dim}")
    return layer.out_dim


def _check_finite(layer: Layer):
    for f in fields(layer):
        value = getattr(layer, f.name)
        if isinstance(value, np.ndarray) and not np.isfinite(value).all():
            raise ModelError("contains non-finite weight")


@dataclass(frozen=True, eq=False)
class Network:
    """An ordered stack of layers classifying input_dim-vectors into num_labels classes."""

    layers: tuple[Layer, ...]
    input_dim: int
    num_labels: int
    input_domain: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_dim", _as_int(self.input_dim, "input_dim"))
        object.__setattr__(self, "num_labels", _as_int(self.num_labels, "num_labels"))
        if not self.layers:
            raise ModelError("network needs at least one layer")
        if self.input_dim < 1 or self.num_labels < 1:
            raise ModelError("input_dim and num_labels must be positive")
        dim = self.input_dim
        for i, layer in enumerate(self.layers):
            try:
                if not isinstance(layer, Layer):
                    raise ModelError(f"unsupported layer type {type(layer).__name__}")
                _check_finite(layer)
                dim = _out_dim(layer, dim)
            except ModelError as exc:
                raise ModelError(f"layer {i}: {exc}") from None
        if dim != self.num_labels:
            raise ModelError(
                f"final layer produces {dim} outputs, expected num_labels={self.num_labels}")
        if self.input_domain is not None:
            lo, hi = self.input_domain
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ModelError(f"bad input_domain {self.input_domain}")
            object.__setattr__(self, "input_domain", (float(lo), float(hi)))

    def layer_dims(self) -> list[int]:
        dims = [self.input_dim]
        for layer in self.layers:
            dims.append(_out_dim(layer, dims[-1]))
        return dims


def networks_equal(a: Network, b: Network) -> bool:
    """Structural equality with bit-exact weights (-0.0 equals 0.0)."""
    return _model_doc(a) == _model_doc(b)


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Exact logits for a single input vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise ValueError(f"input shape {x.shape}, expected ({net.input_dim},)")
    return forward_batch(net, x[None, :])[0]


def forward_batch(net: Network, X: np.ndarray) -> np.ndarray:
    """Logits for a batch of inputs, shape (k, input_dim) -> (k, num_labels)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValueError(f"batch shape {X.shape}, expected (k, {net.input_dim})")
    for layer in net.layers:
        if isinstance(layer, Dense):
            X = X @ layer.weights.T + layer.bias
        elif isinstance(layer, Conv):
            d = layer.as_dense
            X = X @ d.weights.T + d.bias
        elif isinstance(layer, Relu):
            X = np.maximum(X, 0.0)
        else:
            X = X[:, layer.windows].max(axis=2)
    return X


def _seed_vector(net: Network, seed) -> np.ndarray:
    """seed as a float vector; ValueError unless it has the net's input shape
    and finite coordinates."""
    seed = np.asarray(seed, dtype=float)
    if seed.shape != (net.input_dim,):
        raise ValueError(f"seed shape {seed.shape}, expected ({net.input_dim},)")
    if not np.isfinite(seed).all():
        raise ValueError("seed has a non-finite coordinate")
    return seed


def classify(net: Network, x: np.ndarray) -> int:
    """Predicted label: argmax of the logits, ties broken by lowest index."""
    return int(np.argmax(forward(net, x)))


def _runner_up(logits: np.ndarray, label: int) -> int:
    """Index of the largest logit other than logits[label], ties broken by
    lowest index."""
    j = int(np.argmax(np.delete(logits, label)))
    return j + (j >= label)


def second_label(net: Network, x: np.ndarray) -> int:
    """Index of the second-largest logit, ties broken by lowest index."""
    if net.num_labels < 2:
        raise ValueError("second_label needs at least two labels")
    logits = forward(net, x)
    return _runner_up(logits, int(np.argmax(logits)))


# ---------------------------------------------------------------------------
# Model file format: a JSON document with an explicit layer list.
# {"input_dim": n, "num_labels": L, "input_domain": [lo, hi] | null,
#  "layers": [{"type": "dense", "weights": [[...]], "bias": [...]},
#             {"type": "relu"},
#             {"type": "conv", "kernel": ..., "bias": ..., "stride": s,
#              "padding": p, "input_shape": [c, h, w]},
#             {"type": "maxpool", "window": [wh, ww], "stride": s,
#              "input_shape": [c, h, w]}]}
# A layer's keys after "type" are its dataclass fields, in order.
_LAYER_TYPES = {"dense": Dense, "conv": Conv, "relu": Relu, "maxpool": MaxPool}
_LAYER_NAMES = {cls: name for name, cls in _LAYER_TYPES.items()}


def _json_value(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    return list(value) if isinstance(value, tuple) else value


def _layer_to_json(layer: Layer) -> dict:
    return {"type": _LAYER_NAMES[type(layer)],
            **{f.name: _json_value(getattr(layer, f.name)) for f in fields(layer)}}


def _layer_from_json(obj: dict, index: int) -> Layer:
    try:
        kind = obj["type"]
        cls = _LAYER_TYPES.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ModelError(f"unknown layer type {kind!r}")
        return cls(*[obj[f.name] for f in fields(cls)])
    except (KeyError, TypeError, ValueError) as exc:  # ModelError is a ValueError
        raise ModelError(f"layer {index}: {exc}") from None


def _model_doc(net: Network) -> dict:
    return {
        "input_dim": net.input_dim,
        "num_labels": net.num_labels,
        "input_domain": list(net.input_domain) if net.input_domain else None,
        "layers": [_layer_to_json(layer) for layer in net.layers],
    }


def save_model(net: Network, path) -> None:
    with open(path, "w") as fh:
        json.dump(_model_doc(net), fh)
        fh.write("\n")


def load_model(path) -> Network:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: invalid JSON ({exc})") from None
    try:
        layers = [_layer_from_json(obj, i) for i, obj in enumerate(doc["layers"])]
        domain = doc.get("input_domain")
        return Network(layers, doc["input_dim"], doc["num_labels"],
                       tuple(domain) if domain else None)
    except ModelError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Datasets

@dataclass(frozen=True, eq=False)
class LabeledPoint:
    """An input vector with its ground-truth label."""

    x: np.ndarray
    label: int

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "label", int(self.label))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled points as arrays: row i of X (N x input_dim, float64) has the
    ground-truth label labels[i] (N ints). Labels not given as an int array
    must be integers an int64 holds: ValueError names the first that is not.

    ds[i] is row i as a LabeledPoint whose x is a view into X; a slice (or an
    index array) gives a Dataset. Iterating yields the rows as LabeledPoints.
    """

    X: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        labels = np.asarray(self.labels)
        if X.ndim != 2 or labels.shape != X.shape[:1]:
            raise ValueError(f"X of shape {X.shape} and labels of shape {labels.shape},"
                             " expected (N, input_dim) and (N,)")
        if labels.dtype.kind not in "iu":
            values = labels.astype(float)
            # not below the int64 maximum: NaN, inf and values an int cannot hold
            bad = np.flatnonzero(~(np.abs(values) < np.iinfo(int).max)
                                 | (values != np.trunc(values)))
            if len(bad):
                raise ValueError(f"item {bad[0]}: label {labels[bad[0]]} is not an integer")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", np.asarray(labels, dtype=int))

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return LabeledPoint(self.X[index], self.labels[index])
        return Dataset(self.X[index], self.labels[index])

    def __iter__(self):
        return map(LabeledPoint, self.X, self.labels.tolist())


def _check_labels(data: Dataset, num_labels: int):
    """DatasetError naming the first label of data outside [0, num_labels)."""
    bad = np.flatnonzero((data.labels < 0) | (data.labels >= num_labels))
    if len(bad):
        raise DatasetError(f"item {bad[0]}: label {data.labels[bad[0]]} out of range"
                           f" [0, {num_labels})")


def _row_checks(rows, input_dim, num_labels, input_domain):
    """The checks on parsed rows (label, features...) against the model's
    sizes, in the order integer label, input_dim features, label in [0,
    num_labels), finite features, domain: one (mask of the rows that fail it,
    message(i, line) for failing row i) pair each."""
    labels, x = rows[:, 0], rows[:, 1:]
    checks = [
        (~np.isfinite(labels) | (labels != np.trunc(labels)),
         lambda i, line: f"non-integer label {line.strip().split(',')[0]!r}"),
        (np.full(len(rows), x.shape[1] != input_dim),
         lambda i, line: f"expected {input_dim} features, got {x.shape[1]}"),
        ((labels < 0) | (labels >= num_labels),
         lambda i, line: f"label {int(labels[i])} out of range [0, {num_labels})"),
        (~np.isfinite(x).all(axis=1), lambda i, line: "non-finite feature"),
    ]
    if input_domain is not None and x.shape[1]:
        lo, hi = input_domain
        checks.append(((x.min(axis=1) < lo) | (x.max(axis=1) > hi),
                       lambda i, line: f"feature outside domain [{lo}, {hi}]"))
    return checks


def _c_float(token):
    """float(token) for the tokens NumPy's C parser accepts: float() also
    takes digit-group underscores and non-ASCII digits, the C parser does not."""
    if "_" in token or not token.strip().isascii():
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


def _line_error(path, input_dim, num_labels, input_domain, reason):
    """DatasetError for the first line of a CSV file that np.loadtxt or the
    checks rejected, reading the file again one line at a time."""
    first = last = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            first = first or lineno
            last = lineno
            try:
                row = np.array([[_c_float(t) for t in line.strip().split(",")]])
            except ValueError as exc:
                return DatasetError(f"line {lineno}: {exc}")
            for bad, message in _row_checks(row, input_dim, num_labels, input_domain):
                if bad[0]:
                    return DatasetError(f"line {lineno}: {message(0, line)}")
    return DatasetError(f"lines {first}-{last}: {reason}")


def _load_csv(path, input_dim, num_labels, input_domain):
    with open(path) as fh:
        lines = (line for line in fh if not line.isspace())
        first = next(lines, None)
        if first is None:
            return Dataset(np.empty((0, input_dim)), np.empty(0, dtype=int))
        try:
            rows = np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2,
                              comments=None)
        except ValueError as exc:
            raise _line_error(path, input_dim, num_labels, input_domain, exc) from None
    checks = _row_checks(rows, input_dim, num_labels, input_domain)
    if np.logical_or.reduce([bad for bad, _ in checks]).any():
        raise _line_error(path, input_dim, num_labels, input_domain, "a row fails a check")
    return Dataset(rows[:, 1:], rows[:, 0].astype(int))


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _load_idx(path, labels_path, input_dim, num_labels, input_domain):
    if labels_path is None:
        raise DatasetError("idx format needs labels_path for the label file")
    with _open_maybe_gzip(path) as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise DatasetError(f"{path}: truncated idx header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGE_MAGIC:
            raise DatasetError(f"{path}: bad image magic 0x{magic:08x}")
        if rows * cols != input_dim:
            raise DatasetError(f"{path}: {rows}x{cols} = {rows * cols} pixels per image,"
                               f" expected input_dim {input_dim}")
        raw = fh.read(count * rows * cols)
    if len(raw) != count * rows * cols:
        raise DatasetError(f"{path}: truncated image data")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols).astype(float)
    with _open_maybe_gzip(labels_path) as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise DatasetError(f"{labels_path}: truncated idx header")
        magic, lcount = struct.unpack(">II", header)
        if magic != IDX_LABEL_MAGIC:
            raise DatasetError(f"{labels_path}: bad label magic 0x{magic:08x}")
        labels = np.frombuffer(fh.read(lcount), dtype=np.uint8)
    if lcount != count or len(labels) != count:
        raise DatasetError(f"image count {count} != label count {lcount}")
    if input_domain is not None:
        lo, hi = input_domain
        images = lo + images * (hi - lo) / 255.0
    data = Dataset(images, labels.astype(int))
    _check_labels(data, num_labels)
    return data


def load_dataset(path, fmt="csv", *, input_dim, num_labels, labels_path=None,
                 input_domain=None) -> Dataset:
    """Load labeled points from a CSV (label, features...) or an IDX image/label
    pair as a Dataset: X (N x input_dim, float64) and labels (N ints).

    A CSV file is parsed in one pass into one array by NumPy's C parser, which
    converts each token exactly as float() does except that it rejects
    digit-group underscores ("1_0") and non-ASCII digits. Blank and
    whitespace-only lines are skipped; a file without rows gives an empty
    Dataset. input_dim and num_labels are the model's: labels must be integers
    in [0, num_labels), each row must have input_dim features, all finite and
    in input_domain when one is given. A violation raises DatasetError naming
    the first bad line in the file, with the first check it fails in the order
    of _row_checks.

    IDX pixel data (0-255) is rescaled linearly onto input_domain when one is
    declared; otherwise raw byte values are kept. An IDX image whose pixel
    count is not input_dim, or a label outside [0, num_labels), raises
    DatasetError.
    """
    if fmt == "csv":
        return _load_csv(path, input_dim, num_labels, input_domain)
    if fmt == "idx":
        return _load_idx(path, labels_path, input_dim, num_labels, input_domain)
    raise DatasetError(f"unknown dataset format {fmt!r}")
