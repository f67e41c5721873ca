"""Piecewise-linear feedforward networks: layers, exact evaluation, file I/O.

Networks are immutable after construction and safe to share across threads.
Supported layers are dense (fully connected), convolution, ReLU and max
pooling; convolutions and pools carry their input shape so they unroll to
flat affine maps / index windows.
"""

from __future__ import annotations

import gzip
import json
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class ModelError(ValueError):
    """Malformed model file or violated shape/finiteness invariant."""


class DatasetError(ValueError):
    """Malformed dataset file or out-of-range value."""


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
        k = _float_array(self.kernel, 4, "conv kernel")
        b = _float_array(self.bias, 1, "conv bias")
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
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
        object.__setattr__(self, "window", tuple(int(d) for d in self.window))
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
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
    if isinstance(layer, (Dense, Conv)):
        arrays = (layer.weights, layer.bias) if isinstance(layer, Dense) else (layer.kernel, layer.bias)
        for arr in arrays:
            if not np.all(np.isfinite(arr)):
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
        if not self.layers:
            raise ModelError("network needs at least one layer")
        if self.input_dim < 1 or self.num_labels < 1:
            raise ModelError("input_dim and num_labels must be positive")
        dim = self.input_dim
        for i, layer in enumerate(self.layers):
            try:
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


def classify(net: Network, x: np.ndarray) -> int:
    """Predicted label: argmax of the logits, ties broken by lowest index."""
    return int(np.argmax(forward(net, x)))


def second_label(net: Network, x: np.ndarray) -> int:
    """Index of the second-largest logit, ties broken by lowest index."""
    if net.num_labels < 2:
        raise ValueError("second_label needs at least two labels")
    logits = forward(net, x)
    order = sorted(range(net.num_labels), key=lambda j: (-logits[j], j))
    return order[1]


# ---------------------------------------------------------------------------
# Model file format: a JSON document with an explicit layer list.
# {"input_dim": n, "num_labels": L, "input_domain": [lo, hi] | null,
#  "layers": [{"type": "dense", "weights": [[...]], "bias": [...]},
#             {"type": "relu"},
#             {"type": "conv", "kernel": ..., "bias": ..., "stride": s,
#              "padding": p, "input_shape": [c, h, w]},
#             {"type": "maxpool", "window": [wh, ww], "stride": s,
#              "input_shape": [c, h, w]}]}

def _layer_to_json(layer: Layer) -> dict:
    if isinstance(layer, Dense):
        return {"type": "dense", "weights": layer.weights.tolist(), "bias": layer.bias.tolist()}
    if isinstance(layer, Conv):
        return {"type": "conv", "kernel": layer.kernel.tolist(), "bias": layer.bias.tolist(),
                "stride": layer.stride, "padding": layer.padding,
                "input_shape": list(layer.input_shape)}
    if isinstance(layer, Relu):
        return {"type": "relu"}
    return {"type": "maxpool", "window": list(layer.window), "stride": layer.stride,
            "input_shape": list(layer.input_shape)}


def _json_int(value, field: str) -> int:
    """An integral JSON number (2 or 2.0) as an int; 2.7, true or "3" raise."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ModelError(f"{field}: expected an integer, got {value!r}")
    return int(value)


def _json_ints(values, field: str) -> tuple[int, ...]:
    return tuple(_json_int(v, f"{field}[{k}]") for k, v in enumerate(values))


def _layer_from_json(obj: dict, index: int) -> Layer:
    try:
        kind = obj["type"]
        if kind == "dense":
            return Dense(obj["weights"], obj["bias"])
        if kind == "conv":
            return Conv(obj["kernel"], obj["bias"], _json_int(obj["stride"], "stride"),
                        _json_int(obj["padding"], "padding"),
                        _json_ints(obj["input_shape"], "input_shape"))
        if kind == "relu":
            return Relu()
        if kind == "maxpool":
            return MaxPool(_json_ints(obj["window"], "window"), _json_int(obj["stride"], "stride"),
                           _json_ints(obj["input_shape"], "input_shape"))
        raise ModelError(f"unknown layer type {kind!r}")
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
        return Network(layers, _json_int(doc["input_dim"], "input_dim"),
                       _json_int(doc["num_labels"], "num_labels"),
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


# Lines are read in blocks of about this many bytes, so the loader holds about
# one block of text beyond the points it returns.
_CSV_BLOCK_BYTES = 1 << 18


def _rows_error(rows, lines, linenos, input_dim, num_labels, input_domain):
    """DatasetError for the first parsed row (label, features...) that fails
    a check, naming on that row the first failing check in the order integer
    label, feature count, label range, finite features, domain; None when
    every row passes."""
    labels, x = rows[:, 0], rows[:, 1:]
    checks = [
        (~np.isfinite(labels) | (labels != np.trunc(labels)),
         lambda i: f"non-integer label {lines[i].strip().split(',')[0]!r}"),
        (np.full(len(rows), x.shape[1] != input_dim),
         lambda i: f"expected {input_dim} features, got {x.shape[1]}"),
    ]
    if num_labels is not None:
        checks.append(((labels < 0) | (labels >= num_labels),
                       lambda i: f"label {int(labels[i])} out of range [0, {num_labels})"))
    checks.append((~np.isfinite(x).all(axis=1), lambda i: "non-finite feature"))
    if input_domain is not None and x.shape[1]:
        lo, hi = input_domain
        checks.append(((x.min(axis=1) < lo) | (x.max(axis=1) > hi),
                       lambda i: f"feature outside domain [{lo}, {hi}]"))
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return None
    i = int(bad.argmax())
    message = next(message for mask, message in checks if mask[i])
    return DatasetError(f"line {linenos[i]}: {message(i)}")


def _c_float(token):
    """float(token) for the tokens NumPy's C parser accepts: float() also
    takes digit-group underscores and non-ASCII digits, the C parser does not."""
    if "_" in token or not token.strip().isascii():
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


def _block_error(lines, linenos, input_dim, num_labels, input_domain, reason):
    """DatasetError for the first bad line of a block that np.loadtxt
    rejected, checking its lines one at a time in file order."""
    for line, lineno in zip(lines, linenos):
        try:
            row = np.array([[_c_float(t) for t in line.strip().split(",")]])
        except ValueError as exc:
            return DatasetError(f"line {lineno}: {exc}")
        if input_dim is None:
            input_dim = row.shape[1] - 1
        error = _rows_error(row, [line], [lineno], input_dim, num_labels, input_domain)
        if error is not None:
            return error
    return DatasetError(f"lines {linenos[0]}-{linenos[-1]}: {reason}")


def _load_csv(path, input_dim, num_labels, input_domain):
    points = []
    start = 1
    with open(path) as fh:
        while lines := fh.readlines(_CSV_BLOCK_BYTES):
            linenos = np.arange(start, start + len(lines))
            start += len(lines)
            if any(map(str.isspace, lines)):
                keep = [i for i, line in enumerate(lines) if not line.isspace()]
                lines, linenos = [lines[i] for i in keep], linenos[keep]
                if not lines:
                    continue
            try:
                rows = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
            except ValueError as exc:
                raise _block_error(lines, linenos, input_dim, num_labels, input_domain,
                                   exc) from None
            if input_dim is None:
                input_dim = rows.shape[1] - 1
            error = _rows_error(rows, lines, linenos, input_dim, num_labels, input_domain)
            if error is not None:
                raise error
            points.extend(map(LabeledPoint, rows[:, 1:], rows[:, 0].tolist()))
    return points


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
        if input_dim is not None and rows * cols != input_dim:
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
    points = []
    for i in range(count):
        label = int(labels[i])
        if num_labels is not None and not 0 <= label < num_labels:
            raise DatasetError(f"item {i}: label {label} out of range [0, {num_labels})")
        points.append(LabeledPoint(images[i], label))
    return points


def load_dataset(path, fmt="csv", *, labels_path=None, input_dim=None,
                 num_labels=None, input_domain=None) -> list[LabeledPoint]:
    """Load labeled points from a CSV (label, features...) or an IDX image/label pair.

    CSV lines are parsed in blocks by NumPy's C parser, which converts each
    token exactly as float() does except that it rejects digit-group
    underscores ("1_0") and non-ASCII digits. Blank and whitespace-only lines
    are skipped. Labels must be finite integers and features finite; the
    feature count must be input_dim (by default that of the first line), the
    label in [0, num_labels) and every feature in input_domain when these are
    given. A violation raises DatasetError naming the first bad line in the
    file, with the first check it fails in that order.

    IDX pixel data (0-255) is rescaled linearly onto input_domain when one is
    declared; otherwise raw byte values are kept. An IDX image whose pixel
    count is not input_dim raises DatasetError.
    """
    if fmt == "csv":
        return _load_csv(path, input_dim, num_labels, input_domain)
    if fmt == "idx":
        return _load_idx(path, labels_path, input_dim, num_labels, input_domain)
    raise DatasetError(f"unknown dataset format {fmt!r}")
