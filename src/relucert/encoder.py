"""Constraint encodings of a network around a seed input.

extract_region builds the convex region on which the network is affine as
rows A x + b >= 0 (one per ReLU unit, one per non-selected unit of each pool
window), the logit expressions valid there and the activation pattern that
fixed them. build_disjunctive exposes the same machinery for any pattern,
which the exact enumeration oracle iterates over, and the rows' origins,
which depend only on the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .affine import AffineVector, affine_dense, maxpool_fix, relu_fix
from .model import Conv, Dense, MaxPool, Network, Relu, _seed_vector


@dataclass(frozen=True, eq=False)
class LinearRegion:
    """The affine piece of one activation pattern, with logits valid on it.

    The piece is the set of x with constraints @ x + bias >= 0; row k comes
    from build_disjunctive(net).origin[k]. pattern holds one array per ReLU
    layer (True = active) and one per pool layer (the selected position in
    each window), in layer order.
    """

    constraints: np.ndarray
    bias: np.ndarray
    logits: AffineVector
    pattern: tuple


@dataclass(frozen=True, eq=False)
class DisjunctiveEncoding:
    """All activation patterns of a network, instantiable one pattern at a time.

    layers holds (layer, sites, branches) per ReLU layer (a site per unit, 2
    branches) and per pool layer (a site per window, a branch per position).
    """

    net: Network
    layers: tuple[tuple[int, int, int], ...]

    def num_patterns(self) -> int:
        return math.prod(branches ** sites for _, sites, branches in self.layers)

    def _dtype(self, layer: int):
        return bool if isinstance(self.net.layers[layer], Relu) else np.intp

    def patterns(self):
        """Iterate every activation pattern lazily, as per-layer arrays, in the
        order of itertools.product over the sites, first site slowest."""
        ends = np.cumsum([sites for _, sites, _ in self.layers])
        for flat in product(*[range(branches) for _, sites, branches in self.layers
                              for _ in range(sites)]):
            yield tuple(np.array(flat[end - sites:end], self._dtype(i))
                        for end, (i, sites, _) in zip(ends, self.layers))

    @cached_property
    def origin(self) -> np.ndarray:
        """(layer, unit) per ReLU row and (layer, window) per pool row, the
        same for every pattern: a window has a row per unselected position."""
        return np.array([(i, site) for i, sites, branches in self.layers
                         for site in range(sites) for _ in range(branches - 1)],
                        dtype=int).reshape(-1, 2)

    def instantiate(self, pattern) -> LinearRegion:
        """Region rows and logit expressions for one activation pattern, given
        per layer as patterns() yields it and LinearRegion.pattern holds it."""
        pattern = tuple(pattern)
        if len(pattern) != len(self.layers):
            raise ValueError(f"pattern has {len(pattern)} layers, expected {len(self.layers)}")
        checked = []
        for choice, (i, sites, branches) in zip(pattern, self.layers):
            choice = np.asarray(choice, self._dtype(i))
            if choice.shape != (sites,):
                raise ValueError(f"layer {i}: pattern shape {choice.shape}, expected ({sites},)")
            if choice.min(initial=0) < 0 or choice.max(initial=0) >= branches:
                raise ValueError(f"layer {i}: window position outside [0, {branches})")
            checked.append(choice)
        choices = iter(checked)
        return _propagate(self.net, lambda pre: next(choices),
                          lambda pre, windows: next(choices))


def _propagate(net: Network, choose_relu, choose_pool) -> LinearRegion:
    """Run the symbolic pass, resolving each disjunction via the given choosers.
    A first Dense or Conv layer gives the first expressions as they are, with
    no product with the identity."""
    first = net.layers[0]
    if isinstance(first, (Dense, Conv)):
        first = first.as_dense if isinstance(first, Conv) else first
        v, layers = AffineVector(first.weights, first.bias), net.layers[1:]
    else:
        v, layers = AffineVector.identity(net.input_dim), net.layers
    rows = [np.zeros((0, net.input_dim))]
    bias = [np.zeros(0)]
    pattern = []
    for layer in layers:
        if isinstance(layer, (Dense, Conv)):
            v = affine_dense(layer, v)
        elif isinstance(layer, Relu):
            active = choose_relu(v)
            # active units keep pre >= 0, inactive ones -pre >= 0
            sign = np.where(active, 1.0, -1.0)
            rows.append(sign[:, None] * v.coeffs)
            bias.append(sign * v.bias)
            pattern.append(active)
            v = relu_fix(v, active)
        elif isinstance(layer, MaxPool):
            windows = layer.windows
            sel = choose_pool(v, windows)
            pooled = maxpool_fix(v, sel, windows)
            # the selected unit dominates every other unit of its window
            chosen = windows[np.arange(windows.shape[0]), sel]
            window, pos = np.nonzero(windows != chosen[:, None])
            other, top = windows[window, pos], chosen[window]
            rows.append(v.coeffs[top] - v.coeffs[other])
            bias.append(v.bias[top] - v.bias[other])
            pattern.append(sel)
            v = pooled
        else:
            raise ValueError(f"unsupported layer type {type(layer).__name__}")
    return LinearRegion(np.concatenate(rows), np.concatenate(bias), v, tuple(pattern))


def extract_region(net: Network, seed) -> LinearRegion:
    """Region rows and logits of the affine piece the seed lies in.

    ReLU units with seed pre-activation > 0 stay active (row pre >= 0); units
    at <= 0 are fixed inactive (row -pre >= 0, output zero). Pool windows fix
    their seed argmax, lowest index on ties. Raises ValueError for a seed of
    the wrong shape or with a non-finite coordinate.
    """
    seed = _seed_vector(net, seed)
    return _propagate(net, lambda pre: pre.eval(seed) > 0.0,
                      lambda pre, windows: np.argmax(pre.eval(seed)[windows], axis=1))


def output_constraints(region: LinearRegion, target,
                       margin: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Rows G x + h >= 0 forcing the region's logits to rank target on top:
    logit_target - logit_other - margin >= 0 for every other label, in label
    order: (L - 1) x n rows for one label, targets x (L - 1) x n for an int
    array of labels. ValueError for a target that is not an integer label in
    [0, L) (a bool or a float is not one) or a margin not finite and >= 0."""
    labels = len(region.logits)
    targets = np.asarray(target)
    if (targets.dtype.kind not in "iu" or targets.ndim > 1
            or not set(targets.flat) <= set(range(labels))):
        raise ValueError(f"target must be an int label in [0, {labels}) or an int array"
                         f" of them, got {target!r}")
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin must be finite and >= 0, got {margin}")
    # each target's other labels: 0 .. L-2, shifted up by one from the target on
    others = np.arange(labels - 1)
    others = others + (others >= targets[..., None])
    W, c = region.logits.coeffs, region.logits.bias
    return W[targets, None] - W[others], c[targets, None] - c[others] - margin


def build_disjunctive(net: Network) -> DisjunctiveEncoding:
    """The network's ReLU and pool layers as (layer, sites, branches), without
    fixing a pattern."""
    dims = net.layer_dims()
    layers = []
    for i, layer in enumerate(net.layers):
        if isinstance(layer, Relu):
            layers.append((i, dims[i], 2))
        elif isinstance(layer, MaxPool):
            layers.append((i, *layer.windows.shape))
        elif not isinstance(layer, (Dense, Conv)):
            raise ValueError(f"unsupported layer type {type(layer).__name__}")
    return DisjunctiveEncoding(net, tuple(layers))
