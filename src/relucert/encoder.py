"""Constraint encodings of a network around a seed input.

extract_region builds the convex region on which the network is affine as
rows A x + b >= 0 (one per ReLU unit, one per non-selected unit of each pool
window) plus the logit expressions valid there. build_disjunctive exposes the
same machinery for an arbitrary activation pattern, which is what the exact
enumeration oracle iterates over.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .affine import AffineVector, affine_dense, maxpool_fix, relu_fix
from .model import Conv, Dense, MaxPool, Network, Relu


@dataclass(frozen=True, eq=False)
class LinearRegion:
    """The affine piece of one activation pattern, with logits valid on it.

    The piece is the set of x with constraints @ x + bias >= 0. Row k comes
    from origin[k] = (layer, unit) for a ReLU unit or (layer, window) for a
    pool window.
    """

    constraints: np.ndarray
    bias: np.ndarray
    origin: np.ndarray
    logits: AffineVector
    signature: tuple


@dataclass(frozen=True)
class Site:
    """One disjunction site: a ReLU unit (2 branches) or a pool window (size branches)."""

    kind: str
    layer: int
    unit: int
    size: int


@dataclass(frozen=True, eq=False)
class DisjunctiveEncoding:
    """All activation-pattern choices of a network, instantiable one pattern at a time."""

    net: Network
    sites: tuple[Site, ...]

    def num_patterns(self) -> int:
        count = 1
        for site in self.sites:
            count *= site.size
        return count

    def patterns(self):
        """Iterate every activation pattern in a fixed deterministic order."""
        choices = [(False, True) if s.kind == "relu" else tuple(range(s.size))
                   for s in self.sites]
        return product(*choices)

    def instantiate(self, pattern) -> LinearRegion:
        """Region rows and logit expressions for one fixed activation pattern."""
        pattern = tuple(pattern)
        if len(pattern) != len(self.sites):
            raise ValueError(f"pattern length {len(pattern)} != sites {len(self.sites)}")
        cursor = 0

        def choose_relu(i, pre):
            nonlocal cursor
            signs = np.array([bool(p) for p in pattern[cursor:cursor + len(pre)]])
            cursor += len(pre)
            return signs

        def choose_pool(i, pre, windows):
            nonlocal cursor
            sel = np.array([int(p) for p in pattern[cursor:cursor + windows.shape[0]]])
            cursor += windows.shape[0]
            return sel

        return _propagate(self.net, choose_relu, choose_pool)


def _propagate(net: Network, choose_relu, choose_pool) -> LinearRegion:
    """Run the symbolic pass, resolving each disjunction via the given choosers."""
    v = AffineVector.identity(net.input_dim)
    rows = [np.zeros((0, net.input_dim))]
    bias = [np.zeros(0)]
    origin = [np.zeros((0, 2), dtype=int)]
    signature: list = []
    for i, layer in enumerate(net.layers):
        if isinstance(layer, (Dense, Conv)):
            v = affine_dense(layer, v)
        elif isinstance(layer, Relu):
            signs = choose_relu(i, v)
            # active units keep pre >= 0, inactive ones -pre >= 0
            sign = np.where(signs, 1.0, -1.0)
            rows.append(sign[:, None] * v.coeffs)
            bias.append(sign * v.bias)
            origin.append(np.column_stack([np.full(len(v), i), np.arange(len(v))]))
            signature.extend(bool(s) for s in signs)
            v = relu_fix(v, signs)
        elif isinstance(layer, MaxPool):
            windows = layer.windows
            sel = choose_pool(i, v, windows)
            pooled = maxpool_fix(v, sel, windows)
            # the selected unit dominates every other unit of its window
            chosen = windows[np.arange(windows.shape[0]), sel]
            window, pos = np.nonzero(windows != chosen[:, None])
            other, top = windows[window, pos], chosen[window]
            rows.append(v.coeffs[top] - v.coeffs[other])
            bias.append(v.bias[top] - v.bias[other])
            origin.append(np.column_stack([np.full(len(window), i), window]))
            signature.extend(int(s) for s in sel)
            v = pooled
        else:
            raise ValueError(f"unsupported layer type {type(layer).__name__}")
    return LinearRegion(np.concatenate(rows), np.concatenate(bias),
                        np.concatenate(origin), v, tuple(signature))


def extract_region(net: Network, seed) -> LinearRegion:
    """Region rows and logits of the affine piece the seed lies in.

    ReLU units with seed pre-activation > 0 stay active (row pre >= 0); units
    at <= 0 are fixed inactive (row -pre >= 0, output zero). Pool windows fix
    their seed argmax, lowest index on ties.
    """
    seed = np.asarray(seed, dtype=float)
    if seed.shape != (net.input_dim,):
        raise ValueError(f"seed shape {seed.shape}, expected ({net.input_dim},)")

    def choose_relu(i, pre):
        return pre.eval(seed) > 0.0

    def choose_pool(i, pre, windows):
        values = pre.eval(seed)
        return np.argmax(values[windows], axis=1)

    return _propagate(net, choose_relu, choose_pool)


def output_constraints(region: LinearRegion, target: int,
                       margin: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Rows G x + h >= 0 forcing the region's logits to rank target on top:
    logit_target - logit_other - margin >= 0 for every other label, in label
    order."""
    if not 0 <= target < len(region.logits):
        raise ValueError(f"target {target} out of range [0, {len(region.logits)})")
    if margin < 0:
        raise ValueError("margin must be >= 0")
    others = np.arange(len(region.logits)) != target
    W, c = region.logits.coeffs, region.logits.bias
    return W[target] - W[others], c[target] - c[others] - margin


def build_disjunctive(net: Network) -> DisjunctiveEncoding:
    """Enumerate the network's disjunction sites without fixing a pattern."""
    dims = net.layer_dims()
    sites: list[Site] = []
    for i, layer in enumerate(net.layers):
        if isinstance(layer, Relu):
            for j in range(dims[i]):
                sites.append(Site("relu", i, j, 2))
        elif isinstance(layer, MaxPool):
            for w in range(layer.windows.shape[0]):
                sites.append(Site("pool", i, w, layer.windows.shape[1]))
        elif not isinstance(layer, (Dense, Conv)):
            raise ValueError(f"unsupported layer type {type(layer).__name__}")
    return DisjunctiveEncoding(net, tuple(sites))
