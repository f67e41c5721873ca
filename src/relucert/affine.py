"""Symbolic affine expressions over the input variables.

Layer outputs are propagated as affine functions of the input (coefficient
matrix + bias vector) instead of introducing fresh variables per layer, so a
whole network restricted to one activation pattern collapses to expressions
in the n input variables only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Conv, Dense


@dataclass(frozen=True, eq=False)
class AffineVector:
    """One affine expression per neuron: coeffs (m, n), bias (m,)."""

    coeffs: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        if c.ndim != 2 or b.shape != (c.shape[0],):
            raise ValueError(f"inconsistent shapes coeffs {c.shape}, bias {b.shape}")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "bias", b)

    def __len__(self):
        return self.coeffs.shape[0]

    @property
    def num_inputs(self):
        return self.coeffs.shape[1]

    def eval(self, x) -> np.ndarray:
        return self.coeffs @ np.asarray(x, dtype=float) + self.bias

    @staticmethod
    def identity(n: int) -> "AffineVector":
        """The input variables themselves: expr j is x_j."""
        return AffineVector(np.eye(n), np.zeros(n))


def affine_dense(layer: Dense | Conv, v: AffineVector) -> AffineVector:
    """Compose a dense (or unrolled conv) map with the incoming expressions."""
    if isinstance(layer, Conv):
        layer = layer.as_dense
    if layer.weights.shape[1] != len(v):
        raise ValueError(
            f"layer expects {layer.weights.shape[1]} inputs, vector has {len(v)}")
    return AffineVector(layer.weights @ v.coeffs, layer.weights @ v.bias + layer.bias)


def relu_fix(v: AffineVector, activation_signs) -> AffineVector:
    """Apply a fixed ReLU activation pattern: pass-through where active, zero otherwise."""
    signs = np.asarray(activation_signs, dtype=bool)
    if signs.shape != (len(v),):
        raise ValueError(f"{len(signs)} signs for {len(v)} expressions")
    keep = signs.astype(float)
    return AffineVector(v.coeffs * keep[:, None], v.bias * keep)


def maxpool_fix(v: AffineVector, selected, windows: np.ndarray) -> AffineVector:
    """Replace each pool window by the expression of its selected unit.

    selected[w] is a position inside window w (0 .. window size - 1).
    """
    selected = np.asarray(selected, dtype=int)
    if selected.shape != (windows.shape[0],):
        raise ValueError(f"{len(selected)} selections for {windows.shape[0]} windows")
    if selected.min(initial=0) < 0 or (windows.shape[1] and selected.max(initial=0) >= windows.shape[1]):
        raise ValueError("selection index outside its window")
    chosen = windows[np.arange(windows.shape[0]), selected]
    return AffineVector(v.coeffs[chosen], v.bias[chosen])
