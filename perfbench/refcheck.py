"""Reference check of certification records, computed apart from relucert.

The reference reads the model file with its own parser, unrolls convolutions
and pools with its own numpy code, takes the seed's activation pattern,
region rows and logit map from the weights, and solves the full (not lazy)
min-epsilon LP per target with scipy's HiGHS. A record passes only if:

- its label is the argmax of the reference forward pass;
- rho agrees with HiGHS within ``TOL`` (relative above 1), and under
  ``targets="all"`` rho is the minimum over targets;
- "not found" (rho null) holds only where HiGHS finds every target infeasible;
- ``||adv - seed||_inf = rho`` within ``TOL``;
- the witness lies in the seed's region (rows scaled to unit max coefficient)
  and, with the domain respected, in the domain, both within ``TOL``;
- the target logit of the witness is at least every other logit - ``TOL``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TOL = 1e-6


def load_layers(path) -> tuple[list, int]:
    """Model file -> (layers, input_dim), with convs and pools unrolled.

    Layers are ("affine", W, b), ("relu",) or ("pool", windows).
    """
    with open(path) as fh:
        doc = json.load(fh)
    layers = []
    for spec in doc["layers"]:
        kind = spec["type"]
        if kind == "dense":
            layers.append(("affine", np.array(spec["weights"]), np.array(spec["bias"])))
        elif kind == "relu":
            layers.append(("relu",))
        elif kind == "conv":
            layers.append(("affine",) + _conv_matrix(spec))
        elif kind == "maxpool":
            layers.append(("pool", _pool_windows(spec)))
        else:
            raise ValueError(f"reference has no rule for layer type {kind!r}")
    return layers, int(doc["input_dim"])


def _conv_matrix(spec) -> tuple[np.ndarray, np.ndarray]:
    """The conv as a dense map, found by convolving every input basis vector."""
    kernel, bias = np.array(spec["kernel"]), np.array(spec["bias"])
    c, h, w = spec["input_shape"]
    s, p = spec["stride"], spec["padding"]
    oc, _, kh, kw = kernel.shape
    basis = np.eye(c * h * w).reshape(-1, c, h, w)
    basis = np.pad(basis, ((0, 0), (0, 0), (p, p), (p, p)))
    patches = sliding_window_view(basis, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
    out = np.einsum("nchwyx,ocyx->nohw", patches, kernel)
    weights = out.reshape(c * h * w, -1).T
    return weights, np.repeat(bias, out.shape[2] * out.shape[3])


def _pool_windows(spec) -> np.ndarray:
    """Flat input indices of every pool window, row-major within the window."""
    c, h, w = spec["input_shape"]
    wh, ww = spec["window"]
    s = spec["stride"]
    index = np.arange(c * h * w).reshape(c, h, w)
    windows = sliding_window_view(index, (wh, ww), axis=(1, 2))[:, ::s, ::s]
    return windows.reshape(-1, wh * ww)


def forward(layers, x) -> np.ndarray:
    """Logits of one input (n,) or of a batch of inputs (k, n)."""
    x = np.asarray(x, dtype=float)
    for layer in layers:
        if layer[0] == "affine":
            x = x @ layer[1].T + layer[2]
        elif layer[0] == "relu":
            x = np.maximum(x, 0.0)
        else:
            x = x[..., layer[1]].max(axis=-1)
    return x


def region(layers, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows G x + h >= 0 of the seed's linear region and its logits L x + l."""
    n = len(seed)
    A, c = np.eye(n), np.zeros(n)
    rows_g, rows_h = [], []
    for layer in layers:
        if layer[0] == "affine":
            A, c = layer[1] @ A, layer[1] @ c + layer[2]
        elif layer[0] == "relu":
            active = A @ seed + c > 0.0
            sign = np.where(active, 1.0, -1.0)
            rows_g.append(sign[:, None] * A)
            rows_h.append(sign * c)
            A, c = A * active[:, None], c * active
        else:
            windows = layer[1]
            values = (A @ seed + c)[windows]
            chosen = windows[np.arange(len(windows)), np.argmax(values, axis=1)]
            others = windows != chosen[:, None]
            win, pos = np.nonzero(others)
            rows_g.append(A[chosen[win]] - A[windows[win, pos]])
            rows_h.append(c[chosen[win]] - c[windows[win, pos]])
            A, c = A[chosen], c[chosen]
    G = np.vstack(rows_g) if rows_g else np.zeros((0, n))
    h = np.concatenate(rows_h) if rows_h else np.zeros(0)
    return G, h, A, c


def _unit_rows(G, h):
    scale = np.abs(G).max(axis=1) if G.size else np.ones(len(h))
    scale = np.where(scale > 0.0, scale, 1.0)
    return G / scale[:, None], h / scale


def min_epsilon(seed, G, h, L, l, target, domain) -> float | None:
    """HiGHS optimum of the full min-epsilon LP for one target; None if infeasible."""
    from scipy.optimize import linprog  # imported late: scipy stays out of peak_rss_mb

    n = len(seed)
    others = [k for k in range(len(l)) if k != target]
    out_g, out_h = L[target] - L[others], l[target] - l[others]
    rows_g, rows_h = _unit_rows(np.vstack([G, out_g]), np.concatenate([h, out_h]))
    eye = np.eye(n)
    # z = (x, eps); every row as A_ub z <= b_ub
    a_ub = np.vstack([
        np.hstack([eye, -np.ones((n, 1))]),
        np.hstack([-eye, -np.ones((n, 1))]),
        np.hstack([-rows_g, np.zeros((len(rows_g), 1))]),
    ])
    b_ub = np.concatenate([seed, -seed, rows_h])
    bounds = [domain if domain else (None, None)] * n + [(0, None)]
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    # On nearly infeasible LPs HiGHS's simplex now and then ends in status
    # "unknown"; its interior-point method or tighter tolerances settle them.
    for method, options in (("highs", {}), ("highs-ipm", {}),
                            ("highs", {"primal_feasibility_tolerance": 1e-9,
                                       "dual_feasibility_tolerance": 1e-9})):
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method=method,
                      options=options)
        if res.status == 2:
            return None
        if res.status == 0:
            return float(res.fun)
    raise RuntimeError(f"HiGHS did not solve the reference LP: {res.message}")


@dataclass
class Reference:
    """Everything a record of one seed is checked against."""

    seed: np.ndarray
    label: int
    rhos: dict            # target -> HiGHS rho, None where infeasible
    G: np.ndarray
    h: np.ndarray
    domain: tuple[float, float] | None

    def best(self) -> float | None:
        finite = [r for r in self.rhos.values() if r is not None]
        return min(finite) if finite else None


def reference(layers, seed, targets: str, domain) -> Reference:
    """Reference result for one seed; domain is None when the search is free."""
    seed = np.asarray(seed, dtype=float)
    logits = forward(layers, seed)
    label = int(np.argmax(logits))
    if targets == "second":
        order = sorted(range(len(logits)), key=lambda j: (-logits[j], j))
        chosen = [order[1]]
    else:
        chosen = [t for t in range(len(logits)) if t != label]
    G, h, L, l = region(layers, seed)
    rhos = {t: min_epsilon(seed, G, h, L, l, t, domain) for t in chosen}
    return Reference(seed, label, rhos, G, h, domain)


def check_record(record: dict, ref: Reference, layers) -> list[str]:
    """Why the record disagrees with the reference; empty when it passes."""
    errors = []
    if record.get("label") != ref.label:
        errors.append(f"label {record.get('label')} != reference {ref.label}")
    best = ref.best()
    rho = record.get("rho")
    if rho is None:
        if best is not None:
            errors.append(f"not found, but HiGHS finds rho {best!r}")
        return errors
    if best is None:
        return errors + [f"rho {rho!r}, but HiGHS finds every target infeasible"]
    if abs(rho - best) > TOL * max(1.0, abs(best)):
        errors.append(f"rho {rho!r} != HiGHS {best!r}")
    target = record.get("target")
    ref_rho = ref.rhos.get(target)
    if ref_rho is None or abs(ref_rho - best) > TOL * max(1.0, abs(best)):
        errors.append(f"target {target} is not a minimising target")
        return errors
    adv = np.asarray(record["adversarial"], dtype=float)
    gap = abs(np.abs(adv - ref.seed).max() - rho)
    if gap > TOL:
        errors.append(f"||adv - seed|| differs from rho by {gap:.3g}")
    g, h = _unit_rows(ref.G, ref.h)
    if len(h) and (g @ adv + h).min() < -TOL:
        errors.append(f"witness outside the region by {-(g @ adv + h).min():.3g}")
    if ref.domain and (adv.min() < ref.domain[0] - TOL or adv.max() > ref.domain[1] + TOL):
        errors.append("witness outside the domain")
    logits = forward(layers, adv)
    if logits[target] < np.delete(logits, target).max() - TOL:
        errors.append(f"target logit below the best other by "
                      f"{np.delete(logits, target).max() - logits[target]:.3g}")
    return errors
