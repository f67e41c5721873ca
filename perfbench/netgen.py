"""Seeded synthetic networks and datasets for the certification benchmark.

Every workload is a fixed network plus a dataset file. One generator,
seeded with ``NET_SEED``, draws the network weights and then the base rows of
the dataset; the run's ``--seed`` draws a small jitter added
to every row (see README.md for why). Files are written with ``repr`` floats in
a fixed order, so one seed always gives byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NET_SEED = 0  # seeds the generator of every workload's network and base rows


@dataclass(frozen=True)
class Workload:
    """How one workload's network and dataset are drawn and certified."""

    name: str
    kind: str                       # "dense" or "conv"
    sizes: tuple[int, ...]          # dense: layer widths; conv: (in_ch, h, w, out_ch, k, labels)
    domain: tuple[float, float] | None   # None: inputs N(0,1), else uniform on the domain
    jitter: float                   # half-width of the uniform jitter drawn from --seed; 0: none
    targets: str                    # pointwise_robustness(targets=...)
    respect_domain: bool
    round_points: int               # points certified per round (the first rows of the file)
    file_points: int                # rows in the dataset file (the "test set" loaded in set-up)
    known_fault: str | None = None  # the one SimplexError message counted as a failed point


WORKLOADS = {
    w.name: w for w in (
        Workload("dense-wide", "dense", (50, 100, 100, 10), (0.0, 1.0),
                 jitter=0.01, targets="second", respect_domain=True,
                 round_points=80, file_points=6000),
        Workload("deep-narrow", "dense", (16, 100, 100, 100, 100, 10), None,
                 jitter=0.01, targets="second", respect_domain=False,
                 round_points=150, file_points=12000),
        Workload("conv-all", "conv", (1, 6, 6, 4, 3, 10), (0.0, 1.0),
                 jitter=0.0, targets="all", respect_domain=False,
                 round_points=14, file_points=8000,
                 known_fault="phase-1 objective unbounded"),
    )
}


def _dense_layer(rng, fan_in, fan_out):
    """Weights with standard deviation 1/sqrt(fan_in), biases with 0.1."""
    return {"type": "dense",
            "weights": rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_out, fan_in)),
            "bias": rng.normal(0.0, 0.1, fan_out)}


def make_network(w: Workload, rng) -> dict:
    """The workload's network as a model document with numpy arrays."""
    layers = []
    if w.kind == "dense":
        for fan_in, fan_out in zip(w.sizes[:-1], w.sizes[1:]):
            layers += [_dense_layer(rng, fan_in, fan_out), {"type": "relu"}]
        layers.pop()
        input_dim, labels = w.sizes[0], w.sizes[-1]
    else:
        in_ch, h, wd, out_ch, k, labels = w.sizes
        kernel = rng.normal(0.0, 1.0 / np.sqrt(in_ch * k * k), (out_ch, in_ch, k, k))
        bias = rng.normal(0.0, 0.1, out_ch)
        oh, ow = h - k + 1, wd - k + 1
        pooled = out_ch * (oh // 2) * (ow // 2)
        layers = [
            {"type": "conv", "kernel": kernel, "bias": bias, "stride": 1, "padding": 0,
             "input_shape": [in_ch, h, wd]},
            {"type": "relu"},
            {"type": "maxpool", "window": [2, 2], "stride": 2, "input_shape": [out_ch, oh, ow]},
            _dense_layer(rng, pooled, labels),
        ]
        input_dim = in_ch * h * wd
    return {"input_dim": input_dim, "num_labels": labels,
            "input_domain": list(w.domain) if w.domain else None, "layers": layers}


def make_points(w: Workload, rng, seed: int, input_dim: int) -> np.ndarray:
    """file_points base rows drawn from rng, each jittered by a draw from seed."""
    shape = (w.file_points, input_dim)
    if w.domain is None:
        x = rng.normal(0.0, 1.0, shape)
    else:
        x = rng.uniform(*w.domain, shape)
    if w.jitter:
        x = x + np.random.default_rng(seed).uniform(-w.jitter, w.jitter, shape)
    if w.domain is not None:
        x = np.clip(x, *w.domain)
    return x


def write_model(doc: dict, path: Path) -> None:
    """Model JSON in the format relucert.load_model reads."""
    def plain(value):
        return value.tolist() if isinstance(value, np.ndarray) else value
    out = dict(doc, layers=[{k: plain(v) for k, v in layer.items()} for layer in doc["layers"]])
    path.write_text(json.dumps(out) + "\n")


def write_dataset(x: np.ndarray, labels: np.ndarray, path: Path) -> None:
    """CSV rows ``label,x_0,...`` with every float written by repr."""
    with open(path, "w") as fh:
        for label, row in zip(labels, x):
            fh.write(f"{int(label)}," + ",".join(map(repr, row.tolist())) + "\n")
