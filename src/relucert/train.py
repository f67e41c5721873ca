"""Minimal dense-ReLU trainer (softmax cross-entropy + SGD), the signed-gradient
baseline attack, and the fine-tuning loop that augments training data with
generated adversarial examples."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import Dataset, Dense, Network, Relu, _check_labels, classify, forward_batch
from .robustness import extract_adversarial, pointwise_robustness
from .lp import SimplexError

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    finetune_lr_scale: float = 0.1
    rounds: int = 1

    def __post_init__(self):
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if not 0 <= self.finetune_lr_scale < math.inf:
            raise ValueError("finetune_lr_scale must be finite and >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")


@dataclass
class Gradient:
    """Loss partials mirroring the network: (dW, db) per dense layer, None for
    activation layers, plus the gradient with respect to the input."""

    params: list
    input: np.ndarray


def _check_trainable(net: Network):
    for i, layer in enumerate(net.layers):
        if not isinstance(layer, (Dense, Relu)):
            raise ValueError(
                f"layer {i}: {type(layer).__name__} not supported by the trainer")


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _gradients(layers, X, y):
    """Mean cross-entropy loss of a Dense/ReLU stack on a batch, (dW, db) per
    dense layer (None per ReLU), and the gradient with respect to X."""
    inputs = []
    a = X
    for layer in layers:
        inputs.append(a)
        a = a @ layer.weights.T + layer.bias if isinstance(layer, Dense) else np.maximum(a, 0.0)
    batch = a.shape[0]
    probs = _softmax(a)
    loss = float(-np.log(probs[np.arange(batch), y] + 1e-300).mean())
    g = probs
    g[np.arange(batch), y] -= 1.0
    g /= batch
    grads = []
    for layer, a_in in zip(reversed(layers), reversed(inputs)):
        if isinstance(layer, Dense):
            grads.append((g.T @ a_in, g.sum(axis=0)))
            g = g @ layer.weights
        else:
            grads.append(None)
            g = g * (a_in > 0.0)
    grads.reverse()
    return loss, grads, g


def loss_and_gradients(net: Network, X, y) -> tuple[float, Gradient]:
    """Softmax cross-entropy over a batch and its backprop gradients."""
    _check_trainable(net)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    loss, grads, g_input = _gradients(net.layers, X, y)
    return loss, Gradient(grads, g_input)


def input_gradient(net: Network, x, label: int) -> np.ndarray:
    """d loss(f(x), label) / dx for a single input."""
    _, grad = loss_and_gradients(net, np.asarray(x, dtype=float)[None, :], [label])
    return grad.input[0]


def train(net: Network, data: Dataset, cfg: TrainConfig) -> Network:
    """SGD on dense-ReLU networks; deterministic given cfg.seed. A label
    outside [0, net.num_labels) raises ValueError naming the first one."""
    _check_trainable(net)
    if not data:
        raise ValueError("empty training set")
    _check_labels(data, net.num_labels)
    X, y = data.X, data.labels
    layers = [Dense(layer.weights.copy(), layer.bias.copy()) if isinstance(layer, Dense)
              else layer for layer in net.layers]
    rng = np.random.default_rng(cfg.seed)
    count = len(data)
    for _ in range(cfg.epochs):
        order = rng.permutation(count)
        for start in range(0, count, cfg.batch_size):
            batch = order[start: start + cfg.batch_size]
            _, grads, _ = _gradients(layers, X[batch], y[batch])
            for layer, grad in zip(layers, grads):
                if grad is not None:
                    layer.weights[:] -= cfg.learning_rate * grad[0]
                    layer.bias[:] -= cfg.learning_rate * grad[1]
    return Network(layers, net.input_dim, net.num_labels, net.input_domain)


def accuracy(net: Network, data: Dataset) -> float:
    if not data:
        raise ValueError("empty dataset")
    return float((np.argmax(forward_batch(net, data.X), axis=1) == data.labels).mean())


def fgsm(net: Network, x, epsilon: float) -> np.ndarray:
    """One step of size epsilon along the sign of the input loss gradient,
    clamped to the declared input domain."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x = np.asarray(x, dtype=float)
    label = classify(net, x)
    grad = input_gradient(net, x, label)
    x_adv = x + epsilon * np.sign(grad)
    if net.input_domain is not None:
        x_adv = np.clip(x_adv, net.input_domain[0], net.input_domain[1])
    return x_adv


def _lp_attack(alpha: float, round_integers: bool):
    def attack(net, point):
        try:
            record = pointwise_robustness(net, point.x, targets="second", margin=alpha)
        except SimplexError as exc:
            log.warning("lp attack failed on a point: %s", exc)
            return None
        if not record.found:
            return None
        x_adv, ok = extract_adversarial(record, net, round_to_integers=round_integers)
        if round_integers and not ok:
            return None
        return x_adv

    return attack


def _fgsm_attack(epsilon: float, round_integers: bool):
    def attack(net, point):
        x_adv = fgsm(net, point.x, epsilon)
        if round_integers:
            x_adv = np.rint(x_adv)
            if net.input_domain is not None:
                x_adv = np.clip(x_adv, net.input_domain[0], net.input_domain[1])
        return x_adv

    return attack


def finetune(net: Network, train_data: Dataset, cfg: TrainConfig, attack="lp",
             alpha: float = 3.0, fgsm_epsilon: float | None = None,
             round_integers: bool = False) -> Network:
    """Continued training on adversarially augmented data, cfg.rounds times.

    Each round attacks the original training points only (with the current
    network), labels the generated examples with the seed's ground-truth
    label, and trains on the accumulated augmented set at the reduced rate.
    Points the attack fails on contribute nothing and never abort a round.
    Labels are checked as train checks them, before the first attack.
    """
    _check_labels(train_data, net.num_labels)
    if callable(attack):
        generate = attack
    elif attack == "lp":
        generate = _lp_attack(alpha, round_integers)
    elif attack == "fgsm":
        if fgsm_epsilon is None:
            raise ValueError("fgsm attack needs fgsm_epsilon")
        generate = _fgsm_attack(fgsm_epsilon, round_integers)
    else:
        raise ValueError(f"unknown attack {attack!r}")

    tuned_cfg = replace(cfg, learning_rate=cfg.learning_rate * cfg.finetune_lr_scale)
    current = net
    augmented = train_data
    for round_index in range(cfg.rounds):
        rows, labels = [], []
        for point in train_data:
            x_adv = generate(current, point)
            if x_adv is not None:
                rows.append(x_adv)
                labels.append(point.label)
        log.info("round %d: %d adversarial examples", round_index + 1, len(rows))
        if rows:
            augmented = Dataset(np.vstack([augmented.X, rows]),
                                np.concatenate([augmented.labels, labels]))
        current = train(current, augmented, tuned_cfg)
    return current
