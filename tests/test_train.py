import numpy as np
import pytest

from relucert import (Dataset, Dense, Network, TrainConfig, accuracy,
                      classify, fgsm, finetune, input_gradient, loss_and_gradients,
                      networks_equal, train)
from helpers import blobs, random_dense_relu_net


def test_train_separable_blobs():
    rng = np.random.default_rng(0)
    data = blobs(rng, 100)
    net = random_dense_relu_net(rng, [2, 8, 2], scale=0.5)
    cfg = TrainConfig(learning_rate=0.1, epochs=200, batch_size=32, seed=0)
    trained = train(net, data, cfg)
    assert accuracy(trained, data) >= 0.95


def test_zero_learning_rate_is_identity():
    rng = np.random.default_rng(1)
    data = blobs(rng, 20)
    net = random_dense_relu_net(rng, [2, 4, 2])
    cfg = TrainConfig(learning_rate=0.0, epochs=5, batch_size=8, seed=3)
    assert networks_equal(train(net, data, cfg), net)


def test_train_is_deterministic_given_seed():
    rng = np.random.default_rng(2)
    data = blobs(rng, 30)
    net = random_dense_relu_net(rng, [2, 6, 2])
    cfg = TrainConfig(learning_rate=0.05, epochs=20, batch_size=16, seed=9)
    assert networks_equal(train(net, data, cfg), train(net, data, cfg))


def test_train_rejects_unsupported_layers():
    from helpers import random_conv_pool_net

    net = random_conv_pool_net(np.random.default_rng(3))
    data = Dataset(np.zeros((1, 16)), [0])
    with pytest.raises(ValueError, match="not supported"):
        train(net, data, TrainConfig())


def _no_attack(net, point):
    raise AssertionError("attacked a point before the labels were checked")


@pytest.mark.parametrize("fit", [
    lambda net, data: train(net, data, TrainConfig(epochs=1)),
    lambda net, data: finetune(net, data, TrainConfig(epochs=1), attack=_no_attack),
], ids=["train", "finetune"])
@pytest.mark.parametrize("bad", [-1, 3])
def test_labels_outside_the_networks_range_are_rejected(fit, bad):
    net = random_dense_relu_net(np.random.default_rng(4), [2, 4, 3])
    data = Dataset(np.zeros((4, 2)), [0, 2, bad, bad])
    with pytest.raises(ValueError, match=rf"item 2: label {bad} out of range \[0, 3\)"):
        fit(net, data)


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("epochs", -5), ("batch_size", 0), ("batch_size", -1),
])
def test_config_rejects_counts_that_train_nothing(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", -0.1),
    ("finetune_lr_scale", -1.0), ("finetune_lr_scale", float("nan")),
    ("finetune_lr_scale", float("inf")),
])
def test_config_rejects_bad_rates(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
        TrainConfig(**{field: value})


def _numeric_gradient(net, X, y, get, set_, shape, step=1e-5):
    grad = np.zeros(shape)
    it = np.nditer(grad, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = get(idx)
        set_(idx, orig + step)
        plus, _ = loss_and_gradients(net, X, y)
        set_(idx, orig - step)
        minus, _ = loss_and_gradients(net, X, y)
        set_(idx, orig)
        grad[idx] = (plus - minus) / (2 * step)
    return grad


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(17)
    net = random_dense_relu_net(rng, [2, 3, 2])
    X = rng.normal(size=(5, 2))
    y = rng.integers(0, 2, size=5)
    _, grad = loss_and_gradients(net, X, y)
    for li, layer in enumerate(net.layers):
        if not isinstance(layer, Dense):
            assert grad.params[li] is None
            continue
        dW, db = grad.params[li]
        for arr, analytic in ((layer.weights, dW), (layer.bias, db)):
            numeric = _numeric_gradient(
                net, X, y,
                get=lambda idx, a=arr: a[idx],
                set_=lambda idx, v, a=arr: a.__setitem__(idx, v),
                shape=arr.shape)
            denom = np.maximum(np.abs(numeric), 1e-6)
            assert (np.abs(analytic - numeric) / denom).max() <= 1e-4


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    net = random_dense_relu_net(rng, [2, 3, 2])
    x = rng.normal(size=2)
    label = 1
    analytic = input_gradient(net, x, label)
    step = 1e-5
    numeric = np.zeros(2)
    for i in range(2):
        bumped = x.copy()
        bumped[i] += step
        plus, _ = loss_and_gradients(net, bumped[None, :], [label])
        bumped[i] -= 2 * step
        minus, _ = loss_and_gradients(net, bumped[None, :], [label])
        numeric[i] = (plus - minus) / (2 * step)
    denom = np.maximum(np.abs(numeric), 1e-6)
    assert (np.abs(analytic - numeric) / denom).max() <= 1e-4


def test_gradient_trap_directions(gradient_trap_net):
    # raising the label-1 log-score pushes x up, away from the actual flip;
    # ascending the true-label loss moves x down, toward it
    x = np.array([0.0])
    toward_label_1 = -input_gradient(gradient_trap_net, x, 1)  # d log p_1 / dx
    assert toward_label_1[0] == pytest.approx(5 / 236, abs=1e-12)
    assert toward_label_1[0] > 0
    true_label_loss_ascent = input_gradient(gradient_trap_net, x, 0)
    assert true_label_loss_ascent[0] == pytest.approx(-16 / 59, abs=1e-12)
    assert true_label_loss_ascent[0] < 0


def test_fgsm_follows_loss_ascent(gradient_trap_net):
    x_adv = fgsm(gradient_trap_net, np.array([0.0]), epsilon=1.0)
    assert x_adv[0] == -1.0
    assert classify(gradient_trap_net, x_adv) != 0


def test_fgsm_zero_gradient_returns_input():
    # zero first layer kills the input gradient everywhere
    net = Network([Dense(np.zeros((3, 2)), np.array([1.0, 0.0, -1.0]))], 2, 3)
    x = np.array([0.3, -0.7])
    assert np.array_equal(fgsm(net, x, epsilon=5.0), x)


def test_fgsm_stays_in_ball_and_domain():
    rng = np.random.default_rng(23)
    net = random_dense_relu_net(rng, [2, 5, 2], domain=(-1.0, 1.0))
    for _ in range(20):
        x = rng.uniform(-1, 1, size=2)
        eps = rng.uniform(0.05, 0.5)
        x_adv = fgsm(net, x, eps)
        assert np.abs(x_adv - x).max() <= eps + 1e-12
        assert x_adv.min() >= -1.0 and x_adv.max() <= 1.0


def test_finetune_without_adversarials_equals_plain_training():
    rng = np.random.default_rng(29)
    data = blobs(rng, 20)
    net = random_dense_relu_net(rng, [2, 4, 2])
    cfg = TrainConfig(learning_rate=0.1, epochs=10, batch_size=8, seed=5, rounds=1)

    def no_attack(current, point):
        return None

    tuned = finetune(net, data, cfg, attack=no_attack)
    from dataclasses import replace

    plain = train(net, data, replace(cfg, learning_rate=cfg.learning_rate * 0.1))
    assert networks_equal(tuned, plain)


def test_finetune_rounds_attack_original_points_only():
    rng = np.random.default_rng(31)
    data = blobs(rng, 10)
    net = random_dense_relu_net(rng, [2, 4, 2])
    cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=8, seed=1, rounds=3)
    attacked = []

    def recording_attack(current, point):
        attacked.append(point)
        return point.x + 0.01

    finetune(net, data, cfg, attack=recording_attack)
    assert [p.x.tobytes() for p in attacked] == [x.tobytes() for x in data.X] * 3
    assert [p.label for p in attacked] == data.labels.tolist() * 3


def test_finetune_lp_attack_generates_usable_examples():
    rng = np.random.default_rng(37)
    data = blobs(rng, 25)
    base = train(random_dense_relu_net(rng, [2, 8, 2], scale=0.5), data,
                 TrainConfig(learning_rate=0.1, epochs=100, batch_size=16, seed=0))
    cfg = TrainConfig(learning_rate=0.1, epochs=30, batch_size=16, seed=0, rounds=1)
    tuned = finetune(base, data, cfg, attack="lp", alpha=3.0)
    assert accuracy(tuned, data) >= 0.9


def test_finetune_fgsm_requires_epsilon():
    rng = np.random.default_rng(41)
    data = blobs(rng, 5)
    net = random_dense_relu_net(rng, [2, 4, 2])
    with pytest.raises(ValueError, match="fgsm_epsilon"):
        finetune(net, data, TrainConfig(epochs=1), attack="fgsm")


def test_second_round_does_not_lose_ground():
    # a second fine-tuning round matches or improves the first round's
    # frequency at the benchmark threshold
    from relucert import compute_stats
    from helpers import TOY_EPS_ROUNDS, toy_run

    for seed in (0, 1, 2):
        one = toy_run(seed, rounds=1)["tuned"]["rhos"]
        two = toy_run(seed, rounds=2)["tuned"]["rhos"]
        count_one = compute_stats(one, TOY_EPS_ROUNDS).count_below
        count_two = compute_stats(two, TOY_EPS_ROUNDS).count_below
        assert count_two <= count_one


def test_fgsm_flip_rate_never_beats_lp_frequency():
    # at a small matched radius, every point the one-step attack flips stays
    # inside the seed's affine piece, so the certification records catch it
    from relucert import compute_stats
    from helpers import TOY_EPS_MATCHED, toy_run

    run = toy_run(0)
    net = run["base"]["net"]
    eps = TOY_EPS_MATCHED
    lp_freq = compute_stats(run["base"]["rhos"], eps).frequency
    flips = [classify(net, fgsm(net, p.x, eps)) != classify(net, p.x)
             for p in run["test"]]
    fgsm_freq = sum(flips) / len(flips)
    assert lp_freq >= fgsm_freq
    assert lp_freq > 0
