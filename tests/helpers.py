"""Shared test utilities: independent evaluators and random problem generators."""

import numpy as np

from relucert import Conv, Dense, LabeledPoint, MaxPool, Network, Relu


def naive_forward(net, x):
    """Straightforward per-layer evaluation with explicit Python loops.

    Deliberately independent of the package's numpy implementation (including
    the conv unrolling) so it can serve as an oracle.
    """
    values = [float(v) for v in x]
    for layer in net.layers:
        if isinstance(layer, Dense):
            values = [
                sum(w * v for w, v in zip(row, values)) + b
                for row, b in zip(layer.weights, layer.bias)
            ]
        elif isinstance(layer, Conv):
            c, h, w = layer.input_shape
            oc, ic, kh, kw = layer.kernel.shape
            _, oh, ow = layer.output_shape
            grid = [[[values[(i * h + y) * w + z] for z in range(w)] for y in range(h)]
                    for i in range(c)]
            out = []
            for o in range(oc):
                for oy in range(oh):
                    for ox in range(ow):
                        acc = float(layer.bias[o])
                        for i in range(ic):
                            for ky in range(kh):
                                for kx in range(kw):
                                    iy = oy * layer.stride - layer.padding + ky
                                    ix = ox * layer.stride - layer.padding + kx
                                    if 0 <= iy < h and 0 <= ix < w:
                                        acc += layer.kernel[o, i, ky, kx] * grid[i][iy][ix]
                        out.append(acc)
            values = out
        elif isinstance(layer, Relu):
            values = [max(v, 0.0) for v in values]
        elif isinstance(layer, MaxPool):
            c, h, w = layer.input_shape
            _, oh, ow = layer.output_shape
            wh, ww = layer.window
            out = []
            for ch in range(c):
                for oy in range(oh):
                    for ox in range(ow):
                        window = [
                            values[(ch * h + oy * layer.stride + dy) * w
                                   + ox * layer.stride + dx]
                            for dy in range(wh)
                            for dx in range(ww)
                        ]
                        out.append(max(window))
            values = out
    return np.array(values)


def random_dense_relu_net(rng, dims, domain=None, scale=None):
    """Random dense-ReLU stack with the given layer widths, ending dense."""
    layers = []
    for i in range(len(dims) - 1):
        fan_in = dims[i]
        sd = scale if scale is not None else 1.0 / np.sqrt(fan_in)
        layers.append(Dense(rng.normal(scale=sd, size=(dims[i + 1], fan_in)),
                            rng.normal(scale=0.3, size=dims[i + 1])))
        if i < len(dims) - 2:
            layers.append(Relu())
    return Network(layers, dims[0], dims[-1], domain)


def random_conv_pool_net(rng):
    """Tiny conv -> relu -> pool -> dense network (8 relu sites, 2 pool windows)."""
    conv = Conv(rng.normal(scale=0.5, size=(2, 1, 3, 3)), rng.normal(scale=0.3, size=2),
                stride=1, padding=0, input_shape=(1, 4, 4))
    pool = MaxPool((2, 2), 2, input_shape=(2, 2, 2))
    dense = Dense(rng.normal(scale=0.7, size=(2, 2)), rng.normal(scale=0.3, size=2))
    return Network([conv, Relu(), pool, dense], 16, 2)


def small_pool_net(rng):
    """conv 2x2 on a 3x3 input -> relu -> 2x2 max-pool -> dense to 2 labels:
    2**4 relu patterns times 4 pool winners."""
    conv = Conv(rng.normal(scale=0.6, size=(1, 1, 2, 2)), rng.normal(size=1),
                stride=1, padding=0, input_shape=(1, 3, 3))
    layers = [conv, Relu(), MaxPool((2, 2), 2, input_shape=(1, 2, 2)),
              Dense(rng.normal(size=(2, 1)), rng.normal(size=2))]
    return Network(layers, 9, 2)


def blobs(rng, count_per_class, std=0.45, centers=((-1.0, -1.0), (1.0, 1.0))):
    """Two separable Gaussian blobs in the plane."""
    points = []
    for label, center in enumerate(centers):
        samples = rng.normal(loc=center, scale=std, size=(count_per_class, 2))
        points.extend(LabeledPoint(s, label) for s in samples)
    order = rng.permutation(len(points))
    return [points[i] for i in order]


# Fixed 2-D benchmark for the fine-tuning and attack-comparison runs: one
# canonical data draw (mildly overlapping blobs), networks varying only by
# the training seed. The whole pipeline is deterministic given the seed.

TOY_STD = 0.75
TOY_EPS_FINETUNE = 0.1
TOY_EPS_MATCHED = 0.05
TOY_EPS_ROUNDS = 0.15

_TOY_CACHE: dict = {}


def toy_task():
    if "data" not in _TOY_CACHE:
        rng = np.random.default_rng(12345)
        train_points = blobs(rng, 150, std=TOY_STD)
        test_points = blobs(rng, 150, std=TOY_STD)
        _TOY_CACHE["data"] = (train_points, test_points)
    return _TOY_CACHE["data"]


def toy_base_config(seed):
    from relucert import TrainConfig

    return TrainConfig(learning_rate=0.5, epochs=400, batch_size=16, seed=seed)


def toy_finetune_config(seed, rounds=1):
    from dataclasses import replace

    return replace(toy_base_config(seed), epochs=60, batch_size=64, rounds=rounds)


def train_toy_base(seed, train_points):
    from relucert import train

    init = np.random.default_rng(1000 + seed)
    net = random_dense_relu_net(init, [2, 8, 2], scale=0.5)
    return train(net, train_points, toy_base_config(seed))


def _toy_rhos(net, points):
    from relucert import pointwise_robustness

    return [pointwise_robustness(net, p.x).rho_hat for p in points]


def toy_run(seed, rounds=1):
    """Base net, fine-tuned net, and their test-set radii; cached per seed."""
    from relucert import finetune
    from relucert.train import accuracy

    train_points, test_points = toy_task()
    base_key = ("base", seed)
    if base_key not in _TOY_CACHE:
        base = train_toy_base(seed, train_points)
        _TOY_CACHE[base_key] = {
            "net": base,
            "rhos": _toy_rhos(base, test_points),
            "acc": accuracy(base, test_points),
        }
    key = ("tuned", seed, rounds)
    if key not in _TOY_CACHE:
        base = _TOY_CACHE[base_key]["net"]
        tuned = finetune(base, train_points, toy_finetune_config(seed, rounds),
                         attack="lp", alpha=3.0)
        _TOY_CACHE[key] = {
            "net": tuned,
            "rhos": _toy_rhos(tuned, test_points),
            "acc": accuracy(tuned, test_points),
        }
    return {
        "test": test_points,
        "base": _TOY_CACHE[base_key],
        "tuned": _TOY_CACHE[key],
    }


def highs_min_eps(seed, A, b, G, h, domain=None):
    """min ||x - seed||_inf subject to G x + h >= 0, A x + b >= 0 and, if
    given, x in the domain, solved by scipy's HiGHS on the whole LP over
    (x, eps); None when HiGHS proves it infeasible."""
    from scipy.optimize import linprog

    seed = np.asarray(seed, dtype=float)
    n = seed.shape[0]
    rows = np.vstack([G, A])
    offsets = np.concatenate([h, b])
    scale = np.maximum(np.abs(rows).max(axis=1, initial=0.0), 1e-300)
    eye, ones = np.eye(n), np.ones((n, 1))
    A_ub = np.vstack([np.hstack([eye, -ones]), np.hstack([-eye, -ones]),
                      np.hstack([-rows / scale[:, None], np.zeros((len(rows), 1))])])
    b_ub = np.concatenate([seed, -seed, offsets / scale])
    box = (None, None) if domain is None else (float(domain[0]), float(domain[1]))
    res = linprog(np.eye(n + 1)[n], A_ub=A_ub, b_ub=b_ub, bounds=[box] * n + [(0, None)],
                  method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return res.fun


def reference_load_csv(path, input_dim=None, num_labels=None, input_domain=None):
    """The per-line CSV loader that load_dataset's block loader replaced: one
    float() per token and the checks of each line in turn. Reference for the
    parity tests on files without non-finite values or underscored tokens."""
    from relucert import DatasetError

    def check_point(x, label, lineno, input_dim):
        if input_dim is not None and len(x) != input_dim:
            raise DatasetError(f"line {lineno}: expected {input_dim} features, got {len(x)}")
        if num_labels is not None and not 0 <= label < num_labels:
            raise DatasetError(f"line {lineno}: label {label} out of range [0, {num_labels})")
        if input_domain is not None and len(x):
            lo, hi = input_domain
            if x.min() < lo or x.max() > hi:
                raise DatasetError(f"line {lineno}: feature outside domain [{lo}, {hi}]")

    points = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")
            try:
                label_f = float(tokens[0])
                x = np.array([float(t) for t in tokens[1:]])
            except ValueError as exc:
                raise DatasetError(f"line {lineno}: {exc}") from None
            if label_f != int(label_f):
                raise DatasetError(f"line {lineno}: non-integer label {tokens[0]!r}")
            label = int(label_f)
            if input_dim is None:
                input_dim = len(x)
            check_point(x, label, lineno, input_dim)
            points.append(LabeledPoint(x, label))
    return points
