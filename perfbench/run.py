"""Certification benchmark for relucert.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-wide --seed 1 --seconds 32 --trace 0

The runner writes the workload's seeded network and dataset files, then
certifies them the way ``relucert certify --jobs 1`` does: ``load_model`` and
``load_dataset``, then ``pointwise_robustness`` and ``record_to_json`` for
each point, one JSON line per point. It checks every record against a HiGHS
reference (refcheck.py) and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics. ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` wraps relucert's public functions in spans
and gives the per-layer metrics, with a table of them before the JSON line.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# One process, one thread: BLAS must not add threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 11           # set-ups per run; setup_s is their median
STATS_EPSILON = 20.0  # the threshold `relucert stats` uses by default

sys.path.insert(0, str(HERE))
import netgen  # noqa: E402
import refcheck  # noqa: E402
from spans import Tracer  # noqa: E402


def import_relucert():
    """relucert from this checkout's src/; exits with an error if the checkout has none."""
    if not (SRC / "relucert" / "__init__.py").is_file():
        sys.exit(f"error: no relucert sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import relucert
    if Path(relucert.__file__).resolve().parent != (SRC / "relucert").resolve():
        sys.exit(f"error: relucert imported from {relucert.__file__}, not {SRC}")
    return relucert


def write_inputs(w: netgen.Workload, seed: int, work: Path):
    """Write the model and dataset files for one run; returns their paths."""
    rng = np.random.default_rng(netgen.NET_SEED)
    doc = netgen.make_network(w, rng)
    model_path, data_path = work / "model.json", work / "data.csv"
    netgen.write_model(doc, model_path)
    layers, input_dim = refcheck.load_layers(model_path)
    x = netgen.make_points(w, rng, seed, input_dim)
    labels = refcheck.forward(layers, x).argmax(axis=1)
    netgen.write_dataset(x, labels, data_path)
    return model_path, data_path


def write_inputs_apart(w: netgen.Workload, seed: int, work: Path):
    """write_inputs in a child process, so that the generator's arrays do not
    count in this process's peak_rss_mb."""
    child = multiprocessing.get_context("fork").Process(target=write_inputs,
                                                        args=(w, seed, work))
    child.start()
    child.join()
    if child.exitcode != 0:
        sys.exit(f"error: writing the inputs failed (exit code {child.exitcode})")
    return work / "model.json", work / "data.csv"


def read_points(data_path: Path, n: int) -> np.ndarray:
    """The first n inputs of a dataset file, parsed as certify parses them."""
    with open(data_path) as fh:
        return np.array([[float(v) for v in line.split(",")[1:]]
                         for line in itertools.islice(fh, n)])


def setup(rc, model_path, data_path, tracer):
    """Everything certify pays before its first point; returns (net, points)."""
    with tracer.span("model.load_model"):
        net = rc.load_model(model_path)
    with tracer.span("model.load_dataset"):
        points = rc.load_dataset(data_path, "csv", input_dim=net.input_dim,
                                 num_labels=net.num_labels, input_domain=net.input_domain)
    with tracer.span("model.unroll"):
        for layer in net.layers:
            if isinstance(layer, rc.Conv):
                layer.as_dense
            elif isinstance(layer, rc.MaxPool):
                layer.windows
    return net, points


def certify_rounds(rc, w, net, points, seconds, records_path, tracer):
    """Certify whole rounds of the first round_points points.

    The run stops at the round end nearest ``seconds``, as far as the last
    round's time predicts it; the first round always runs.
    Returns (per-point call times, rounds, elapsed).
    """
    times = [[] for _ in range(w.round_points)]
    rounds = 0
    with open(records_path, "w") as fh:
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for i in range(w.round_points):
                t0 = time.perf_counter()
                try:
                    record = rc.pointwise_robustness(net, points[i].x, targets=w.targets,
                                                     respect_domain=w.respect_domain,
                                                     seed_index=i)
                    error = None
                except rc.SimplexError as exc:
                    error = str(exc)
                times[i].append(time.perf_counter() - t0)
                with tracer.span("cli.record_out"):
                    obj = {"index": i, "error": error} if error else rc.record_to_json(record)
                    fh.write(json.dumps(obj) + "\n")
            rounds += 1
            now = time.perf_counter()
            if now - start + (now - round_start) / 2 > seconds:
                break
        elapsed = time.perf_counter() - start
    return times, rounds, elapsed


def aggregate(rc, records, tracer):
    """What `relucert stats` and `relucert curve` compute over the run's rhos."""
    rhos = [math.inf if r["rho"] is None else r["rho"] for r in records if "error" not in r]
    if rhos:
        with tracer.span("metrics.aggregate"):
            rc.compute_stats(rhos, STATS_EPSILON)
            rc.compute_curve(rhos)


def check_records(records, refs, layers):
    """Per record: None if it passes, else the reasons it failed."""
    verdicts = []
    for r in records:
        if "error" in r:
            verdicts.append([f"raised SimplexError: {r['error']}"])
        else:
            verdicts.append(refcheck.check_record(r, refs[r["index"]], layers) or None)
    return verdicts


def wrong_outputs(w, records, verdicts):
    """Reasons the run is not correct; empty if it is.

    A failed point is allowed only if it raised the workload's known fault
    and raised it in every round.
    """
    reasons = [f"point {r['index']}: {'; '.join(v)}" for r, v in zip(records, verdicts)
               if v is not None and not ("error" in r and r["error"] == w.known_fault)]
    n = w.round_points
    failing = [v is not None for v in verdicts]
    if any(failing[k:k + n] != failing[:n] for k in range(n, len(failing), n)):
        reasons.append("the failed points differ between rounds")
    return reasons


def end_to_end(times, verdicts, w, elapsed, setup_times, peak_rss_mb):
    passing = [i for i in range(w.round_points)
               if all(v is None for v in verdicts[i::w.round_points])]
    point_s = sorted(statistics.median(times[i]) for i in passing)
    n = len(point_s)
    p50 = statistics.median(point_s) if point_s else math.nan
    # highest percentile with at least 10 points beyond it; no tail below 40 points
    tail = point_s[n - 11] if n >= 40 else p50
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "points_per_s": (sum(v is None for v in verdicts) / elapsed, "1/s"),
        "point_s.p50": (p50, "s"),
        "point_s.tail": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics


def tableau_mb(lp, problem) -> float:
    """Size of the dense two-phase tableau simplex_solve builds for ``problem``.

    Computed from the LP's dimensions: rows are simplex_solve's own row list
    (the constraints plus ``lp._bounds_rows``); columns are the split
    variables, one slack per inequality, one artificial per row that is not
    '<=' after making its rhs nonnegative.
    """
    rows = list(problem.constraints) + lp._bounds_rows(problem)
    flip = {">=": "<=", "<=": ">=", "=": "="}
    senses = [flip[c.sense] if c.rhs < 0 else c.sense for c in rows]
    cols = 2 * problem.num_vars + sum(s != "=" for s in senses) + sum(s != "<=" for s in senses)
    return (len(rows) + 1) * (cols + 1) * 8 / 2**20


def install_spans(rc, tracer):
    """Wrap the public functions on the certify path, one span name each."""
    tracer.wrap(rc.model, "classify", "model.classify")
    tracer.wrap(rc.model, "second_label", "model.second_label")
    tracer.wrap(rc.affine, "affine_dense", "affine.dense")
    tracer.wrap(rc.affine, "relu_fix", "affine.relu_fix")
    tracer.wrap(rc.affine, "maxpool_fix", "affine.maxpool_fix")
    tracer.wrap(rc.encoder, "extract_region", "encoder.extract_region",
                lambda args, region: {"rows": len(region.constraints)})
    tracer.wrap(rc.encoder, "output_constraints", "encoder.output_constraints")
    tracer.wrap(rc.lp, "linf_box_problem", "lp.linf_box_problem")
    tracer.wrap(rc.lp, "lazy_solve", "lp.lazy_solve",
                lambda args, res: {"pool": len(args[1]), "added": res[1].constraints_added})
    tracer.wrap(rc.lp, "simplex_solve", "lp.simplex_solve",
                lambda args, sol: {"pivots": sol.pivots,
                                     "tableau_mb": tableau_mb(rc.lp, args[0])})
    tracer.wrap(rc.robustness, "pointwise_robustness", "robustness.point")


def per_layer(tracer, attempted):
    """Per-layer metrics from the spans: times in s per attempted point unless
    noted, counts per attempted point."""
    total, count, self_time = defaultdict(float), defaultdict(int), defaultdict(float)
    info_sum, setup_times = defaultdict(float), defaultdict(list)
    child = [0.0] * len(tracer.spans)
    for s in tracer.spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    tableau = 0.0
    for i, s in enumerate(tracer.spans):
        if s.name in ("model.load_model", "model.load_dataset", "model.unroll"):
            setup_times[s.name].append(s.seconds)
            continue
        total[s.name] += s.seconds
        count[s.name] += 1
        self_time[s.name] += s.seconds - child[i]
        for key, value in s.info.items():
            if not isinstance(value, str):
                info_sum[(s.name, key)] += value
        tableau = max(tableau, s.info.get("tableau_mb", 0.0))

    def per_point(name):
        return total[name] / attempted

    pivots = info_sum[("lp.simplex_solve", "pivots")]
    pool = info_sum[("lp.lazy_solve", "pool")]
    added = info_sum[("lp.lazy_solve", "added")]
    values = {
        "model.load_model_s": (statistics.median(setup_times["model.load_model"]), "s"),
        "model.load_dataset_s": (statistics.median(setup_times["model.load_dataset"]), "s"),
        "model.unroll_s": (statistics.median(setup_times["model.unroll"]), "s"),
        "model.classify_s": (per_point("model.classify") + per_point("model.second_label"), "s"),
        "affine.dense_s": (per_point("affine.dense"), "s"),
        "affine.fix_s": (per_point("affine.relu_fix") + per_point("affine.maxpool_fix"), "s"),
        "encoder.extract_region_s": (per_point("encoder.extract_region"), "s"),
        "encoder.self_s": (self_time["encoder.extract_region"] / attempted, "s"),
        "encoder.region_rows": (info_sum[("encoder.extract_region", "rows")]
                                / max(count["encoder.extract_region"], 1), "count"),
        "encoder.output_constraints_s": (per_point("encoder.output_constraints"), "s"),
        "lp.lazy_solve_s": (per_point("lp.lazy_solve"), "s"),
        "lp.lazy_self_s": (self_time["lp.lazy_solve"] / attempted, "s"),
        "lp.box_problem_s": (per_point("lp.linf_box_problem"), "s"),
        "lp.simplex_s": (per_point("lp.simplex_solve"), "s"),
        "lp.pivots": (pivots / attempted, "count"),
        "lp.s_per_pivot": (total["lp.simplex_solve"] / max(pivots, 1), "s"),
        "lp.simplex_calls": (count["lp.simplex_solve"] / attempted, "count"),
        "lp.rows_added": (added / attempted, "count"),
        "lp.pool_use": (added / pool if pool else 0.0, "ratio"),
        "lp.targets": (count["lp.lazy_solve"] / attempted, "count"),
        "lp.tableau_mb_computed": (tableau, "MB"),
        "robustness.point_s": (per_point("robustness.point"), "s"),
        "robustness.self_s": (self_time["robustness.point"] / attempted, "s"),
        "cli.record_out_s": (per_point("cli.record_out"), "s"),
        "metrics.aggregate_s": (total["metrics.aggregate"], "s"),
    }
    return values


class _NoTrace:
    """Stands in for Tracer in untraced runs: a span is an empty context."""

    def span(self, name):
        return nullcontext()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(netgen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = netgen.WORKLOADS[args.workload]
    rc = import_relucert()

    work = HERE / "work" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    model_path, data_path = write_inputs_apart(w, args.seed, work)

    tracer = Tracer() if args.trace else _NoTrace()
    if args.trace:
        install_spans(rc, tracer)
    try:
        setup_times = []
        for _ in range(SETUPS):
            net = points = None  # keep one set-up's objects alive at a time
            t0 = time.perf_counter()
            net, points = setup(rc, model_path, data_path, tracer)
            setup_times.append(time.perf_counter() - t0)
        times, rounds, elapsed = certify_rounds(rc, w, net, points, args.seconds,
                                                work / "records.jsonl", tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        with open(work / "records.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        aggregate(rc, records[-w.round_points:], tracer)
    finally:
        if args.trace:
            tracer.unwrap()

    layers, _ = refcheck.load_layers(model_path)
    x = read_points(data_path, w.round_points)
    domain = w.domain if w.respect_domain else None
    refs = [refcheck.reference(layers, x[i], w.targets, domain) for i in range(w.round_points)]
    verdicts = check_records(records, refs, layers)
    attempted = len(records)
    failed = sum(v is not None for v in verdicts)
    wrong = wrong_outputs(w, records, verdicts)
    correct = not wrong
    first = list(zip(records[:w.round_points], verdicts[:w.round_points]))
    found = sum(v is None and r.get("rho") is not None for r, v in first)
    not_found = sum(v is None and r.get("rho") is None for r, v in first)
    print(f"{w.name} seed {args.seed}: {rounds} round(s) of {w.round_points} points in "
          f"{elapsed:.2f} s; per round {found} found, {not_found} not found, "
          f"{w.round_points - found - not_found} failed; {attempted} attempted, {failed} failed")
    for i, (_, v) in enumerate(first):
        if v is not None:
            print(f"  point {i} failed: {'; '.join(v)}")
    for reason in wrong[:20]:
        print(f"  not correct: {reason}")

    if args.trace:
        metrics = per_layer(tracer, attempted)
    else:
        metrics = end_to_end(times, verdicts, w, elapsed, setup_times, peak_rss_mb)
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
