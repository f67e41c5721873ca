"""Batch command-line surface.

Subcommands: certify (per-point records as JSON lines), stats / curve
(aggregation of a record file), attack (adversarial inputs as CSV), exact
(enumeration oracle), finetune (adversarial training; writes a run manifest).

Exit codes: 0 success, 1 usage, 2 I/O or parse failure, 3 internal solver error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack

import numpy as np

from . import __version__
from .lp import SimplexError
from .metrics import compute_curve, compute_stats, write_curve_csv
from .model import DatasetError, ModelError, load_dataset, load_model, save_model
from .robustness import extract_adversarial, pointwise_robustness, record_to_json
from .train import TrainConfig, finetune

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_SOLVER = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite_number(accept, what):
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and accept(value)):
            raise argparse.ArgumentTypeError(f"must be a finite number {what}, got {text!r}")
        return value
    return parse


_nonnegative = _finite_number(lambda value: value >= 0, ">= 0")
_positive = _finite_number(lambda value: value > 0, "> 0")


def _int_at_least(low):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1)


def _add_data_args(p):
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--format", choices=("csv", "idx"), default="csv")
    p.add_argument("--labels", help="IDX label file (idx format only)")


def build_parser() -> _Parser:
    parser = _Parser(prog="relucert",
                     description="L-infinity robustness certification for ReLU networks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="per-point robustness records (JSON lines)")
    _add_data_args(p)
    p.add_argument("--target", choices=("second", "all"), default="second")
    p.add_argument("--margin", type=_nonnegative, default=0.0)
    p.add_argument("--domain-bounds", action="store_true",
                   help="constrain the search to the model's input domain")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("stats", help="frequency/severity of a record file")
    p.add_argument("--records", required=True)
    p.add_argument("--eps", type=_positive, default=20.0)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("curve", help="cumulative robustness curve as CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("attack", help="emit adversarial inputs as CSV")
    _add_data_args(p)
    p.add_argument("--alpha", type=_nonnegative, default=3.0, help="output margin")
    p.add_argument("--round-integers", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("exact", help="enumeration-oracle robustness per point")
    _add_data_args(p)
    p.add_argument("--max-sites", type=_int_at_least(0), default=16)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("finetune", help="adversarially fine-tune a model")
    _add_data_args(p)
    p.add_argument("--rounds", type=_positive_int, default=1)
    p.add_argument("--alpha", type=_nonnegative, default=3.0)
    p.add_argument("--attack", choices=("lp", "fgsm"), default="lp")
    p.add_argument("--fgsm-eps", type=_positive, help="FGSM step (required with --attack fgsm)")
    p.add_argument("--round-integers", action="store_true")
    p.add_argument("--lr", type=_nonnegative, default=0.1)
    p.add_argument("--lr-scale", type=_nonnegative, default=0.1)
    p.add_argument("--epochs", type=_positive_int, default=100)
    p.add_argument("--batch-size", type=_positive_int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-model", required=True)
    p.set_defaults(func=cmd_finetune)
    return parser


def _load_points(args, net):
    return load_dataset(args.data, args.format, labels_path=args.labels,
                        input_dim=net.input_dim, num_labels=net.num_labels,
                        input_domain=net.input_domain)


_WORKER: dict = {}


def _init_worker(net, target, margin, domain_bounds):
    _WORKER.update(net=net, target=target, margin=margin, domain_bounds=domain_bounds)


def _certify_one(item):
    index, x = item
    try:
        record = pointwise_robustness(_WORKER["net"], x, targets=_WORKER["target"],
                                      margin=_WORKER["margin"],
                                      respect_domain=_WORKER["domain_bounds"],
                                      seed_index=index)
        return record_to_json(record)
    except SimplexError as exc:
        return {"index": index, "error": str(exc)}


def cmd_certify(args) -> int:
    net = load_model(args.model)
    points = _load_points(args, net)
    if not points:
        print("warning: empty dataset, writing empty report", file=sys.stderr)
        open(args.out, "w").close()
        return EXIT_OK
    items = enumerate(points.X)
    initargs = (net, args.target, args.margin, args.domain_bounds)
    failed = 0
    with ExitStack() as stack:
        out = stack.enter_context(open(args.out, "w", buffering=1))
        if args.jobs > 1:
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=args.jobs, initializer=_init_worker, initargs=initargs))
            records = pool.map(_certify_one, items, chunksize=4)
        else:
            _init_worker(*initargs)
            records = map(_certify_one, items)
        for obj in records:
            out.write(json.dumps(obj) + "\n")
            failed += "error" in obj
    if failed:
        print(f"solver error: {failed} of {len(points)} points failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def read_rhos(path) -> list[float]:
    """rho values from a record file; null (no adversarial found) maps to +inf.

    A solver-error record has no rho, so it raises SimplexError. Any other rho
    must be a finite number >= 0 (not a bool), else DatasetError.
    """
    rhos = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}: line {lineno}: {exc}") from None
            if not isinstance(obj, dict):
                raise DatasetError(f"{path}: line {lineno}: not a record object")
            if "error" in obj:
                raise SimplexError(f"{path}: line {lineno}: index {obj.get('index')}:"
                                   f" {obj['error']}")
            rho = obj.get("rho")
            if rho is None:
                rhos.append(math.inf)
            elif type(rho) in (int, float) and 0 <= rho <= sys.float_info.max:
                rhos.append(float(rho))
            else:
                raise DatasetError(f"{path}: line {lineno}: index {obj.get('index')}:"
                                   f" rho {rho!r} is not null or a finite number >= 0")
    return rhos


def cmd_stats(args) -> int:
    stats = compute_stats(read_rhos(args.records), args.eps)
    print(json.dumps(stats.to_json()))
    return EXIT_OK


def cmd_curve(args) -> int:
    curve = compute_curve(read_rhos(args.records))
    write_curve_csv(curve, args.out)
    return EXIT_OK


def cmd_attack(args) -> int:
    net = load_model(args.model)
    points = _load_points(args, net)
    found = 0
    rounding_failures = 0
    with open(args.out, "w") as fh:
        header = ["index", "rho", "rounded_ok"] + [f"x_{j}" for j in range(net.input_dim)]
        fh.write(",".join(header) + "\n")
        for i, x in enumerate(points.X):
            record = pointwise_robustness(net, x, targets="second",
                                          margin=args.alpha, seed_index=i)
            if not record.found:
                fh.write(",".join([str(i), "none", ""] + [""] * net.input_dim) + "\n")
                continue
            x_adv, ok = extract_adversarial(record, net,
                                            round_to_integers=args.round_integers)
            found += 1
            if ok is False:
                rounding_failures += 1
            flag = "" if ok is None else str(bool(ok)).lower()
            row = [str(i), repr(float(record.rho_hat)), flag]
            row += [repr(float(v)) for v in x_adv]
            fh.write(",".join(row) + "\n")
    if args.round_integers and found:
        print(f"adversarial examples: {found}/{len(points)};"
              f" rounding failures: {rounding_failures}/{found}"
              f" ({100.0 * rounding_failures / found:.1f}%)")
    else:
        print(f"adversarial examples: {found}/{len(points)}")
    return EXIT_OK


def cmd_exact(args) -> int:
    from .oracle import exact_robustness

    net = load_model(args.model)
    points = _load_points(args, net)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for i, x in enumerate(points.X):
            result = exact_robustness(net, x, max_sites=args.max_sites)
            obj = {
                "index": i,
                "rho": result.rho if np.isfinite(result.rho) else None,
                "witness": result.witness.tolist() if result.witness is not None else None,
                "patterns_feasible": result.patterns_feasible,
                "patterns_total": result.patterns_total,
            }
            out.write(json.dumps(obj) + "\n")
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_finetune(args) -> int:
    net = load_model(args.model)
    points = _load_points(args, net)
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                      batch_size=args.batch_size, seed=args.seed,
                      finetune_lr_scale=args.lr_scale, rounds=args.rounds)
    start = time.perf_counter()
    tuned = finetune(net, points, cfg, attack=args.attack, alpha=args.alpha,
                     fgsm_epsilon=args.fgsm_eps, round_integers=args.round_integers)
    save_model(tuned, args.out_model)
    manifest = {
        "command": "finetune",
        "model": args.model,
        "data": args.data,
        "flags": {
            "rounds": args.rounds,
            "alpha": args.alpha,
            "attack": args.attack,
            "fgsm_eps": args.fgsm_eps,
            "round_integers": args.round_integers,
            "lr": args.lr,
            "lr_scale": args.lr_scale,
            "epochs": args.epochs,
            "batch_size": args.batch_size,
            "seed": args.seed,
        },
        "tool_version": __version__,
        "wall_time": time.perf_counter() - start,
        "out_model": args.out_model,
        "records_path": None,
    }
    with open(args.out_model + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "finetune" and args.attack == "fgsm" and args.fgsm_eps is None:
            parser.error("argument --fgsm-eps: required with --attack fgsm")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ModelError, DatasetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SimplexError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
