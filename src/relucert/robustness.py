"""Pointwise robustness estimates and adversarial example extraction.

The estimate restricts the search to the affine piece containing the seed:
minimize the L-infinity perturbation radius subject to the piece's halfspaces
(lazily enforced) and the constraints making a target label win. The result
overapproximates the true pointwise robustness because any feasible point of
the restricted program is a genuine adversarial example. Each point's output
rows are built once, for every target at once (output_constraints). Over
several target labels, a target whose Hoelder lower bound (lp.holder_bounds
over its rows) shows it cannot beat the best radius so far is not solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoder import extract_region, output_constraints
from .lp import LazyStats, _row_scale, holder_bounds, lazy_solve, solved
from .model import Network, _runner_up, _seed_vector, classify, forward

INFINITE_RHO = math.inf


@dataclass
class RobustnessRecord:
    """Per-seed certification result; rho_hat is +inf when the restricted
    program admits no adversarial example for any requested target. flips is
    whether classify() at the adversarial example differs from seed_label
    (None when nothing was found): a margin-0 witness sits on the logit tie,
    which argmax may give to the seed's label."""

    seed_index: int
    seed_label: int
    target_label: int | None
    rho_hat: float
    adversarial: np.ndarray | None = None
    rounded_ok: bool | None = None
    lazy: LazyStats = field(default_factory=LazyStats)
    flips: bool | None = None

    @property
    def found(self) -> bool:
        return math.isfinite(self.rho_hat)


def record_to_json(record: RobustnessRecord) -> dict:
    """One JSON object per record; timing kept under its own key so report
    diffs can ignore it."""
    return {
        "index": record.seed_index,
        "label": record.seed_label,
        "target": record.target_label,
        "rho": record.rho_hat if record.found else None,
        "adversarial": record.adversarial.tolist() if record.adversarial is not None else None,
        "rounded_ok": record.rounded_ok,
        "flips": record.flips,
        "lazy": record.lazy.to_json(),
        "timing": {"wall_time": record.lazy.wall_time},
    }


def record_from_json(obj: dict) -> RobustnessRecord:
    lazy = LazyStats(**obj.get("lazy", {}))
    lazy.wall_time = obj.get("timing", {}).get("wall_time", 0.0)
    rho = obj.get("rho")
    adversarial = obj.get("adversarial")
    return RobustnessRecord(
        seed_index=obj.get("index", -1),
        seed_label=obj.get("label", -1),
        target_label=obj.get("target"),
        rho_hat=INFINITE_RHO if rho is None else float(rho),
        adversarial=np.asarray(adversarial, dtype=float) if adversarial is not None else None,
        rounded_ok=obj.get("rounded_ok"),
        lazy=lazy,
        flips=obj.get("flips"),
    )


def pointwise_robustness(net: Network, seed, targets="second", margin: float = 0.0,
                         respect_domain: bool = False, seed_index: int = -1) -> RobustnessRecord:
    """Minimal L-infinity radius to an adversarial example inside the seed's region.

    targets: "second" (the runner-up label), "all" (minimum over every other
    label), or a fixed label index. A larger margin never shrinks the result.

    The output rows of every target come from one output_constraints call.
    With more than one target, they are solved in ascending order of (bound,
    target), where a target's bound is the largest lp.holder_bounds of its
    rows (0 when the seed violates none), and the loop stops at the first
    target whose bound exceeds the best rho so far by more than a relative
    1e-9: that target and every later one has a larger rho, so none of them
    can be the minimum. A smaller rho wins and an equal rho goes to the lower
    target, so the record (rho, target, witness, lazy stats) is the one that
    solving every target in label order and keeping the strict minimum gives.
    A single target is always solved. A found record carries the winning
    solve's lazy stats; a record that finds nothing carries the sums over the
    solves it made (the largest final_active_count among them).

    Raises ValueError, before any bound or solve, for a seed of the wrong shape
    or with a non-finite coordinate, a targets string other than 'second' or
    'all', or a fixed target equal to the predicted label; output_constraints
    raises it for a margin that is not finite and >= 0 and for a fixed target
    that is not an int label in [0, L) (a bool is not one). SimplexError when
    a solved target stops short of optimal or infeasible, e.g. at the
    iteration limit. A skipped target is never solved.
    """
    seed = _seed_vector(net, seed)
    if net.num_labels < 2:
        raise ValueError("certification needs at least two labels")
    logits = forward(net, seed)
    label = int(np.argmax(logits))
    if targets == "second":
        candidates = [_runner_up(logits, label)]
    elif targets == "all":
        candidates = [t for t in range(net.num_labels) if t != label]
    elif isinstance(targets, str):
        raise ValueError(f"targets must be 'second', 'all' or an int label, got {targets!r}")
    else:
        candidates = [targets]
    region = extract_region(net, seed)
    G, h = output_constraints(region, candidates, margin)
    candidates = [int(t) for t in candidates]  # a numpy label is recorded as an int
    if label in candidates:
        raise ValueError(f"fixed target {label} equals the predicted label")
    domain = net.input_domain if respect_domain else None
    if len(candidates) == 1:
        bounds = [0.0]  # the only target is always solved
    else:
        bounds = holder_bounds(seed, G, h).max(axis=-1, initial=0.0).tolist()
    best = RobustnessRecord(seed_index, label, candidates[0] if len(candidates) == 1 else None,
                            INFINITE_RHO)
    spent = []
    # a stable sort: equal bounds keep label order
    for k in sorted(range(len(candidates)), key=bounds.__getitem__):
        if bounds[k] > best.rho_hat + 1e-9 * (1.0 + best.rho_hat):
            break
        target = candidates[k]
        solution, stats = lazy_solve(seed, region.constraints, region.bias, G[k], h[k], domain)
        spent.append(stats)
        if not solved(solution, f"target {target}"):
            continue
        rho = solution.objective_value
        if rho < best.rho_hat or (rho == best.rho_hat and target < best.target_label):
            best = RobustnessRecord(seed_index, label, target, rho,
                                    adversarial=solution.z[: net.input_dim], lazy=stats)
    if best.found:
        best.flips = bool(classify(net, best.adversarial) != label)
    else:
        best.lazy = LazyStats(
            outer_iterations=sum(s.outer_iterations for s in spent),
            constraints_added=sum(s.constraints_added for s in spent),
            final_active_count=max(s.final_active_count for s in spent),
            total_pivots=sum(s.total_pivots for s in spent),
            wall_time=sum(s.wall_time for s in spent))
    return best


def extract_adversarial(record: RobustnessRecord, net: Network,
                        round_to_integers: bool = False):
    """The optimizer of the restricted program, optionally rounded to the
    integer grid and clamped to the input domain.

    Returns (x_adv, rounded_ok) where rounded_ok reports whether the rounded
    point still flips the predicted label (None when no rounding requested).
    """
    if not record.found or record.adversarial is None:
        raise ValueError("record has no adversarial example")
    x = np.array(record.adversarial, dtype=float)
    if not round_to_integers:
        return x, None
    rounded = np.rint(x)
    if net.input_domain is not None:
        rounded = np.clip(rounded, net.input_domain[0], net.input_domain[1])
    ok = classify(net, rounded) != record.seed_label
    record.rounded_ok = bool(ok)
    return rounded, bool(ok)


@dataclass(frozen=True)
class CertificateCheck:
    """Slack/geometry diagnostics of a finite record against its region; the
    slacks of the region and output rows are unit-scaled, as lazy_solve's."""

    min_slack: float
    norm_gap: float
    ranking_slack: float

    @property
    def ok(self) -> bool:
        return self.min_slack >= -1e-6 and self.norm_gap <= 1e-6 and self.ranking_slack >= -1e-6


def verify_record(net: Network, seed, record: RobustnessRecord,
                  margin: float = 0.0) -> CertificateCheck:
    """Re-derive the seed's region and check the recorded certificate against it;
    ValueError for a record that found nothing or a bad seed (_seed_vector)."""
    if not record.found or record.adversarial is None:
        raise ValueError("nothing to verify on an infeasible record")
    seed = _seed_vector(net, seed)
    region = extract_region(net, seed)
    x = record.adversarial
    A, b = region.constraints, region.bias
    G, h = output_constraints(region, record.target_label, margin)
    slacks = np.concatenate([(A @ x + b) / _row_scale(A), (G @ x + h) / _row_scale(G)])
    min_slack = slacks.min(initial=math.inf)
    norm_gap = abs(np.abs(x - seed).max() - record.rho_hat)
    logits = region.logits.eval(x)
    ranking = logits[record.target_label] - logits.max()
    return CertificateCheck(float(min_slack), float(norm_gap), float(ranking))
