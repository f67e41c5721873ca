"""Ground-truth robustness on tiny networks.

exact_robustness enumerates every activation pattern of the disjunctive
encoding and minimizes the perturbation radius per pattern and target label,
so it realizes the unrestricted definition up to LP tolerance; a pattern is
one array per ReLU or pool layer, as in LinearRegion.pattern. It solves with
lazy_solve from the seed, which may lie outside the pattern's region.
grid_robustness is an independent brute-force upper bound for
low-dimensional inputs. Both exist to sandwich the LP estimate in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoder import build_disjunctive, output_constraints
from .lp import lazy_solve, solved
from .model import Network, _seed_vector, classify, forward_batch

_GRID_CHUNK = 1 << 16
_GRID_MAX_POINTS = 10 ** 7


@dataclass(frozen=True, eq=False)
class ExactResult:
    rho: float
    witness: np.ndarray | None
    pattern: tuple | None
    patterns_feasible: int
    patterns_total: int


def _signs_feasible(region, seed) -> bool:
    """Whether the region is nonempty, by its min-epsilon LP from the seed."""
    solution, _ = lazy_solve(seed, region.constraints, region.bias,
                             np.zeros((0, len(seed))), np.zeros(0))
    return solved(solution, "pattern feasibility")


def _pattern_best(region, seed, targets):
    """(rho, witness, target) of one pattern: the first strict minimum over
    the targets of the min-epsilon solves in the region; (inf, None, None)
    when no target is reachable."""
    best = (math.inf, None, None)
    for target in targets:
        solution, _ = lazy_solve(seed, region.constraints, region.bias,
                                 *output_constraints(region, target))
        if solved(solution, f"target {target}") and solution.objective_value < best[0]:
            best = (solution.objective_value, solution.z[:-1], target)
    return best


def pattern_robustness(net: Network, seed, pattern):
    """Min perturbation radius within one fixed activation pattern.

    Returns (rho, witness, target); rho is +inf when no target is reachable.
    """
    seed = _seed_vector(net, seed)
    label = classify(net, seed)
    targets = [t for t in range(net.num_labels) if t != label]
    return _pattern_best(build_disjunctive(net).instantiate(pattern), seed, targets)


def exact_robustness(net: Network, seed, max_sites: int = 16) -> ExactResult:
    """Exact pointwise robustness by full pattern enumeration.

    Refuses when the pattern count exceeds 2**max_sites; the per-pattern cost
    is a handful of small LPs, so the guard caps total work.
    """
    seed = _seed_vector(net, seed)
    encoding = build_disjunctive(net)
    total = encoding.num_patterns()
    if total > 2 ** max_sites:
        raise ValueError(
            f"{sum(sites for _, sites, _ in encoding.layers)} sites give {total}"
            f" patterns, over the 2**{max_sites} enumeration guard")
    label = classify(net, seed)
    targets = [t for t in range(net.num_labels) if t != label]
    feasible = 0
    best_rho, best_witness, best_pattern = math.inf, None, None
    for pattern in encoding.patterns():
        region = encoding.instantiate(pattern)
        if not _signs_feasible(region, seed):
            continue
        feasible += 1
        rho, witness, _ = _pattern_best(region, seed, targets)
        if rho < best_rho:
            best_rho, best_witness, best_pattern = rho, witness, pattern
    return ExactResult(best_rho, best_witness, best_pattern, feasible, total)


def grid_robustness(net: Network, seed, radius: float, resolution: float) -> float:
    """Smallest L-infinity distance to a label flip on a regular grid.

    An upper-bound oracle: never smaller than the exact value minus one grid
    step. Guarded to n <= 3 inputs and to at most _GRID_MAX_POINTS grid
    points because the grid is exponential in n.
    """
    seed = _seed_vector(net, seed)
    n = seed.shape[0]
    if n > 3:
        raise ValueError(f"grid search limited to 3 input dims, got {n}")
    if not (0 < radius < math.inf and 0 < resolution < math.inf):
        raise ValueError("radius and resolution must be positive and finite")
    ratio = radius / resolution
    if not math.isfinite(ratio):
        raise ValueError(f"radius / resolution = {ratio}: the grid step count is not finite")
    steps = round(ratio)
    if (2 * steps + 1) ** n > _GRID_MAX_POINTS:
        raise ValueError(f"radius / resolution = {ratio:.6g} in {n} dims: the grid is over"
                         f" the limit of {_GRID_MAX_POINTS} points")
    label = classify(net, seed)
    offsets = np.arange(-steps, steps + 1) * resolution
    axes = np.meshgrid(*([offsets] * n), indexing="ij")
    deltas = np.stack([ax.ravel() for ax in axes], axis=1)
    best = math.inf
    for start in range(0, deltas.shape[0], _GRID_CHUNK):
        chunk = deltas[start: start + _GRID_CHUNK]
        labels = np.argmax(forward_batch(net, seed + chunk), axis=1)
        flipped = labels != label
        if flipped.any():
            dist = np.abs(chunk[flipped]).max(axis=1)
            best = min(best, float(dist.min()))
    return best


def satisfiable_labels(net: Network, X) -> np.ndarray:
    """Boolean table (k, L): whether some activation pattern's constraints hold
    at each point with each output label winning (non-strictly)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValueError(f"batch shape {X.shape}, expected (k, {net.input_dim})")
    table = np.zeros((X.shape[0], net.num_labels), dtype=bool)
    encoding = build_disjunctive(net)
    for pattern in encoding.patterns():
        region = encoding.instantiate(pattern)
        signs_ok = (X @ region.constraints.T + region.bias >= 0.0).all(axis=1)
        logits = X @ region.logits.coeffs.T + region.logits.bias
        wins = logits >= logits.max(axis=1, keepdims=True)
        table |= signs_ok[:, None] & wins
    return table


def satisfiable_at(net: Network, x, label: int) -> bool:
    """Whether the disjunctive encoding admits label at the fixed input x."""
    return bool(satisfiable_labels(net, np.asarray(x, dtype=float)[None, :])[0, label])
