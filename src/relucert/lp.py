"""Linear programs: representation, a self-contained simplex solver, and the
iterative working-set loop that adds violated constraints lazily.

The solver is a dense two-phase primal simplex with Bland's rule (smallest
index enters; min-ratio ties broken by smallest basic index), so runs are
deterministic and cycling-free.

The tableau is built from arrays: the constraints and the bound rows are
stacked into a row matrix, an rhs vector and a sense vector (+1 '<=', -1 '>=',
0 '='), and rows with rhs < 0 are negated, which flips their sense. Columns
are the free split z = y[:n] - y[n:2n], one slack per inequality (coefficient
= sense), then one artificial per '>=' or '=' row, numbered in row order by a
cumulative sum. A row starts basic on its artificial, else on its slack.

Tolerances: pivot 1e-9, feasibility 1e-7, lazy violation 1e-7.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
_RATIO_TIE = 1e-9

_SLACK_SIGN = {"<=": 1, ">=": -1, "=": 0}

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"


class SimplexError(RuntimeError):
    """Internal solver failure (e.g. an unbounded program, which certification
    LPs can never produce because the objective is a nonnegative epsilon)."""


@dataclass(frozen=True, eq=False)
class LinearConstraint:
    """a . z  (sense)  rhs, with sense one of '>=', '<=', '='."""

    a: np.ndarray
    sense: str
    rhs: float

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "rhs", float(self.rhs))
        if self.sense not in (">=", "<=", "="):
            raise ValueError(f"bad sense {self.sense!r}")


@dataclass
class LPProblem:
    """Minimize objective . z subject to linear constraints and optional bounds."""

    num_vars: int
    objective: np.ndarray
    constraints: list[LinearConstraint] = field(default_factory=list)
    bounds: list[tuple[float | None, float | None] | None] | None = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (self.num_vars,):
            raise ValueError(
                f"objective shape {self.objective.shape}, expected ({self.num_vars},)")

    def add(self, a, sense, rhs):
        a = np.asarray(a, dtype=float)
        if a.shape != (self.num_vars,):
            raise ValueError(f"constraint length {a.shape} != num_vars {self.num_vars}")
        self.constraints.append(LinearConstraint(a, sense, rhs))


@dataclass(frozen=True, eq=False)
class LPSolution:
    status: str
    z: np.ndarray | None
    objective_value: float
    pivots: int


@dataclass
class LazyStats:
    """Diagnostics of one working-set solve."""

    outer_iterations: int = 0
    constraints_added: int = 0
    final_active_count: int = 0
    total_pivots: int = 0
    wall_time: float = 0.0

    def to_json(self) -> dict:
        return {
            "outer_iterations": self.outer_iterations,
            "constraints_added": self.constraints_added,
            "final_active_count": self.final_active_count,
            "total_pivots": self.total_pivots,
        }


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    column = T[:, col].copy()
    column[row] = 0.0
    T -= np.outer(column, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _iterate(T, basis, max_pivots, pivots):
    """Run simplex iterations on the tableau until optimal/unbounded/limit."""
    m = T.shape[0] - 1
    while True:
        reduced = T[-1, :-1]
        candidates = np.nonzero(reduced < -PIVOT_TOL)[0]
        if candidates.size == 0:
            return OPTIMAL, pivots
        if pivots >= max_pivots:
            return ITERATION_LIMIT, pivots
        col = int(candidates[0])  # Bland: smallest entering index
        column = T[:m, col]
        rows = np.nonzero(column > PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded", pivots
        rhs = np.maximum(T[rows, -1], 0.0)  # clip fp drift below zero
        ratios = rhs / column[rows]
        best = ratios.min()
        tie = rows[ratios <= best + _RATIO_TIE * (1.0 + abs(best))]
        leave = int(tie[np.argmin(basis[tie])])  # Bland: smallest basic index
        _pivot(T, basis, leave, col)
        pivots += 1


def _bounds_rows(problem):
    rows = []
    if problem.bounds is None:
        return rows
    if len(problem.bounds) != problem.num_vars:
        raise ValueError("bounds length != num_vars")
    for j, interval in enumerate(problem.bounds):
        if interval is None:
            continue
        lo, hi = interval
        e = np.zeros(problem.num_vars)
        e[j] = 1.0
        if lo is not None and math.isfinite(lo):
            rows.append(LinearConstraint(e, ">=", lo))
        if hi is not None and math.isfinite(hi):
            rows.append(LinearConstraint(e, "<=", hi))
    return rows


def simplex_solve(problem: LPProblem, max_pivots: int | None = None) -> LPSolution:
    """Solve the LP to an optimal basic feasible solution, deterministically."""
    n = problem.num_vars
    cons = list(problem.constraints) + _bounds_rows(problem)
    wrong = [c.a.shape for c in cons if c.a.shape != (n,)]
    if wrong:
        raise ValueError(f"constraint length {wrong[0]} != num_vars {n}")
    m = len(cons)
    a = np.array([c.a for c in cons], dtype=float).reshape(m, n)
    rhs = np.array([c.rhs for c in cons], dtype=float)
    sense = np.array([_SLACK_SIGN[c.sense] for c in cons], dtype=int)
    if not (np.isfinite(a).all() and np.isfinite(rhs).all()):
        raise ValueError("non-finite constraint")
    if not np.all(np.isfinite(problem.objective)):
        raise ValueError("non-finite objective")

    # Rows with rhs < 0 are negated, which swaps '>=' and '<='.
    flip = np.where(rhs < 0, -1, 1)
    a, rhs, sense = a * flip[:, None], rhs * flip, sense * flip
    has_slack, has_art = sense != 0, sense != 1
    slack_col = 2 * n + np.cumsum(has_slack) - 1
    art_start = 2 * n + np.count_nonzero(has_slack)
    art_col = art_start + np.cumsum(has_art) - 1
    ncols = art_start + np.count_nonzero(has_art)

    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = a
    T[:m, n: 2 * n] = -a
    T[:m, -1] = rhs
    rows = np.flatnonzero(has_slack)
    T[rows, slack_col[rows]] = sense[rows]
    rows = np.flatnonzero(has_art)
    T[rows, art_col[rows]] = 1.0
    basis = np.where(has_art, art_col, slack_col)

    if max_pivots is None:
        max_pivots = 10_000 + 50 * (m + ncols)
    pivots = 0

    if ncols > art_start:
        # Phase 1: minimize the sum of artificials starting from the
        # slack/artificial basis.
        T[-1, art_start:ncols] = 1.0
        for i in np.flatnonzero(has_art):
            T[-1] -= T[i]
        status, pivots = _iterate(T, basis, max_pivots, pivots)
        if status == ITERATION_LIMIT:
            return LPSolution(ITERATION_LIMIT, None, float("nan"), pivots)
        # The sum of artificials cannot go below 0, so an "unbounded" column
        # here is rounding noise in its reduced cost. With the sum already
        # within FEAS_TOL the basis is feasible and phase 2 can start; above
        # it, phase 1 stopped early and proves nothing.
        if -T[-1, -1] > FEAS_TOL:
            if status == "unbounded":
                raise SimplexError("phase-1 objective unbounded")
            return LPSolution(INFEASIBLE, None, float("inf"), pivots)
        # Drive leftover artificials out of the basis; rows where that is
        # impossible are redundant and dropped.
        drop = []
        for i in range(m):
            if basis[i] >= art_start:
                nz = np.nonzero(np.abs(T[i, :art_start]) > PIVOT_TOL)[0]
                if nz.size:
                    _pivot(T, basis, i, int(nz[0]))
                    pivots += 1
                else:
                    drop.append(i)
        if drop:
            T = np.delete(T, drop, axis=0)
            basis = np.delete(basis, drop)
            m -= len(drop)
        T = np.delete(T, np.s_[art_start:ncols], axis=1)
        ncols = art_start

    # Phase 2: the real objective over structural + slack columns.
    c_ext = np.zeros(ncols)
    c_ext[:n] = problem.objective
    c_ext[n: 2 * n] = -problem.objective
    T[-1, :-1] = c_ext
    T[-1, -1] = 0.0
    for i in range(m):
        cb = T[-1, basis[i]]
        if cb != 0.0:
            T[-1] -= cb * T[i]
    status, pivots = _iterate(T, basis, max_pivots, pivots)
    if status == ITERATION_LIMIT:
        return LPSolution(ITERATION_LIMIT, None, float("nan"), pivots)
    if status == "unbounded":
        raise SimplexError("objective unbounded below")

    y = np.zeros(ncols)
    y[basis] = np.maximum(T[:m, -1], 0.0)
    z = y[:n] - y[n: 2 * n]
    return LPSolution(OPTIMAL, z, float(problem.objective @ z), pivots)


def scaled_constraints(A, b, num_vars: int) -> list[LinearConstraint]:
    """Rows A x + b >= 0 over the leading x-variables, as '>=' constraints in
    the LP variable space.

    Rows are rescaled to unit max coefficient, which keeps deep-network
    constraints well conditioned without changing the feasible set.
    """
    scale = np.abs(A).max(axis=1, initial=0.0)
    scale[scale <= 0.0] = 1.0
    a = np.zeros((A.shape[0], num_vars))
    a[:, : A.shape[1]] = A
    a /= scale[:, None]
    rhs = (-b) / scale
    return [LinearConstraint(row, ">=", r) for row, r in zip(a, rhs)]


def lazy_solve(core: LPProblem, A, b) -> tuple[LPSolution, LazyStats]:
    """Solve core with the pool rows A x + b >= 0 added only as the incumbent
    violates them.

    Every outer iteration solves the working LP, then appends all pool rows
    violated by more than FEAS_TOL at its x part. Because the working set only
    relaxes the full program, the final incumbent (feasible for the pool) is
    optimal for core + pool. Infeasibility of a working subset implies
    infeasibility of the full system.
    """
    start = time.perf_counter()
    work = LPProblem(core.num_vars, core.objective.copy(),
                     list(core.constraints), core.bounds)
    remaining = np.arange(len(A))
    stats = LazyStats()
    while True:
        sol = simplex_solve(work)
        stats.outer_iterations += 1
        stats.total_pivots += sol.pivots
        if sol.status != OPTIMAL:
            break
        hit = A[remaining] @ sol.z[: A.shape[1]] + b[remaining] < -FEAS_TOL
        if not hit.any():
            break
        violated = remaining[hit]
        work.constraints += scaled_constraints(A[violated], b[violated], core.num_vars)
        remaining = remaining[~hit]
        stats.constraints_added += len(violated)
    stats.final_active_count = len(work.constraints)
    stats.wall_time = time.perf_counter() - start
    return sol, stats


def linf_box_problem(seed, domain: tuple[float, float] | None = None) -> LPProblem:
    """Minimize epsilon = ||x - seed||_inf over variables z = (x_1..x_n, eps).

    Encoded as eps >= 0 followed by the 2n box rows eps - x_i >= -seed_i and
    eps + x_i >= seed_i, coordinate by coordinate. Variables are free unless a
    domain interval is supplied, in which case each x_i is bounded to it.
    """
    seed = np.asarray(seed, dtype=float)
    n = seed.shape[0]
    objective = np.zeros(n + 1)
    objective[n] = 1.0
    a = np.zeros((2 * n + 1, n + 1))
    a[:, n] = 1.0
    i = np.arange(n)
    a[2 * i + 1, i] = -1.0
    a[2 * i + 2, i] = 1.0
    rhs = np.concatenate([[0.0], np.stack([-seed, seed], axis=1).ravel()])
    bounds = None if domain is None else [(float(domain[0]), float(domain[1]))] * n + [None]
    return LPProblem(n + 1, objective,
                     [LinearConstraint(row, ">=", r) for row, r in zip(a, rhs)], bounds)
