"""Linear programs: lazy_solve, the package's min-epsilon solver, the rules its
callers share (holder_bounds, solved), and a generic two-phase simplex that
nothing in the package calls.

lazy_solve minimizes eps = ||x - seed||_inf over output rows, region rows
and an optional input domain, with a dual simplex on the shifted variables
z = (u, eps) >= 0, x = seed + s * (u - eps * 1), where the orientation s is
+-1 per coordinate. Every row is a . z <= r:

- output rows and region rows A x + b >= 0, scaled to unit max coefficient, as
  -(A s) u + (A s 1) eps <= A seed + b, with A s the columns of A times s;
- coordinate cuts, with one coefficient on u_i and one on eps: the domain rows
  x_i >= lo and x_i <= hi as -s_i u_i + s_i eps <= seed_i - lo and
  s_i u_i - s_i eps <= hi - seed_i, and the box rows u_i - 2 eps <= 0
  (u_i >= 0 is the other side of |x_i - seed_i| <= eps).

The orientation is s = -sign(G_j) (+1 where G_j is 0) for the output row j
with the largest gap_j / ||G_j||_1, gap_j = -(G_j seed + h_j): the row of
the Hoelder bound. At u = 0 the point x = seed - s eps moves every coordinate
the way that raises G_j x, so the all-slack start lies on that row's Hoelder
vertex, and one pivot on eps reaches it. The costs are 0 on u and 1 on eps,
so the all-slack basis is dual feasible and no phase 1 is needed.

The solve is one cycle: append a batch of rows, run the dual simplex, scan
for the next batch. The output rows are the first batch, with no coordinate
cut; every later batch is a batch of cuts. The leaving row is the most
infeasible one; the entering column has the min ratio of reduced cost to
|pivot|, ties going to the largest |pivot|. After _STALL_PIVOTS pivots in a
row that do not raise the objective, Bland's dual rule (smallest basic index
leaves, smallest column index enters) takes over until one does, so the
solve cannot cycle. After each optimum, one product A x + b over the whole
region, masked by the rows not yet cut in, finds the region rows to cut.
The coordinate cuts never enter the pool: their coefficients are one table
built per solve, and one (3, n) mask, kind by kind, marks those not yet cut
in. Each batch is appended, each row on a new slack and reduced by the
current basis, and the dual simplex resumes from that basis, which is still
dual feasible (a cut only adds a basic slack, even one with rhs < 0, as for
a seed outside the domain). With this orientation almost every coordinate
ends at u_i = 0, where its box row is slack, so few box rows are ever cut
in. Each row enters at most once, so the loop ends.

The tableau is condensed (the Jordan-exchange form): a basic variable's
column is a unit vector, so only the n + 1 nonbasic variables have a column.
Variables are named by labels: u_i is i, eps is n, and the slack of the r-th
row added is n + 1 + r. basis[r] labels the basic variable of row r + 1 and
nonbasic[j] the variable of column j + 1. The tableau is held in one buffer
of n + 2 columns: row 0 is the objective, column 0 the rhs. A pivot on
(r, c) with pivot p exchanges two labels: the other columns get the full
tableau's rank-1 update, and column c takes the leaving variable, 1/p in row
r and 0 - T[i, c] (1/p) elsewhere, the values a full tableau holds in that
variable's column after the pivot. Column ties break on labels, not
positions, so the pivot path is a full tableau's. A row of a batch comes
with its n + 1 structural coefficients and one zero column, which every
slack label reads (a row has no coefficient on another row's slack): it is
written under the tableau by the nonbasic labels and reduced by the basic
ones in one product. The buffer grows in rows only. It starts with room for
_HEADROOM rows beyond the output rows; batches are written into it in place,
and when a batch does not fit the row capacity doubles (or grows to fit the
batch) and the tableau is copied over once.

simplex_solve and its generic form (LPProblem, LinearConstraint,
linf_box_problem) stay only because the benchmark harness in perfbench/ names
them. It is a dense two-phase primal simplex with Bland's rule (smallest index
enters; min-ratio ties broken by smallest basic index), so runs are
deterministic and cycling-free. Its tableau is built from arrays:
the constraints and the bound rows are stacked into a row matrix, an rhs
vector and a sense vector (+1 '<=', -1 '>=', 0 '='), and rows with rhs < 0
are negated, which flips their sense. Columns are the free split
z = y[:n] - y[n:2n], one slack per inequality (coefficient = sense), then one
artificial per '>=' or '=' row, numbered in row order by a cumulative sum. A
row starts basic on its artificial, else on its slack.

Tolerances: pivot and primal feasibility 1e-9, phase-1 feasibility 1e-7. One
frame for cuts: a row is cut in when its unit-scaled violation exceeds
FEAS_TOL = 1e-7, the scale the tableau gives it, so a region row when
A x + b < -1e-7 max|A_k| (the scale is taken only of the rows with
A x + b < 0), and a domain row (scale 1) when x is outside by more
than 1e-7. A box row is cut in at any violation, u_i > 2 eps, which keeps the
witness within eps of the seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
_RATIO_TIE = 1e-9
_STALL_PIVOTS = 50  # non-improving dual pivots before Bland's dual rule
_HEADROOM = 32  # tableau rows allocated beyond lazy_solve's output rows
# A coordinate cut's slack below it is a violation, by kind: FEAS_TOL for the
# domain rows, which have unit scale; 0 for the box rows, so |x_i - seed_i| <= eps.
_COORD_FLOOR = np.array([[-FEAS_TOL], [-FEAS_TOL], [0.0]])

_SLACK_SIGN = {"<=": 1, ">=": -1, "=": 0}

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"


class SimplexError(RuntimeError):
    """A stop that proves nothing: lazy_solve's iteration limit, or an unbounded
    program in the generic simplex (a min-epsilon LP cannot be, as eps >= 0)."""


def solved(solution, what) -> bool:
    """Whether the solve reached optimal (False: proved infeasible); any other
    stop proves nothing and raises SimplexError, "<status> on <what>"."""
    if solution.status not in (OPTIMAL, INFEASIBLE):
        raise SimplexError(f"{solution.status} on {what}")
    return solution.status == OPTIMAL


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
    """Diagnostics of one lazy_solve: dual simplex runs (one plus one per
    batch of cuts), region, domain and box rows added as cuts, rows of the
    final tableau (output rows and cuts), and pivots over all runs."""

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


def _pivot(T, row, col):
    """Pivot the full tableau T of simplex_solve on (row, col). After x / x the
    pivot is exactly 1, so the rank-1 update leaves exactly 0 in the rest of
    the pivot column."""
    line = T[row] / T[row, col]
    T -= T[:, col, None] * line
    T[row] = line


def _exchange(T, row, col):
    """Pivot the condensed tableau T on (row, col): column col passes from the
    entering variable to the leaving one. The other columns get _pivot's
    update; column col gets the leaving variable's column of the full tableau
    after _pivot, where it was the unit column of row: 1/p in row and
    0 - T[i, col] (1/p) elsewhere."""
    p = T[row, col]
    line = T[row] / p
    line[col] = 1.0 / p
    update = T[:, col, None] * line
    T -= update
    np.subtract(0.0, update[:, col], out=T[:, col])
    T[row] = line


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
        _pivot(T, leave, col)
        basis[leave] = col
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
                    _pivot(T, i, int(nz[0]))
                    basis[i] = int(nz[0])
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


def _row_scale(A):
    """Max |coefficient| of each row of A, 1 for an all-zero row; from the
    row max and min, so no |A| temporary is built."""
    scale = np.maximum(A.max(axis=1, initial=0.0), -A.min(axis=1, initial=0.0))
    scale[scale <= 0.0] = 1.0
    return scale


def _cut_rows(seed, sigma, a, c, coord, i):
    """One batch of rows as (rows, rhs) over z = (u, eps), each with the zero
    column that slack labels read (_append_rows): the unit-scaled rows
    a x + c >= 0 shifted by x = seed + sigma * (u - eps), as
    -(a sigma) u + (a sigma 1) eps <= a seed + c, then the coordinate cuts
    c_u u_i + c_eps eps <= r, one per column (c_u, c_eps, r) of coord, on the
    coordinates i (none in the batch of output rows). The shifted rows are
    written straight into the batch, and its temporaries are freed before the
    next pivots."""
    k, n = len(a), len(seed)
    rows, rhs = np.zeros((k + len(i), n + 2)), np.empty(k + len(i))
    oriented = rows[:k, :n]
    np.multiply(a, sigma, out=oriented)
    oriented.sum(axis=1, out=rows[:k, n])
    np.negative(oriented, out=oriented)
    rhs[:k] = a @ seed + c
    rows[k + np.arange(len(i)), i], rows[k:, n], rhs[k:] = coord
    return rows, rhs


def holder_bounds(seed, G, h):
    """gap_j / ||G_j||_1, gap_j = -(G_j seed + h_j), for every row G_j x + h_j
    >= 0 along G's last axis; an all-zero row gives +inf when the seed
    violates it (nothing meets it) and -inf otherwise. Where gap_j > 0 it is a
    lower bound on ||x - seed||_inf over any x that meets row j, since
    |G_j (x - seed)| <= ||G_j||_1 ||x - seed||_inf (Hoelder)."""
    gap = -(G @ seed + h)
    norm = np.abs(G).sum(axis=-1)
    return np.divide(gap, norm, out=np.where(gap > 0, np.inf, -np.inf), where=norm > 0)


def _orientation(seed, G, h):
    """-sign(G_j), with +1 where G_j is 0, for the output row j with the
    largest holder_bounds: the direction in which the seed reaches that row's
    Hoelder vertex (a violated all-zero row comes first, and the program is
    infeasible whichever row is taken)."""
    if len(G) == 0:
        return np.ones(len(seed))
    return np.where(G[int(holder_bounds(seed, G, h).argmax())] > 0, -1.0, 1.0)


def _append_rows(buf, basis, nonbasic, rows, rhs):
    """Append rows . z <= rhs to the condensed tableau held in buf, each on a
    new basic slack and reduced by the current basis; returns (buf, basis).

    The tableau is buf[:m + 1] with m = len(basis) (module docstring). rows
    has n + 2 columns: the coefficients of the structural labels 0 .. n, then
    a zero column for every slack label. The new rows are written by the
    nonbasic labels and reduced by the basic ones, and their slacks take the
    labels n + 1 + m onwards; with no row yet (basis empty) the reduction
    subtracts +0.0. When they do not fit, the row capacity doubles (or grows
    to fit them) and the tableau is copied into a fresh buffer.
    """
    m, (k, d) = len(basis), rows.shape
    if m + k > len(buf) - 1:
        grown = np.zeros((max(2 * (len(buf) - 1), m + k) + 1, d))
        grown[:m + 1] = buf[:m + 1]
        buf = grown
    block = buf[m + 1:m + k + 1]
    block[:, 0] = rhs
    block[:, 1:] = rows.take(np.minimum(nonbasic, d - 1), axis=1)
    block -= rows.take(np.minimum(basis, d - 1), axis=1) @ buf[1:m + 1]
    return buf, np.concatenate([basis, d - 1 + m + np.arange(k)])


def _dual_iterate(T, basis, nonbasic, max_pivots, pivots):
    """Dual simplex on a dual-feasible condensed tableau of '<=' rows (objective
    row 0, rhs column 0, labels basis and nonbasic as in the module docstring)
    until primal feasible (optimal), a row proves infeasibility, or the pivot
    limit."""
    cost, rhs = T[0, 1:], T[1:, 0]
    if rhs.size == 0:  # no rows: the all-slack start is optimal
        return OPTIMAL, pivots
    stall = 0
    while True:
        leave = int(rhs.argmin())  # the first most infeasible row
        if rhs[leave] >= -PIVOT_TOL:
            return OPTIMAL, pivots
        if pivots >= max_pivots:
            return ITERATION_LIMIT, pivots
        bland = stall >= _STALL_PIVOTS
        if bland:  # smallest basic label leaves
            rows = (rhs < -PIVOT_TOL).nonzero()[0]
            leave = int(rows[basis[rows].argmin()])
        line = T[leave + 1, 1:]
        cols = (line < -PIVOT_TOL).nonzero()[0]
        if cols.size == 0:
            # z >= 0 with every coefficient >= 0 cannot reach rhs < 0
            return INFEASIBLE, pivots
        ratios = np.maximum(cost[cols], 0.0) / -line[cols]
        best = ratios.min()
        tie = cols[ratios <= best + _RATIO_TIE * (1.0 + best)]
        col = int(tie[0])
        if len(tie) > 1:
            # Bland: smallest entering label; else the largest |pivot|, then
            # the smallest label
            if not bland:
                tie = tie[line[tie] == line[tie].min()]
            col = int(tie[nonbasic[tie].argmin()])
        before = T[0, 0]
        _exchange(T, leave + 1, col + 1)
        basis[leave], nonbasic[col] = nonbasic[col], basis[leave]
        pivots += 1
        # -T[0, 0] is the objective, which a dual pivot never lowers
        stall = 0 if before - T[0, 0] > _RATIO_TIE * (1.0 + abs(before)) else stall + 1


def lazy_solve(seed, A, b, G, h, domain=None,
               max_pivots: int | None = None) -> tuple[LPSolution, LazyStats]:
    """Minimize eps = ||x - seed||_inf subject to the output rows G x + h >= 0,
    the optional domain lo <= x <= hi, and the pool rows A x + b >= 0; every
    row but the output rows is added only once the incumbent violates it.

    Returns z = (x, eps) with objective_value eps. The dual simplex runs on the
    oriented shifted form (module docstring) from the all-slack basis. After
    each optimum, the pool rows whose unit-scaled violation at x exceeds
    FEAS_TOL are cut in, in index order, then the coordinate cuts the optimum
    violates: the domain rows x_i >= lo and x_i <= hi (by more than FEAS_TOL)
    and the box rows u_i <= 2 eps, kind by kind, each by coordinate. The pool
    is scanned in place and the coordinate cuts never enter it. The dual
    simplex resumes from the current basis. The working set only relaxes the
    full program, so the final incumbent (feasible for the pool, the domain
    and the box) is optimal for the whole of it, and infeasibility of a
    working set implies infeasibility of the whole. With no output rows the
    start is optimal at the seed, and the solve is finite exactly when the
    pool and domain rows admit a point. max_pivots bounds the pivots of the
    whole solve; by default it is 10000 + 50 (2m + n + 1) with m = n + output
    + pool + domain rows (2n with a domain).
    """
    start = time.perf_counter()
    seed = np.asarray(seed, dtype=float)
    n = seed.shape[0]
    lo, hi = (-math.inf, math.inf) if domain is None else (float(domain[0]), float(domain[1]))
    sigma = _orientation(seed, G, h)
    if max_pivots is None:
        m = n + len(G) + len(A) + (0 if domain is None else 2 * n)
        max_pivots = 10_000 + 50 * (m + n + 1 + m)
    # coord = (c_u, c_eps, r), each by kind and coordinate, of the cuts
    # c_u u_i + c_eps eps <= r of the kinds x_i >= lo, x_i <= hi and u_i <= 2 eps
    coord = np.array([(-sigma, sigma, np.ones(n)), (sigma, -sigma, np.full(n, -2.0)),
                      (seed - lo, hi - seed, np.zeros(n))])

    buf = np.zeros((len(G) + _HEADROOM + 1, n + 2))
    buf[0, n + 1] = 1.0  # costs: 0 on u, 1 on eps
    basis, nonbasic = np.zeros(0, dtype=int), np.arange(n + 1)  # nonbasic: u and eps
    in_pool = np.ones(len(A), dtype=bool)  # region rows not cut in
    uncut = np.ones((3, n), dtype=bool)  # coordinate cuts not cut in
    stats = LazyStats()
    pivots = 0
    scale = _row_scale(G)  # the first batch: the output rows, no coordinate cut
    a, c = G / scale[:, None], h / scale
    kind = i = np.zeros(0, dtype=int)
    while True:
        buf, basis = _append_rows(buf, basis, nonbasic, *_cut_rows(
            seed, sigma, a, c, coord[:, kind, i], i))
        T = buf[:len(basis) + 1]
        status, pivots = _dual_iterate(T, basis, nonbasic, max_pivots, pivots)
        stats.outer_iterations += 1
        if status != OPTIMAL:
            break
        z = np.zeros(n + 1 + len(basis))  # by label: z[:n] is u, z[n] eps
        z[basis] = np.maximum(T[1:, 0], 0.0)
        u, eps = z[:n], z[n]
        x = seed + sigma * (u - eps)
        slack = A @ x + b
        region = (in_pool & (slack < 0.0)).nonzero()[0]  # only these need a scale
        a = A[region]
        scale = _row_scale(a)
        keep = slack[region] < -FEAS_TOL * scale  # a cut, in the unit-scaled frame
        region, a, scale = region[keep], a[keep], scale[keep]
        a /= scale[:, None]
        c = b[region] / scale
        kind, i = (uncut & (coord[2] - coord[0] * u - coord[1] * eps < _COORD_FLOOR)).nonzero()
        if not (len(region) or len(i)):
            break
        in_pool[region] = False
        uncut[kind, i] = False
        stats.constraints_added += len(region) + len(i)
    stats.total_pivots = pivots
    stats.final_active_count = len(basis)
    stats.wall_time = time.perf_counter() - start
    if status == OPTIMAL:
        return LPSolution(OPTIMAL, np.append(x, eps), float(eps), pivots), stats
    value = float("inf") if status == INFEASIBLE else float("nan")
    return LPSolution(status, None, value, pivots), stats


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
