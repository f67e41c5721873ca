import importlib
import pkgutil
import tracemalloc

import numpy as np
import pytest
import scipy.optimize as scipy_opt

import relucert
from relucert import extract_region, lazy_solve, output_constraints, second_label
from relucert import lp
from relucert.lp import LPProblem, SimplexError, holder_bounds, linf_box_problem, simplex_solve
from helpers import highs_min_eps, random_dense_relu_net


def _one_dim_flip_problem(threshold):
    # minimize eps subject to x <= -threshold, |x| <= eps, eps >= 0
    p = linf_box_problem(np.array([0.0]))
    p.add(np.array([1.0, 0.0]), "<=", -threshold)
    return p


def test_minimize_distance_to_halfline():
    sol = simplex_solve(_one_dim_flip_problem(0.4711))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.4711, abs=1e-9)
    assert sol.z[0] == pytest.approx(-0.4711, abs=1e-9)


def test_epsilon_only_problem():
    p = LPProblem(2, np.array([0.0, 1.0]))
    p.add(np.array([0.0, 1.0]), ">=", 0.0)
    sol = simplex_solve(p)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.0, abs=1e-12)


def _infeasible_interval():
    p = LPProblem(1, np.array([0.0]))
    p.add(np.array([1.0]), ">=", 1.0)
    p.add(np.array([1.0]), "<=", 0.0)
    return p


def test_infeasible_interval():
    sol = simplex_solve(_infeasible_interval())
    assert sol.status == "infeasible"


def test_phase1_unbounded_report_is_noise_once_feasible(monkeypatch):
    """Phase 1 minimizes a sum of artificials, which cannot go below 0: an
    "unbounded" report with the sum within FEAS_TOL must not fail the solve,
    and one with the sum above it must not pass as infeasible."""
    real = lp._iterate
    calls = []

    def phase1_reports_unbounded(T, basis, max_pivots, pivots):
        status, pivots = real(T, basis, max_pivots, pivots)
        calls.append(status)
        return ("unbounded" if len(calls) == 1 else status), pivots

    expected = simplex_solve(_one_dim_flip_problem(0.4711))
    monkeypatch.setattr(lp, "_iterate", phase1_reports_unbounded)
    sol = simplex_solve(_one_dim_flip_problem(0.4711))
    assert calls[0] == "optimal"
    assert sol.status == "optimal"
    assert np.array_equal(sol.z, expected.z)
    calls.clear()
    with pytest.raises(SimplexError, match="phase-1 objective unbounded"):
        simplex_solve(_infeasible_interval())


def test_equality_constraints():
    # min x + y  s.t.  x + y = 2, x - y = 0
    p = LPProblem(2, np.array([1.0, 1.0]))
    p.add(np.array([1.0, 1.0]), "=", 2.0)
    p.add(np.array([1.0, -1.0]), "=", 0.0)
    sol = simplex_solve(p)
    assert sol.status == "optimal"
    assert sol.z == pytest.approx([1.0, 1.0], abs=1e-9)


def test_redundant_equalities_are_handled():
    p = LPProblem(2, np.array([1.0, 0.0]))
    p.add(np.array([1.0, 1.0]), "=", 2.0)
    p.add(np.array([2.0, 2.0]), "=", 4.0)
    p.add(np.array([1.0, 0.0]), ">=", 0.0)
    sol = simplex_solve(p)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.0, abs=1e-9)


def test_unbounded_raises():
    p = LPProblem(1, np.array([-1.0]))
    p.add(np.array([1.0]), ">=", 0.0)
    with pytest.raises(SimplexError):
        simplex_solve(p)


def test_variable_bounds():
    p = LPProblem(1, np.array([1.0]), bounds=[(2.0, 5.0)])
    sol = simplex_solve(p)
    assert sol.status == "optimal"
    assert sol.z[0] == pytest.approx(2.0, abs=1e-9)


def test_iteration_limit_status():
    sol = simplex_solve(_one_dim_flip_problem(1.0), max_pivots=0)
    assert sol.status == "iteration_limit"


def test_determinism_bit_for_bit():
    p = _one_dim_flip_problem(0.4711)
    a = simplex_solve(p)
    b = simplex_solve(p)
    assert a.status == b.status
    assert a.objective_value == b.objective_value
    assert np.array_equal(a.z, b.z)
    assert a.pivots == b.pivots


def _per_row_first_tableau(problem):
    """The per-row build of the tableau, kept as a bit-for-bit reference for
    simplex_solve's array build: (T, basis) as handed to the first _iterate
    call, with the phase-1 objective row, or the phase-2 one when no row
    needs an artificial."""
    n = problem.num_vars
    cons = list(problem.constraints) + lp._bounds_rows(problem)
    m = len(cons)
    rows = []
    for c in cons:
        a2 = np.concatenate([c.a, -c.a])
        rhs, sense = c.rhs, c.sense
        if rhs < 0:
            a2, rhs = -a2, -rhs
            sense = {">=": "<=", "<=": ">=", "=": "="}[sense]
        rows.append((a2, sense, rhs))
    n_slack = sum(1 for _, sense, _ in rows if sense != "=")
    n_art = sum(1 for _, sense, _ in rows if sense != "<=")
    slack_start = 2 * n
    art_start = slack_start + n_slack
    ncols = art_start + n_art
    T = np.zeros((m + 1, ncols + 1))
    basis = np.zeros(m, dtype=int)
    si, ai = slack_start, art_start
    for i, (a2, sense, rhs) in enumerate(rows):
        T[i, : 2 * n] = a2
        T[i, -1] = rhs
        if sense == "<=":
            T[i, si] = 1.0
            basis[i] = si
            si += 1
        elif sense == ">=":
            T[i, si] = -1.0
            si += 1
            T[i, ai] = 1.0
            basis[i] = ai
            ai += 1
        else:
            T[i, ai] = 1.0
            basis[i] = ai
            ai += 1
    if n_art:
        T[-1, art_start:ncols] = 1.0
        for i in range(m):
            if basis[i] >= art_start:
                T[-1] -= T[i]
    else:
        c_ext = np.zeros(ncols)
        c_ext[:n] = problem.objective
        c_ext[n: 2 * n] = -problem.objective
        T[-1, :-1] = c_ext
        T[-1, -1] = 0.0
        for i in range(m):
            cb = T[-1, basis[i]]
            if cb != 0.0:
                T[-1] -= cb * T[i]
    return T, basis


class _FirstIterate(Exception):
    pass


def _first_tableau(problem, monkeypatch):
    """(T, basis) at simplex_solve's first _iterate call."""
    def capture(T, basis, max_pivots, pivots):
        raise _FirstIterate(T.copy(), basis.copy())

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_iterate", capture)
        with pytest.raises(_FirstIterate) as caught:
            simplex_solve(problem)
    return caught.value.args


def _random_generic_lp(rng):
    """Any sense, rhs of either sign (signed zeros too), zero coefficients,
    and bounds with and without None or infinite ends."""
    n = int(rng.integers(1, 6))
    constraints = []
    for _ in range(int(rng.integers(0, 9))):
        a = rng.normal(size=n) * (rng.random(n) < 0.7)
        a[rng.random(n) < 0.1] = -0.0
        rhs = rng.choice([rng.normal(), 0.0, -0.0])
        constraints.append(lp.LinearConstraint(a, str(rng.choice([">=", "<=", "="])), rhs))
    ends = [None, -np.inf, np.inf, -1.0, 0.0, 2.5]
    bounds = None
    if rng.random() < 0.6:
        bounds = [None if rng.random() < 0.2 else
                  (ends[rng.integers(0, 6)], ends[rng.integers(0, 6)]) for _ in range(n)]
    return LPProblem(n, rng.normal(size=n) * (rng.random(n) < 0.8), constraints, bounds)


def test_array_tableau_matches_per_row_build(monkeypatch):
    rng = np.random.default_rng(2024)
    senses = set()
    for _ in range(300):
        problem = _random_generic_lp(rng)
        senses.update((c.sense, c.rhs < 0) for c in problem.constraints)
        T, basis = _first_tableau(problem, monkeypatch)
        T_ref, basis_ref = _per_row_first_tableau(problem)
        assert T.shape == T_ref.shape and T.tobytes() == T_ref.tobytes()
        assert basis.dtype == basis_ref.dtype and np.array_equal(basis, basis_ref)
    assert len(senses) == 6


@pytest.mark.parametrize("constraint, objective, message", [
    (lp.LinearConstraint(np.ones(3), ">=", 0.0), [1.0, 1.0], "constraint length"),
    (lp.LinearConstraint([1.0, np.nan], "<=", 0.0), [1.0, 1.0], "non-finite constraint"),
    (lp.LinearConstraint([np.inf, 1.0], "=", 0.0), [1.0, 1.0], "non-finite constraint"),
    (lp.LinearConstraint([1.0, 1.0], ">=", np.nan), [1.0, 1.0], "non-finite constraint"),
    (lp.LinearConstraint([1.0, 1.0], ">=", -np.inf), [1.0, 1.0], "non-finite constraint"),
    (lp.LinearConstraint([1.0, 1.0], ">=", 0.0), [np.nan, 1.0], "non-finite objective"),
])
def test_simplex_rejects_malformed_problems(constraint, objective, message):
    ok = lp.LinearConstraint([0.0, 1.0], ">=", 0.0)
    with pytest.raises(ValueError, match=message):
        simplex_solve(LPProblem(2, np.array(objective), [ok, constraint]))


def test_linf_box_problem_row_order_and_values():
    seed = np.array([0.5, -2.0, 0.0])
    a = np.array([[0.0, 0.0, 0.0, 1.0],
                  [-1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0],
                  [0.0, -1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0],
                  [0.0, 0.0, -1.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    rhs = np.array([0.0, -0.5, 0.5, 2.0, -2.0, -0.0, 0.0])
    for domain, bounds in ((None, None), ((0, 1), [(0.0, 1.0)] * 3 + [None])):
        p = linf_box_problem(seed, domain)
        assert p.num_vars == 4 and p.objective.tobytes() == np.eye(4)[3].tobytes()
        assert [c.sense for c in p.constraints] == [">="] * 7
        assert np.array([c.a for c in p.constraints]).tobytes() == a.tobytes()
        assert np.array([c.rhs for c in p.constraints]).tobytes() == rhs.tobytes()
        assert p.bounds == bounds


def _random_certification_instance(rng, dims=(2, 6, 3), domain=None, margin=0.0):
    """(seed, A, b, G, h): a random net's region rows at a random seed (inside
    the domain if one is given) and the output rows of a random target."""
    net = random_dense_relu_net(rng, list(dims))
    seed = rng.normal(size=dims[0]) if domain is None else rng.uniform(*domain, size=dims[0])
    region = extract_region(net, seed)
    target = int(rng.integers(0, dims[-1]))
    G, h = output_constraints(region, target, margin)
    return seed, region.constraints, region.bias, G, h


def _unit_rows(A, b):
    """Rows A x + b >= 0 scaled by lp._row_scale to unit max coefficient, as
    (A', b'): the rows lazy_solve writes into its tableau."""
    scale = lp._row_scale(A)
    return A / scale[:, None], b / scale


def _eager_problem(seed, A, b, G, h):
    """The whole min-epsilon LP in the generic form, every row present and
    unit-scaled as lazy_solve scales its rows."""
    full = linf_box_problem(seed)
    for rows, rhs in (_unit_rows(G, h), _unit_rows(A, b)):
        for row, r in zip(rows, rhs):
            full.add(np.append(row, 0.0), ">=", -r)
    return full


def test_scaled_constraints_unit_max_rows():
    A = np.array([[2.0, -4.0], [0.0, 0.0], [0.5, 0.25]])
    b = np.array([1.0, 3.0, -1.0])
    rows, rhs = _unit_rows(A, b)
    assert np.array_equal(rows, [[0.5, -1.0], [0.0, 0.0], [1.0, 0.5]])
    # a zero row keeps scale 1: 0 >= -3
    assert (-rhs).tolist() == [-0.25, -3.0, 2.0]


_NO_POOL = (np.zeros((0, 1)), np.zeros(0))


def test_lazy_empty_pool_equals_plain_solve():
    # x <= -0.25 from the seed 0, as -x - 0.25 >= 0: the optimum is x = -0.25
    sol, stats = lazy_solve(np.zeros(1), *_NO_POOL, np.array([[-1.0]]), np.array([-0.25]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.25, abs=1e-12)
    assert sol.z == pytest.approx([-0.25, 0.25], abs=1e-12)
    assert stats.outer_iterations == 1
    assert stats.constraints_added == 0


def test_holder_bounds_of_all_zero_rows_are_infinite():
    """gap / ||G_j||_1 per row along the last axis; an all-zero row gives +inf
    when the seed violates it and -inf when it holds, stacked rows alike."""
    seed = np.array([1.0, -2.0])
    G = np.array([[2.0, 1.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
    h = np.array([-3.0, -1.0, 0.5, 0.5])
    # gaps: 3, 1 (violated zero row), -0.5 (held zero row), 0.5
    expected = [1.0, np.inf, -np.inf, 0.5]
    assert holder_bounds(seed, G, h).tolist() == expected
    stacked = holder_bounds(seed, np.stack([G, G[::-1]]), np.stack([h, h[::-1]]))
    assert stacked.tolist() == [expected, expected[::-1]]
    assert holder_bounds(seed, np.zeros((2, 0, 2)), np.zeros((2, 0))).shape == (2, 0)


def test_orientation_is_the_row_of_the_largest_holder_bound():
    rng = np.random.default_rng(271)
    for trial in range(40):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        seed = rng.normal(size=n)
        G = rng.normal(size=(k, n)) * (rng.random((k, n)) < 0.7)
        if trial % 5 == 0:
            G[rng.integers(k)] = 0.0
        h = rng.normal(size=k)
        j = int(holder_bounds(seed, G, h).argmax())
        assert np.array_equal(lp._orientation(seed, G, h), np.where(G[j] > 0, -1.0, 1.0))


def test_lazy_single_output_row_is_one_pivot_to_the_hoelder_vertex():
    """The oriented start moves every coordinate the way the row's signs
    point, so one pivot on eps reaches the row's Hoelder vertex, which is the
    optimum when the pool is empty: rho equals the row's Hoelder bound, and no
    box row is cut in (u = 0)."""
    rng = np.random.default_rng(251)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        seed = rng.normal(size=n)
        g = rng.normal(size=(1, n)) * (rng.random(n) < 0.7)
        g[0, 0] = rng.choice([-1.0, 1.0]) * (0.1 + rng.random())  # a nonzero row
        h = -g @ seed - rng.uniform(0.1, 2.0, size=1)
        sol, stats = lazy_solve(seed, np.zeros((0, n)), np.zeros(0), g, h)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(holder_bounds(seed, g, h).max(initial=0.0),
                                                   abs=1e-12)
        assert sol.pivots == stats.total_pivots == 1
        assert stats.outer_iterations == 1 and stats.constraints_added == 0
        assert stats.final_active_count == 1


def test_lazy_box_cut_for_a_coordinate_pushed_against_its_orientation(monkeypatch):
    """Seed 0, output row x0 + 0.1 x1 >= 1 (both coordinates start upward) and
    region row x0 - x1 >= 3, which pushes x1 down. With x1's box row out of
    the tableau, the second optimum takes eps = 13/11 and x1 = eps - 3 below
    -eps; x1's box row is cut in, and the third run ends at eps = 1.5,
    x = (1.5, -1.5)."""
    seed, G, h = np.zeros(2), np.array([[1.0, 0.1]]), np.array([-1.0])
    A, b = np.array([[1.0, -1.0]]), np.array([-3.0])
    real, appended = lp._append_rows, []

    def spy(buf, basis, nonbasic, rows, rhs):
        appended.append((rows.copy(), rhs.copy()))
        return real(buf, basis, nonbasic, rows, rhs)

    monkeypatch.setattr(lp, "_append_rows", spy)
    sol, stats = lazy_solve(seed, A, b, G, h)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.5, abs=1e-12)
    assert sol.z[:-1] == pytest.approx([1.5, -1.5], abs=1e-12)
    assert sol.objective_value == pytest.approx(highs_min_eps(seed, A, b, G, h), abs=1e-9)
    # the output row, the region cut, then the box row u_1 - 2 eps <= 0 (and
    # the zero column that slack labels read)
    assert len(appended) == 3
    assert appended[2][0].tolist() == [[0.0, 1.0, -2.0, 0.0]] and appended[2][1].tolist() == [0.0]
    assert stats.outer_iterations == 3
    assert stats.constraints_added == 1 + 1  # region cut, box cut
    assert stats.final_active_count == 1 + 2


def _full_form(T, basis, nonbasic):
    """The full tableau of a condensed one: column 1 + label for each label,
    a unit column for each basic one."""
    m = len(basis)
    F = np.zeros((m + 1, 1 + m + len(nonbasic)))
    F[:, 0] = T[:, 0]
    F[:, 1 + nonbasic] = T[:, 1:]
    F[1 + np.arange(m), 1 + basis] = 1.0
    return F


def test_exchange_is_a_pivot_of_the_full_tableau():
    """On random dual-feasible tableaux with exact and signed zeros, one
    exchange leaves in every column the bytes the full tableau's pivot leaves
    in the column of that column's label, the leaving variable's included."""
    rng = np.random.default_rng(263)
    for _ in range(100):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 10))
        labels = rng.permutation(n + 1 + m)
        basis, nonbasic = labels[:m], labels[m:]
        T = rng.normal(size=(m + 1, n + 2)) * (rng.random((m + 1, n + 2)) < 0.7)
        T[rng.random((m + 1, n + 2)) < 0.1] = -0.0
        T[0, 1:] = np.abs(T[0, 1:])
        row, col = 1 + int(rng.integers(m)), 1 + int(rng.integers(n + 1))
        T[row, 0], T[row, col] = -rng.random(), -0.1 - rng.random()
        F = _full_form(T, basis, nonbasic)
        lp._exchange(T, row, col)
        lp._pivot(F, row, 1 + nonbasic[col - 1])
        basis[row - 1], nonbasic[col - 1] = nonbasic[col - 1], basis[row - 1]
        assert T[:, 0].tobytes() == F[:, 0].tobytes()
        for j, label in enumerate(nonbasic):
            assert T[:, 1 + j].tobytes() == F[:, 1 + label].tobytes()
        assert np.array_equal(F[1:, 1 + basis], np.eye(m)) and not F[0, 1 + basis].any()


@pytest.mark.parametrize("n", [14, 15, 16, 17])
def test_appended_rows_are_the_full_tableaus_reduction(n):
    """Rows appended to a random dual-feasible condensed tableau of n + 2
    columns (on both sides of a multiple of 16) hold, within 1e-12, the full
    tableau's reduction rows[:, nonbasic] - rows[:, basis] @ T, every slack
    label reading 0; their slacks take the next labels. With no row yet the
    reduction subtracts +0.0, so the rows are written as given, signed zeros
    included."""
    rng = np.random.default_rng(269 + n)
    for m in range(12):
        k = int(rng.integers(1, 6))
        labels = rng.permutation(n + 1 + m)
        basis, nonbasic = labels[:m], labels[m:]
        buf = np.zeros((m + 1 + int(rng.integers(0, 2 * k)), n + 2))  # may need to grow
        buf[:m + 1] = rng.normal(size=(m + 1, n + 2)) * (rng.random((m + 1, n + 2)) < 0.7)
        buf[0, 1:] = np.abs(buf[0, 1:])
        rows = rng.normal(size=(k, n + 2)) * (rng.random((k, n + 2)) < 0.7)
        rows[rng.random((k, n + 2)) < 0.1] = -0.0
        rows[:, -1] = 0.0
        rhs = rng.normal(size=k)
        T = buf[:m + 1].copy()
        F = _full_form(T, basis, nonbasic)
        R = np.zeros((k, F.shape[1]))
        R[:, 0], R[:, 1:n + 2] = rhs, rows[:, :n + 1]
        R -= R[:, 1 + basis] @ F[1:]
        grown, appended = lp._append_rows(buf, basis, nonbasic, rows, rhs)
        assert grown[:m + 1].tobytes() == T.tobytes()
        block = grown[m + 1:m + k + 1]
        np.testing.assert_allclose(block, R[:, np.r_[0, 1 + nonbasic]], rtol=0, atol=1e-12)
        assert appended.tolist() == [*basis, *range(n + 1 + m, n + 1 + m + k)]
        if m == 0:
            assert block.tobytes() == np.column_stack([rhs, rows[:, nonbasic]]).tobytes()


def test_every_batch_is_built_by_cut_rows_then_appended(monkeypatch):
    """The output rows are the first batch: unit-scaled and with no coordinate
    cut, they go through _cut_rows and _append_rows like every later batch,
    so each dual simplex run follows one call of each."""
    seed, A, b, G, h = _growth_instance()
    G, h = 3.0 * G, 3.0 * h  # x0 >= 1 at scale 3
    built, appended = [], []
    real_cut, real_append = lp._cut_rows, lp._append_rows

    def cut_spy(seed, sigma, a, c, coord, i):
        built.append((a.copy(), c.copy(), len(i)))
        return real_cut(seed, sigma, a, c, coord, i)

    def append_spy(buf, basis, nonbasic, rows, rhs):
        appended.append(len(rows))
        return real_append(buf, basis, nonbasic, rows, rhs)

    monkeypatch.setattr(lp, "_cut_rows", cut_spy)
    monkeypatch.setattr(lp, "_append_rows", append_spy)
    sol, stats = lazy_solve(seed, A, b, G, h)
    assert sol.status == "optimal"
    assert len(built) == len(appended) == stats.outer_iterations == 3
    a, c, coordinate_cuts = built[0]
    assert a.tolist() == [[1.0, 0.0]] and c.tolist() == [-1.0] and coordinate_cuts == 0
    assert appended[0] == len(G) and sum(appended[1:]) == stats.constraints_added


@pytest.mark.parametrize("line, stall, entering", [
    ([-1.0, -1.0], lp._STALL_PIVOTS, 0),  # ratio and |pivot| tie: the smaller label
    ([-2.0, -1.0], lp._STALL_PIVOTS, 2),  # ratio tie: the larger |pivot|
    ([-2.0, -1.0], 0, 0),  # Bland's rule: the smaller label
])
def test_column_ties_break_on_labels_not_positions(monkeypatch, line, stall, entering):
    """One row line . (z_2, z_0) <= -1, columns in that order, costs giving
    both the ratio 1, and eps (label 1) basic: label 0 sits in the later
    column. The entering label's column takes the leaving eps."""
    monkeypatch.setattr(lp, "_STALL_PIVOTS", stall)
    T = np.array([[0.0, *np.negative(line)], [-1.0, *line]])
    basis, nonbasic = np.array([1]), np.array([2, 0])
    assert lp._dual_iterate(T, basis, nonbasic, 10, 0) == (lp.OPTIMAL, 1)
    assert basis.tolist() == [entering]
    assert nonbasic.tolist() == ([1, 0] if entering == 2 else [2, 1])


def _mnist_sized_instance(domain):
    """A random 784-100-100-10 net on [0, 1] at its third random point, with
    the runner-up target: (seed, A, b, G, h, domain)."""
    rng = np.random.default_rng(784)
    net = random_dense_relu_net(rng, [784, 100, 100, 10], domain=(0.0, 1.0))
    seed = rng.uniform(0.0, 1.0, size=(3, 784))[2]
    region = extract_region(net, seed)
    G, h = output_constraints(region, second_label(net, seed))
    return seed, region.constraints, region.bias, G, h, domain


@pytest.mark.parametrize("domain", [None, (0.0, 1.0)])
def test_lazy_on_784_inputs_keeps_the_tableau_small(domain):
    """At n = 784 the box rows stay out of the tableau: the final one holds
    the 9 output rows and a few dozen cuts."""
    args = _mnist_sized_instance(domain)
    sol, stats = lazy_solve(*args)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(highs_min_eps(*args), abs=1e-6)
    assert stats.final_active_count <= 100
    assert stats.total_pivots <= 200


def test_lazy_matches_eager_on_random_instances():
    rng = np.random.default_rng(71)
    solved = 0
    for _ in range(50):
        seed, A, b, G, h = _random_certification_instance(rng)
        lazy_sol, stats = lazy_solve(seed, A, b, G, h)
        ref = highs_min_eps(seed, A, b, G, h)
        assert lazy_sol.status == ("infeasible" if ref is None else "optimal")
        if ref is not None:
            solved += 1
            assert abs(lazy_sol.objective_value - ref) <= 1e-6
            assert stats.constraints_added <= len(A)
    assert solved >= 15  # enough instances admit a flip in the region


def test_lazy_solution_feasible_for_whole_pool():
    rng = np.random.default_rng(73)
    for _ in range(20):
        seed, A, b, G, h = _random_certification_instance(rng)
        sol, _ = lazy_solve(seed, A, b, G, h)
        if sol.status != "optimal":
            continue
        x, eps = sol.z[:-1], sol.z[-1]
        assert (A @ x + b).min(initial=0.0) >= -1e-6
        assert (G @ x + h).min(initial=0.0) >= -1e-6
        assert np.abs(x - seed).max() <= eps + 1e-9
        assert sol.objective_value == eps


def test_lazy_reports_infeasible_when_full_system_is():
    # x <= -1 and x >= 2 from the seed 0
    G, h = np.array([[-1.0], [1.0]]), np.array([-1.0, -2.0])
    sol, stats = lazy_solve(np.zeros(1), *_NO_POOL, G, h)
    assert sol.status == "infeasible"
    assert sol.z is None and sol.objective_value == float("inf")
    assert stats.outer_iterations >= 1
    assert highs_min_eps(np.zeros(1), *_NO_POOL, G, h) is None


def test_lazy_with_no_output_rows_finds_the_nearest_point_of_the_region():
    """With no output rows the start is optimal at once (eps = 0 at the seed),
    and the region rows come in as cuts: the optimum is the L-infinity
    distance from the seed to the region, which may be far from the seed."""
    rng = np.random.default_rng(257)
    moved = 0
    for _ in range(20):
        net = random_dense_relu_net(rng, [3, 8, 3])
        inside = rng.normal(size=3)
        region = extract_region(net, inside)
        A, b = region.constraints, region.bias
        seed = inside + rng.normal(scale=2.0, size=3)
        no_rows = (np.zeros((0, 3)), np.zeros(0))
        sol, _ = lazy_solve(seed, A, b, *no_rows)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(highs_min_eps(seed, A, b, *no_rows),
                                                    abs=1e-9)
        x = sol.z[:-1]
        assert (A @ x + b).min(initial=0.0) >= -1e-6
        assert np.abs(x - seed).max() <= sol.objective_value + 1e-9
        moved += sol.objective_value > 0
    assert moved >= 10


def test_lazy_with_no_output_rows_proves_an_empty_region_infeasible():
    # x1 + x2 >= 1 and x1 + x2 <= 0.5
    A, b = np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([-1.0, 0.5])
    sol, _ = lazy_solve(np.zeros(2), A, b, np.zeros((0, 2)), np.zeros(0))
    assert sol.status == "infeasible"
    assert sol.z is None and sol.objective_value == float("inf")


def test_lazy_with_no_rows_at_all_stays_at_the_seed():
    seed = np.array([0.3, -1.2, 4.0])
    none = (np.zeros((0, 3)), np.zeros(0))
    sol, stats = lazy_solve(seed, *none, *none)
    assert sol.status == "optimal"
    assert sol.objective_value == 0.0
    assert sol.z.tolist() == [0.3, -1.2, 4.0, 0.0]
    assert sol.pivots == stats.total_pivots == 0
    assert stats.outer_iterations == 1 and stats.final_active_count == 0


def test_the_package_has_one_solver():
    """lazy_solve is the package's solver: the generic LP form stays in
    relucert.lp only, out of the package namespace and every other module."""
    generic = {"simplex_solve", "LPProblem", "LinearConstraint", "linf_box_problem",
               "scaled_constraints"}
    assert not generic & set(dir(relucert))
    names = [info.name for info in pkgutil.iter_modules(relucert.__path__)]
    assert "lp" in names and "oracle" in names
    for name in names:
        if name in ("lp", "__main__"):  # __main__ runs the command line on import
            continue
        module = importlib.import_module(f"relucert.{name}")
        assert not [g for g in generic if hasattr(module, g)], name


@pytest.mark.parametrize("domain, margin", [(None, 0.0), ((0.0, 1.0), 0.0),
                                            (None, 0.5), ((0.0, 1.0), 0.3)])
def test_lazy_agrees_with_highs(domain, margin):
    rng = np.random.default_rng(211)
    outcomes = {"found": 0, "infeasible": 0}
    for _ in range(40):
        dims = (int(rng.integers(2, 5)), int(rng.integers(4, 12)), int(rng.integers(4, 9)), 3)
        seed, A, b, G, h = _random_certification_instance(rng, dims, domain, margin)
        sol, _ = lazy_solve(seed, A, b, G, h, domain)
        ref = highs_min_eps(seed, A, b, G, h, domain)
        if ref is None:
            assert sol.status == "infeasible"
            outcomes["infeasible"] += 1
        else:
            assert sol.status == "optimal"
            assert sol.objective_value == pytest.approx(ref, abs=1e-6)
            outcomes["found"] += 1
    assert min(outcomes.values()) >= 5, outcomes


def test_lazy_with_the_seed_outside_the_domain():
    # domain rows start with a negative rhs here; the start stays dual feasible
    rng = np.random.default_rng(223)
    for _ in range(20):
        seed, A, b, G, h = _random_certification_instance(rng, (3, 8, 3), (-0.5, 1.5))
        domain = (0.0, 1.0)
        sol, _ = lazy_solve(seed, A, b, G, h, domain)
        ref = highs_min_eps(seed, A, b, G, h, domain)
        assert sol.status == ("infeasible" if ref is None else "optimal")
        if ref is not None:
            assert sol.objective_value == pytest.approx(ref, abs=1e-6)
            assert sol.z[:-1].min() >= -1e-9 and sol.z[:-1].max() <= 1.0 + 1e-9


def test_lazy_domain_binding_on_several_coordinates():
    """The output row g . x >= 3.93 needs 1.0 more than the seed gives. Without
    the domain every coordinate moves 0.2, which takes the first three out of
    [0, 1]: their domain rows are cut in, and they stop on a bound after 0.02,
    0.02 and 0.03. The other two would then move 0.465, which violates the
    region row x3 <= 0.95; with it cut in, x4 moves 0.48. The region row
    x3 - x4 + 0.5 >= 0 never binds."""
    seed = np.array([0.98, 0.02, 0.97, 0.5, 0.5])
    G, h = np.array([[1.0, -1.0, 1.0, 1.0, 1.0]]), np.array([-3.93])
    A = np.array([[0.0, 0.0, 0.0, 1.0, -1.0], [0.0, 0.0, 0.0, -1.0, 0.0]])
    b = np.array([0.5, 0.95])
    sol, stats = lazy_solve(seed, A, b, G, h, (0.0, 1.0))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.48, abs=1e-12)
    assert sol.z[:-1] == pytest.approx([1.0, 0.0, 1.0, 0.95, 0.98], abs=1e-12)
    assert sol.objective_value == pytest.approx(highs_min_eps(seed, A, b, G, h, (0.0, 1.0)),
                                                abs=1e-9)
    assert stats.outer_iterations == 3
    assert stats.constraints_added == 3 + 1  # domain cuts, then the region cut
    # the output row and the four cuts: every coordinate moves the way the
    # output row's signs point, so u_i = eps - |x_i - seed_i| <= eps at every
    # optimum and no box row is cut in
    assert stats.final_active_count == 1 + 4


@pytest.mark.parametrize("domain", [None, (0.0, 1.0)])
def test_lazy_on_784_inputs_allocates_less_than_the_region(domain):
    """The pool is scanned in place and the domain never becomes rows, so one
    solve's traced peak stays below the region matrix it reads."""
    args = _mnist_sized_instance(domain)
    tracemalloc.start()
    try:
        sol, _ = lazy_solve(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal"
    assert peak < args[1].nbytes


def test_lazy_cuts_a_pool_row_by_its_unit_scaled_violation():
    """Seed 0, output row x >= 1 and pool row 0.05 x - 0.05 - 6e-8 >= 0. The
    first optimum x = 1 violates the pool row by 6e-8 raw, under FEAS_TOL, but
    by 1.2e-6 unit-scaled, the frame of the tableau's rows: it is cut in, and
    rho is 1 + 1.2e-6."""
    seed, G, h = np.zeros(1), np.array([[1.0]]), np.array([-1.0])
    A, b = np.array([[0.05]]), np.array([-0.05 - 6e-8])
    sol, stats = lazy_solve(seed, A, b, G, h)
    assert sol.status == "optimal"
    assert stats.outer_iterations == 2 and stats.constraints_added == 1
    assert sol.objective_value == pytest.approx(1.0 + 1.2e-6, abs=1e-12)
    assert (A @ sol.z[:-1] + b).min() >= -1e-15


def _growth_instance():
    """Seed 0, output row x0 >= 1 and _HEADROOM + 8 pool rows
    x0 + a_k x1 >= 1 + c_k with a_k >= 0 and c_k > 0, all violated at the first
    optimum (x0 = 1, x1 <= 0): one batch of cuts larger than the tableau's
    headroom."""
    rng = np.random.default_rng(241)
    k = lp._HEADROOM + 8
    A = np.column_stack([np.ones(k), rng.uniform(0.0, 1.0, size=k)])
    b = -1.0 - rng.uniform(0.01, 0.5, size=k)
    return np.zeros(2), A, b, np.array([[1.0, 0.0]]), np.array([-1.0])


def test_lazy_cut_batch_larger_than_the_headroom_grows_the_tableau(monkeypatch):
    seed, A, b, G, h = _growth_instance()
    real, capacities, widths = lp._append_rows, [], []

    def spy(buf, basis, nonbasic, rows, rhs):
        buf, basis = real(buf, basis, nonbasic, rows, rhs)
        capacities.append(buf.shape[0] - 1)
        widths.append(buf.shape[1])
        return buf, basis

    monkeypatch.setattr(lp, "_append_rows", spy)
    sol, stats = lazy_solve(seed, A, b, G, h)
    # The first optimum (eps = 1, x = (1, -1)) violates every pool row. The
    # pool rows alone leave u_1 free (x1 = u_1 - eps), so the second optimum
    # keeps eps = 1 and raises u_1 above 2 eps: x1's box row is cut in and a
    # third run ends at x1 = eps. So 3 runs and len(A) + 1 cuts; the first
    # buffer holds the one output row plus the headroom.
    assert stats.outer_iterations == 3 and stats.constraints_added == len(A) + 1
    assert capacities[0] == 1 + lp._HEADROOM and capacities[1] > capacities[0]
    # the condensed tableau grows in rows only: rhs, u_0, u_1, eps
    assert widths == [len(seed) + 2] * 3
    assert stats.final_active_count == 1 + len(A) + 1  # output row, pool cuts, box cut
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(highs_min_eps(seed, A, b, G, h), abs=1e-9)


def test_lazy_is_deterministic():
    rng = np.random.default_rng(227)
    instances = [_random_certification_instance(rng, (4, 10, 10, 3), (0.0, 1.0)) + ((0.0, 1.0),)
                 for _ in range(10)]
    for args in instances + [_growth_instance(), _mnist_sized_instance((0.0, 1.0))]:
        (sol1, st1), (sol2, st2) = (lazy_solve(*args) for _ in range(2))
        assert sol1.status == sol2.status and sol1.pivots == sol2.pivots
        assert (sol1.z is None) == (sol2.z is None)
        if sol1.z is not None:
            assert sol1.z.tobytes() == sol2.z.tobytes()
        assert st1.to_json() == st2.to_json()


def test_lazy_max_pivots_zero_stops_at_the_limit():
    rng = np.random.default_rng(229)
    stopped = 0
    for _ in range(10):
        seed, A, b, G, h = _random_certification_instance(rng)
        if (G @ seed + h).min() >= 0:
            continue  # no violated output row: optimal without a pivot
        sol, stats = lazy_solve(seed, A, b, G, h, max_pivots=0)
        assert sol.status == "iteration_limit"
        assert sol.z is None and np.isnan(sol.objective_value)
        assert sol.pivots == stats.total_pivots == 0
        stopped += 1
    assert stopped >= 5


def test_lazy_bland_fallback_gives_the_same_rho(monkeypatch):
    rng = np.random.default_rng(233)
    instances = []
    for k in range(12):
        net = random_dense_relu_net(rng, [10, 40, 5])
        seed = rng.uniform(0.0, 1.0, size=10)
        region = extract_region(net, seed)
        G, h = output_constraints(region, second_label(net, seed))
        instances.append((seed, region.constraints, region.bias, G, h,
                          (0.0, 1.0) if k % 2 else None))
    fast = [lazy_solve(*args)[0] for args in instances]
    monkeypatch.setattr(lp, "_STALL_PIVOTS", 0)  # Bland's dual rule from the first pivot
    bland = [lazy_solve(*args)[0] for args in instances]
    assert sum(s.status == "optimal" for s in fast) >= 8
    assert any(f.pivots != s.pivots for f, s in zip(fast, bland))  # another pivot path
    for f, s in zip(fast, bland):
        assert f.status == s.status
        if f.status == "optimal":
            assert s.objective_value == pytest.approx(f.objective_value, abs=1e-9)


def test_against_scipy_linprog():
    rng = np.random.default_rng(79)
    for _ in range(25):
        full = _eager_problem(*_random_certification_instance(rng))
        ours = simplex_solve(full)
        A_ub, b_ub = [], []
        for c in full.constraints:
            if c.sense == ">=":
                A_ub.append(-c.a)
                b_ub.append(-c.rhs)
            elif c.sense == "<=":
                A_ub.append(c.a)
                b_ub.append(c.rhs)
        ref = scipy_opt.linprog(full.objective, A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                                bounds=[(None, None)] * full.num_vars, method="highs")
        if ours.status == "optimal":
            assert ref.status == 0
            assert ours.objective_value == pytest.approx(ref.fun, abs=1e-6)
        else:
            assert ref.status == 2  # infeasible


def test_against_scipy_with_equalities_and_bounds():
    rng = np.random.default_rng(97)
    for _ in range(25):
        nv = int(rng.integers(2, 5))
        z0 = rng.normal(size=nv) * 2
        p = LPProblem(nv, rng.normal(size=nv), bounds=[(-10.0, 10.0)] * nv)
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for _ in range(int(rng.integers(1, 6))):
            a = rng.normal(size=nv)
            kind = rng.integers(0, 3)
            if kind == 0:
                p.add(a, ">=", a @ z0 - abs(rng.normal()))
                A_ub.append(-a)
                b_ub.append(-p.constraints[-1].rhs)
            elif kind == 1:
                p.add(a, "<=", a @ z0 + abs(rng.normal()))
                A_ub.append(a)
                b_ub.append(p.constraints[-1].rhs)
            else:
                p.add(a, "=", a @ z0)
                A_eq.append(a)
                b_eq.append(a @ z0)
        ours = simplex_solve(p)
        ref = scipy_opt.linprog(
            p.objective,
            A_ub=np.array(A_ub) if A_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(A_eq) if A_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=[(-10.0, 10.0)] * nv, method="highs")
        assert ours.status == "optimal" and ref.status == 0
        assert ours.objective_value == pytest.approx(ref.fun, abs=1e-6)


def test_optimal_solutions_satisfy_all_constraints():
    rng = np.random.default_rng(83)
    for _ in range(20):
        full = _eager_problem(*_random_certification_instance(rng))
        sol = simplex_solve(full)
        if sol.status != "optimal":
            continue
        for c in full.constraints:
            value = c.a @ sol.z
            if c.sense == ">=":
                assert value >= c.rhs - 1e-7
            elif c.sense == "<=":
                assert value <= c.rhs + 1e-7
            else:
                assert value == pytest.approx(c.rhs, abs=1e-7)
        assert sol.objective_value == pytest.approx(float(full.objective @ sol.z))
