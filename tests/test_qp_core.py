import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshed import qp_core
from gridshed.qp_core import (
    SLACK_FLOOR_EPS, SLACK_TOL, TOL_STAT, QpProblem, _Box, _dual_clip, _dual_step, _endpoint_probe, _kkt_met,
    _probe_moves, kkt_residual, solve_qp,
)

# optima of the three seeded problems below, from scipy.optimize.minimize
# (method="trust-constr", gtol = xtol = barrier_tol = 1e-16, initial barrier
# 1e-10, exact Hessian, start 0.5); it agrees with solve_qp to 6e-13 and
# every problem has at least one active row at its optimum
REFERENCE_OBJECTIVES = [1.8684026214461344, 1.3703869289600512, 3.3133043675424565]


def seeded_problems():
    rng = np.random.default_rng(20240817)
    out = []
    for n, m in [(4, 2), (6, 3), (8, 1)]:
        q = -rng.uniform(0.05, 3.0, n)
        g = rng.normal(size=n) + 1.0
        A = -np.abs(rng.normal(size=(m, n)))
        b = rng.uniform(0.2, 1.0, size=m)
        out.append(QpProblem(q=q, g_lin=g, A=A, b=b, lower=np.zeros(n), upper=np.ones(n)))
    return out


def box_problem(q, g, lower=0.0, upper=1.0):
    n = len(g)
    return QpProblem(
        q=np.asarray(q, float), g_lin=np.asarray(g, float), A=np.zeros((0, n)),
        b=np.zeros(0), lower=np.full(n, lower), upper=np.full(n, upper),
    )


def objective(problem, d):
    return 0.5 * d * problem.q @ d + problem.g_lin @ d


def assert_kkt(problem, sol):
    assert sol.status == "optimal"
    assert np.all(problem.lower - sol.primal <= 1e-9)
    assert np.all(sol.primal - problem.upper <= 1e-9)
    if problem.A.shape[0]:
        assert np.all(problem.b + problem.A @ sol.primal >= -1e-9)
        assert np.all(sol.dual_ineq >= -1e-9)
    assert np.all(sol.dual_lower >= -1e-9)
    assert np.all(sol.dual_upper >= -1e-9)
    assert sol.kkt_residual <= 1e-8
    stat = (problem.q * sol.primal + problem.g_lin
            + problem.A.T @ sol.dual_ineq + sol.dual_lower - sol.dual_upper)
    assert np.max(np.abs(stat)) <= 1e-8


def test_interior_optimum():
    sol = solve_qp(box_problem([-1.0], [0.3]))
    assert sol.primal[0] == pytest.approx(0.3, abs=1e-9)
    assert sol.dual_lower[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.dual_upper[0] == pytest.approx(0.0, abs=1e-9)
    assert_kkt(box_problem([-1.0], [0.3]), sol)


def test_active_upper_bound_dual():
    problem = box_problem([-1.0], [2.0])
    sol = solve_qp(problem)
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-9)
    # stationarity -y + 2 - gamma = 0 at y = 1
    assert sol.dual_upper[0] == pytest.approx(1.0, abs=1e-8)
    assert_kkt(problem, sol)


def test_convex_objective_reaches_vertex_in_stationary_mode():
    problem = box_problem([1.0], [0.0])
    sol = solve_qp(problem, start=np.array([0.6]))
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-8)
    assert sol.status == "optimal"
    assert sol.kkt_residual <= 1e-8
    # vertex enumeration: f(0) = 0 < f(1) = 0.5, and 0.6 ascends toward 1
    assert objective(problem, sol.primal) == pytest.approx(0.5, abs=1e-8)


def test_matches_reference_solver():
    for problem, ref in zip(seeded_problems(), REFERENCE_OBJECTIVES):
        sol = solve_qp(problem)
        assert_kkt(problem, sol)
        assert objective(problem, sol.primal) == pytest.approx(ref, abs=1e-7)


def test_diagonal_box_only_matches_clipping():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        q = -rng.uniform(0.1, 3.0, n)
        g = rng.normal(size=n)
        problem = box_problem(q, g)
        sol = solve_qp(problem)
        expected = np.clip(-g / q, 0.0, 1.0)
        np.testing.assert_allclose(sol.primal, expected, atol=1e-9)


def test_linear_coordinate_goes_to_endpoint():
    # zero curvature in one coordinate: sign of g decides the endpoint
    problem = box_problem([-1.0, 0.0], [0.2, 0.7])
    sol = solve_qp(problem)
    np.testing.assert_allclose(sol.primal, [0.2, 1.0], atol=1e-8)
    problem = box_problem([-1.0, 0.0], [0.2, -0.7])
    sol = solve_qp(problem)
    np.testing.assert_allclose(sol.primal, [0.2, 0.0], atol=1e-8)


def test_general_rows_respected():
    # maximize -0.5||d||^2 + [1,1]'d subject to d_0 + d_1 <= 0.5
    problem = QpProblem(
        q=-np.ones(2), g_lin=np.array([1.0, 1.0]),
        A=np.array([[-1.0, -1.0]]), b=np.array([0.5]),
        lower=np.zeros(2), upper=np.ones(2),
    )
    sol = solve_qp(problem)
    np.testing.assert_allclose(sol.primal, [0.25, 0.25], atol=1e-8)
    assert sol.dual_ineq[0] == pytest.approx(0.75, abs=1e-7)
    assert_kkt(problem, sol)


def assert_certified(problem, sol):
    """sol's row multipliers w prove that every point of the box misses some
    row by more than SLACK_TOL: w >= 0, and w'(b + A z) at the box point z
    that maximizes it, each coordinate at the end its coefficient in w'A
    favours, is below -SLACK_TOL sum(w)."""
    w = sol.dual_ineq
    assert np.all(w >= 0.0) and w.sum() > 0.0
    z = np.where(problem.A.T @ w > 0.0, problem.upper, problem.lower)
    assert w @ (problem.b + problem.A @ z) < -SLACK_TOL * w.sum()


@pytest.mark.parametrize("curvature", [-1.0, 1.0])
def test_infeasible_rows_detected(curvature):
    # q < 0 takes the exact solve and q > 0 the stationary ascent; the kernel
    # of both ends on a ray along which the dual falls without bound, and its
    # multipliers certify the rows infeasible
    problem = QpProblem(
        q=[curvature], g_lin=np.zeros(1),
        A=np.array([[1.0], [-1.0]]), b=np.array([-0.8, 0.2]),  # y >= 0.8 and y <= 0.2
        lower=np.zeros(1), upper=np.ones(1),
    )
    sol = solve_qp(problem)
    assert sol.status == "infeasible"
    assert_certified(problem, sol)


def test_start_outside_rows_recovers():
    # start violates the row; solver must recover feasibility and optimality
    problem = QpProblem(
        q=-np.ones(2), g_lin=np.array([2.0, 2.0]),
        A=np.array([[-1.0, 0.0]]), b=np.array([0.3]),  # d_0 <= 0.3
        lower=np.zeros(2), upper=np.ones(2),
    )
    sol = solve_qp(problem, start=np.array([1.0, 1.0]))
    np.testing.assert_allclose(sol.primal, [0.3, 1.0], atol=1e-7)
    assert_kkt(problem, sol)


def test_runs_are_reproducible():
    problem = seeded_problems()[1]
    a = solve_qp(problem)
    b = solve_qp(problem)
    np.testing.assert_allclose(a.primal, b.primal, atol=1e-9)
    assert a.kkt_residual == b.kkt_residual


def test_convex_row_multiplier_active():
    # maximize 0.5||d||^2 subject to d_0 + d_1 <= 1 in [0, 2]^2: the ascent
    # from (0.6, 0.3) ends at the vertex (1, 0), where d_0 is inside its box,
    # so stationarity 1 - lam = 0 forces the row multiplier to 1
    problem = QpProblem(
        q=np.ones(2), g_lin=np.zeros(2),
        A=np.array([[-1.0, -1.0]]), b=np.array([1.0]),
        lower=np.zeros(2), upper=np.full(2, 2.0),
    )
    sol = solve_qp(problem, start=np.array([0.6, 0.3]))
    np.testing.assert_allclose(sol.primal, [1.0, 0.0], atol=1e-8)
    assert sol.dual_ineq[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.dual_lower[1] == pytest.approx(1.0, abs=1e-6)
    assert_kkt(problem, sol)


def test_endpoint_probe_cut_short_by_a_row():
    # from the corner 0 only positive curvature can improve; the probe pushes
    # d_0 toward its upper end 1, and the row d_0 + 0.5 d_1 <= 0.7 stops it
    # at 0.7, where stationarity 0.5 * 0.7 - 0.1 - lam = 0 gives lam = 0.25
    problem = QpProblem(
        q=np.array([0.5, 0.5]), g_lin=np.array([-0.1, -0.8]),
        A=np.array([[-1.0, -0.5]]), b=np.array([0.7]),
        lower=np.zeros(2), upper=np.ones(2),
    )
    sol = solve_qp(problem, start=np.zeros(2))
    assert sol.primal.tolist() == [0.7, 0.0]
    assert sol.status == "optimal"
    assert float(problem.b[0] + problem.A[0] @ sol.primal) == 0.0
    assert sol.dual_ineq[0] == pytest.approx(0.25, abs=1e-12)


def test_stationary_mode_indefinite():
    problem = box_problem([1.0, -1.0], [0.05, 0.4])
    sol = solve_qp(problem, start=np.array([0.3, 0.9]))
    assert sol.status == "optimal"
    assert sol.kkt_residual <= 1e-8
    # concave coordinate settles at its stationary value
    assert sol.primal[1] == pytest.approx(0.4, abs=1e-7)
    # convex coordinate escapes to the upper vertex
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-7)


def test_dual_signs_in_stationary_mode():
    problem = box_problem([1.0], [1.0])
    sol = solve_qp(problem, start=np.array([0.5]))
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-8)
    # q d + g + mu - gamma = 0 -> gamma = 2
    assert sol.dual_upper[0] == pytest.approx(2.0, abs=1e-6)


def test_problem_validation():
    with pytest.raises(ValueError):
        QpProblem(q=np.ones(2), g_lin=np.zeros(3), A=np.zeros((0, 3)), b=np.zeros(0),
                  lower=np.zeros(3), upper=np.ones(3))
    with pytest.raises(ValueError):
        QpProblem(q=np.ones(1), g_lin=np.zeros(1), A=np.zeros((0, 1)), b=np.zeros(0),
                  lower=np.ones(1), upper=np.zeros(1))
    with pytest.raises(ValueError, match="box must be finite"):
        QpProblem(q=-np.ones(1), g_lin=np.zeros(1), A=np.zeros((0, 1)), b=np.zeros(0),
                  lower=np.zeros(1), upper=np.full(1, np.inf))
    with pytest.raises(ValueError):
        # a dense curvature matrix is not accepted, even a diagonal one
        QpProblem(q=-np.eye(2), g_lin=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0),
                  lower=np.zeros(2), upper=np.ones(2))


@pytest.mark.parametrize("fields, message", [
    ({"A": np.zeros((1, 3))}, "A/b dimensions inconsistent"),
    ({"b": np.zeros(2)}, "A/b dimensions inconsistent"),
    ({"lower": -np.ones(3)}, "box dimensions inconsistent"),
    ({"upper": np.ones((2, 1))}, "box dimensions inconsistent"),
    ({"g_lin": np.zeros((2, 1))}, "g_lin must be a vector"),
], ids=["A-columns", "b-length", "lower-length", "upper-shape", "g_lin-shape"])
def test_problem_rejects_inconsistent_dimensions(fields, message):
    # two variables under one row
    base = {"q": -np.ones(2), "g_lin": np.zeros(2), "A": np.ones((1, 2)), "b": np.ones(1),
            "lower": np.zeros(2), "upper": np.ones(2)}
    with pytest.raises(ValueError, match=f"^{message}$"):
        QpProblem(**{**base, **fields})


def test_rows_over_no_entries_keep_their_b():
    box = {"lower": np.zeros(2), "upper": np.ones(2)}
    # no rows: a b with entries is rejected, not dropped
    with pytest.raises(ValueError, match="^A/b dimensions inconsistent$"):
        QpProblem(q=-np.ones(2), g_lin=np.zeros(2), A=np.zeros((0, 2)), b=[5.0, 1.0, 3.0], **box)
    # A = [] with b = [] is still no rows
    problem = QpProblem(q=-np.ones(2), g_lin=np.zeros(2), A=[], b=[], **box)
    assert problem.A.shape == (0, 2) and problem.b.shape == (0,)
    # rows over no coordinates are kept with their b, and need no coordinates
    problem = QpProblem(q=[], g_lin=[], A=np.zeros((2, 0)), b=[-1.0, 2.0], lower=[], upper=[])
    assert problem.A.shape == (2, 0) and problem.b.tolist() == [-1.0, 2.0]
    with pytest.raises(ValueError, match="^A/b dimensions inconsistent$"):
        QpProblem(q=-np.ones(1), g_lin=np.zeros(1), A=np.zeros((2, 0)), b=[-1.0, 2.0],
                  lower=np.zeros(1), upper=np.ones(1))


def finite_problem(q=-1.0):
    """Three variables under one row, every part finite."""
    return {"q": np.full(3, q), "g_lin": np.ones(3), "A": -np.ones((1, 3)), "b": np.ones(1),
            "lower": np.zeros(3), "upper": np.ones(3)}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["q", "g_lin", "A", "b"])
def test_problem_rejects_non_finite_data(name, bad):
    # a NaN once ended deep in the kernel as an IndexError; the check names the part
    fields = finite_problem()
    fields[name] = fields[name].copy()
    fields[name].flat[-1] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        QpProblem(**fields)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["q", "g_lin"])
def test_with_objective_rejects_non_finite_data(name, bad):
    stage = QpProblem(**finite_problem())
    parts = {"q": stage.q.copy(), "g_lin": stage.g_lin.copy()}
    parts[name][1] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        stage.with_objective(**parts)


@pytest.mark.parametrize("start", [
    [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf], np.zeros((3, 1)), np.zeros(2), np.zeros(4),
    0.5,
], ids=["nan", "inf", "-inf", "column", "short", "long", "scalar"])
@pytest.mark.parametrize("curvature", [-1.0, 1.0], ids=["exact", "stationary"])
def test_solve_qp_rejects_a_start_that_is_not_a_finite_box_vector(curvature, start):
    # a (3, 1) start once ended in a numpy broadcast error, a NaN one in an IndexError
    problem = QpProblem(**finite_problem(curvature))
    with pytest.raises(ValueError, match="^start must be a finite vector the size of the box$"):
        solve_qp(problem, start=start)
    # a finite start of the box's size, given as a list, is taken
    assert solve_qp(problem, start=[0.5, 0.5, 0.5]).status == "optimal"


@pytest.mark.parametrize("b, status, lam", [
    ([-1.0, 2.0, -3.0], "infeasible", [0.0, 0.0, 1.0]),
    ([-2.0 * SLACK_TOL, 2.0], "infeasible", [1.0, 0.0]),
    ([-0.5 * SLACK_TOL, 2.0], "optimal", [0.0, 0.0]),
    ([0.0], "optimal", [0.0]),
    ([], "optimal", []),
])
def test_problem_with_no_coordinates_answers_from_b(b, status, lam):
    # with no coordinates each row reads b_i >= 0: the worst row below
    # -SLACK_TOL is the Farkas certificate, and otherwise the empty point is
    # the optimum
    problem = QpProblem(q=[], g_lin=[], A=np.zeros((len(b), 0)), b=b, lower=[], upper=[])
    sol = solve_qp(problem)
    assert sol.status == status and sol.dual_ineq.tolist() == lam
    assert sol.primal.shape == sol.dual_lower.shape == sol.dual_upper.shape == (0,)
    assert sol.kkt_residual == max(0.0, -min(b, default=0.0))
    if status == "infeasible":
        assert_certified(problem, sol)


# -- the dual clip kernel and endpoint probes, against the loops they replaced --

def reference_root(problem, i, h, base):
    """Row root by doubling and bisection, the first kernel's search: the
    least multiplier of row i at which the clip meets the row."""
    A, b, lower, upper = problem.A, problem.b, problem.lower, problem.upper

    def slack(i, lam_i, base):
        z = np.clip((base + lam_i * A[i]) / h, lower, upper)
        return float(b[i] + A[i] @ z)

    if slack(i, 0.0, base) >= 0.0:
        return 0.0
    hi = 1.0
    for _ in range(80):
        if slack(i, hi, base) >= 0.0:
            break
        hi *= 4.0
    else:
        return None
    lo = 0.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if slack(i, mid, base) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def reference_probe(problem, z, value):
    """The endpoint probe as one Python loop over the 2n candidate moves."""
    base = value(z)
    margin = 1e-10 * max(1.0, abs(base))
    slack = problem.b + problem.A @ z
    n = problem.dim
    for k in range(n):
        for target in (problem.lower[k], problem.upper[k]):
            dk = target - z[k]
            if abs(dk) <= 1e-12:
                continue
            rate = -problem.A[:, k] * dk
            push = rate > 1e-14
            a = float(np.min(slack[push] / rate[push], initial=1.0))
            if a <= 1e-12:
                continue
            d = np.zeros(n)
            d[k] = dk
            cand = z + a * d
            if value(cand) > base + margin:
                return cand
    return None


def row_problem(a, b_i, lower=0.0, upper=1.0):
    n = len(a)
    return QpProblem(q=-np.ones(n), g_lin=np.zeros(n), A=np.array([a], dtype=float),
                     b=np.array([b_i], dtype=float), lower=np.broadcast_to(lower, n),
                     upper=np.broadcast_to(upper, n))


def clip_tol(h, s):
    """The kernel's stop tolerance for linear term s under curvature h."""
    return 1e-11 * max(1.0, float(np.abs(s / h).max(initial=0.0)))


def row_root(problem, h, base):
    """The kernel's multiplier on a one-row problem, None when it cannot meet the row."""
    box = _Box(problem, np.asarray(h, dtype=float))
    _z, lam, _mu, _gam, w = _dual_clip(problem, box, np.asarray(base, dtype=float))
    return float(lam[0]) if w is None else None


def check_root(problem, h, base):
    """The kernel's multiplier on a one-row problem is the least one at which
    the clip meets the row, as the reference finds it, up to the kernel's
    tolerance on the slack; None when the reference cannot meet the row."""
    h, base = np.asarray(h, dtype=float), np.asarray(base, dtype=float)
    a, tol = problem.A[0], clip_tol(h, base)

    def slack(lam):
        return float(problem.b[0] + a @ np.clip((base + lam * a) / h, problem.lower, problem.upper))

    root, ref = row_root(problem, h, base), reference_root(problem, 0, h, base)
    if ref is None:
        assert root is None
        return None
    assert root is not None and -tol <= slack(root) and (root == 0.0 or slack(root) <= tol)
    # the root is not well above the reference unless the slack is flat between
    assert root <= ref * (1.0 + 1e-9) or slack(0.5 * (root + ref)) <= tol
    return root


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_row_root_matches_bisection(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    if rng.random() < 0.5:
        # halves and small integers put roots on kinks and slack on flat zeros
        a = rng.integers(-2, 3, n) / 2.0
        base = rng.integers(-6, 7, n) / 2.0
        h = rng.choice([0.5, 1.0, 2.0], n)
        lower, upper = np.zeros(n), rng.integers(1, 3, n).astype(float)
        b_i = rng.integers(-8, 3) / 2.0
    else:
        a = rng.normal(size=n) * (rng.random(n) < 0.75)
        base = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
        h = 10.0 ** rng.uniform(-3, 3, n)
        lower = -rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5)
        upper = lower + rng.uniform(0.1, 3.0, n)
        b_i = 3.0 * float(rng.normal())
    check_root(row_problem(a, b_i, lower, upper), h, base)


@pytest.mark.parametrize("a, b_i, base, h, expected", [
    # slack lam - 0.5 until d_0 leaves its lower end at lam = 0.5: root on a kink
    ([1.0, 1.0], -0.5, [-0.5, 0.0], [1.0, 1.0], 0.5),
    # zero entries never move; d_3 reaches 0 at lam = 1, then 2 lam - 2.5 = 0
    ([0.0, 2.0, 0.0, -1.0], -1.5, [5.0, -1.0, -3.0, 1.0], [1.0, 2.0, 1.0, 1.0], 1.25),
    # slack reaches 0 at lam = 1 and stays 0 until d_1 moves at lam = 2
    ([1.0, 1.0], -1.0, [0.0, -2.0], [1.0, 1.0], 1.0),
    # the row needs more than the box gives
    ([1.0], -2.0, [0.0], [1.0], None),
    ([0.0, 0.0], -1.0, [0.3, 0.7], [1.0, 1.0], None),
], ids=["on-kink", "zero-entries", "flat-zero", "unreachable", "zero-row"])
def test_row_root_fixed_cases(a, b_i, base, h, expected):
    # a root on a kink is interpolated from that kink, so it is exact
    assert check_root(row_problem(a, b_i), h, base) == expected


def test_row_root_far_out():
    # no multiplier is out of reach, though doubling from 1 to 4**79 does not
    # find this one: the root 1e60 lies on the segment that ends where d_0
    # reaches its upper end 1e60
    problem = row_problem([1e-30], -1.0, upper=1e60)
    assert reference_root(problem, 0, np.ones(1), np.zeros(1)) is None
    assert row_root(problem, [1.0], [0.0]) == pytest.approx(1e60, rel=1e-15)


def test_row_root_below_the_bisection_cap():
    # slack -1e-5 + 1e20 d_0 with d_0 = clip(1e20 lam): the root 1e-45 is
    # interpolated from lam = 0, the nearer end of its segment, so it is
    # exact to rounding, where the reference stops on a multiple of 2**-120
    problem = row_problem([1e20], -1e-5)
    assert check_root(problem, [1.0], [0.0]) == pytest.approx(1e-45, rel=1e-15)
    assert reference_root(problem, 0, np.ones(1), np.zeros(1)) > 1e-37


def probe_value(problem):
    def value(w):
        return 0.5 * w * problem.q @ w + problem.g_lin @ w
    return value


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_endpoint_probe_matches_loop(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 9)), int(rng.integers(0, 4))
    lower = -rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.3)
    upper = lower + rng.uniform(0.5, 2.0, n)
    z = rng.uniform(lower, upper)
    ends = rng.random(n)
    z = np.where(ends < 0.2, lower, np.where(ends > 0.8, upper, z))
    A = -np.abs(rng.normal(size=(m, n))) * (rng.random((m, n)) < 0.8)
    problem = QpProblem(q=rng.normal(size=n), g_lin=0.5 * rng.normal(size=n), A=A,
                        b=-(A @ z) + rng.uniform(-0.1, 1.0, m), lower=lower, upper=upper)
    value = probe_value(problem)
    got, ref = _endpoint_probe(problem, z, value, _probe_moves(problem)), reference_probe(problem, z, value)
    assert (got is None and ref is None) or np.array_equal(got, ref)


def test_endpoint_probe_screen_and_order():
    # |value| < 1, so the margin is 1e-10.  Moving d_0 down gains 0.9e-10:
    # through the screen (> margin / 2), refused by the confirmation.  Moving
    # d_1 up gains 1.1e-10 and is taken before d_2's larger gain of 2e-10.
    problem = box_problem([0.0, 0.0, 0.0], [-1.8e-10, 2.2e-10, 4e-10])
    z = np.array([0.5, 0.5, 0.5])
    value = probe_value(problem)
    got = _endpoint_probe(problem, z, value, _probe_moves(problem))
    assert got.tolist() == [0.5, 1.0, 0.5]
    assert np.array_equal(got, reference_probe(problem, z, value))


def reference_phase_one(problem, z0):
    """Row-feasible point inside the box, or a violation minimizer.

    Runs projected gradient with Barzilai-Borwein steps on the squared row
    violation 0.5 ||max(0, -(b + A z))||^2; the minimum is zero exactly when
    the rows are consistent with the box. Returns (z, feasible).
    """
    A, b = problem.A, problem.b
    z = np.clip(z0, problem.lower, problem.upper)
    t = 1.0 / max(1e-12, float(np.linalg.norm(A, 2)) ** 2)
    z_prev = g_prev = None
    for _ in range(2000):
        viol = np.maximum(0.0, -(b + A @ z))
        if float(viol.max(initial=0.0)) <= 1e-11:
            return z, True
        g = -(A.T @ viol)
        if z_prev is not None:
            dz, dg = z - z_prev, g - g_prev
            den = float(dz @ dg)
            if den > 1e-300:
                t = float(dz @ dz) / den
        z_prev, g_prev = z, g
        z = np.clip(z - t * g, problem.lower, problem.upper)
        if np.array_equal(z, z_prev):
            break  # stationary over the box: the violation cannot improve
    viol = np.maximum(0.0, -(b + A @ z))
    return z, bool(viol.max(initial=0.0) <= SLACK_TOL)


def assert_clip_kkt(problem, h, s, clip):
    """The kernel's KKT conditions: lam >= 0, every row met within the
    kernel's tolerance, every positive multiplier's row active within it,
    and z the box clip of (s + A'lam) / h.  Each slack sums terms
    |a_j| (|s_j| + |A_j|'lam) / h_j that cancel.  A clip that converged may
    have done so at its slacks' rounding floor, so the tolerance grows by
    SLACK_FLOOR_EPS of the largest such sum over the coordinates inside the
    box.  A clip that did not converge must leave rows that no point of the
    box meets, or have stopped at that floor, and the tolerance grows by
    1e-13 of the largest such sum over every coordinate.  Infeasibility is
    judged by reference_phase_one, the projected-gradient solver that the
    kernel's closed-form Farkas test replaced."""
    z, lam, mu, gam, w = clip
    tol = clip_tol(h, s)
    A = np.abs(problem.A)
    terms = (np.abs(s) + A.T @ lam) / h
    if w is None:
        inside = (z > problem.lower) & (z < problem.upper)
        tol += SLACK_FLOOR_EPS * float((A @ np.where(inside, terms, 0.0)).max(initial=0.0))
    else:
        if not reference_phase_one(problem, z)[1]:
            return
        tol += 1e-13 * float((A @ terms).max(initial=0.0))
    slack = problem.b + problem.A @ z
    assert np.all(lam >= 0.0) and np.all(slack >= -tol)
    assert np.all(np.abs(lam * slack) <= tol * np.maximum(lam, 1.0))
    assert np.array_equal(z, np.clip((s + problem.A.T @ lam) / h, problem.lower, problem.upper))
    assert np.array_equal(mu, np.maximum(0.0, h * problem.lower - (s + problem.A.T @ lam)))


def kkt_clip(seed):
    """(problem, h, s) of a random clip: rows, box, curvature and linear term."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 9)), int(rng.integers(0, 6))
    lower = -rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5)
    upper = lower + rng.uniform(0.1, 3.0, n)
    A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.75)
    # rows through a point of the box, shifted so that some bind, some are
    # slack and a few cannot be met at all
    b = -(A @ rng.uniform(lower, upper)) + rng.uniform(-1.0, 0.5, m)
    problem = QpProblem(q=-np.ones(n), g_lin=np.zeros(n), A=A, b=b, lower=lower, upper=upper)
    h = np.ones(n) if rng.random() < 0.5 else 10.0 ** rng.uniform(-3, 3, n)
    s = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
    return problem, h, s


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dual_clip_meets_kkt(seed):
    problem, h, s = kkt_clip(seed)
    assert_clip_kkt(problem, h, s, _dual_clip(problem, _Box(problem, h), s))


def aggregate_rows_problem(rng, n, n_cuts, h, s):
    """Rows shaped like an AO2 subproblem's: -pd, -qd and +qd over the
    demands, then no-good cut rows with entries in {-1, 0, 1}, over the box
    [-y_lin, 1 - y_lin].  Each cut after the first either is drawn afresh or
    copies the one before it with one entry changed, so that neighbouring
    cuts are nearly parallel.  A point p of the box meets every row.  A row
    drawn to bind passes just inside p, where the clip z0 at lam = 0 often
    breaks it; any other is placed against z0 and p: far inside both, on the
    nearer, or a little inside it, so that it is met at lam = 0 until another
    row's multiplier moves the clip."""
    pd = rng.uniform(0.0, 0.5, n) * (rng.random(n) < 0.9)
    qd = rng.uniform(-0.2, 0.3, n) * (rng.random(n) < 0.7)
    cuts = rng.integers(-1, 2, (n_cuts, n)).astype(float)
    for k in range(1, n_cuts):
        if rng.random() < 0.6:
            cuts[k] = cuts[k - 1]
            cuts[k, rng.integers(n)] = rng.integers(-1, 2)
    A = np.vstack([-pd, -qd, qd, cuts])
    y_lin = np.where(rng.random(n) < 0.7, rng.integers(0, 2, n), rng.random(n)).astype(float)
    lower, upper = -y_lin, 1.0 - y_lin
    p = np.where(rng.random(n) < 0.5, rng.choice([lower, upper]), rng.uniform(lower, upper))
    z0 = np.clip(s / h, lower, upper)
    width = np.abs(A).sum(axis=1)
    near = 0.05 * width * rng.random(width.size)
    offset = np.array([rng.choice([1.0 + w, 0.0, d]) for w, d in zip(width, near)])
    binds = rng.random(width.size) < 0.4
    b = np.where(binds, -(A @ p) + near, -np.minimum(A @ z0, A @ p) + offset)
    return QpProblem(q=-h, g_lin=s, A=A, b=b, lower=lower, upper=upper)


def subproblem_clip(seed):
    """(problem, h, s) of a random clip over subproblem-shaped rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    # h = 1 is the stationary path's projection, h = -q the exact path's
    h = np.ones(n) if rng.random() < 0.5 else 10.0 ** rng.uniform(-5, 1, n)
    s = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 1)
    s[rng.random(n) < 0.2] = -0.0
    s[rng.random(n) < 0.1] = 0.0
    return aggregate_rows_problem(rng, n, int(rng.integers(0, 6)), h, s), h, s


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dual_clip_meets_kkt_on_subproblem_rows(seed):
    problem, h, s = subproblem_clip(seed)
    assert_clip_kkt(problem, h, s, _dual_clip(problem, _Box(problem, h), s))


@pytest.mark.parametrize("clip, seed", [(kkt_clip, 90759672), (subproblem_clip, 114413725)])
def test_dual_clip_ends_converged_at_the_slack_rounding_floor(clip, seed):
    # multipliers near 450 and 10 cancel in s + A'lam, and the steps end with a
    # slack 2.6e-11 from zero, past 1e-11 of the scale but within a few eps of
    # the terms summed into it: the rows are met, so the clip leaves no
    # multipliers for the Farkas test
    problem, h, s = clip(seed)
    assert _dual_clip(problem, _Box(problem, h), s)[4] is None
    exact = QpProblem(q=-h, g_lin=s, A=problem.A, b=problem.b, lower=problem.lower, upper=problem.upper)
    assert solve_qp(exact).status != "infeasible"


@pytest.mark.parametrize("clip", [kkt_clip, subproblem_clip])
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_infeasible_solves_carry_a_farkas_certificate(clip, seed):
    # solved as the exact path (q = -h) and as the stationary path (q = +h),
    # every "infeasible" verdict carries row multipliers that prove it
    problem, h, s = clip(seed)
    for q in (-h, h):
        sol = solve_qp(QpProblem(q=q, g_lin=s, A=problem.A, b=problem.b, lower=problem.lower,
                                 upper=problem.upper))
        if sol.status == "infeasible":
            assert_certified(problem, sol)


def test_capped_clip_whose_multipliers_certify_nothing_reports_no_infeasibility():
    # kkt_clip seed 2398: four rows over one coordinate that no point of the
    # box meets, yet the clip spends its DUAL_STEPS without a ray, and its
    # last multipliers give a negative Farkas margin.  An infeasibility that
    # is not certified is not reported: the exact solve ends at max-iterations
    problem, h, s = kkt_clip(2398)
    z, lam, mu, gam, w = _dual_clip(problem, _Box(problem, h), s)
    assert w is lam and not reference_phase_one(problem, z)[1]
    sol = solve_qp(QpProblem(q=-h, g_lin=s, A=problem.A, b=problem.b, lower=problem.lower,
                             upper=problem.upper))
    assert sol.status == "max-iterations"


def count_steps(monkeypatch):
    calls = []

    def spy(problem, box, lam, shifted, slack):
        calls.append(((lam > 0.0) | (slack < 0.0)).nonzero()[0].tolist())
        return _dual_step(problem, box, lam, shifted, slack)

    monkeypatch.setattr(qp_core, "_dual_step", spy)
    return calls


def test_dual_clip_searches_no_root_for_rows_met_at_zero(monkeypatch):
    calls = count_steps(monkeypatch)
    pd, qd = np.array([0.3, 0.2, 0.4]), np.array([0.1, -0.05, 0.2])
    problem = QpProblem(q=-np.ones(3), g_lin=np.zeros(3), A=np.vstack([-pd, -qd, qd]),
                        b=np.array([1.0, 1.0, 1.0]), lower=-np.ones(3), upper=np.zeros(3))
    s = np.array([0.5, -0.25, -0.0])
    z, lam, mu, gam, w = _dual_clip(problem, _Box(problem, np.ones(3)), s)
    assert w is None and calls == []
    assert np.array_equal(lam, np.zeros(3)) and np.array_equal(z, np.clip(s, -1.0, 0.0))


def test_dual_clip_first_sweep_searches_only_the_binding_row(monkeypatch):
    calls = count_steps(monkeypatch)
    pd, qd = np.array([0.3, 0.2, 0.4]), np.array([0.1, -0.05, 0.2])
    # served power 0.9 at the clip z = 1 against a capacity of 0.6: only the
    # active row binds, and the reactive rows stay met as it is cut back, so
    # one step along the active row's multiplier alone ends the clip
    problem = QpProblem(q=-np.ones(3), g_lin=np.zeros(3), A=np.vstack([-pd, -qd, qd]),
                        b=np.array([0.6, 1.0, 1.0]), lower=np.zeros(3), upper=np.ones(3))
    z, lam, mu, gam, w = _dual_clip(problem, _Box(problem, np.ones(3)), np.full(3, 2.0))
    assert w is None and calls == [[0]]
    assert lam[0] > 0.0 and lam[1] == lam[2] == 0.0


def test_dual_clip_drops_a_row_its_neighbour_meets(monkeypatch):
    # two nearly parallel cuts, both broken by the clip z = 0.5 at lam = 0.
    # The Newton direction on both, (0.55, -0.525), asks the second for a
    # negative multiplier, so it leaves the working set; one search on the
    # first then reaches lam_0 = 0.2, where z = 0.3 meets both rows
    calls = count_steps(monkeypatch)
    problem = QpProblem(q=-np.ones(3), g_lin=np.zeros(3),
                        A=np.array([[-1.0, -1.0, -1.0], [-1.0, -1.0, 0.0]]), b=np.array([0.9, 0.95]),
                        lower=np.zeros(3), upper=np.ones(3))
    z, lam, mu, gam, w = _dual_clip(problem, _Box(problem, np.ones(3)), np.full(3, 0.5))
    assert w is None and calls == [[0, 1]]
    assert lam[0] == pytest.approx(0.2, rel=1e-15) and lam[1] == 0.0
    np.testing.assert_allclose(z, np.full(3, 0.3), rtol=1e-15)


def test_dual_clip_ends_fast_on_contradictory_cuts(monkeypatch):
    # the cuts of both switch sets of one demand, y <= 0 and y >= 1, as rows
    # over the step box [-1, 0]: z <= -1 and z >= 0.  The first step meets
    # the first cut at its last kink, where z reaches -1: the clip there
    # rounds to -1 + 3e-11, so the slope at that kink is taken from the box
    # end.  Both cuts then make the working set, and the Newton direction on
    # them, about (1, 1), leaves z in place while the dual falls without
    # bound, so the kernel stops rather than meeting the two cuts in turn
    # until its step cap
    calls = count_steps(monkeypatch)
    problem = QpProblem(q=-np.full(1, 3.6e-6), g_lin=np.full(1, 3.2), A=np.array([[-1.0], [1.0]]),
                        b=np.array([-1.0, 0.0]), lower=-np.ones(1), upper=np.zeros(1))
    z, lam, mu, gam, w = _dual_clip(problem, _Box(problem, -problem.q), problem.g_lin)
    assert calls == [[0], [0, 1]]
    # the clip ends on that ray, and its multipliers certify the cuts
    # infeasible: the sum of both rows is -1 at every point of the box
    assert w is not None and w is not lam and w[0] == pytest.approx(w[1], rel=1e-6)
    sol = solve_qp(problem)
    assert sol.status == "infeasible" and np.array_equal(sol.dual_ineq, w)
    assert_certified(problem, sol)


def test_dual_clip_meets_five_cuts_in_a_few_steps(monkeypatch):
    # a mixed subproblem of _random_case seed 7: five cuts over three live
    # demands and a curvature spread over six decades.  A coordinate on a
    # box end counts as free in the Newton system, so the kernel reaches the
    # two binding cuts and the active row in five steps
    calls = count_steps(monkeypatch)
    A = np.array([[-0.5773904849049971, -1.2328658464713895, -0.0, -2.65217068258941],
                  [-1.3558113694890488, 0.02102157463631027, -0.0, -0.7831434104449615],
                  [1.3558113694890488, -0.02102157463631027, 0.0, 0.7831434104449615],
                  [-1.0, -1.0, -0.0, -1.0], [-1.0, -1.0, -0.0, 1.0], [1.0, -1.0, -0.0, 1.0],
                  [1.0, 1.0, -0.0, 1.0], [-1.0, 1.0, -0.0, 1.0]])
    b = np.array([0.9330961279019552, 6.472828711555106, 4.5786017516348485, 1.0, 0.0, 1.0, 0.0, -1.0])
    h = np.array([3.2407770707010286e-06, 3.2407803114508087, 3.2407803114508087, 3.2407803114508087])
    s = np.array([1.8529021693538652, -5468.711689460589, 10000.69955789482, -4531.161032191066])
    problem = QpProblem(q=-h, g_lin=s, A=A, b=b, lower=np.array([-1.0, -0.0, -1.0, -0.0]),
                        upper=np.array([0.0, 1.0, 0.0, 1.0]))
    clip = _dual_clip(problem, _Box(problem, h), s)
    assert clip[-1] is None and len(calls) == 5
    assert_clip_kkt(problem, h, s, clip)
    assert clip[1].nonzero()[0].tolist() == [0, 6, 7]


def frozen_dual_step(problem, box, lam, shifted, slack):
    """qp_core._dual_step as it was before its single-row step took Python
    floats, kept to check that the new step returns the same bits.  Its box
    ends are concatenated here, as the old _Box did.

    One kernel step from lam, where shifted = s + A'lam and slack is the
    row slack of its clip: the Newton direction on the working rows and the
    exact minimizer of the dual along it.  Returns the new lam; lam itself
    when the step moves no multiplier beyond rounding, as when the dual's
    slope along the direction d is not negative at the start; or, when that
    slope stays negative past the last kink, so that the dual falls without
    bound, the 1-tuple (w,) of that ray: d on the working rows and 0
    elsewhere, w >= 0 (a row that d would take below 0 caps the step)."""
    A, b = problem.A, problem.b
    work = ((lam > 0.0) | (slack < 0.0)).nonzero()[0]
    while work.size > 1:
        rows = A[work]
        # a coordinate on a box end counts as free: the step may move it inward
        free = (shifted >= box.h_lower) & (shifted <= box.h_upper)
        m = (rows * (free if box.unit else free / box.h)) @ rows.T
        # each row's squared norm over h, or 1.0 for a zero row
        norms = (rows * rows if box.unit else rows * rows / box.h).sum(axis=1)
        m.flat[::work.size + 1] += np.where(norms > 0.0, qp_core.DIAGONAL_SHIFT * norms, 1.0)
        d = np.linalg.solve(m, -slack[work])
        wrong = (lam[work] == 0.0) & (d < 0.0)
        if not wrong.any():
            break
        work = np.delete(work, np.where(wrong, d, 0.0).argmin())
    else:
        # a lone row moves its own multiplier, up when z breaks the row
        d = -np.sign(slack[work])
    v = d @ A[work]
    # the step at which the first falling multiplier reaches 0: a lone row's
    # d is -1 or 1, so its cap is its own multiplier
    lam_w = lam[work]
    if d.size == 1:
        j, cap = 0, float(lam_w[0]) if d[0] < 0.0 else np.inf
    else:
        caps = np.divide(lam_w, -d, out=np.full(d.size, np.inf), where=d < 0.0)
        j = int(caps.argmin())
        cap = float(caps[j])
    # the steps at which a moving coordinate reaches its lower or upper end
    v2 = np.concatenate([v, v])
    ends = np.concatenate([box.h_lower, box.h_upper])
    kinks = np.divide(ends - np.concatenate([shifted, shifted]), v2, out=np.zeros(v2.size), where=v2 != 0.0)
    kinks = np.sort(kinks[(kinks > 0.0) & (kinks < cap)])
    capped = cap < np.inf
    ts = np.concatenate(([0.0], kinks, (cap,)) if capped else ([0.0], kinks))
    x = shifted + ts[:, None] * v
    if not box.unit:
        x /= box.h
    c = float(d @ b[work])
    slope = c + x.clip(box.lower, box.upper) @ v
    if not capped and kinks.size:
        # at the last kink every moving coordinate sits on the box end ahead
        # of it, so the slope there, and on past it, is exact from those ends
        slope[-1] = c + v @ np.where(v > 0.0, box.upper, box.lower)
    k = int((slope >= 0.0).argmax())
    if slope[k] >= 0.0:
        if k == 0:
            return lam
        # the zero of the slope on [ts[k-1], ts[k]], interpolated from the
        # end nearer to it, so that a root on a kink is that kink
        (t0, t1), (s0, s1) = ts[k - 1:k + 1].tolist(), slope[k - 1:k + 1].tolist()
        t = t0 + (t1 - t0) * (-s0 / (s1 - s0)) if -s0 <= s1 else t1 - (t1 - t0) * (s1 / (s1 - s0))
    elif capped:
        t = cap
    else:
        ray = np.zeros(lam.size)
        ray[work] = d
        return (ray,)
    new_w = np.maximum(lam_w + t * d, 0.0)
    if t >= cap:
        new_w[j] = 0.0
    # a step that moves no multiplier by more than a few ulps is rounding, not descent
    if (np.abs(new_w - lam_w) <= 1e-15 * np.maximum(lam_w, new_w)).all():
        return lam
    new = lam.copy()
    new[work] = new_w
    return new


def check_steps_against_frozen_copy(monkeypatch):
    """Patches qp_core._dual_step so that every kernel step asserts that it
    returns what frozen_dual_step returns: lam itself, or the same bytes of
    new multipliers or of a ray.  Returns the counts of the steps checked,
    by working set (one row or more) and by box (unit or scaled)."""
    step, paths = qp_core._dual_step, {"single": 0, "newton": 0, "unit": 0, "scaled": 0}

    def both(problem, box, lam, shifted, slack):
        new, old = step(problem, box, lam, shifted, slack), frozen_dual_step(problem, box, lam, shifted, slack)
        if old is lam:
            assert new is lam
        elif type(old) is tuple:
            assert type(new) is tuple and new[0].tobytes() == old[0].tobytes()
        else:
            assert new is not lam and type(new) is not tuple and new.tobytes() == old.tobytes()
        paths["single" if ((lam > 0.0) | (slack < 0.0)).sum() == 1 else "newton"] += 1
        paths["unit" if box.unit else "scaled"] += 1
        return new

    monkeypatch.setattr(qp_core, "_dual_step", both)
    return paths


def test_dual_step_returns_the_bits_of_its_frozen_copy(monkeypatch):
    # every kernel step of 2,000 draws of each clip generator, solved as the
    # exact path (q = -h) and as the stationary path (q = +h), returns what
    # the step before the single-row float path returned
    paths = check_steps_against_frozen_copy(monkeypatch)
    for clip in (kkt_clip, subproblem_clip):
        for seed in range(2000):
            problem, h, s = clip(seed)
            for q in (-h, h):
                solve_qp(QpProblem(q=q, g_lin=s, A=problem.A, b=problem.b, lower=problem.lower,
                                   upper=problem.upper))
    # both kinds of step are exercised
    assert min(paths.values()) > 1000, paths


def test_dual_step_returns_the_bits_of_its_frozen_copy_at_every_level(monkeypatch):
    # the levels of a switching stage share one memo of lone-row constants,
    # formed by the first level that needs them.  Over a penalty schedule,
    # each draw's levels are derived from one stage problem with
    # with_objective, the linear term pushed further at each level and each
    # solve warm-started from the last: under the scaled box (q = -h), the
    # unit box (q = +h) and relaxed-one's curvature q = -h + 2 rho, which
    # changes the scaled box at every level until the stationary path takes
    # over.  Every kernel step returns the bits of the frozen copy, which
    # forms everything from the level afresh
    paths, formed = check_steps_against_frozen_copy(monkeypatch), []
    lone_row = qp_core._lone_row

    def counted(problem, i, d):
        formed.append((i, d))
        return lone_row(problem, i, d)

    monkeypatch.setattr(qp_core, "_lone_row", counted)
    for clip in (kkt_clip, subproblem_clip):
        for seed in range(150):
            problem, h, s = clip(seed)
            push = np.random.default_rng(seed).normal(size=problem.dim)
            for q0, per_level in ((-h, 0.0), (h, 0.0), (-h, 2.0)):
                stage = QpProblem(q=q0, g_lin=s, A=problem.A, b=problem.b, lower=problem.lower,
                                  upper=problem.upper)
                warm = None
                for rho in (0.0, 0.1, 1.0, 10.0, 100.0):
                    level = stage.with_objective(q0 + per_level * rho, s - rho * push)
                    warm = solve_qp(level, start=warm).primal
    assert min(paths.values()) > 300, paths
    # most lone-row steps read constants an earlier level or step formed
    assert len(formed) < 0.5 * paths["single"], (len(formed), paths)


def test_dual_step_solves_the_newton_system_for_two_working_rows_only(monkeypatch):
    # the contradictory cuts of test_dual_clip_ends_fast_on_contradictory_cuts:
    # the first step has one working row and takes no linear solve, the second
    # has both cuts and solves the Newton system on them once
    calls, solves = count_steps(monkeypatch), []
    solve = np.linalg.solve

    def spy(m, rhs):
        solves.append((len(calls), m.shape))
        return solve(m, rhs)

    monkeypatch.setattr(np.linalg, "solve", spy)
    problem = QpProblem(q=-np.full(1, 3.6e-6), g_lin=np.full(1, 3.2), A=np.array([[-1.0], [1.0]]),
                        b=np.array([-1.0, 0.0]), lower=-np.ones(1), upper=np.zeros(1))
    _dual_clip(problem, _Box(problem, -problem.q), problem.g_lin)
    assert calls == [[0], [0, 1]] and solves == [(2, (2, 2))]


def kkt_point(rng):
    """A random problem and point whose KKT residual parts sit at, above or
    below TOL_STAT: each perturbation is 0 or about 1e-10 to 1e-7."""
    n, m = int(rng.integers(1, 9)), int(rng.integers(0, 4))

    def near(size):
        return rng.choice([0.0, 1.0], size) * rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-10, -7, size)

    lower = -rng.uniform(0.0, 1.0, n)
    upper = lower + rng.uniform(0.5, 2.0, n)
    ends = rng.random(n)
    z = np.where(ends < 0.3, lower, np.where(ends > 0.7, upper, rng.uniform(lower, upper))) + near(n)
    A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.8)
    lam = np.where(rng.random(m) < 0.5, 0.0, rng.uniform(0.0, 2.0, m)) + np.abs(near(m))
    b = -(A @ z) + np.where(lam > 1e-7, 0.0, rng.uniform(0.0, 1.0, m)) + near(m)
    mu = np.where(z <= lower, rng.uniform(0.0, 2.0, n), 0.0) + np.abs(near(n))
    gam = np.where(z >= upper, rng.uniform(0.0, 2.0, n), 0.0) + np.abs(near(n))
    q = rng.normal(size=n)
    g = -(q * z + A.T @ lam + mu - gam) + near(n)
    return QpProblem(q=q, g_lin=g, A=A, b=b, lower=lower, upper=upper), z, lam, mu, gam


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_guarded_stop_test_decides_as_the_full_residual(seed):
    problem, z, lam, mu, gam = kkt_point(np.random.default_rng(seed))
    grad = problem.q * z + problem.g_lin
    res, full = _kkt_met(problem, grad, z, lam, mu, gam), kkt_residual(problem, z, lam, mu, gam)
    assert (res is not None) == (full <= TOL_STAT)
    assert res is None or res == full


def test_kkt_points_straddle_the_tolerance():
    # the drawn points above are not all on one side of the stop test
    met = [kkt_residual(*kkt_point(np.random.default_rng(seed))) <= TOL_STAT for seed in range(200)]
    assert 20 <= sum(met) <= 180


@pytest.mark.parametrize("clip", [kkt_clip, subproblem_clip])
def test_unit_box_holds_what_a_ones_curvature_box_holds(clip):
    # the stationary path builds its box knowing h = 1: its scaled ends are
    # those of a box built from a ones vector, which takes the scaled path,
    # and a dual clip under either returns the same bytes
    for seed in range(300):
        problem, h, s = clip(seed)
        unit, ones = _Box(problem), _Box(problem, np.ones(problem.dim))
        assert unit.unit and not ones.unit and unit.h == 1.0
        for name in ("h_lower", "h_upper", "ends"):
            assert getattr(unit, name).tobytes() == getattr(ones, name).tobytes()
        for linear in (s, s / h):
            got, want = _dual_clip(problem, unit, linear), _dual_clip(problem, ones, linear)
            assert (got[4] is None) == (want[4] is None)
            for a, b in zip(got, want):
                assert a is None or a.tobytes() == b.tobytes()


def concatenated_breakpoints(box, shifted, v, cap):
    """The kernel step's breakpoints as it formed them before _breakpoints:
    np.sort of the kinks, and np.concatenate with 0 and a finite cap."""
    kinks = np.divide(box.ends - shifted, v, out=np.zeros(box.ends.shape), where=v != 0.0)
    kinks = np.sort(kinks[(kinks > 0.0) & (kinks < cap)])
    return np.concatenate(([0.0], kinks, (cap,)) if cap < np.inf else ([0.0], kinks))


def test_breakpoints_equal_the_concatenated_form(monkeypatch):
    # at every breakpoint search of the kernel on the clip draws, solved as
    # the exact and the stationary path, and on each search again with no
    # cap and with a cap before every kink; the mask the search is handed is
    # v's nonzero entries
    kinds = {"capped": 0, "uncapped": 0, "no kinks": 0}
    breakpoints = qp_core._breakpoints

    def both(box, shifted, v, moving, cap):
        assert moving.tobytes() == (v != 0.0).tobytes()
        for c in (cap, np.inf, 0.0):
            got, want = breakpoints(box, shifted, v, moving, c), concatenated_breakpoints(box, shifted, v, c)
            assert got.tobytes() == want.tobytes()
        got = breakpoints(box, shifted, v, moving, cap)
        kinds["capped" if cap < np.inf else "uncapped"] += 1
        kinds["no kinks"] += got.size == 1 + (cap < np.inf)
        return got

    monkeypatch.setattr(qp_core, "_breakpoints", both)
    for clip in (kkt_clip, subproblem_clip):
        for seed in range(300):
            problem, h, s = clip(seed)
            for q in (-h, h):
                solve_qp(QpProblem(q=q, g_lin=s, A=problem.A, b=problem.b, lower=problem.lower,
                                   upper=problem.upper))
    assert min(kinds.values()) > 50, kinds
