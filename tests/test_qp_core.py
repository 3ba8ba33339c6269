import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshed import qp_core
from gridshed.qp_core import (
    ROOT_CAP, TOL_STAT, QpProblem, _dual_clip, _endpoint_probe, _kkt_met, _row_root, kkt_residual,
    solve_qp,
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


@pytest.mark.parametrize("curvature", [-1.0, 1.0])
def test_infeasible_rows_detected(curvature):
    # q < 0 takes the exact solve and q > 0 the stationary ascent; both must
    # reach the phase-one certificate once the row multipliers diverge
    problem = QpProblem(
        q=[curvature], g_lin=np.zeros(1),
        A=np.array([[1.0], [-1.0]]), b=np.array([-0.8, 0.2]),  # y >= 0.8 and y <= 0.2
        lower=np.zeros(1), upper=np.ones(1),
    )
    sol = solve_qp(problem)
    assert sol.status == "infeasible"


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
    with pytest.raises(ValueError):
        # a dense curvature matrix is not accepted, even a diagonal one
        QpProblem(q=-np.eye(2), g_lin=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0),
                  lower=np.zeros(2), upper=np.ones(2))


# -- row roots and endpoint probes against the loops they replaced -------------

def reference_root(problem, i, h, base):
    """Row root by doubling and bisection, as the kernel found it before the
    breakpoint search: the reference the exact root is held to."""
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


def frozen_dual_clip(problem, h, s):
    """The dual clip kernel as it stood with numpy's function forms, numpy
    scalar views for the float index and no hoisted constants: the reference
    the kernel is held to bit for bit."""
    A, b, lower, upper = problem.A, problem.b, problem.lower, problem.upper

    def float_index(x):
        return int(np.float64(x).view(np.int64))

    def float_at(n):
        return float(np.int64(n).view(np.float64))

    def row_root(i, base):
        a, b_i = A[i], b[i]

        def slack(lam):
            z = np.clip((base + lam * a) / h, lower, upper)
            return float(b_i + a @ z)

        s0 = slack(0.0)
        if s0 >= 0.0:
            return 0.0
        nz = a != 0.0
        kinks = np.concatenate([(h * lower - base)[nz] / a[nz], (h * upper - base)[nz] / a[nz]])
        lams = np.concatenate([[0.0], np.sort(kinks[(kinks > 0.0) & (kinks < ROOT_CAP)]), [ROOT_CAP]])
        s = b_i + np.clip((base + lams[:, None] * a) / h, lower, upper) @ a
        s[0] = s0
        meets = np.flatnonzero(s >= 0.0)
        k = int(meets[0]) if meets.size else lams.size - 1
        guess = lams[k]
        if s[k] > s[k - 1]:
            guess = lams[k - 1] + (lams[k] - lams[k - 1]) * (-s[k - 1] / (s[k] - s[k - 1]))
        top = float_index(ROOT_CAP)
        x = min(max(float_index(guess), 1), top)
        step = 1
        if slack(float_at(x)) >= 0.0:
            lo, hi = 0, x
            while x - step > 0:
                if slack(float_at(x - step)) < 0.0:
                    lo = x - step
                    break
                hi = x - step
                step *= 4
        else:
            lo, hi = x, top
            while x + step < top:
                if slack(float_at(x + step)) >= 0.0:
                    hi = x + step
                    break
                lo = x + step
                step *= 4
            else:
                if slack(ROOT_CAP) < 0.0:
                    return None
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if slack(float_at(mid)) >= 0.0:
                hi = mid
            else:
                lo = mid
        return float_at(hi)

    lam = np.zeros(A.shape[0])
    scale = max(1.0, float(np.max(np.abs(s / h), initial=0.0)))
    tol = 1e-11 * scale

    def finish(converged):
        shifted = s + A.T @ lam
        return (np.clip(shifted / h, lower, upper), lam,
                np.maximum(0.0, h * lower - shifted), np.maximum(0.0, shifted - h * upper),
                converged)

    for _ in range(200):
        moved = 0.0
        for i in range(A.shape[0]):
            new = row_root(i, s + A.T @ lam - lam[i] * A[i])
            if new is None:
                return finish(False)
            moved = max(moved, abs(new - lam[i]))
            lam[i] = new
        resid = b + A @ np.clip((s + A.T @ lam) / h, lower, upper)
        if float(np.max(-resid, initial=0.0)) <= tol and bool(np.all((lam <= 0.0) | (np.abs(resid) <= tol))):
            return finish(True)
        if moved <= 1e-16 * scale:
            break
    return finish(False)


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


def check_root(problem, h, base):
    """_row_root is the first float with slack >= 0, and equals the reference
    wherever the reference bisection reached adjacent floats."""
    h, base = np.asarray(h, dtype=float), np.asarray(base, dtype=float)

    def slack(lam):
        a = problem.A[0]
        return float(problem.b[0] + a @ np.clip((base + lam * a) / h, problem.lower, problem.upper))

    def first(lam):
        return lam == 0.0 or slack(np.nextafter(lam, 0.0)) < 0.0

    root, ref = _row_root(problem, 0, h, base), reference_root(problem, 0, h, base)
    if ref is None:
        assert root is None
        return None
    assert root is not None and slack(root) >= 0.0 and first(root)
    if first(ref):
        assert root.hex() == ref.hex()
    else:
        # 120 halvings of [0, 1] stop above a root this small
        assert root < 2.0**-68 and root < ref
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
    assert check_root(row_problem(a, b_i), h, base) == expected


def test_row_root_cap():
    # the last multiplier tried is 4**79: a root between 4**79 and 4**80 is
    # out of reach, one just below 4**79 is found
    problem = row_problem([1.0], -1.0, upper=1e60)
    assert 4.0**79 < 1e48 < 4.0**80
    assert check_root(problem, [1.0], [-1e48]) is None
    root = check_root(problem, [1.0], [-3e47])
    assert 3e47 < root < 4.0**79


def test_row_root_below_the_bisection_cap():
    # slack -1e-25 + lam: the root is the float 1e-25 itself, where the
    # reference stops on a multiple of 2**-120 above it
    problem = row_problem([1.0], -1e-25)
    assert check_root(problem, [1.0], [0.0]) == 1e-25
    assert reference_root(problem, 0, np.ones(1), np.zeros(1)) > 1e-25


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
    got, ref = _endpoint_probe(problem, z, value), reference_probe(problem, z, value)
    assert (got is None and ref is None) or np.array_equal(got, ref)


def test_endpoint_probe_screen_and_order():
    # |value| < 1, so the margin is 1e-10.  Moving d_0 down gains 0.9e-10:
    # through the screen (> margin / 2), refused by the confirmation.  Moving
    # d_1 up gains 1.1e-10 and is taken before d_2's larger gain of 2e-10.
    problem = box_problem([0.0, 0.0, 0.0], [-1.8e-10, 2.2e-10, 4e-10])
    z = np.array([0.5, 0.5, 0.5])
    value = probe_value(problem)
    got = _endpoint_probe(problem, z, value)
    assert got.tolist() == [0.5, 1.0, 0.5]
    assert np.array_equal(got, reference_probe(problem, z, value))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dual_clip_matches_frozen_kernel(seed):
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
    *got, got_ok = _dual_clip(problem, h, s)
    *ref, ref_ok = frozen_dual_clip(problem, h, s)
    assert got_ok == ref_ok
    for a, b in zip(got, ref):
        assert a.tobytes() == b.tobytes()


def aggregate_rows_problem(rng, n, n_cuts, h, s):
    """Rows shaped like an AO2 subproblem's: -pd, -qd and +qd over the
    demands, then no-good cut rows with entries in {-1, 0, 1}, over the box
    [-y_lin, 1 - y_lin].  A point p of the box meets every row.  A row drawn
    to bind passes just inside p, where the clip z0 at lam = 0 often breaks
    it; any other is placed against z0 and p: far inside both, on the nearer,
    or a little inside it, so that it is met at lam = 0 until another row's
    root moves the clip."""
    pd = rng.uniform(0.0, 0.5, n) * (rng.random(n) < 0.9)
    qd = rng.uniform(-0.2, 0.3, n) * (rng.random(n) < 0.7)
    A = np.vstack([-pd, -qd, qd, rng.integers(-1, 2, (n_cuts, n)).astype(float)])
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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dual_clip_matches_frozen_kernel_on_subproblem_rows(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    # h = 1 is the stationary path's projection, h = -q the exact path's
    h = np.ones(n) if rng.random() < 0.5 else 10.0 ** rng.uniform(-5, 1, n)
    s = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 1)
    s[rng.random(n) < 0.2] = -0.0
    s[rng.random(n) < 0.1] = 0.0
    problem = aggregate_rows_problem(rng, n, int(rng.integers(0, 4)), h, s)
    *got, got_ok = _dual_clip(problem, h, s)
    *ref, ref_ok = frozen_dual_clip(problem, h, s)
    assert got_ok == ref_ok
    for a, b in zip(got, ref):
        assert a.tobytes() == b.tobytes()


def count_roots(monkeypatch):
    calls = []

    def spy(problem, i, *args):
        calls.append(i)
        return _row_root(problem, i, *args)

    monkeypatch.setattr(qp_core, "_row_root", spy)
    return calls


def test_dual_clip_searches_no_root_for_rows_met_at_zero(monkeypatch):
    calls = count_roots(monkeypatch)
    pd, qd = np.array([0.3, 0.2, 0.4]), np.array([0.1, -0.05, 0.2])
    problem = QpProblem(q=-np.ones(3), g_lin=np.zeros(3), A=np.vstack([-pd, -qd, qd]),
                        b=np.array([1.0, 1.0, 1.0]), lower=-np.ones(3), upper=np.zeros(3))
    s = np.array([0.5, -0.25, -0.0])
    z, lam, mu, gam, ok = _dual_clip(problem, np.ones(3), s)
    assert ok and calls == []
    assert np.array_equal(lam, np.zeros(3)) and np.array_equal(z, np.clip(s, -1.0, 0.0))


def test_dual_clip_first_sweep_searches_only_the_binding_row(monkeypatch):
    calls = count_roots(monkeypatch)
    pd, qd = np.array([0.3, 0.2, 0.4]), np.array([0.1, -0.05, 0.2])
    # served power 0.9 at the clip z = 1 against a capacity of 0.6: only the
    # active row binds, and the reactive rows stay met as it is cut back
    problem = QpProblem(q=-np.ones(3), g_lin=np.zeros(3), A=np.vstack([-pd, -qd, qd]),
                        b=np.array([0.6, 1.0, 1.0]), lower=np.zeros(3), upper=np.ones(3))
    z, lam, mu, gam, ok = _dual_clip(problem, np.ones(3), np.full(3, 2.0))
    assert ok and calls == [0]
    assert lam[0] > 0.0 and lam[1] == lam[2] == 0.0


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
    assert _kkt_met(problem, grad, z, lam, mu, gam) == (kkt_residual(problem, z, lam, mu, gam) <= TOL_STAT)


def test_kkt_points_straddle_the_tolerance():
    # the drawn points above are not all on one side of the stop test
    met = [kkt_residual(*kkt_point(np.random.default_rng(seed))) <= TOL_STAT for seed in range(200)]
    assert 20 <= sum(met) <= 180
