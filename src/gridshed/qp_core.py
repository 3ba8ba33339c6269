"""Diagonal QP kernel for the switch subproblems.

Problems are maximizations of 0.5 z'diag(q)z + g'z over { b + A z >= 0 }
within a box, with q the curvature vector and A a few dense rows.  One
kernel does the row work: coordinate ascent on the row multipliers lam, the
primal being the closed-form clip z = clip((s + A'lam) / h) for fixed lam, as
in separable QP with few linear rows (Brucker 1984).

Each coordinate update is the smallest lam_i >= 0 that meets row i.  The
slack b_i + A[i] clip((base + lam A[i]) / h) is piecewise linear in lam,
with kinks where a coordinate reaches a box end, so the root lies on the
segment between two consecutive kinks (breakpoint search, Kiwiel 2008).  One
vectorised pass evaluates the slack at every positive kink and picks the
first that meets the row; the float itself is decided by the scalar slack
alone.  Every step of that slack is a rounded monotone operation summed in
a fixed order, so it does not decrease as lam grows even in floating point,
and the first float at which it turns nonnegative is unique.  The search
gallops from the linear estimate on the segment by 1, 4, 16... ulps to a
bracket and bisects it to adjacent floats.  That float is what a plain
doubling-and-bisection search finds, with two edge cases: no multiplier
beyond ROOT_CAP = 4**79 is tried (the row is then unreachable), and a root
below about 2**-68 comes out as the exact first float, which a bisection
capped at 120 halvings of [0, 1] cannot resolve.

``solve_qp`` picks the method from q:

* max(q) < 0: the exact maximizer.  The kernel runs with h = -q and s = g,
  then one KKT solve on the free coordinates and the active rows restores
  the precision the clip loses on small curvatures.
* otherwise: projected Barzilai-Borwein ascent from the start, each
  projection being the kernel with h = 1, plus endpoint probes that leave
  faces where positive curvature makes a box endpoint strictly better.  A
  probe moves one coordinate k to a box end, so its step cap is closed form:
  the least slack_i / (-A[i, k] dk) over the rows it pushes, and at most 1.
  All 2n caps come from one (rows x 2n) array, and the closed-form gain
  t (q_k z_k + g_k) + t^2 q_k / 2 of the step t screens out every move that
  gains less than half the acceptance margin; the rest are confirmed in
  order by the objective itself.  Returns a KKT point, no global claim.

When the kernel does not converge, a projected-gradient phase one on the
squared row violation decides whether the rows are infeasible.

The problems are tiny (at most a few dozen coordinates and a handful of
rows), so numpy's per-call Python dispatch, not the arithmetic, sets the cost
of each step.  The kernel therefore calls the ndarray methods (``x.max()``,
``x.clip(lo, hi)``, ``m.all()``, ``m.nonzero()``) in place of the module
functions ``np.max``, ``np.clip``, ``np.all`` and ``np.flatnonzero``: both
run the same ufunc reduction or ufunc on the same operands, so every float
is the same, and the method skips the dispatch wrapper.  The float index of
the root search reads the same 8 bytes through ``struct`` instead of two
numpy scalar views.  What does not change within a solve is computed once:
``_Rows`` holds h * lower, h * upper and each row's nonzero entries for
every kernel run under one curvature h, and ``_probe_moves`` the parts of
the endpoint moves that do not depend on the point.

Most row work has a known answer, and the kernel skips it without moving a
float.  ``_dual_clip`` keeps one clip z of shifted = s + A'lam and
recomputes it only when a multiplier moves.  A row whose multiplier is 0
and that z meets keeps it with no root search: ``_row_root`` would return
0.0 at its first test, whose slack is the same dot product over the same
values (its base is shifted - 0 A[i]; only signs of zeros can differ, and
-0.0 >= 0 holds).  The end-of-sweep residual and the returned point are
that same clip.  Under h = 1, the projection of the stationary path, no
division by h is made, as x / 1.0 == x holds exactly, -0.0 included.  The
stationary path's stop test checks stationarity, the first term of
``kkt_residual``, from the iteration's own gradient, and forms the full
residual only when that passes.

Multiplier sign convention (maximization): q z + g + A' lam + mu - gam = 0
with lam, mu, gam >= 0 on the A rows, lower bounds, upper bounds.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

TOL_STAT = 1e-8
SLACK_TOL = 1e-7
# the last multiplier a row may need: 4**79 was the doubling search's last probe
ROOT_CAP = 4.0 ** 79


@dataclass(frozen=True, eq=False)
class QpProblem:
    q: np.ndarray
    g_lin: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("q", "g_lin", "A", "b", "lower", "upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.g_lin.size
        if self.q.shape != (n,):
            raise ValueError("q must be a vector the size of g_lin")
        if self.A.size == 0:
            object.__setattr__(self, "A", np.zeros((0, n)))
            object.__setattr__(self, "b", np.zeros(0))
        if self.A.shape[1] != n or self.b.shape != (self.A.shape[0],):
            raise ValueError("A/b dimensions inconsistent")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("box dimensions inconsistent")
        if np.any(self.lower > self.upper):
            raise ValueError("lower > upper")

    @property
    def dim(self) -> int:
        return self.g_lin.size


@dataclass(frozen=True, eq=False)
class QpSolution:
    primal: np.ndarray
    dual_ineq: np.ndarray
    dual_lower: np.ndarray
    dual_upper: np.ndarray
    status: str
    kkt_residual: float


def kkt_residual(problem: QpProblem, z, lam, mu, gam) -> float:
    stat = problem.q * z + problem.g_lin + problem.A.T @ lam + mu - gam
    slack_a = problem.b + problem.A @ z
    feas = max(
        0.0,
        float((-slack_a).max()) if slack_a.size else 0.0,
        float((problem.lower - z).max()),
        float((z - problem.upper).max()),
    )
    comp = 0.0
    if slack_a.size:
        comp = float(np.abs(lam * slack_a).max())
    comp = max(
        comp,
        float(np.abs(mu * (z - problem.lower)).max()),
        float(np.abs(gam * (problem.upper - z)).max()),
    )
    return max(float(np.abs(stat).max()), feas, comp)


def _phase_one(problem: QpProblem, z0: np.ndarray):
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


def _infeasible(problem: QpProblem, z: np.ndarray) -> QpSolution:
    lam, mu, gam = np.zeros(problem.A.shape[0]), np.zeros(problem.dim), np.zeros(problem.dim)
    return QpSolution(z, lam, mu, gam, "infeasible", kkt_residual(problem, z, lam, mu, gam))


class _Rows:
    """The rows of one problem under one curvature h > 0, with what every
    kernel run and row root reuses: the box scaled by h (the values of
    s + A'lam at which a coordinate reaches a box end) and, per row, the mask
    of its nonzero entries, the scaled lower then upper ends at those
    positions, and the entries themselves repeated to match; unit tells
    whether h is all ones."""

    def __init__(self, problem: QpProblem, h: np.ndarray):
        self.h_lower, self.h_upper = h * problem.lower, h * problem.upper
        # h = 1, the projection: x / 1.0 == x, so every division by h is skipped
        self.unit = bool((h == 1.0).all())
        self.support = []
        for a in problem.A:
            nz = a != 0.0
            self.support.append((nz, np.concatenate([self.h_lower[nz], self.h_upper[nz]]),
                                 np.concatenate([a[nz], a[nz]])))

    def bound_duals(self, shifted):
        """(mu, gam) of the box for curvature -h and linear term shifted = s + A'lam."""
        return np.maximum(0.0, self.h_lower - shifted), np.maximum(0.0, shifted - self.h_upper)


_F64, _I64 = struct.Struct("d"), struct.Struct("q")


def _float_index(x: float) -> int:
    """Position of x among the nonnegative floats in increasing order; negative below 0."""
    return _I64.unpack(_F64.pack(x))[0]


def _float_at(n: int) -> float:
    """The nonnegative float at position n >= 0, the inverse of _float_index."""
    return _F64.unpack(_I64.pack(n))[0]


def _row_root(problem: QpProblem, i: int, h: np.ndarray, base: np.ndarray, rows: _Rows | None = None):
    """Smallest float lam > 0 at which row i of the clip (base + lam A[i]) / h
    has slack >= 0; 0.0 when lam = 0 meets the row, None when ROOT_CAP does not.

    The computed slack is nondecreasing in lam, so that float is unique.  One
    vectorised pass over the kinks picks the segment that holds it; the
    scalar slack alone decides the float.  rows is _Rows(problem, h), when
    the caller has it.
    """
    a, b_i, lower, upper = problem.A[i], problem.b[i], problem.lower, problem.upper
    rows = _Rows(problem, h) if rows is None else rows
    unit = rows.unit

    def slack(lam):
        x = base + lam * a
        if not unit:
            x /= h
        return float(b_i + a @ x.clip(lower, upper))

    s0 = slack(0.0)
    if s0 >= 0.0:
        return 0.0
    nz, ends, a2 = rows.support[i]
    base_nz = base[nz]
    kinks = (ends - np.concatenate([base_nz, base_nz])) / a2
    lams = np.concatenate([[0.0], np.sort(kinks[(kinks > 0.0) & (kinks < ROOT_CAP)]), [ROOT_CAP]])
    x = base + lams[:, None] * a
    if not unit:
        x /= h
    s = b_i + x.clip(lower, upper) @ a
    s[0] = s0
    meets = (s >= 0.0).nonzero()[0]
    k = int(meets[0]) if meets.size else lams.size - 1
    guess = lams[k]
    if s[k] > s[k - 1]:
        guess = lams[k - 1] + (lams[k] - lams[k - 1]) * (-s[k - 1] / (s[k] - s[k - 1]))
    # gallop from the linear estimate by 1, 4, 16... ulps to a bracket
    # [lo, hi] of float indices with slack(lo) < 0 <= slack(hi)
    top = _float_index(ROOT_CAP)
    x = min(max(_float_index(guess), 1), top)
    step = 1
    if slack(_float_at(x)) >= 0.0:
        lo, hi = 0, x
        while x - step > 0:
            if slack(_float_at(x - step)) < 0.0:
                lo = x - step
                break
            hi = x - step
            step *= 4
    else:
        lo, hi = x, top
        while x + step < top:
            if slack(_float_at(x + step)) >= 0.0:
                hi = x + step
                break
            lo = x + step
            step *= 4
        else:
            if slack(ROOT_CAP) < 0.0:
                return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if slack(_float_at(mid)) >= 0.0:
            hi = mid
        else:
            lo = mid
    return _float_at(hi)


def _dual_clip(problem: QpProblem, h: np.ndarray, s: np.ndarray, rows: _Rows | None = None):
    """Maximizer of s'z - 0.5 z'diag(h)z, h > 0, over the box and the rows.

    The dual has one variable per row; for fixed multipliers the primal is
    the box clip of (s + A'lam) / h, and the slack of row i is nondecreasing
    in lam_i, so each coordinate update is a scalar root find.  One clip z
    of shifted = s + A'lam is kept and recomputed only when a multiplier
    moves: a row with lam_i = 0 that z meets keeps lam_i = 0 without a root
    search, and the residual and the returned point are that clip.  rows is
    _Rows(problem, h), when the caller has it.  Returns (z, lam, mu, gam,
    converged).
    """
    A, b, lower, upper = problem.A, problem.b, problem.lower, problem.upper
    rows = _Rows(problem, h) if rows is None else rows
    unit = rows.unit

    def clip(shifted):
        return (shifted if unit else shifted / h).clip(lower, upper)

    lam = np.zeros(A.shape[0])
    scale = max(1.0, float(np.abs(s if unit else s / h).max(initial=0.0)))
    tol = 1e-11 * scale
    shifted = s + A.T @ lam
    z = clip(shifted)
    converged = False
    for _ in range(200):
        moved = 0.0
        for i in range(A.shape[0]):
            if lam[i] == 0.0 and b[i] + A[i] @ z >= 0.0:
                continue
            new = _row_root(problem, i, h, shifted - lam[i] * A[i], rows)
            if new is None:
                return z, lam, *rows.bound_duals(shifted), False
            moved = max(moved, abs(new - lam[i]))
            if new != lam[i]:
                lam[i] = new
                shifted = s + A.T @ lam
                z = clip(shifted)
        resid = b + A @ z
        # every positive-multiplier row must be active; the product form
        # lam*resid has an ulp floor of lam*eps*scale and cannot certify
        if float((-resid).max(initial=0.0)) <= tol and bool(((lam <= 0.0) | (np.abs(resid) <= tol)).all()):
            converged = True
            break
        if moved <= 1e-16 * scale:
            break
    return z, lam, *rows.bound_duals(shifted), converged


def _solve_exact(problem: QpProblem) -> QpSolution:
    q, g, A = problem.q, problem.g_lin, problem.A
    kernel = _Rows(problem, -q)
    z, lam, mu, gam, converged = _dual_clip(problem, -q, g, kernel)
    if not converged and not _phase_one(problem, z)[1]:
        return _infeasible(problem, z)
    best = (z, lam, mu, gam, kkt_residual(problem, z, lam, mu, gam))
    # the clip fixes each free coordinate only as well as lam is known, so a
    # curvature near 1e-5 leaves a residual near 1e-9; one KKT solve on the
    # free coordinates and the active rows recovers full precision
    free, rows = (z > problem.lower) & (z < problem.upper), lam > 0.0
    A_rf = A[np.ix_(rows, free)]
    kkt = np.block([[np.diag(q[free]), A_rf.T], [A_rf, np.zeros((A_rf.shape[0],) * 2)]])
    rhs = np.concatenate([-g[free], -(problem.b[rows] + A[rows][:, ~free] @ z[~free])])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.full(rhs.size, np.nan)  # fails the acceptance test below
    zp, lp = z.copy(), lam.copy()
    zp[free], lp[rows] = np.split(sol, [int(free.sum())])
    if np.all((zp >= problem.lower) & (zp <= problem.upper)) and np.all(lp >= 0.0):
        mp, gp = kernel.bound_duals(g + A.T @ lp)
        res = kkt_residual(problem, zp, lp, mp, gp)
        if res <= best[4]:
            best = (zp, lp, mp, gp, res)
    z, lam, mu, gam, res = best
    return QpSolution(z, lam, mu, gam, "optimal" if res <= TOL_STAT else "max-iterations", res)


def _probe_moves(problem: QpProblem):
    """The parts of the 2n endpoint moves that do not depend on the point:
    move 2k + e takes coordinate k to its lower (e = 0) or upper end, and this
    is (cols, q[cols], g_lin[cols], -A[:, cols]) with cols[2k + e] = k."""
    cols = np.repeat(np.arange(problem.dim), 2)
    return cols, problem.q[cols], problem.g_lin[cols], -problem.A[:, cols]


def _endpoint_probe(problem, z, value, moves=None):
    """One coordinate pushed toward a box endpoint when that strictly improves.

    First-order points of an indefinite objective can sit inside a face where
    positive curvature along a coordinate makes an endpoint strictly better;
    the probe finds the first such move (lowest coordinate, lower end first).
    moves is _probe_moves(problem), when the caller has it.
    """
    base = value(z)
    margin = 1e-10 * max(1.0, abs(base))
    slack = problem.b + problem.A @ z
    n = problem.dim
    cols, q_cols, g_cols, neg_a = _probe_moves(problem) if moves is None else moves
    dk = np.empty(2 * n)
    np.subtract(problem.lower, z, out=dk[0::2])
    np.subtract(problem.upper, z, out=dk[1::2])
    rate = neg_a * dk
    caps = np.divide(slack[:, None], rate, out=np.ones(rate.shape), where=rate > 1e-14).min(
        axis=0, initial=1.0)
    t = caps * dk
    gain = t * (q_cols * z[cols] + g_cols) + 0.5 * t * t * q_cols
    for j in ((np.abs(dk) > 1e-12) & (caps > 1e-12) & (gain > 0.5 * margin)).nonzero()[0]:
        d = np.zeros(n)
        d[cols[j]] = dk[j]
        cand = z + caps[j] * d
        if value(cand) > base + margin:
            return cand
    return None


def _kkt_met(problem: QpProblem, grad, z, lam, mu, gam) -> bool:
    """kkt_residual(problem, z, lam, mu, gam) <= TOL_STAT, given grad = q z + g.

    Stationarity is the first term of kkt_residual's max and the same float
    expression, so it is tested first from the caller's gradient, and the
    full residual is formed only when it passes.
    """
    if float(np.abs(grad + problem.A.T @ lam + mu - gam).max()) > TOL_STAT:
        return False
    return kkt_residual(problem, z, lam, mu, gam) <= TOL_STAT


def _solve_stationary(problem: QpProblem, start) -> QpSolution:
    n = problem.dim
    unit = np.ones(n)
    rows, moves = _Rows(problem, unit), _probe_moves(problem)
    z0 = np.clip(start if start is not None else np.zeros(n), problem.lower, problem.upper)
    z, *_, ok = _dual_clip(problem, unit, z0, rows)
    if not ok and not _phase_one(problem, z0)[1]:
        return _infeasible(problem, z)

    def value(w):
        return 0.5 * w * problem.q @ w + problem.g_lin @ w

    t0 = 1.0 / max(float(np.abs(problem.q).max()), 1e-6)
    cap = 50 * max(n, 1)
    status = "max-iterations"
    lam = np.zeros(problem.A.shape[0])
    mu = np.zeros(n)
    gam = np.zeros(n)
    t = t0
    span = max(float((problem.upper - problem.lower).max(initial=0.0)), 1.0)
    z_prev = grad_prev = None
    for _ in range(cap):
        grad = problem.q * z + problem.g_lin
        if z_prev is not None:
            # Barzilai-Borwein step, safeguarded around the Lipschitz step
            dz, dg = z - z_prev, grad - grad_prev
            den = abs(float(dz @ dg))
            if den > 1e-300:
                t = min(max(float(dz @ dz) / den, 1e-3 * t0), 1e4 * t0)
        # keep the pre-projection point within a few box spans so the
        # projection stays in the regime where it is machine-precise
        gnorm = float(np.abs(grad).max(initial=0.0))
        step = t if gnorm <= 1e-300 else min(t, 10.0 * span / gnorm)
        z_prev, grad_prev = z, grad
        w, plam, pmu, pgam, _ = _dual_clip(problem, unit, z + step * grad, rows)
        t = step
        lam, mu, gam = plam / t, pmu / t, pgam / t
        if _kkt_met(problem, grad, z, lam, mu, gam):
            probe = _endpoint_probe(problem, z, value, moves)
            if probe is None:
                status = "optimal"
                break
            z = probe
            z_prev = grad_prev = None
            continue
        # exact line search on the first segment of the projection arc
        p = w - z
        if np.abs(p).max(initial=0.0) <= 1e-14:
            probe = _endpoint_probe(problem, z, value, moves)
            if probe is not None:
                z = probe
                z_prev = grad_prev = None
                continue
            status = "optimal" if kkt_residual(problem, z, lam, mu, gam) <= 1e-6 else status
            break
        den = p * problem.q @ p
        alpha = 1.0 if den >= -1e-14 else min(1.0, (grad @ p) / -den)
        z = z + alpha * p
    return QpSolution(z, lam, mu, gam, status, kkt_residual(problem, z, lam, mu, gam))


def solve_qp(problem: QpProblem, start: np.ndarray | None = None) -> QpSolution:
    """Exact maximizer when every curvature is negative, else a KKT point reached from start."""
    if float(problem.q.max()) < 0.0:
        return _solve_exact(problem)
    return _solve_stationary(problem, start)
