"""Diagonal QP kernel for the switch subproblems.

Problems are maximizations of 0.5 z'diag(q)z + g'z over { b + A z >= 0 }
within a box, with q the curvature vector and A a few dense rows.  One
kernel does the row work: it minimizes the dual over the row multipliers
lam >= 0, the primal being the closed-form clip z = clip((s + A'lam) / h)
for fixed lam, as in separable QP with few linear rows (Brucker 1984).

That dual is convex and piecewise quadratic.  Its gradient is the row
slack b + A z, and its curvature is A_F diag(1/h_F) A_F' over the free
coordinates F.  Each kernel step takes the Newton direction d on the
working rows (those with lam_i > 0 and those z breaks) and minimizes the
dual exactly along it.  Along lam + t d the dual's slope
d'(b + A clip((shifted + t A'd) / h)) is piecewise linear and nondecreasing
in t, with kinks where a coordinate reaches a box end, so one vectorised
pass evaluates it at every kink in reach and the root is interpolated on
the segment that holds it (breakpoint search, Kiwiel 2008); the step stops
early where a falling multiplier reaches 0, and that row leaves the working
set.  A row at lam_i = 0 whose Newton component would push it below 0 is
dropped before the search, one at a time, as in the dual active-set method
of Goldfarb & Idnani (1983).

A single working row i needs no linear solve: its step is the projection
onto one row, which the breakpoint search solves in closed form (Kiwiel
2008).  Its direction d is -sign(slack_i), up when z breaks the row, and
the step's scalars are Python floats: d, c = d b_i, the step cap (its own
multiplier when d falls) and the new multiplier.  Every kernel step of the
benchmark workloads has one working row.  Two or more rows keep the Newton
solve, and every working set shares one search, whose kinks come from the
box ends as one (2, n) array.  The box is finite, so past the last kink
every moving coordinate sits on a box end: the slope there is exact from
those ends, and when it is negative the dual falls without bound and the
rows cannot be met.  In the Newton system a coordinate on a box end
counts as free, since the step may move it inward; that is what turns two
contradictory cuts into one direction along which the dual falls.  A small
multiple of each row's squared norm on the system's diagonal keeps it
solvable when a row has no free coordinate or two cut rows coincide on the
free ones.

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

When the kernel does not converge, even at the rounding floor of its row
slacks, one closed-form test decides whether the rows are infeasible.  Row
multipliers w >= 0 with w'(b + A z) < 0 at every point of the box are a
Farkas certificate (Farkas 1902).  With v = A'w the largest such value is
w'b + sum_j max(v_j lower_j, v_j upper_j); when its negative over
sum(w) exceeds SLACK_TOL, every point of the box misses some row by more
than SLACK_TOL, and the solve reports "infeasible" with w as its row
multipliers.  w is the ray of a kernel step along which the dual falls
without bound (Goldfarb & Idnani's infeasibility exit), else the kernel's
last multipliers.  A failed test lets the solve go on from the kernel's end.

The problems are tiny (at most a few dozen coordinates and a handful of
rows), so numpy's per-call Python dispatch, not the arithmetic, sets the cost
of each step.  The kernel therefore calls the ndarray methods (``x.max()``,
``x.clip(lo, hi)``, ``m.all()``, ``m.nonzero()``) in place of the module
functions ``np.max``, ``np.clip``, ``np.all`` and ``np.flatnonzero``: both
run the same ufunc reduction or ufunc on the same operands, so every float
is the same, and the method skips the dispatch wrapper.  What does not
change within a solve is computed once: ``_Box`` holds h * lower and
h * upper for every kernel run under one curvature h, and ``_probe_moves``
the parts of the endpoint moves that do not depend on the point.  A clip
whose rows z meets at lam = 0 takes no step at all.  Under h = 1, the
projection of the stationary path, the box is its own scaled box and no
division by h is made, as 1.0 * x == x and x / 1.0 == x hold exactly.  The
stationary path's stop test forms stationarity, the first term of
``kkt_residual``, from the iteration's own gradient, and the other terms
only when that passes; the solution carries the residual so formed.

Multiplier sign convention (maximization): q z + g + A' lam + mu - gam = 0
with lam, mu, gam >= 0 on the A rows, lower bounds, upper bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_STAT = 1e-8
SLACK_TOL = 1e-7
# kernel steps a dual clip may take before it gives up unconverged
DUAL_STEPS = 50
# the Newton system's diagonal shift, relative to each row's squared norm over h
DIAGONAL_SHIFT = 1e-13
# the rounding floor of a row slack, in eps of the magnitudes summed into it
SLACK_FLOOR_EPS = 4.0 * np.finfo(float).eps


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
        if (self.lower > self.upper).any():
            raise ValueError("lower > upper")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("box must be finite")

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


def _stationarity(problem: QpProblem, grad, lam, mu, gam) -> float:
    """The stationarity term of kkt_residual, given grad = q z + g."""
    return float(np.abs(grad + problem.A.T @ lam + mu - gam).max())


def _feasibility_complementarity(problem: QpProblem, z, lam, mu, gam) -> float:
    """The terms of kkt_residual other than stationarity: the largest
    violation of a row or box end, and of complementarity."""
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
    return max(feas, comp)


def kkt_residual(problem: QpProblem, z, lam, mu, gam) -> float:
    return max(_stationarity(problem, problem.q * z + problem.g_lin, lam, mu, gam),
               _feasibility_complementarity(problem, z, lam, mu, gam))


def _farkas_margin(problem: QpProblem, w: np.ndarray) -> float:
    """-max over the box of w'(b + A z), over sum(w): the depth by which row
    multipliers w >= 0 prove that every point of the box misses some row."""
    v = w @ problem.A
    worst = float(w @ problem.b + np.maximum(v * problem.lower, v * problem.upper).sum())
    total = float(w.sum())
    return -worst / total if total > 0.0 else -np.inf


def _infeasible(problem: QpProblem, z: np.ndarray, w: np.ndarray) -> QpSolution:
    """z with the Farkas multipliers w; the residual is z's with no multipliers."""
    lam, mu, gam = np.zeros(problem.A.shape[0]), np.zeros(problem.dim), np.zeros(problem.dim)
    return QpSolution(z, w, mu, gam, "infeasible", kkt_residual(problem, z, lam, mu, gam))


class _Box:
    """The box of one problem under one curvature h > 0, with what every
    kernel run reuses: whether h is all ones, the box scaled by h (the values
    of s + A'lam at which a coordinate reaches a box end) and those lower and
    upper ends stacked as the rows of one (2, n) array."""

    def __init__(self, problem: QpProblem, h: np.ndarray):
        self.h, self.lower, self.upper = h, problem.lower, problem.upper
        # h = 1, the projection: 1.0 * x == x and x / 1.0 == x, so the box is
        # its own scaled box and every division by h is skipped
        self.unit = bool((h == 1.0).all())
        if self.unit:
            self.h_lower, self.h_upper = problem.lower, problem.upper
        else:
            self.h_lower, self.h_upper = h * problem.lower, h * problem.upper
        self.ends = np.concatenate([self.h_lower, self.h_upper]).reshape(2, -1)

    def clip(self, shifted):
        """z for the linear term shifted = s + A'lam."""
        return (shifted if self.unit else shifted / self.h).clip(self.lower, self.upper)

    def bound_duals(self, shifted):
        """(mu, gam) of the box for curvature -h and linear term shifted = s + A'lam."""
        return np.maximum(0.0, self.h_lower - shifted), np.maximum(0.0, shifted - self.h_upper)


def _dual_step(problem: QpProblem, box: _Box, lam, shifted, slack):
    """One kernel step from lam, where shifted = s + A'lam and slack is the
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
        m.flat[::work.size + 1] += np.where(norms > 0.0, DIAGONAL_SHIFT * norms, 1.0)
        d = np.linalg.solve(m, -slack[work])
        wrong = (lam[work] == 0.0) & (d < 0.0)
        if not wrong.any():
            lam_w = lam[work]
            # the step at which the first falling multiplier reaches 0
            caps = np.divide(lam_w, -d, out=np.full(d.size, np.inf), where=d < 0.0)
            j = int(caps.argmin())
            cap, v, c = float(caps[j]), d @ rows, float(d @ b[work])
            break
        work = np.delete(work, np.where(wrong, d, 0.0).argmin())
    else:
        # a lone row moves its own multiplier, up when z breaks the row, and
        # work becomes its index.  d = -sign(slack) is 1 or -1: a lone row
        # met exactly ends the clip before any step, and drops never leave
        # one.  d, c and the step cap, its multiplier when d falls, are
        # Python floats; + 0.0 gives v the zero signs of the 1 x n product
        # d @ A[[i]]
        work = int(work[0])
        lam_w, d = float(lam[work]), 1.0 if slack[work] < 0.0 else -1.0
        cap, v, c = lam_w if d < 0.0 else np.inf, A[work] * d + 0.0, d * float(b[work])
    # the steps at which a moving coordinate reaches its lower (row 0) or
    # upper (row 1) end
    kinks = np.divide(box.ends - shifted, v, out=np.zeros(box.ends.shape), where=v != 0.0)
    kinks = np.sort(kinks[(kinks > 0.0) & (kinks < cap)])
    capped = cap < np.inf
    ts = np.concatenate(([0.0], kinks, (cap,)) if capped else ([0.0], kinks))
    x = shifted + ts[:, None] * v
    if not box.unit:
        x /= box.h
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
    # a step that moves no multiplier by more than a few ulps is rounding,
    # not descent; a lone row's new multiplier is one float
    if type(work) is int:
        new_w = 0.0 if t >= cap else max(lam_w + t * d, 0.0)
        if abs(new_w - lam_w) <= 1e-15 * max(lam_w, new_w):
            return lam
    else:
        new_w = np.maximum(lam_w + t * d, 0.0)
        if t >= cap:
            new_w[j] = 0.0
        if (np.abs(new_w - lam_w) <= 1e-15 * np.maximum(lam_w, new_w)).all():
            return lam
    new = lam.copy()
    new[work] = new_w
    return new


def _dual_clip(problem: QpProblem, h: np.ndarray, s: np.ndarray, box: _Box | None = None):
    """Maximizer of s'z - 0.5 z'diag(h)z, h > 0, over the box and the rows.

    Runs kernel steps from lam = 0 until the clip z of s + A'lam meets every
    row within 1e-11 of the scale of s / h and every positive multiplier's
    row is active within it, for at most DUAL_STEPS steps.  When a step
    would move no multiplier beyond rounding, the rows are tested once more,
    with the tolerance grown by the slacks' rounding floor: over the
    coordinates j inside the box (one on a box end is exact), row i sums
    terms |a_ij| (|s_j| + |A_j|'lam) / h_j that large multipliers make
    cancel, and a few eps of the largest such sum is noise.  box is
    _Box(problem, h), when the caller has it.  Returns (z, lam, mu, gam, w):
    w is None when the clip converged, and otherwise the row multipliers the
    Farkas test reads: the ray of a step along which the dual falls without
    bound, or else lam itself, at the step cap or the rounding stop.
    """
    A, b = problem.A, problem.b
    box = _Box(problem, h) if box is None else box
    lam = np.zeros(A.shape[0])
    scale = max(1.0, float(np.abs(s if box.unit else s / h).max(initial=0.0)))
    tol = 1e-11 * scale
    shifted = s
    z = box.clip(shifted)
    for steps in range(DUAL_STEPS + 1):
        slack = b + A @ z
        # every positive-multiplier row must be active (lam = 0 before the
        # first step); the product form lam*slack has an ulp floor of
        # lam*eps*scale and cannot certify
        if float(slack.min(initial=0.0)) >= -tol and (
                steps == 0 or float(np.abs(slack[lam > 0.0]).max(initial=0.0)) <= tol):
            return z, lam, *box.bound_duals(shifted), None
        if steps == DUAL_STEPS:
            break
        new = _dual_step(problem, box, lam, shifted, slack)
        if new is lam:
            # no multiplier moves beyond rounding: the same test once more,
            # at the slacks' rounding floor
            absA = np.abs(A)
            inside = (z > box.lower) & (z < box.upper)
            terms = np.where(inside, (np.abs(s) + absA.T @ lam) / h, 0.0)
            tol += SLACK_FLOOR_EPS * float((absA @ terms).max(initial=0.0))
            met = float(slack.min(initial=0.0)) >= -tol and (
                float(np.abs(slack[lam > 0.0]).max(initial=0.0)) <= tol)
            return z, lam, *box.bound_duals(shifted), None if met else lam
        if type(new) is tuple:
            return z, lam, *box.bound_duals(shifted), new[0]
        lam = new
        shifted = s + A.T @ lam
        z = box.clip(shifted)
    return z, lam, *box.bound_duals(shifted), lam


def _solve_exact(problem: QpProblem) -> QpSolution:
    q, g, A = problem.q, problem.g_lin, problem.A
    kernel = _Box(problem, -q)
    z, lam, mu, gam, w = _dual_clip(problem, -q, g, kernel)
    if w is not None and _farkas_margin(problem, w) > SLACK_TOL:
        return _infeasible(problem, z, w)
    best = (z, lam, mu, gam, kkt_residual(problem, z, lam, mu, gam))
    # the clip fixes each free coordinate only as well as lam is known, so a
    # curvature near 1e-5 leaves a residual near 1e-9; one KKT solve on the
    # free coordinates and the active rows recovers full precision
    free, rows = (z > problem.lower) & (z < problem.upper), lam > 0.0
    A_rf = A[np.ix_(rows, free)]
    nf = int(free.sum())
    kkt = np.zeros((nf + A_rf.shape[0],) * 2)
    kkt[:nf, :nf].flat[::nf + 1] = q[free]
    kkt[:nf, nf:], kkt[nf:, :nf] = A_rf.T, A_rf
    rhs = np.concatenate([-g[free], -(problem.b[rows] + A[rows][:, ~free] @ z[~free])])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.full(rhs.size, np.nan)  # fails the acceptance test below
    zp, lp = z.copy(), lam.copy()
    zp[free], lp[rows] = sol[:nf], sol[nf:]
    if ((zp >= problem.lower) & (zp <= problem.upper)).all() and (lp >= 0.0).all():
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


def _kkt_met(problem: QpProblem, grad, z, lam, mu, gam) -> float | None:
    """kkt_residual(problem, z, lam, mu, gam) when it is at most TOL_STAT,
    else None, given grad = q z + g.

    Stationarity is kkt_residual's first term, so it is tested first from
    the caller's gradient, and the other terms are formed only when it
    passes.
    """
    stat = _stationarity(problem, grad, lam, mu, gam)
    if stat > TOL_STAT:
        return None
    res = max(stat, _feasibility_complementarity(problem, z, lam, mu, gam))
    return res if res <= TOL_STAT else None


def _solve_stationary(problem: QpProblem, start) -> QpSolution:
    n = problem.dim
    unit = np.ones(n)
    box, moves = _Box(problem, unit), _probe_moves(problem)
    z0 = np.clip(start if start is not None else np.zeros(n), problem.lower, problem.upper)
    z, *_, w = _dual_clip(problem, unit, z0, box)
    if w is not None and _farkas_margin(problem, w) > SLACK_TOL:
        return _infeasible(problem, z, w)

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
    res = None
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
        w, plam, pmu, pgam, _ = _dual_clip(problem, unit, z + step * grad, box)
        t = step
        lam, mu, gam = plam / t, pmu / t, pgam / t
        res = _kkt_met(problem, grad, z, lam, mu, gam)
        if res is not None:
            probe = _endpoint_probe(problem, z, value, moves)
            if probe is None:
                status = "optimal"
                break
            z, res = probe, None
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
            res = kkt_residual(problem, z, lam, mu, gam)
            status = "optimal" if res <= 1e-6 else status
            break
        den = p * problem.q @ p
        alpha = 1.0 if den >= -1e-14 else min(1.0, (grad @ p) / -den)
        z = z + alpha * p
    if res is None:
        res = kkt_residual(problem, z, lam, mu, gam)
    return QpSolution(z, lam, mu, gam, status, res)


def solve_qp(problem: QpProblem, start: np.ndarray | None = None) -> QpSolution:
    """Exact maximizer when every curvature is negative, else a KKT point reached from start."""
    if float(problem.q.max()) < 0.0:
        return _solve_exact(problem)
    return _solve_stationary(problem, start)
