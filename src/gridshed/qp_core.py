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
division by h is made, as 1.0 * x == x and x / 1.0 == x hold exactly; the
stationary path knows its h is 1 and builds that box with no ones vector
and no test of one, its h the scalar 1.0.  The stationary path's stop test
forms stationarity, the first term of ``kkt_residual``, from the
iteration's own gradient, and the other terms only when that passes; the
solution carries the residual so formed.  A kernel step sorts its kinks in
place and writes its breakpoints into one array, and the exact path takes
its KKT block by integer positions.

What does not change across solves is checked and formed once: a caller
that solves many objectives over one box and one set of rows, as the
switching stage does at each penalty level, builds one checked
``QpProblem`` and derives each level's problem with
``QpProblem.with_objective``, which checks only the shapes and finiteness
of the new q and g_lin.  The derived problems share the stage problem's
memo, which the solves fill on first use with what depends on the box and
rows alone, not on q, g_lin or h:

* for each lone working row i and direction d, v = d A_i, c = d b_i, v's
  nonzero mask and the slope past the last kink (``_lone_row``), read by
  the kernel under the unit box and every scaled one;
* the stationary path's unit ``_Box``, the box span and the endpoint moves'
  columns and -A[:, cols] (``_stationary_parts``); q[cols] and g_lin[cols]
  are each level's.

A problem built directly, or by ``dataclasses.replace``, starts with an
empty memo.  Each level still forms its own scaled box, as it depends on
h = -q.  A problem with no coordinates is answered from b alone.

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
        if self.g_lin.shape != (n,):
            raise ValueError("g_lin must be a vector")
        if self.q.shape != (n,):
            raise ValueError("q must be a vector the size of g_lin")
        if self.A.size == 0 and self.A.shape[0] == 0:
            # no rows, A = [] among them; a row over no coordinates keeps its b
            object.__setattr__(self, "A", np.zeros((0, n)))
        if self.A.ndim != 2 or self.A.shape[1] != n or self.b.shape != (self.A.shape[0],):
            raise ValueError("A/b dimensions inconsistent")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("box dimensions inconsistent")
        if (self.lower > self.upper).any():
            raise ValueError("lower > upper")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("box must be finite")
        for name in ("q", "g_lin", "A", "b"):
            if not _finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # what the solves form from the box and rows alone, filled on first
        # use and shared with every problem with_objective derives from this one
        object.__setattr__(self, "_memo", {})

    @property
    def dim(self) -> int:
        return self.g_lin.size

    def with_objective(self, q, g_lin) -> "QpProblem":
        """This problem's box and rows under curvature q and linear term g_lin.

        The box and rows passed their checks when this problem was built, so
        only q and g_lin are checked, their shapes and that they are finite: a
        stage that solves many objectives over one box and one set of rows
        checks those once.  The new problem shares this one's memo, so what
        a solve forms from the box and rows alone is formed once per stage.
        """
        q, g_lin = np.asarray(q, dtype=float), np.asarray(g_lin, dtype=float)
        n = self.g_lin.size
        if q.shape != (n,) or g_lin.shape != (n,):
            raise ValueError("q and g_lin must be vectors the size of the box")
        if not _finite(q):
            raise ValueError("q must be finite")
        if not _finite(g_lin):
            raise ValueError("g_lin must be finite")
        new = object.__new__(QpProblem)
        new.__dict__.update(self.__dict__, q=q, g_lin=g_lin)
        return new


def _finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite.  count_nonzero is one C loop with
    no reduction machinery, so on these small arrays it is cheaper than
    np.isfinite(x).all(); every penalty level tests its q, g_lin and start."""
    return np.count_nonzero(np.isfinite(x)) == x.size


def _memo_entry(problem: QpProblem, key, form, *args):
    """problem's memo entry key, formed as form(problem, *args) on first use."""
    memo = problem._memo
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = form(problem, *args)
    return entry


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
    upper ends stacked as the rows of one (2, n) array.  h None is the unit
    curvature, read as the scalar 1.0."""

    def __init__(self, problem: QpProblem, h: np.ndarray | None = None):
        self.lower, self.upper = problem.lower, problem.upper
        # h = 1, the projection: 1.0 * x == x and x / 1.0 == x, so the box is
        # its own scaled box and every division by h is skipped
        self.unit = h is None or bool((h == 1.0).all())
        self.h = 1.0 if h is None else h
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


def _breakpoints(box: _Box, shifted, v, moving, cap):
    """The steps t at which the search evaluates the dual's slope along
    shifted + t v: 0, then in ascending order the kinks in (0, cap), the
    steps at which a moving coordinate (moving is v != 0) reaches its lower
    (row 0 of box.ends) or upper (row 1) end, then cap when it is finite."""
    kinks = np.divide(box.ends - shifted, v, out=np.zeros(box.ends.shape), where=moving)
    kinks = kinks[(kinks > 0.0) & (kinks < cap)]
    kinks.sort()
    capped = cap < np.inf
    ts = np.empty(kinks.size + (2 if capped else 1))
    ts[0] = 0.0
    ts[1:kinks.size + 1] = kinks
    if capped:
        ts[-1] = cap
    return ts


def _direction(problem: QpProblem, v, c):
    """What a kernel step's breakpoint search reads of its direction v = d'A
    and offset c = d'b over the working rows: (v, v != 0, c, far), far the
    dual's slope past the last kink, where every moving coordinate sits on
    the box end ahead of it, so that c + v'(that end) is exact.  The arrays
    are read-only.  None of it depends on the curvature h."""
    v.flags.writeable = False
    moving = v != 0.0
    moving.flags.writeable = False
    return v, moving, c, c + v @ np.where(v > 0.0, problem.upper, problem.lower)


def _lone_row(problem: QpProblem, i: int, d: float):
    """_direction of lone working row i moving its multiplier by d = 1.0 or
    -1.0: v = d A[i], where + 0.0 gives v the zero signs of the 1 x n product
    d @ A[[i]], and c = d b_i, a Python float.  It depends on the row and d
    alone, so each stage forms it once and every penalty level, under either
    box, reads it from the memo."""
    return _direction(problem, problem.A[i] * d + 0.0, d * float(problem.b[i]))


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
            cap = float(caps[j])
            v, moving, c, far = _direction(problem, d @ rows, float(d @ b[work]))
            break
        work = np.delete(work, np.where(wrong, d, 0.0).argmin())
    else:
        # a lone row moves its own multiplier, up when z breaks the row, and
        # work becomes its index.  d = -sign(slack) is 1 or -1: a lone row
        # met exactly ends the clip before any step, and drops never leave
        # one.  d and the step cap, its multiplier when d falls, are Python
        # floats
        work = int(work[0])
        lam_w, d = float(lam[work]), 1.0 if slack[work] < 0.0 else -1.0
        cap = lam_w if d < 0.0 else np.inf
        v, moving, c, far = _memo_entry(problem, (work, d), _lone_row, work, d)
    capped = cap < np.inf
    ts = _breakpoints(box, shifted, v, moving, cap)
    x = shifted + ts[:, None] * v
    if not box.unit:
        x /= box.h
    slope = c + x.clip(box.lower, box.upper) @ v
    if not capped and ts.size > 1:
        # the slope at the last kink, and on past it, is exact from the box ends
        slope[-1] = far
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


def _dual_clip(problem: QpProblem, box: _Box, s: np.ndarray):
    """Maximizer of s'z - 0.5 z'diag(h)z, h = box.h > 0, over the box and the rows.

    Runs kernel steps from lam = 0 until the clip z of s + A'lam meets every
    row within 1e-11 of the scale of s / h and every positive multiplier's
    row is active within it, for at most DUAL_STEPS steps.  When a step
    would move no multiplier beyond rounding, the rows are tested once more,
    with the tolerance grown by the slacks' rounding floor: over the
    coordinates j inside the box (one on a box end is exact), row i sums
    terms |a_ij| (|s_j| + |A_j|'lam) / h_j that large multipliers make
    cancel, and a few eps of the largest such sum is noise.  Returns
    (z, lam, mu, gam, w): w is None when the clip converged, and otherwise
    the row multipliers the Farkas test reads: the ray of a step along which
    the dual falls without bound, or else lam itself, at the step cap or the
    rounding stop.
    """
    A, b, h = problem.A, problem.b, box.h
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
    z, lam, mu, gam, w = _dual_clip(problem, kernel, g)
    if w is not None and _farkas_margin(problem, w) > SLACK_TOL:
        return _infeasible(problem, z, w)
    best = (z, lam, mu, gam, kkt_residual(problem, z, lam, mu, gam))
    # the clip fixes each free coordinate only as well as lam is known, so a
    # curvature near 1e-5 leaves a residual near 1e-9; one KKT solve on the
    # free coordinates and the active rows recovers full precision
    free, rows = (z > problem.lower) & (z < problem.upper), lam > 0.0
    # the block A[rows, free], taken by integer positions
    A_r = A.take(rows.nonzero()[0], axis=0)
    A_rf = A_r.take(free.nonzero()[0], axis=1)
    nf = A_rf.shape[1]
    kkt = np.zeros((nf + A_rf.shape[0],) * 2)
    kkt[:nf, :nf].flat[::nf + 1] = q[free]
    kkt[:nf, nf:], kkt[nf:, :nf] = A_rf.T, A_rf
    rhs = np.concatenate([-g[free], -(problem.b[rows] + A_r[:, ~free] @ z[~free])])
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


def _stationary_parts(problem: QpProblem):
    """What the stationary path reads of the box and rows alone: (box, span,
    cols, -A[:, cols]), the unit _Box, the box's widest side (at least 1) and
    the endpoint moves' columns, cols[2k + e] = k (see _probe_moves).  Each
    stage forms it once, and every penalty level reads it from the memo."""
    cols = np.repeat(np.arange(problem.dim), 2)
    neg_a = -problem.A[:, cols]
    cols.flags.writeable = neg_a.flags.writeable = False
    span = max(float((problem.upper - problem.lower).max(initial=0.0)), 1.0)
    return _Box(problem), span, cols, neg_a


def _probe_moves(problem: QpProblem):
    """The parts of the 2n endpoint moves that do not depend on the point:
    move 2k + e takes coordinate k to its lower (e = 0) or upper end, and this
    is (cols, q[cols], g_lin[cols], -A[:, cols]) with cols[2k + e] = k.  cols
    and -A[:, cols] are the stage's; q[cols] and g_lin[cols] are this level's."""
    *_, cols, neg_a = _memo_entry(problem, "stationary", _stationary_parts)
    return cols, problem.q[cols], problem.g_lin[cols], neg_a


def _endpoint_probe(problem, z, value, moves):
    """One coordinate pushed toward a box endpoint when that strictly improves.

    First-order points of an indefinite objective can sit inside a face where
    positive curvature along a coordinate makes an endpoint strictly better;
    the probe finds the first such move (lowest coordinate, lower end first).
    moves is _probe_moves(problem).
    """
    base = value(z)
    margin = 1e-10 * max(1.0, abs(base))
    slack = problem.b + problem.A @ z
    n = problem.dim
    cols, q_cols, g_cols, neg_a = moves
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
    box, span, *_ = _memo_entry(problem, "stationary", _stationary_parts)
    moves = _probe_moves(problem)
    z0 = np.zeros(n) if start is None else start
    z0 = z0.clip(problem.lower, problem.upper)
    z, *_, w = _dual_clip(problem, box, z0)
    if w is not None and _farkas_margin(problem, w) > SLACK_TOL:
        return _infeasible(problem, z, w)

    def value(w):
        return 0.5 * w * problem.q @ w + problem.g_lin @ w

    t0 = 1.0 / max(float(np.abs(problem.q).max()), 1e-6)
    cap = 50 * max(n, 1)
    status = "max-iterations"
    t = t0
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
        w, plam, pmu, pgam, _ = _dual_clip(problem, box, z + step * grad)
        t = step
        lam, mu, gam = plam / t, pmu / t, pgam / t
        res = _kkt_met(problem, grad, z, lam, mu, gam)
        p = w - z
        if res is not None or np.abs(p).max(initial=0.0) <= 1e-14:
            probe = _endpoint_probe(problem, z, value, moves)
            if probe is not None:
                z, res = probe, None
                z_prev = grad_prev = None
                continue
            if res is None:
                res = kkt_residual(problem, z, lam, mu, gam)
            status = "optimal" if res <= 1e-6 else status
            break
        # exact line search on the first segment of the projection arc
        den = p * problem.q @ p
        alpha = 1.0 if den >= -1e-14 else min(1.0, (grad @ p) / -den)
        z = z + alpha * p
    if res is None:
        res = kkt_residual(problem, z, lam, mu, gam)
    return QpSolution(z, lam, mu, gam, status, res)


def _solve_empty(problem: QpProblem) -> QpSolution:
    """A problem with no coordinates: each row i reads b_i >= 0 alone.  Some
    b_i < -SLACK_TOL is "infeasible", with the Farkas multiplier 1 on the
    worst row; otherwise the empty point is "optimal"."""
    b, none = problem.b, np.zeros(0)
    lam = np.zeros(b.size)
    res, status = max(0.0, -float(b.min(initial=0.0))), "optimal"
    if res > SLACK_TOL:
        lam[b.argmin()], status = 1.0, "infeasible"
    return QpSolution(none, lam, none, none, status, res)


def solve_qp(problem: QpProblem, start: np.ndarray | None = None) -> QpSolution:
    """Exact maximizer when every curvature is negative, else a KKT point
    reached from start, which must be a finite vector of the box's size."""
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (problem.dim,) or not _finite(start):
            raise ValueError("start must be a finite vector the size of the box")
    if not problem.g_lin.size:
        return _solve_empty(problem)
    if float(problem.q.max()) < 0.0:
        return _solve_exact(problem)
    return _solve_stationary(problem, start)
