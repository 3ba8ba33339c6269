"""Continuous OPF stage: maximize E over (x, u) at fixed switch values.

Power balance P(x) = S(u, y) is an equality system; voltage, angle and
injection limits are box bounds. The slack bus entries of x are eliminated
from the decision vector z = [x_free, u].

E is affine in the balance residuals, so every feasible point is optimal and
the equality multipliers are -y_k r_k on the active demand rows at every
point, balanced or not. The stage hands these over as ``Ao1Result.duals``,
one per demand, whatever the status, and only has to find a balanced point
inside the bounds, or show that there is none. ``least_squares`` does both: a
projected Levenberg-Marquardt fit (More 1978) of 0.5 |F|^2 over the bounds,
started from the warm point or the flat point, clipped into the box. A step
that the box clip spoils, so that it no longer decreases the Gauss-Newton
model, is re-solved with the coordinates that left the box held at their
bounds before it is evaluated. How the fit ends sets the status:

- balanced (max|F| <= TOL_FEAS): "converged";
- on a set that ``active_capacity_screen`` proves short of active capacity
  in closed form: "infeasible" with certificate "screen", however the fit
  ends;
- on any other set, stationary with max|F| above TOL_FEAS: "infeasible" with
  certificate "restoration". The fit judges infeasibility caused by reactive
  or voltage limits or by losses;
- any other end, a fit capped at FIT_MAX_ITERS included, proves nothing:
  "max-iterations".

Besides balance, the fit ends "stationary" at an evaluated trial where the
actual reduction |f - f_try| of f = 0.5 |F|^2 and the reduction
-(g'h + 0.5 |Jh|^2) that the Gauss-Newton model predicts for the step h
taken both lie within tau, an estimate of f's rounding error at the current
point (``_Problem.rounding``): neither can show progress any more.  On a
screened set tau is at least FIT_FTOL f.  Its verdict is proved in closed
form, and the fit only gives the point at which the switching stage
linearises its active row (the sum of pg there), so it stops at the relative
gain that MINPACK's ftol stops at.  On any other set the stop stays at the
rounding level, so a "restoration" certificate still rests on a fit that
cannot gain.  A balanced warm start ends the fit at its first evaluation.

The fit takes the residual at every point, with one ``outflow_terms`` pass
over the branch edges and the generation scattered onto its buses, and keeps
that pass's terms. It forms derivatives only at an accepted point (or the
start) that it goes on from, with one ``outflow_derivatives`` pass over the
kept terms: a rejected trial and the end point cost a residual alone. The
derivative values are scattered straight into one C-contiguous balance
Jacobian buffer J = [dP/dx on the free state columns | -gen_sel] at indices
that ``network`` builds once per case, as it builds the fit's free entries,
box, flat start and generation rows; J keeps the -0.0 entries of -gen_sel.
The fit forms no objective gradient, and E is read from the outflow of its
end point's residual pass; ``Ao1Result.outflow`` hands that outflow on, so
the driver's verdict (``cli_driver._verdict``) builds its constraint stack
from it without a second trig pass at the same point.  The fit tests max|F|
against TOL_FEAS only where f is low enough to allow it, and forms its
bound-hold mask only when some coordinate sits on the box.

The fit is one plain loop, ``least_squares``, over one switch set: the
switching stage fits one set at a time, warm from the last, and
``enumerate_oracle`` fits each of its sets through ``solve_ao1`` from the
start that ``dispatch_start`` gives it: a generation dispatch that covers the
set's load, with the DC power-flow angles of that dispatch.  Its tables are
built on the first call with a network and kept on that Network object, so
every later enumeration on the case takes them as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid_model import GridCase
from .power_equations import (
    InputVector,
    Network,
    State,
    SwitchVector,
    check_sizes,
    demand_draw,
    jacobians,  # not called here; bench/tracer.py wraps ao1_opf.jacobians
    network,
    objective_E,  # not called here; bench/tracer.py wraps ao1_opf.objective_E
    objective_from_outflow,
    outflow_derivatives,
    outflow_terms,
)

TOL_FEAS = 1e-8
FIT_MAX_ITERS = 200
FIT_LAMBDA_MAX = 1e16
# the relative reduction of 0.5 |F|^2 that ends a fit on a screened set, the
# MINPACK ftol default (More 1978)
FIT_FTOL = 1e-8
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class Ao1Result:
    state: State
    input: InputVector
    duals: np.ndarray       # the balance multiplier -y r of each demand's active row
    residual: float         # max|F| at the end point
    objective: float
    outflow: np.ndarray     # the stacked outflow P at state, from the fit's last trig pass
    status: str
    iterations: int = 0     # fit evaluations after the one at the start point
    certificate: str = ""   # what proves an "infeasible" status: "screen" or "restoration"


def active_capacity_screen(net: Network, y: SwitchVector) -> bool:
    """True when the active-power shortfall alone proves that no point balances.

    Without shunts the summed active outflow is the sum over branches of
    g |V_k - V_l|^2, which is non-negative when no off-diagonal of G is
    positive (every branch g >= 0).  The summed active residual is then at
    least sum y^2 pd - sum pg_max, and past n_bus * TOL_FEAS some bus misses
    the balance tolerance at every point inside the bounds.
    """
    if not net.branch_g_nonneg:
        return False
    shortfall = float((y.y * y.y) @ net.pd) - float(net.u_upper[0::2].sum())
    return shortfall > net.n_bus * TOL_FEAS


def dispatch_start(net: Network):
    """start(y): a fit start for switch set y on net, as the (State,
    InputVector) pair that ``solve_ao1`` takes as warm.  Built on the first
    call with a network and kept on that object, as ``network`` keeps the
    Network on its case, so every later call, and every ``enumerate_oracle``
    run on the case, gets the same start; start(y) is then a few small
    products.

    Every voltage is at the slack voltage.  Every generator's pg is
    lower + s (upper - lower) with one share s, clipped to [0, 1], at which
    the summed pg covers sum y^2 pd, and qg likewise against sum y^2 qd.  The
    angles are the DC power flow of those injections (Stott, Jardim & Alsac
    2009): at v = 1 with sin t = t and the conductances dropped, the active
    outflow of bus k is the sum over its edges (k, l) of B_kl (theta_k -
    theta_l), so L theta = p on the Laplacian L of the edge weights B_kl
    (``edge_BB``).  Without the slack's row and column, with its angle at 0,
    L is inverted here; when it is singular (a bus reached only through
    zero-susceptance branches) every angle is 0.  The injections are linear
    in s and y^2, so start(y) adds the angles of the pg lower bounds, s times
    those of the pg ranges, and those of the demands times -y^2.
    """
    try:
        return net._dispatch_start
    except AttributeError:
        start = _build_dispatch_start(net)
        object.__setattr__(net, "_dispatch_start", start)
        return start


def _build_dispatch_start(net: Network):
    n = net.n_bus
    weight = net.edge_BB[:net.edge_from.size]
    # each directed edge is one off-diagonal (GridCase rejects repeated pairs)
    L = np.zeros((n, n))
    L[net.edge_from, net.edge_to] = -weight
    L.ravel()[:: n + 1] = np.bincount(net.edge_from, weights=weight, minlength=n)
    keep = np.arange(n) != net.slack
    try:
        L_inv = np.linalg.inv(L[np.ix_(keep, keep)])
    except np.linalg.LinAlgError:
        L_inv = np.zeros((n - 1, n - 1))
    # rows pg and qg: each generator's lower bound and range, their sums, and
    # the (pd, qd) of each demand
    lower = np.stack([net.u_lower[0::2], net.u_lower[1::2]])
    span = np.stack([net.u_upper[0::2], net.u_upper[1::2]]) - lower
    floor = lower.sum(axis=1)
    width = span.sum(axis=1)
    width[width <= 0.0] = np.inf    # no range: share 0
    demand = np.stack([net.pd, net.qd], axis=1)
    # the angles of the pg bounds and of the demands, 0 at the slack
    gen_angles = np.zeros((n, net.n_gen))
    gen_angles[keep] = L_inv @ net.gen_sel[0::2, 0::2][keep]
    theta_floor, theta_span = gen_angles @ lower[0], gen_angles @ span[0]
    dem_draw = np.zeros((n, net.n_dem))
    dem_draw[net.dem_pos, np.arange(net.n_dem)] = net.pd
    dem_angles = np.zeros((n, net.n_dem))
    dem_angles[keep] = L_inv @ dem_draw[keep]

    def start(y: SwitchVector) -> tuple[State, InputVector]:
        y2 = y.y * y.y
        share = np.minimum(np.maximum((y2 @ demand - floor) / width, 0.0), 1.0)
        pg, qg = lower + share[:, None] * span
        theta = theta_floor + share[0] * theta_span - dem_angles @ y2
        return State(v=np.full(n, net.slack_v), theta=theta), InputVector(pg=pg, qg=qg)

    return start


def _split(net: Network, z):
    """The caller's own (State, InputVector) pair at the fit vector z."""
    x = np.empty(2 * net.n_bus)
    x[2 * net.slack] = net.slack_v
    x[2 * net.slack + 1] = 0.0
    nx_free = net.fit_free.size
    x[net.fit_free] = z[:nx_free]
    return State.from_vector(x), InputVector.from_vector(z[nx_free:])


class _Problem:
    """Fixed-y evaluation helpers over the reduced vector z = [x_free, u].

    The y-free layout (the free entries, the box and the flat start) comes
    from ``network``.  ``residual`` copies x_free, which is x without the
    slack's (v, theta) pair, out of z into one x that the problem owns and
    whose v and theta one State views, reads the injections straight from z,
    and returns the trig pass's terms with F; ``jacobian`` forms the
    derivatives from such terms into one J buffer that the problem owns and
    overwrites on every call.  ``rounding`` estimates the rounding error of
    0.5 |F|^2 from such terms, and ``screened`` is ``active_capacity_screen``
    at y.
    """

    def __init__(self, net: Network, y: SwitchVector):
        self.net = net
        self.y = y
        self.free = net.fit_free
        self.lower = net.fit_lower
        self.upper = net.fit_upper
        self.nx_free = self.free.size
        self.draw = demand_draw(net, y)
        self.screened = active_capacity_screen(net, y)
        # the generation per bus, scattered from u; the rows without a
        # generator stay +0.0
        self.gen = np.zeros(2 * net.n_bus)
        # J with its dP/dx_free columns zero and its u columns -gen_sel, the
        # -d(generation)/du, -0.0 entries included; built per fit: a dense
        # copy kept on each network raised serve30's peak RSS by 1.0 MB over
        # its 30 case30 networks (41.67-41.84 to 42.64-42.85 MB, seed 1, 3 s
        # runs) and gained no time there
        self.J = np.zeros((2 * net.n_bus, self.nx_free + 2 * net.n_gen))
        np.negative(net.gen_sel, out=self.J[:, self.nx_free:])
        self.x = np.empty(2 * net.n_bus)
        self.x[2 * net.slack] = net.slack_v
        self.x[2 * net.slack + 1] = 0.0
        self.point = State(v=self.x[0::2], theta=self.x[1::2])

    def residual(self, z):
        """(F, terms) at z: the balance residual F = P - S, formed as
        (P - generation) + demand draw, and the outflow terms of its trig pass."""
        net = self.net
        s = 2 * net.slack
        self.x[:s] = z[:s]
        self.x[s + 2:] = z[s:self.nx_free]
        terms = outflow_terms(net, self.point)
        self.gen.put(net.fit_gen, z[self.nx_free:])
        F = terms.P - self.gen
        F += self.draw
        return F, terms

    def rounding(self, F, terms, z):
        """An estimate of the rounding error of 0.5 |F|^2 at z, where the
        residual pass gave F and terms: 8 eps sum_i |F_i| m_i, with m_i the
        magnitudes summed into F_i, v_k (sum over edges |a v_l| + |dv_k|) plus
        the generation and the demand draw."""
        net = self.net
        m2 = terms.a.size
        m = np.bincount(net.edge_bins, weights=np.abs(terms.a * terms.vlk[:m2]), minlength=2 * net.n_bus)
        m += np.abs(terms.dv)
        m *= terms.v2
        m[net.fit_gen] += np.abs(z[self.nx_free:])
        m += np.abs(self.draw)
        return 8.0 * EPS * float(np.abs(F) @ m)

    def jacobian(self, terms):
        """J = [dP/dx_free | -gen_sel] at the point of terms, the derivative
        values scattered straight into the C-contiguous J buffer."""
        net = self.net
        self.J.ravel()[net.fit_index] = outflow_derivatives(net, terms)[net.fit_pick]
        return self.J


@dataclass(frozen=True, eq=False)
class FitResult:
    x: np.ndarray
    fun: np.ndarray
    nfev: int
    status: str     # "balanced", "stationary" or "cap"
    terms: object   # what prob.residual kept at x: the outflow terms, for _Problem
    njev: int       # derivative passes


def _solve(M, b):
    """M^-1 b, by least squares when M is singular to working precision."""
    try:
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(M, b, rcond=None)[0]


def least_squares(prob: _Problem, z0) -> FitResult:
    """Projected Levenberg-Marquardt fit of 0.5 |F|^2 over [prob.lower, prob.upper].

    A coordinate held at a bound by a gradient pointing out of the box is
    fixed; the rest take the damped Gauss-Newton step, the solution of
    M s = -g with M = Jf'Jf + lam * diag(Jf'Jf), clipped back into the box.
    When the clip cuts the step so far that the clipped step h no longer
    decreases the Gauss-Newton model (g'h + 0.5 |Jh|^2 >= 0), the free
    coordinates that left the box are held at the bounds they crossed and
    the same damped system is re-solved for the rest (projected Newton,
    Bertsekas 1982; projected Levenberg-Marquardt, Kanzow, Yamashita and
    Fukushima 2004); only that point, clipped, is evaluated.  lam grows
    fourfold on a rejected step and shrinks threefold on an accepted one.
    Every point costs one ``prob.residual``; ``prob.jacobian`` runs only at
    an accepted point (or the start) where the fit goes on, so a rejected
    trial and the end point form no derivatives.  The result carries the
    residual, and what ``prob.residual`` kept, at its end point.  Ends
    "balanced" at max|F| <= TOL_FEAS, "stationary" when the projected
    gradient, the relative decrease or the largest lam leaves nothing to
    gain, or at the first trial whose actual and predicted reductions of f
    both lie within tau, and "cap" after FIT_MAX_ITERS steps.  tau is
    ``prob.rounding`` at the current point, at least FIT_FTOL f when
    ``prob.screened``; it and the predicted reduction are formed only once
    the actual reduction is within FIT_FTOL f, so a fit that gains more on
    every trial, as a balancing fit does, forms neither.  A trial that lowers
    f is taken before the fit ends.
    """
    lower, upper = prob.lower, prob.upper
    z = z0.clip(lower, upper)
    F, terms = prob.residual(z)
    nfev, njev = 1, 0
    f = 0.5 * float(F @ F)
    # max|F| <= TOL_FEAS bounds f by 0.5 n TOL_FEAS^2, and f = 0.5 F'F is
    # above that by at most the rounding of F'F, within a factor 1 + n eps/2
    balanced = 0.5 * F.size * TOL_FEAS * TOL_FEAS * (1.0 + 4.0 * F.size * EPS)
    lam = 1e-3
    for _ in range(FIT_MAX_ITERS):
        if f <= balanced and float(np.abs(F).max()) <= TOL_FEAS:
            return FitResult(z, F, nfev, "balanced", terms, njev)
        J = prob.jacobian(terms)
        njev += 1
        g = J.T @ F
        # only a coordinate on a bound can be held there; with none on the
        # box every one is free
        every = not (np.count_nonzero(z <= lower) or np.count_nonzero(z >= upper))
        if not every:
            free = ~(((z <= lower) & (g > 0.0)) | ((z >= upper) & (g < 0.0)))
            every = bool(free.all())
        rhs = -g if every else -g[free]
        if float(np.abs(rhs).max(initial=0.0)) <= 1e-12 * max(1.0, f):
            return FitResult(z, F, nfev, "stationary", terms, njev)
        Jf = J if every else J[:, free]
        H = Jf.T @ Jf
        diag_H = H.diagonal()
        d = np.maximum(diag_H, 1e-12 * max(float(diag_H.max()), 1e-300))
        tau = None  # f's rounding error here, formed when a trial first needs it
        while True:
            # H + lam diag(d): the off-diagonals H + 0.0, the diagonal H_ii + lam d_i
            M = H + 0.0
            np.add(diag_H, lam * d, out=M.ravel()[:: M.shape[0] + 1])
            if every:
                step = _solve(M, rhs)
            else:
                step = np.zeros(z.size)
                step[free] = _solve(M, rhs)
            z_step = z + step
            z_try = z_step.clip(lower, upper)
            out = z_try != z_step
            if np.count_nonzero(out):
                h = z_try - z
                Jh = J @ h
                if float(g @ h) + 0.5 * float(Jh @ Jh) >= 0.0:
                    # the clip spoiled the step: hold the leaving coordinates
                    # at their bounds and re-solve the damped system for the
                    # other free ones
                    if every:
                        free = np.ones(z.size, dtype=bool)
                    keep = free & ~out
                    k, o = keep[free], out[free]
                    s = _solve(M[np.ix_(k, k)], rhs[k] - M[np.ix_(k, o)] @ h[out])
                    z_try[keep] = (z[keep] + s).clip(lower[keep], upper[keep])
            F_try, terms_try = prob.residual(z_try)
            nfev += 1
            f_try = 0.5 * float(F_try @ F_try)
            decrease = f - f_try
            # noise: the actual and the predicted reduction of the step taken
            # both lie within tau; neither is formed before the actual one is
            # down to FIT_FTOL f
            noise = False
            if abs(decrease) <= FIT_FTOL * f:
                if tau is None:
                    tau = prob.rounding(F, terms, z)
                    if prob.screened:
                        tau = max(tau, FIT_FTOL * f)
                h = z_try - z
                Jh = J @ h
                noise = abs(decrease) <= tau and abs(float(g @ h) + 0.5 * float(Jh @ Jh)) <= tau
            if decrease > 0.0:
                break
            if noise:
                return FitResult(z, F, nfev, "stationary", terms, njev)
            lam *= 4.0
            if lam > FIT_LAMBDA_MAX:
                return FitResult(z, F, nfev, "stationary", terms, njev)
        z, F, terms, f = z_try, F_try, terms_try, f_try
        lam /= 3.0
        if noise or decrease <= 1e-14 * (f + decrease):
            return FitResult(z, F, nfev, "stationary", terms, njev)
    status = "balanced" if float(np.abs(F).max()) <= TOL_FEAS else "cap"
    return FitResult(z, F, nfev, status, terms, njev)


def solve_ao1(case: GridCase, y_fixed: SwitchVector, warm=None) -> Ao1Result:
    """One least-squares fit at switches y_fixed from warm = (state, input) or the
    flat point; the module docstring says how its end sets the status.  E is
    read from the outflow that the fit's last residual pass formed at its end
    point, and that outflow is returned too."""
    net = network(case)
    check_sizes(net, "solve_ao1", y=y_fixed)
    prob = _Problem(net, y_fixed)
    if warm is not None:
        state0, input0 = warm
        check_sizes(net, "solve_ao1 warm start", state=state0, input=input0)
        z0 = np.concatenate([state0.as_vector()[prob.free], input0.as_vector()])
    else:
        z0 = net.fit_start

    fit = least_squares(prob, z0)
    feas = float(np.abs(fit.fun).max())
    if feas <= TOL_FEAS:
        status, certificate = "converged", ""
    elif prob.screened:
        status, certificate = "infeasible", "screen"
    elif fit.status == "stationary":
        status, certificate = "infeasible", "restoration"
    else:
        # a capped fit is no proof
        status, certificate = "max-iterations", ""
    state, u = _split(net, fit.x)
    P = fit.terms.P
    E = objective_from_outflow(net, P, u, y_fixed)
    return Ao1Result(state, u, -y_fixed.y * net.rank, feas, E, P, status, fit.nfev - 1, certificate)
