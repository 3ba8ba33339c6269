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
end point's residual pass.

The fit is one loop, ``_fit``, written as a generator that yields each
point it needs evaluated and each point it needs linearized.
``least_squares`` drives it for one problem, point by point.
``solve_ao1_stack`` fits several switch sets from the flat start in
lockstep, as ``enumerate_oracle`` does: ``_lockstep`` drives one ``_fit``
per set over a ``_Stack``, which lays the points of the sets still fitting
end to end on ``stacked_network``.  Each round then takes one trig pass and
one F'F for every set, and one derivative pass, J'F and free mask for the
sets that go on.  The damped solves stay per set, on the same operands, so
each set gets the bits of its fit alone, and the verdict of ``solve_ao1``.
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
    OutflowTerms,
    outflow_derivatives,
    outflow_terms,
    stacked_network,
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


def _rounding(net: Network, F, terms, z, draw) -> float:
    """An estimate of the rounding error of 0.5 |F|^2 at z, where the
    residual pass gave F and terms: 8 eps sum_i |F_i| m_i, with m_i the
    magnitudes summed into F_i, v_k (sum over edges |a v_l| + |dv_k|) plus the
    generation and the demand draw."""
    m2 = terms.a.size
    m = np.bincount(net.edge_bins, weights=np.abs(terms.a * terms.vlk[:m2]), minlength=2 * net.n_bus)
    m += np.abs(terms.dv)
    m *= terms.v2
    m[net.fit_gen] += np.abs(z[net.fit_free.size:])
    m += np.abs(draw)
    return 8.0 * EPS * float(np.abs(F) @ m)


def _split(net: Network, z):
    """The caller's own (State, InputVector) pair at the fit vector z."""
    x = np.empty(2 * net.n_bus)
    x[2 * net.slack] = net.slack_v
    x[2 * net.slack + 1] = 0.0
    nx_free = net.fit_free.size
    x[net.fit_free] = z[:nx_free]
    return State.from_vector(x), InputVector.from_vector(z[nx_free:])


def _fit_jacobian(net: Network) -> np.ndarray:
    """J with its dP/dx_free columns zero and its u columns -gen_sel, the
    -d(generation)/du, -0.0 entries included; built per fit, since a dense
    copy kept on every cached network costs more memory than it saves."""
    nx_free = net.fit_free.size
    J = np.zeros((2 * net.n_bus, nx_free + 2 * net.n_gen))
    np.negative(net.gen_sel, out=J[:, nx_free:])
    return J


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
    at y.  ``split`` makes the caller's own (State, InputVector) pair.
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
        self.J = _fit_jacobian(net)
        self.x = np.empty(2 * net.n_bus)
        self.x[2 * net.slack] = net.slack_v
        self.x[2 * net.slack + 1] = 0.0
        self.point = State(v=self.x[0::2], theta=self.x[1::2])

    def split(self, z):
        return _split(self.net, z)

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
        return _rounding(self.net, F, terms, z, self.draw)

    def jacobian(self, terms):
        """J = [dP/dx_free | -gen_sel] at the point of terms, the derivative
        values scattered straight into the C-contiguous J buffer."""
        net = self.net
        self.J.ravel()[net.fit_index] = outflow_derivatives(net, terms)[net.fit_pick]
        return self.J


class _One:
    """What ``_fit`` reads of a batch, for one problem: its box, its screen,
    its terms as they are, and ``prob.rounding``; so a problem that is not a
    ``_Problem`` fits too."""

    def __init__(self, prob):
        self.prob = prob
        self.lower, self.upper = prob.lower, prob.upper
        self.screened = (prob.screened,)

    def member(self, terms):
        return terms

    def rounding(self, i, F, terms, z):
        return self.prob.rounding(F, terms, z)


class _Stack:
    """K switch sets on one network as a lockstep batch.  An evaluation lays
    the trial points of the A members still fitting end to end and runs one
    ``outflow_terms`` pass over ``stacked_network(net, A)``; a derivative
    pass runs one ``outflow_derivatives`` over the members that go on, into
    a fresh (R, 2N, nz) stack of fit Jacobians.  Each member's rows have the
    bits that ``_Problem`` forms for its set alone."""

    def __init__(self, net: Network, ys):
        k = len(ys)
        self.net = net
        self.lower, self.upper = net.fit_lower, net.fit_upper
        self.draw = np.array([demand_draw(net, y) for y in ys])
        self.screened = tuple(active_capacity_screen(net, y) for y in ys)
        self.J = _fit_jacobian(net)
        # k points laid end to end, each with the slack's (v, theta); the
        # generation rows without a generator stay +0.0
        self.x = np.empty(2 * net.n_bus * k)
        self.x[2 * net.slack::2 * net.n_bus] = net.slack_v
        self.x[2 * net.slack + 1::2 * net.n_bus] = 0.0
        self.gen = np.zeros(2 * net.n_bus * k)

    def evaluate(self, zs, members):
        net = self.net
        whole = stacked_network(net, len(zs))
        z = np.array(zs)
        nx_free = net.fit_free.size
        x = self.x[:2 * whole.n_bus]
        x.put(whole.fit_free, z[:, :nx_free])
        terms = outflow_terms(whole, State(v=x[0::2], theta=x[1::2]))
        gen = self.gen[:2 * whole.n_bus]
        gen.put(whole.fit_gen, z[:, nx_free:])
        F = terms.P - gen
        F += self.draw[members].ravel()
        return F.reshape(len(zs), -1), terms

    def _rows(self, terms, rows):
        """The terms of the given rows of a stack, laid end to end as
        ``stacked_network(net, len(rows))`` lays them out; for one row given
        as an int, the terms of its point alone, the per-bus arrays views."""
        k = terms.P.size // (2 * self.net.n_bus)
        m = self.net.edge_from.size

        def edges(part):
            return part.reshape(-1, k, m)[:, rows].ravel()

        def buses(part):
            return part.reshape(k, -1)[rows].ravel()

        return OutflowTerms(buses(terms.P), edges(terms.a), edges(terms.vlk), buses(terms.v2),
                            buses(terms.dv), buses(terms.av))

    def derive(self, terms, rows):
        r = len(rows)
        if r != terms.P.size // (2 * self.net.n_bus):
            terms = self._rows(terms, rows)
        whole = stacked_network(self.net, r)
        J = np.repeat(self.J[None], r, axis=0)
        J.ravel()[whole.fit_index] = outflow_derivatives(whole, terms)[whole.fit_pick]
        return J

    def member(self, at):
        terms, row = at
        return self._rows(terms, row)

    def rounding(self, i, F, terms, z):
        return _rounding(self.net, F, terms, z, self.draw[i])


@dataclass(frozen=True, eq=False)
class FitResult:
    x: np.ndarray
    fun: np.ndarray
    nfev: int
    status: str     # "balanced", "stationary" or "cap"
    terms: object   # what the residual pass kept at x: the outflow terms, for _Problem
    njev: int       # derivative passes


def _solve(M, b):
    """M^-1 b, by least squares when M is singular to working precision."""
    try:
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(M, b, rcond=None)[0]


def _half_squares(F) -> list:
    """0.5 F_j'F_j for each row F_j of F, by one stacked matmul: bit for bit
    the 1-d F_j @ F_j."""
    return (0.5 * np.matmul(F[:, None, :], F[:, :, None]).ravel()).tolist()


def _linearization(z, g, lower, upper):
    """(free, every, rhs, slope) at a point z where f has the gradient g, or
    lists of them over a stack of points: the free mask, the coordinates not
    held at a bound by a gradient pointing out of the box; whether every
    coordinate is free; rhs = -g on the free coordinates; and max|rhs|, 0.0
    when no coordinate is free.  Over a stack, the mask and max|rhs| are
    formed for every point at once, with the bits of one point's."""
    free = ~(((z <= lower) & (g > 0.0)) | ((z >= upper) & (g < 0.0)))
    if z.ndim == 1:
        every = bool(free.all())
        rhs = -g if every else -g[free]
        return free, every, rhs, float(np.abs(rhs).max(initial=0.0))
    every = free.all(axis=1).tolist()
    rhs = [-gj if e else -gj[fj] for gj, fj, e in zip(g, free, every)]
    return list(free), every, rhs, np.where(free, np.abs(g), 0.0).max(axis=1).tolist()


def _fit(batch, i, z, F, f, at):
    """Member i's fit from its evaluated start z, as a generator; its driver
    is ``least_squares`` for one problem, ``_lockstep`` for a batch, and
    ``least_squares`` says what the fit does.

    At the top of each iteration the fit yields None, and the driver sends
    None when max|F| <= TOL_FEAS at z, else (J, g, free, every, rhs, slope)
    there: the fit Jacobian, g = J'F and ``_linearization(z, g)``.  For each
    trial point it yields, the driver sends (F, f, at) there, where
    ``batch.member(at)`` gives the terms that the residual pass kept.  It
    returns its FitResult."""
    lower, upper = batch.lower, batch.upper
    nfev, njev = 1, 0
    lam = 1e-3
    for _ in range(FIT_MAX_ITERS):
        linearized = yield None
        if linearized is None:
            return FitResult(z, F, nfev, "balanced", batch.member(at), njev)
        J, g, free, every, rhs, slope = linearized
        njev += 1
        if slope <= 1e-12 * max(1.0, f):
            return FitResult(z, F, nfev, "stationary", batch.member(at), njev)
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
            if out.any():
                h = z_try - z
                Jh = J @ h
                if float(g @ h) + 0.5 * float(Jh @ Jh) >= 0.0:
                    # the clip spoiled the step: hold the leaving coordinates
                    # at their bounds and re-solve the damped system for the
                    # other free ones
                    keep = free & ~out
                    k, o = keep[free], out[free]
                    s = _solve(M[np.ix_(k, k)], rhs[k] - M[np.ix_(k, o)] @ h[out])
                    z_try[keep] = (z[keep] + s).clip(lower[keep], upper[keep])
            F_try, f_try, at_try = yield z_try
            nfev += 1
            decrease = f - f_try
            # noise: the actual and the predicted reduction of the step taken
            # both lie within tau; neither is formed before the actual one is
            # down to FIT_FTOL f
            noise = False
            if abs(decrease) <= FIT_FTOL * f:
                if tau is None:
                    tau = batch.rounding(i, F, batch.member(at), z)
                    if batch.screened[i]:
                        tau = max(tau, FIT_FTOL * f)
                h = z_try - z
                Jh = J @ h
                noise = abs(decrease) <= tau and abs(float(g @ h) + 0.5 * float(Jh @ Jh)) <= tau
            if decrease > 0.0:
                break
            if noise:
                return FitResult(z, F, nfev, "stationary", batch.member(at), njev)
            lam *= 4.0
            if lam > FIT_LAMBDA_MAX:
                return FitResult(z, F, nfev, "stationary", batch.member(at), njev)
        z, F, f, at = z_try, F_try, f_try, at_try
        lam /= 3.0
        if noise or decrease <= 1e-14 * (f + decrease):
            return FitResult(z, F, nfev, "stationary", batch.member(at), njev)
    status = "balanced" if float(np.abs(F).max()) <= TOL_FEAS else "cap"
    return FitResult(z, F, nfev, status, batch.member(at), njev)


def _lockstep(batch, z0s) -> list:
    """The fit of every member of batch, member j from z0s[j], in lockstep;
    one FitResult per member, each the bits of its fit alone.

    Each member's fit is a ``_fit`` generator.  A round evaluates the trial
    point of every member still fitting in one ``batch.evaluate`` call, F'F
    by one stacked matmul, and then linearizes the members that go on from
    the point just evaluated: the balance test over their stacked F, their
    derivatives in one ``batch.derive`` call, J'F by one stacked matmul and
    ``_linearization`` over the stack.  The stacked matmuls give each member
    the bits of its 2-d products.  The damped solves, the clip and its
    re-solve stay per member, on the operands that a fit alone forms.
    """
    lower, upper = batch.lower, batch.upper
    k = len(z0s)
    z = [z0.clip(lower, upper) for z0 in z0s]
    F, terms = batch.evaluate(z, list(range(k)))
    f = _half_squares(F)
    fitting = [_fit(batch, i, z[i], F[i], f[i], (terms, i)) for i in range(k)]
    fits = [None] * k
    replies = [None] * k
    row = list(range(k))    # each member's point: its row in the last evaluation
    asking = range(k)

    def send(i, reply):
        try:
            return fitting[i].send(reply)
        except StopIteration as stop:
            fits[i] = stop.value

    while True:
        derive, trials, members = [], [], []
        for i in asking:
            ask = send(i, replies[i])
            if ask is not None:
                trials.append(ask)
                members.append(i)
            elif fits[i] is None:
                derive.append(i)
        if derive:
            rows = [row[i] for i in derive]
            F_at = F if len(rows) == len(F) else F[rows]
            going = (np.abs(F_at).max(axis=1) > TOL_FEAS).tolist()
            if not all(going):
                for i in (i for i, on in zip(derive, going) if not on):
                    send(i, None)
                derive = [i for i, on in zip(derive, going) if on]
                rows = [row[i] for i in derive]
                F_at = F_at[going]
            if derive:
                J = batch.derive(terms, rows)
                G = np.matmul(J.transpose(0, 2, 1), F_at[:, :, None])[:, :, 0]
                lin = _linearization(np.array([z[i] for i in derive]), G, lower, upper)
                for i, J_i, g, *rest in zip(derive, J, G, *lin):
                    ask = send(i, (J_i, g, *rest))
                    if ask is not None:
                        trials.append(ask)
                        members.append(i)
        if not members:
            return fits
        F, terms = batch.evaluate(trials, members)
        f = _half_squares(F)
        for j, i in enumerate(members):
            replies[i] = (F[j], f[j], (terms, j))
            row[i] = j
            z[i] = trials[j]
        asking = members


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

    The fit is ``_fit``, the loop that ``_lockstep`` runs for every member
    of a batch, driven here for one member straight from prob: each point
    it asks for is one ``prob.residual`` call, and each derivative pass one
    ``prob.jacobian`` call, with no stacking.
    """
    z = z0.clip(prob.lower, prob.upper)
    F, terms = prob.residual(z)
    fit = _fit(_One(prob), 0, z, F, 0.5 * float(F @ F), terms)
    reply = None
    while True:
        try:
            ask = fit.send(reply)
        except StopIteration as stop:
            return stop.value
        if ask is not None:
            z = ask
            F, terms = prob.residual(z)
            reply = (F, 0.5 * float(F @ F), terms)
        elif float(np.abs(F).max()) <= TOL_FEAS:
            reply = None
        else:
            # the fit goes on from z, the point evaluated last
            J = prob.jacobian(terms)
            g = J.T @ F
            reply = (J, g, *_linearization(z, g, prob.lower, prob.upper))


def _result(net: Network, y: SwitchVector, screened: bool, fit: FitResult) -> Ao1Result:
    """The Ao1Result of a fit at switches y; the module docstring says how
    its end sets the status.  E is read from the outflow that the fit's last
    residual pass formed at its end point."""
    feas = float(np.abs(fit.fun).max())
    if feas <= TOL_FEAS:
        status, certificate = "converged", ""
    elif screened:
        status, certificate = "infeasible", "screen"
    elif fit.status == "stationary":
        status, certificate = "infeasible", "restoration"
    else:
        # a capped fit is no proof
        status, certificate = "max-iterations", ""
    state, u = _split(net, fit.x)
    E = objective_from_outflow(net, fit.terms.P, u, y)
    return Ao1Result(state, u, -y.y * net.rank, feas, E, status, fit.nfev - 1, certificate)


def solve_ao1(case: GridCase, y_fixed: SwitchVector, warm=None) -> Ao1Result:
    """One least-squares fit at switches y_fixed from warm = (state, input) or the
    flat point; the module docstring says how its end sets the status."""
    net = network(case)
    check_sizes(net, "solve_ao1", y=y_fixed)
    prob = _Problem(net, y_fixed)
    if warm is not None:
        state0, input0 = warm
        check_sizes(net, "solve_ao1 warm start", state=state0, input=input0)
        z0 = np.concatenate([state0.as_vector()[prob.free], input0.as_vector()])
    else:
        z0 = net.fit_start

    return _result(net, y_fixed, prob.screened, least_squares(prob, z0))


def solve_ao1_stack(case: GridCase, ys) -> list:
    """``solve_ao1(case, y)`` from the flat point for every y in ys, the bits
    of each alone, with the fits run in lockstep (``_lockstep`` over a
    ``_Stack``): one trig pass per round over every set still fitting."""
    net = network(case)
    for y in ys:
        check_sizes(net, "solve_ao1_stack", y=y)
    if not ys:
        return []
    stack = _Stack(net, ys)
    fits = _lockstep(stack, [net.fit_start] * len(ys))
    return [_result(net, y, screened, fit) for y, screened, fit in zip(ys, stack.screened, fits)]
