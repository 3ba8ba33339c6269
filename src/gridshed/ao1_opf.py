"""Continuous OPF stage: maximize E over (x, u) at fixed switch values.

Power balance P(x) = S(u, y) is handled as an equality system; voltage,
angle, and injection limits as box bounds with a log barrier. The slack
bus entries of x are eliminated from the decision vector. The method is a
primal-dual interior point with Gauss-Newton curvature on the balance
residuals.

The stall rule depends on ``active_capacity_screen``, which is evaluated
once, before the first Newton step. On a screened set no point balances, and
the iterate serves AO2 only as a linearisation point. So the first accepted
step whose theta = |F|_1 falls by less than 1% is the stall. On any other set,
slow progress and infeasibility look the same early on. There the stall
needs 30 iterations and a fall of under 1% over the last 15 accepted steps.

When the Newton iteration stalls, infeasibility is decided one of two ways.
If ``active_capacity_screen`` fires (every branch conductance is
non-negative, so network losses are too, and the switched-in active demand
exceeds total active capacity by more than the balance tolerance summed over
the buses), no point can balance and the stall point is returned as
"infeasible" at once, with certificate "screen". Otherwise ``least_squares``
fits the balance residuals over the bounds from the best point seen: a
projected Levenberg-Marquardt method (More 1978) on 0.5 |F|^2. A fit that
ends stationary with max|F| above TOL_FEAS is the "restoration" certificate
of an "infeasible" verdict; one that runs out of iterations proves nothing
and is reported as "max-iterations". The fit judges infeasibility caused by
reactive or voltage limits or by losses, and the module needs nothing
beyond numpy.

E is affine in the balance residuals, so every feasible point is optimal
and the equality duals at an interior solution are -y_k r_k on the active
demand rows. The solver still earns its keep: it must find a balanced
point inside the bounds, or certify there is none.

A Newton iteration does only the work it uses. One ``jacobians`` pass gives
the residual, the balance Jacobian J = [dP/dx on the free state columns |
-gen_sel] and the gradient dE on the z columns; the stacked constraint
Jacobian is never built. Evaluations copy v, theta and the injections out of
z into one State and one InputVector per solve, and the result's own pair is
built once, at return. The Newton matrix is refilled in one buffer per
solve. Stationarity and complementarity are computed in the loop only once
max|F| passes TOL_FEAS, since there they feed only the convergence test;
every exit that reports them recomputes them. None of this moves a float:
J stays C-contiguous and keeps the -0.0 entries of -gen_sel, so every
product rounds as it did when J was sliced from the stacked Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid_model import GridCase
from .power_equations import (InputVector, Network, State, SwitchVector, demand_draw, jacobians,
                              network, objective_E, outflow)

TOL_FEAS = 1e-8
TOL_KKT = 1e-6
MAX_ITERS = 200
FIT_MAX_ITERS = 200
FIT_LAMBDA_MAX = 1e16


@dataclass(frozen=True, eq=False)
class Ao1Result:
    state: State
    input: InputVector
    duals: np.ndarray
    kkt_residual: float
    objective: float
    status: str
    iterations: int = 0
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


class _Problem:
    """Fixed-y evaluation helpers over the reduced vector z = [x_free, u].

    An evaluation copies v and theta (the derivative pass also the
    injections) out of z into one State and one InputVector that the problem
    owns, whose slack entries stay put, so the loop builds no objects;
    ``split`` makes the caller's own pair.
    """

    def __init__(self, net: Network, y: SwitchVector):
        self.net = net
        self.y = y
        nx = 2 * net.n_bus
        self.free = np.array([i for i in range(nx) if i not in (2 * net.slack, 2 * net.slack + 1)])
        self.lower = np.concatenate([net.x_lower[self.free], net.u_lower])
        self.upper = np.concatenate([net.x_upper[self.free], net.u_upper])
        self.n = self.lower.size
        self.nx_free = self.free.size
        # columns of z within the (x, u, y) derivative layout
        self.cols = np.concatenate([self.free, nx + np.arange(2 * net.n_gen)])
        self.draw = demand_draw(net, y)
        # the u columns of the balance Jacobian: -d(generation)/du, -0.0 included
        self.neg_gen_sel = -net.gen_sel
        self.free_bus = self.free[0::2] // 2
        v = np.empty(net.n_bus)
        theta = np.empty(net.n_bus)
        v[net.slack] = net.slack_v
        theta[net.slack] = 0.0
        self.point = State(v=v, theta=theta)
        self.inputs = InputVector(pg=np.empty(net.n_gen), qg=np.empty(net.n_gen))

    def split(self, z):
        net = self.net
        x = np.empty(2 * net.n_bus)
        x[2 * net.slack] = net.slack_v
        x[2 * net.slack + 1] = 0.0
        x[self.free] = z[: self.nx_free]
        return State.from_vector(x), InputVector.from_vector(z[self.nx_free:])

    def _load(self, z):
        """Copy v and theta out of z into self.point; returns u, a view of z."""
        nxf = self.nx_free
        self.point.v[self.free_bus] = z[0:nxf:2]
        self.point.theta[self.free_bus] = z[1:nxf:2]
        return z[nxf:]

    def residual(self, z):
        """Balance residual P - S, evaluated as (P - generation) + demand draw."""
        u = self._load(z)
        return outflow(self.net, self.point) - self.net.gen_sel @ u + self.draw

    def residual_jacobian(self, z):
        """(F, J, grad E) at z; F is bitwise ``residual(z)``, formed from the
        outflow that the derivative pass already evaluated."""
        u = self._load(z)
        self.inputs.pg[:] = u[0::2]
        self.inputs.qg[:] = u[1::2]
        P, dP_dx, dE = jacobians(self.net, self.point, self.inputs, self.y)
        # J = [dP/dx_free | -gen_sel]; take() and concatenate keep it
        # C-contiguous, while a fancy-indexed column slice comes out
        # Fortran-ordered and changes the BLAS rounding downstream
        J = np.concatenate([dP_dx.take(self.free, axis=1), self.neg_gen_sel], axis=1)
        F = P - self.net.gen_sel @ u + self.draw
        return F, J, dE[self.cols]


@dataclass(frozen=True, eq=False)
class FitResult:
    x: np.ndarray
    fun: np.ndarray
    nfev: int
    status: str     # "balanced", "stationary" or "cap"


def least_squares(prob: _Problem, z0) -> FitResult:
    """Projected Levenberg-Marquardt fit of 0.5 |F|^2 over [prob.lower, prob.upper].

    A coordinate held at a bound by a gradient pointing out of the box is
    fixed; the rest take the damped Gauss-Newton step with damping
    lam * diag(Jf'Jf), clipped back into the box.  lam grows fourfold on a
    rejected step and shrinks threefold on an accepted one.  Each point costs
    one ``residual_jacobian`` evaluation.  Ends "balanced" at max|F| <=
    TOL_FEAS, "stationary" when the projected gradient, the relative
    decrease or the largest lam leaves nothing to gain, and "cap" after
    FIT_MAX_ITERS steps.
    """
    lower, upper = prob.lower, prob.upper
    z = np.clip(z0, lower, upper)
    F, J, _ = prob.residual_jacobian(z)
    nfev = 1
    f = 0.5 * float(F @ F)
    lam = 1e-3
    for _ in range(FIT_MAX_ITERS):
        if float(np.abs(F).max()) <= TOL_FEAS:
            return FitResult(z, F, nfev, "balanced")
        g = J.T @ F
        free = ~(((z <= lower) & (g > 0.0)) | ((z >= upper) & (g < 0.0)))
        if float(np.abs(g[free]).max(initial=0.0)) <= 1e-12 * max(1.0, f):
            return FitResult(z, F, nfev, "stationary")
        Jf = J[:, free]
        H = Jf.T @ Jf
        d = np.diag(H).copy()
        np.maximum(d, 1e-12 * max(float(d.max()), 1e-300), out=d)
        rhs = -g[free]
        while True:
            M = H + lam * np.diag(d)
            step = np.zeros_like(z)
            try:
                step[free] = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                step[free] = np.linalg.lstsq(M, rhs, rcond=None)[0]
            z_try = np.clip(z + step, lower, upper)
            F_try, J_try, _ = prob.residual_jacobian(z_try)
            nfev += 1
            f_try = 0.5 * float(F_try @ F_try)
            if f_try < f:
                break
            lam *= 4.0
            if lam > FIT_LAMBDA_MAX:
                return FitResult(z, F, nfev, "stationary")
        decrease = f - f_try
        z, F, J, f = z_try, F_try, J_try, f_try
        lam /= 3.0
        if decrease <= 1e-14 * (f + decrease):
            return FitResult(z, F, nfev, "stationary")
    return FitResult(z, F, nfev, "balanced" if float(np.abs(F).max()) <= TOL_FEAS else "cap")


def _estimate_duals(prob, z, F, J, grad_E, atol=1e-7):
    """Least-squares multipliers with bound duals only on the active set."""
    grad_f = -grad_E
    act_lo = np.where(z - prob.lower <= atol * np.maximum(1.0, np.abs(prob.lower)))[0]
    act_hi = np.where(prob.upper - z <= atol * np.maximum(1.0, np.abs(prob.upper)))[0]
    cols = [J.T]
    n = prob.n
    if act_lo.size:
        E_lo = np.zeros((n, act_lo.size))
        E_lo[act_lo, np.arange(act_lo.size)] = -1.0
        cols.append(E_lo)
    if act_hi.size:
        E_hi = np.zeros((n, act_hi.size))
        E_hi[act_hi, np.arange(act_hi.size)] = 1.0
        cols.append(E_hi)
    M = np.hstack(cols)
    sol = np.linalg.lstsq(M, -grad_f, rcond=None)[0]
    m = F.size
    nu = sol[:m]
    zl = np.zeros(n)
    zu = np.zeros(n)
    zl[act_lo] = np.maximum(sol[m:m + act_lo.size], 0.0)
    zu[act_hi] = np.maximum(sol[m + act_lo.size:], 0.0)
    return nu, zl, zu


def _pack_duals(prob, nu, zl, zu):
    """Spread internal multipliers over the full constraint stack."""
    net = prob.net
    nx, nu_dim = 2 * net.n_bus, 2 * net.n_gen
    zl_x = np.zeros(nx)
    zu_x = np.zeros(nx)
    zl_x[prob.free] = zl[: prob.nx_free]
    zu_x[prob.free] = zu[: prob.nx_free]
    return np.concatenate([
        np.maximum(nu, 0.0),
        np.maximum(-nu, 0.0),
        zl_x,
        zu_x,
        zl[prob.nx_free:],
        zu[prob.nx_free:],
    ])


def _optimality(prob, grad_E, J, nu, zl, zu, z):
    """Max-norm stationarity and complementarity residuals."""
    r_stat = -grad_E + J.T @ nu - zl + zu
    comp = max(
        float(np.max(np.abs(zl * (z - prob.lower)), initial=0.0)),
        float(np.max(np.abs(zu * (prob.upper - z)), initial=0.0)),
    )
    return float(np.max(np.abs(r_stat))), comp


def _kkt_max(prob, F, grad_E, J, nu, zl, zu, z):
    return (float(np.max(np.abs(F))), *_optimality(prob, grad_E, J, nu, zl, zu, z))


def _converged(feas, stat, comp) -> bool:
    return feas <= TOL_FEAS and stat <= TOL_KKT and comp <= TOL_KKT


def _result(prob, z, nu, zl, zu, kkt_residual, status, iterations, certificate="") -> Ao1Result:
    state, u = prob.split(z)
    E = objective_E(prob.net, state, u, prob.y)
    return Ao1Result(state, u, _pack_duals(prob, nu, zl, zu), kkt_residual, E, status, iterations,
                     certificate)


def solve_ao1(case: GridCase, y_fixed: SwitchVector, warm=None) -> Ao1Result:
    prob = _Problem(network(case), y_fixed)
    net = prob.net
    n, m = prob.n, 2 * net.n_bus
    span = prob.upper - prob.lower

    if warm is not None:
        state0, input0 = warm
        x0 = state0.as_vector()
        z = np.concatenate([x0[prob.free], input0.as_vector()])
    else:
        x0 = np.empty(2 * net.n_bus)
        x0[0::2] = net.slack_v
        x0[1::2] = 0.0
        z = np.concatenate([x0[prob.free], 0.5 * (net.u_lower + net.u_upper)])
    z = np.clip(z, prob.lower, prob.upper)

    # a warm point may already satisfy the KKT system; check before iterating
    F, J, grad_E = prob.residual_jacobian(z)
    nu, zl, zu = _estimate_duals(prob, z, F, J, grad_E)
    feas, stat, comp = _kkt_max(prob, F, grad_E, J, nu, zl, zu, z)
    if _converged(feas, stat, comp):
        return _result(prob, z, nu, zl, zu, max(feas, stat, comp), "converged", 0)

    delta = np.minimum(1e-3 * np.maximum(1.0, span), 0.25 * span)
    z = np.clip(z, prob.lower + delta, prob.upper - delta)
    mu = 0.1
    zl = mu / (z - prob.lower)
    zu = mu / (prob.upper - z)
    F, J, grad_E = prob.residual_jacobian(z)

    theta = float(np.abs(F).sum())
    best = (theta, z.copy())
    history = [theta]
    # a screened set has no balanced point, so the first flat step ends the
    # search; elsewhere slow progress and infeasibility look alike at first
    screened = active_capacity_screen(net, y_fixed)
    floor, window = (0, 1) if screened else (30, 15)
    status = "max-iterations"
    certificate = ""
    iters_done = MAX_ITERS

    # the Newton matrix is rebuilt in place; its lower-right block stays zero
    kkt = np.zeros((n + m, n + m))
    reg = 1e-8 * np.eye(n)
    diag = np.arange(n)
    # the fraction-to-boundary rule still lets gaps shrink geometrically;
    # accepted points keep this floor so the barrier terms stay finite
    gap = 1e-12 * np.maximum(1.0, span)
    z_min, z_max = prob.lower + gap, prob.upper - gap

    def barrier(theta_v, zv):
        """Line-search merit at zv, where theta_v = |F(zv)|_1."""
        return (theta_v
                - mu * float(np.log(zv - prob.lower).sum())
                - mu * float(np.log(prob.upper - zv).sum()))

    for it in range(MAX_ITERS):
        grad_f = -grad_E
        # stationarity and complementarity only matter once the point
        # balances; every exit that reports them recomputes them
        feas = float(np.abs(F).max())
        if feas <= TOL_FEAS:
            stat, comp = _optimality(prob, grad_E, J, nu, zl, zu, z)
            if _converged(feas, stat, comp):
                status = "converged"
                iters_done = it
                break

        # stall: hand the point to the infeasibility certificate below
        stalled = False
        if it >= floor and len(history) > window:
            if history[-1] > 0.99 * history[-1 - window] and history[-1] > TOL_FEAS:
                stalled = True

        if not stalled:
            lo, hi = z - prob.lower, prob.upper - z
            sig = zl / lo + zu / hi
            np.add(J.T @ J, reg, out=kkt[:n, :n])
            kkt[diag, diag] += sig
            kkt[:n, n:] = J.T
            kkt[n:, :n] = J
            rhs = np.concatenate([
                -(grad_f + J.T @ nu) + mu / lo - mu / hi,
                -F,
            ])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            dz, dnu = sol[:n], sol[n:]
            dzl = (mu - lo * zl) / lo - zl * dz / lo
            dzu = (mu - hi * zu) / hi + zu * dz / hi

            tau = 0.995
            alpha = 1.0
            neg = dz < 0
            if neg.any():
                alpha = min(alpha, float((tau * lo[neg] / -dz[neg]).min()))
            pos = dz > 0
            if pos.any():
                alpha = min(alpha, float((tau * hi[pos] / dz[pos]).min()))
            alpha_d = 1.0
            for dual, step in ((zl, dzl), (zu, dzu)):
                neg = step < 0
                if neg.any():
                    alpha_d = min(alpha_d, float((tau * dual[neg] / -step[neg]).min()))

            b_old = barrier(theta, z)
            accepted = False
            a = alpha
            while a > 1e-12:
                z_try = z + a * dz
                F_try = prob.residual(z_try)
                theta_try = float(np.abs(F_try).sum())
                if theta_try <= (1.0 - 1e-4 * a) * theta + 1e-16 or barrier(theta_try, z_try) <= b_old - 1e-4 * a:
                    accepted = True
                    break
                a *= 0.5
            if accepted:
                z = np.clip(z + a * dz, z_min, z_max)
                nu = nu + a * dnu
                zl = np.maximum(zl + alpha_d * dzl, 1e-16)
                zu = np.maximum(zu + alpha_d * dzu, 1e-16)
                F, J, grad_E = prob.residual_jacobian(z)
                theta = float(np.abs(F).sum())
                history.append(theta)
                if theta < best[0]:
                    best = (theta, z.copy())
                comp_total = float(zl @ (z - prob.lower) + zu @ (prob.upper - z))
                mu = min(mu, max(0.1 * comp_total / (2 * n), 1e-16))
                continue
            stalled = True

        # the screen proves infeasibility outright, so the stall point stands;
        # otherwise restoration: bounded least squares on the balance
        # residuals, whose stationary end above TOL_FEAS is the certificate
        if screened:
            z, certificate = best[1], "screen"
        else:
            fit = least_squares(prob, best[1])
            z, certificate = fit.x, ("restoration" if fit.status == "stationary" else "")
        F, J, grad_E = prob.residual_jacobian(z)
        nu, zl, zu = _estimate_duals(prob, z, F, J, grad_E)
        feas, stat, comp = _kkt_max(prob, F, grad_E, J, nu, zl, zu, z)
        if _converged(feas, stat, comp):
            status = "converged"
        else:
            # a capped fit is no proof: it reports "max-iterations"
            status = "infeasible" if feas > TOL_FEAS and certificate else "max-iterations"
        iters_done = it + 1
        break
    else:
        # cap reached without a restoration pass: classify by best residual
        nu, zl, zu = _estimate_duals(prob, z, F, J, grad_E)
        feas, stat, comp = _kkt_max(prob, F, grad_E, J, nu, zl, zu, z)
        if _converged(feas, stat, comp):
            status = "converged"

    return _result(prob, z, nu, zl, zu, max(feas, stat, comp), status, iters_done,
                   certificate if status == "infeasible" else "")
