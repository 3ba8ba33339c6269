"""Derivative and conservation self-checks, as ``gridshed check`` runs them.

``self_check`` compares the analytic derivatives of power_equations, and the
Jacobian that the continuous stage fits with, against central differences at
seeded interior points, and tests that a lossless copy of the network
conserves active power exactly.  Each check is one ``CheckRow``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ao1_opf import _Problem
from .grid_model import GridCase
from .power_equations import (InputVector, State, SwitchVector, hessian_Q, jacobians, network, objective_E,
                              outflow)


@dataclass(frozen=True)
class CheckRow:
    name: str
    ok: bool
    detail: str


def _central(f, z, h=1e-6):
    cols = []
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        cols.append((np.asarray(f(zp)) - np.asarray(f(zm))) / (2 * h))
    return np.stack(cols, axis=-1)


def _rel_err(analytic, fd) -> float:
    scale = max(1.0, float(np.max(np.abs(analytic), initial=0.0)))
    return float(np.max(np.abs(analytic - fd), initial=0.0)) / scale


def _interior_point(net, rng):
    state = State(
        v=rng.uniform(0.96, 1.04, net.n_bus),
        theta=np.where(np.arange(net.n_bus) == net.slack, 0.0, rng.uniform(-0.25, 0.25, net.n_bus)),
    )
    span_l, span_u = net.u_lower, net.u_upper
    u = InputVector.from_vector(span_l + rng.uniform(0.1, 0.9, 2 * net.n_gen) * (span_u - span_l))
    y = SwitchVector(rng.uniform(0.05, 0.95, net.n_dem))
    return state, u, y


def self_check(case: GridCase, seed: int = 2025, points: int = 20, states: int = 100) -> list[CheckRow]:
    """Compare analytic derivatives with central differences, among them the
    Jacobian that the continuous stage fits with, and test that a lossless
    copy of the network conserves active power exactly."""
    net = network(case)
    rng = np.random.default_rng(seed)
    nx, nu = 2 * net.n_bus, 2 * net.n_gen
    worst = {"outflow-jacobian": 0.0, "objective-gradient": 0.0,
             "fit-jacobian": 0.0, "switch-curvature": 0.0}

    def split(z):
        return (State.from_vector(z[:nx]), InputVector.from_vector(z[nx:nx + nu]),
                SwitchVector(z[nx + nu:]))

    for _ in range(points):
        state, u, y = _interior_point(net, rng)
        _, dP_dx, dE = jacobians(net, state, u, y)
        fd_p = _central(lambda xv: outflow(net, State.from_vector(xv)), state.as_vector())
        worst["outflow-jacobian"] = max(worst["outflow-jacobian"], _rel_err(dP_dx, fd_p))
        z0 = np.concatenate([state.as_vector(), u.as_vector(), y.y])
        fd_e = _central(lambda z: objective_E(net, *split(z)), z0)
        worst["objective-gradient"] = max(worst["objective-gradient"], _rel_err(dE, fd_e))
        # the fit's J = [dP/dx_free | -gen_sel] at the same point, with the
        # slack's (v, theta) at the fit's fixed values
        prob = _Problem(net, y)
        z_fit = np.concatenate([state.as_vector()[net.fit_free], u.as_vector()])
        J = prob.jacobian(prob.residual(z_fit)[1])
        fd_j = _central(lambda z: prob.residual(z)[0], z_fit)
        worst["fit-jacobian"] = max(worst["fit-jacobian"], _rel_err(J, fd_j))
        # one multiplier per demand's active balance row, drawn at the length
        # of the constraint stack so that every later draw stays the same
        nu_act = rng.uniform(-1.0, 1.0, net.n_c_rows)[:net.n_dem]

        def grad_l0_y(yy):
            # demand k's active balance row of C = [P - S, ...] has the
            # y-derivative 2 y_k pd_k, in column k alone
            return jacobians(net, state, u, SwitchVector(yy))[2][nx + nu:] - nu_act * (2.0 * yy * net.pd)

        Qd = np.diag(hessian_Q(net, nu_act))
        worst["switch-curvature"] = max(worst["switch-curvature"], _rel_err(Qd, _central(grad_l0_y, y.y.copy())))

    checks = [
        CheckRow(name, err <= 1e-6, f"max relative error {err:.3e} over {points} points")
        for name, err in worst.items()
    ]

    # r and x are kept, so a branch with b = 0 has a lossless twin too
    net_t = network(replace(case, branches=tuple(replace(b, g=0.0) for b in case.branches)))
    worst_sum = 0.0
    for _ in range(states):
        state = State(v=rng.uniform(0.9, 1.1, net_t.n_bus), theta=rng.uniform(-0.6, 0.6, net_t.n_bus))
        worst_sum = max(worst_sum, abs(float(outflow(net_t, state)[0::2].sum())))
    checks.append(CheckRow(
        "lossless-active-sum", worst_sum <= 1e-10,
        f"max |sum| {worst_sum:.3e} over {states} states",
    ))
    return checks
