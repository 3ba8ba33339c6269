"""Sequential Boolean QP over the demand switches.

The continuous stage hands over an operating point plus its closed-form
balance multipliers (-y r on each demand's active row); this module builds
small quadratic subproblems in the switch step, drives them under a growing
complementarity penalty, and returns a binary switch vector once
phi(y) = sum y(1 - y) is inside tolerance, one QP solve per subproblem.
Every subproblem has the same rows: three aggregate capacity rows (served
active demand within the active dispatch less the network losses at the
continuous point, as DC loss factors charge them (Stott, Jardim & Alsac
2009); served reactive demand within the reactive capability range) plus
one cut per rejected switch set.

Switch sets that the continuous stage proved infeasible can be passed in as
cuts.  Each adds the canonical no-good row of Balas & Jeroslow (1972),
sum_{y*=1} (1 - y) + sum_{y*=0} y >= 1, over the live demands (those with
nonzero pd or qd): flipping a zero-load demand changes nothing physical, so
it must not meet the cut.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .grid_model import GridCase
from .power_equations import (
    InputVector,
    State,
    SwitchVector,
    check_sizes,
    constraints_C,  # not called here; bench/tracer.py wraps ao2_sbqp.constraints_C
    grad_phi,
    _delivery,
    hessian_Q,
    jacobians,  # not called here; bench/tracer.py wraps ao2_sbqp.jacobians
    network,
    outflow,
    phi,
)
from .qp_core import QpProblem, solve_qp

VARIANT_TAGS = ("mixed", "relaxed-one", "relaxed-two")
CURVATURE_FLOOR = 1e-6
DEGENERATE_DEN = 1e-12


class Ao2Error(RuntimeError):
    """The switching stage ended without a binary point; carries the partial
    trace.  kind is "penalty-cap" when the penalty cap came before
    complementarity, and "infeasible" when a subproblem's rows admit no
    point of the box, by its QP's Farkas certificate of margin
    qp_core.SLACK_TOL."""

    def __init__(self, message: str, trace: "SbqpTrace", y: np.ndarray, kind: str = "penalty-cap"):
        super().__init__(message)
        self.trace = trace
        self.y = y
        self.kind = kind


@dataclass(frozen=True)
class PenaltySchedule:
    """Homotopy controls: start at rho0, grow by beta, stop at |phi| <= eps."""

    rho0: float = 1.0
    beta: float = 10.0
    rho_max: float = 1e12
    eps: float = 1e-6

    def __post_init__(self):
        for name in ("rho0", "beta", "rho_max", "eps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not self.rho0 > 0.0:
            raise ValueError("rho0 must be positive")
        if not self.beta > 1.0:
            raise ValueError("beta must be greater than 1")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.rho_max < self.rho0:
            raise ValueError("rho_max must be at least rho0")


@dataclass(frozen=True)
class Ao2Variant:
    """Subproblem family for the switching stage.

    mixed        second-order model of the served-demand objective, curvature
                 2 y r pd from the continuous-stage multipliers, penalty
                 linearized at the incumbent
    relaxed-one  quadratic rank objective with the penalty kept exact
    relaxed-two  quadratic rank objective with the penalty linearized at the
                 incumbent

    single_shot applies to relaxed-one: take each subproblem solution as-is
    instead of blending it through the line search.
    """

    tag: str = "mixed"
    single_shot: bool = False

    def __post_init__(self):
        if self.tag not in VARIANT_TAGS:
            raise ValueError(f"unknown variant tag {self.tag!r}")
        if not isinstance(self.single_shot, bool):
            raise ValueError(f"single_shot must be a bool, got {self.single_shot!r}")
        if self.single_shot and self.tag != "relaxed-one":
            raise ValueError("single_shot applies to relaxed-one only")


@dataclass(frozen=True, eq=False)
class SbqpTraceRow:
    iteration: int
    y: np.ndarray
    phi: float
    rho: float
    alpha: float
    status: str
    kind: str
    psi: float


@dataclass(frozen=True, eq=False)
class SbqpTrace:
    """Per-iteration record of the penalty loop; row 0 is the seeding solve."""

    rows: tuple[SbqpTraceRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValueError("trace must be nonempty")

    @property
    def final_phi(self) -> float:
        return self.rows[-1].phi

    @property
    def penalty_iterations(self) -> int:
        return sum(1 for row in self.rows if row.rho > 0.0)

    def phis(self) -> np.ndarray:
        return np.array([row.phi for row in self.rows])


def _switch_array(y) -> np.ndarray:
    if isinstance(y, SwitchVector):
        return y.y
    return np.asarray(y, dtype=float)


def snap_binary(y: np.ndarray, tol: float) -> np.ndarray:
    """Replace coordinates within tol of 0 or 1 by the exact endpoint."""
    out = np.asarray(y, dtype=float).copy()
    out[np.abs(out) <= tol] = 0.0
    out[np.abs(out - 1.0) <= tol] = 1.0
    return out


def step_length(y_hat, direction, anchor) -> tuple[float, str]:
    """Step size zeroing the linearized complementarity residual.

    Solves (y_hat + alpha * direction) @ grad_phi(anchor) = 0 for alpha when
    the denominator is safely nonzero ("exact"), otherwise falls back to a
    unit step ("fallback").  Either way alpha is clipped so the update stays
    inside [0, 1]; clipping appends "-clipped" to the kind.
    """
    y = _switch_array(y_hat)
    d = _switch_array(direction)
    g = grad_phi(_switch_array(anchor))
    den = float(d @ g)
    if abs(den) > DEGENERATE_DEN:
        alpha, kind = -float(y @ g) / den, "exact"
    else:
        alpha, kind = 1.0, "fallback"
    moving = d != 0.0
    if moving.any():
        r0 = (0.0 - y[moving]) / d[moving]
        r1 = (1.0 - y[moving]) / d[moving]
        lo = float(np.minimum(r0, r1).max())
        hi = float(np.maximum(r0, r1).min())
        clipped = min(max(alpha, lo), hi)
        if clipped != alpha:
            alpha, kind = clipped, kind + "-clipped"
    return alpha, kind


def live_demands(net) -> np.ndarray:
    """Mask of the demands that draw power: (pd, qd) != (0, 0)."""
    return (net.pd != 0.0) | (net.qd != 0.0)


def _fixed_parts(case: GridCase, lin_point, duals, variant: Ao2Variant, cuts) -> dict:
    """The parts of every subproblem around lin_point that do not depend on
    rho or the anchor: the box, the rows, the curvature (relaxed-one adds
    2 rho to it) and the linear term before the penalty gradient.  The active
    row's right side sum pg - sum y_lin pd - L charges the network losses
    L = sum_k P_act,k at lin_point: on a binary y_lin it is the summed active
    balance residual there, so the step must shed at least its shortfall."""
    state, inputs, switches = lin_point
    net = network(case)
    y_lin = switches.y
    flow = outflow(net, state)

    served_p = float(y_lin @ net.pd)
    served_q = float(y_lin @ net.qd)
    b = np.array([
        float(inputs.pg.sum()) - served_p,
        float(net.u_upper[1::2].sum()) - served_q,
        served_q - float(net.u_lower[1::2].sum()),
    ])
    b[0] -= float(flow[0::2].sum())
    A = np.vstack([-net.pd, -net.qd, net.qd])
    if len(cuts):
        stars = np.array([_switch_array(c) for c in cuts], dtype=float)
        live = live_demands(net)
        A = np.vstack([A, (1.0 - 2.0 * stars) * live])
        b = np.concatenate([b, np.abs(y_lin - stars) @ live - 1.0])

    if variant.tag == "mixed":
        q = hessian_Q(net, duals)
        top = float(q.max())
        floor = CURVATURE_FLOOR * max(1.0, abs(top))
        if top > -floor:
            # the served-demand curvature is non-concave here; push every
            # curvature strictly below zero before handing it to the QP
            q = q - (top + floor)
        # E's y-gradient, rank (pg - P_act): the outflow alone, no derivative
        g0 = net.rank * _delivery(net, flow, inputs)
    else:
        q = 2.0 * (net.rank * net.pd)
        g0 = q * y_lin
    return {"y_lin": y_lin, "lower": -y_lin, "upper": 1.0 - y_lin, "A": A, "b": b, "q": q, "g0": g0}


def build_subproblem(case: GridCase, lin_point, duals, rho: float,
                     variant: Ao2Variant, phi_anchor=None, cuts=(), parts=None) -> QpProblem:
    """Quadratic switching subproblem around a continuous-stage point.

    The decision variable is the step d = y - y_lin from the linearization
    switches, so the unit box becomes [-y_lin, 1 - y_lin] and the penalty
    gradient lands directly in the linear term.  Three aggregate rows keep
    the served demand inside what the current active dispatch, less the
    network losses at lin_point, and the reactive capability range admit
    (see _fixed_parts).  Each rejected switch set y* in cuts
    adds the row sum_live |y - y*| >= 1, which is linear over the unit box:
    coefficient 1 - 2 y* on a live demand, 0 on a zero-load one.

    Only the linear term, and relaxed-one's curvature, depend on rho and the
    anchor.  A caller that builds many subproblems around one (lin_point,
    duals, variant, cuts) passes the same dict as parts to each: the first
    call fills it with the other pieces and later calls reuse them, so the
    outflow and the dual Hessian are evaluated once.
    """
    if parts is None:
        parts = {}
    if not parts:
        parts.update(_fixed_parts(case, lin_point, duals, variant, cuts))
    y_lin = parts["y_lin"]
    anchor = y_lin if phi_anchor is None else _switch_array(phi_anchor)
    rho = float(rho)
    q = parts["q"]
    if variant.tag == "relaxed-one":
        # the exact penalty expanded around y_lin: its gradient there and curvature 2 rho
        q = q + 2.0 * rho
        anchor = y_lin
    g = parts["g0"] - rho * grad_phi(anchor)
    return QpProblem(q=q, g_lin=g, A=parts["A"], b=parts["b"], lower=parts["lower"],
                     upper=parts["upper"])


def penalty_loop(solve_sub, schedule: PenaltySchedule, psi_of=None,
                 single_shot: bool = False, feasible=None):
    """Drive solve_sub under the growing penalty until |phi(y)| <= eps.

    solve_sub(rho, anchor, warm) solves one subproblem and returns a
    (y_candidate, status) pair, y_candidate an array in unit-box
    coordinates.  A zero-penalty pass seeds the incumbent; each penalty
    level then re-anchors the linearized complementarity term at the
    incumbent, solves, and blends the result through step_length.  The blended point can extrapolate past the
    subproblem solution, so a feasible(y) predicate, when given, gates it.
    With single_shot the seeding pass and the blend are skipped and each
    solution is taken directly.  Returns (y, SbqpTrace); raises Ao2Error when
    rho would pass schedule.rho_max first, and, of kind "infeasible", at the
    first subproblem whose status is "infeasible": its rows admit no point of
    the box, by the QP's Farkas certificate of margin SLACK_TOL, and every
    later subproblem has the same rows.
    """
    if feasible is None:
        feasible = lambda _y: True
    rows: list[SbqpTraceRow] = []

    def record(it, y, rho_val, alpha, status, kind):
        val = float("nan") if psi_of is None else float(psi_of(y, rho_val))
        rows.append(SbqpTraceRow(it, y.copy(), phi(y), rho_val, alpha, status, kind, val))
        if status == "infeasible":
            raise Ao2Error("the switching rows admit no point of the box", SbqpTrace(tuple(rows)), y,
                           kind="infeasible")

    y_hat = None
    if not single_shot:
        y_cand, status = solve_sub(0.0, None, None)
        y_hat = y_cand.clip(0.0, 1.0)
        record(0, y_hat, 0.0, 1.0, status, "global")
        if rows[-1].phi <= schedule.eps:
            return y_hat, SbqpTrace(tuple(rows))

    rho = schedule.rho0
    iteration = len(rows)
    anchor_override = None
    while True:
        if y_hat is None:
            anchor = None
        elif anchor_override is not None:
            anchor = anchor_override
        else:
            anchor = y_hat.copy()
        y_new, status = solve_sub(rho, anchor, y_hat)
        y_new = y_new.clip(0.0, 1.0)
        y_before = None if y_hat is None else y_hat.copy()
        if anchor is None or single_shot:
            y_hat, alpha, kind = y_new, 1.0, "single-shot"
        else:
            alpha, kind = step_length(y_hat, y_new - y_hat, anchor)
            y_step = (y_hat + alpha * (y_new - y_hat)).clip(0.0, 1.0)
            # the zeroing step is only trustworthy near a binary point: far
            # away it can throw the incumbent backwards, and with alpha
            # outside [0, 1] it can leave the subproblem rows entirely.  Keep
            # the plain subproblem solution unless the blend is feasible and
            # at least as close to complementarity.
            if phi(y_step) <= phi(y_new) and feasible(y_step):
                y_hat = y_step
            else:
                y_hat, alpha, kind = y_new, 1.0, "unit"
        record(iteration, y_hat, rho, alpha, status, kind)
        if rows[-1].phi <= schedule.eps:
            return y_hat, SbqpTrace(tuple(rows))
        if rho * schedule.beta > schedule.rho_max:
            raise Ao2Error("penalty cap reached before complementarity",
                           SbqpTrace(tuple(rows)), y_hat)
        # an incumbent the subproblem keeps returning is anchored into place:
        # its own support is what the linearized penalty rewards.  Anchoring
        # the next pass at the floored incumbent rewards only the loads that
        # already fit, so the solve can confirm that binary point and exit.
        stalled = (y_before is not None
                   and float(np.abs(y_hat - y_before).max(initial=0.0)) <= 1e-14)
        if stalled and anchor_override is None:
            anchor_override = np.where(y_hat >= 1.0 - 2.0 * schedule.eps, 1.0, 0.0)
        else:
            anchor_override = None
        rho = rho * schedule.beta
        iteration += 1


def run_ao2(case: GridCase, start, duals, schedule: PenaltySchedule | None = None,
            variant: Ao2Variant | None = None, cuts=()):
    """One switching stage around the given continuous operating point.

    start is the (State, InputVector, SwitchVector) triple from the
    continuous stage and duals its balance multipliers, one per demand
    (``Ao1Result.duals``).  Returns
    (SwitchVector, SbqpTrace); coordinates within twice schedule.eps of an
    endpoint are snapped exactly to it, which the exit tolerance guarantees
    covers every coordinate.  cuts holds switch sets to exclude, one no-good
    row each in every subproblem.  Each subproblem gets one QP solve, warm
    started from the incumbent once there is one.  Raises Ao2Error at the
    penalty cap, and, of kind "infeasible", when a QP reports "infeasible":
    the aggregate rows and the cuts admit no point of the box, by the QP's
    Farkas certificate of margin SLACK_TOL.
    """
    schedule = PenaltySchedule() if schedule is None else schedule
    variant = Ao2Variant() if variant is None else variant
    state, inputs, switches = start
    net = network(case)
    check_sizes(net, "run_ao2 start", state=state, input=inputs, y=switches)
    y_lin = switches.y
    w = net.rank * net.pd

    parts = {}
    base = build_subproblem(case, start, duals, 0.0, variant, switches, cuts, parts)

    def row_feasible(y):
        slack = base.b + base.A @ (y - y_lin)
        return float(slack.min(initial=0.0)) >= -1e-9

    def solve_sub(rho, anchor, warm):
        # the seeding solve's subproblem is base itself: at rho = 0 the anchor
        # changes no float
        prob = base if rho == 0.0 else build_subproblem(case, start, duals, rho, variant, anchor, cuts, parts)
        sol = solve_qp(prob, start=None if warm is None else warm - y_lin)
        return y_lin + sol.primal, sol.status

    def psi_of(y, rho):
        # quadratic model value minus the exact penalty, kept as a diagnostic
        if variant.tag == "mixed":
            d = y - y_lin
            return 0.5 * float(d * base.q @ d) + float(base.g_lin @ d) - rho * phi(y)
        return float(w @ (y * y)) - rho * phi(y)

    y, trace = penalty_loop(solve_sub, schedule, psi_of=psi_of,
                            single_shot=variant.single_shot, feasible=row_feasible)
    return SwitchVector(snap_binary(y, 2.0 * schedule.eps)), trace
