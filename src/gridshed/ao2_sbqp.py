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

    Every variant runs the same penalty loop: a zero-penalty seeding solve,
    then levels whose solutions are blended toward complementarity.
    """

    tag: str = "mixed"

    def __post_init__(self):
        if self.tag not in VARIANT_TAGS:
            raise ValueError(f"unknown variant tag {self.tag!r}")


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
    g = grad_phi(anchor)
    den = float(direction @ g)
    if abs(den) > DEGENERATE_DEN:
        alpha, kind = -float(y_hat @ g) / den, "exact"
    else:
        alpha, kind = 1.0, "fallback"
    moving = direction != 0.0
    if moving.any():
        y, d = y_hat[moving], direction[moving]
        r0 = (0.0 - y) / d
        r1 = (1.0 - y) / d
        lo = float(np.minimum(r0, r1).max())
        hi = float(np.maximum(r0, r1).min())
        clipped = min(max(alpha, lo), hi)
        if clipped != alpha:
            alpha, kind = clipped, kind + "-clipped"
    return alpha, kind


def live_demands(net) -> np.ndarray:
    """Mask of the demands that draw power: (pd, qd) != (0, 0)."""
    return (net.pd != 0.0) | (net.qd != 0.0)


def subproblem_parts(case: GridCase, lin_point, duals, variant: Ao2Variant, cuts=()) -> dict:
    """The parts of every switching subproblem around lin_point that do not
    depend on rho or the anchor, as one value for build_subproblem: the
    variant's tag, y_lin, and "stage", the QpProblem of the curvature q and
    the linear term g0 before the penalty gradient over the box and the rows
    A and b.  Its checks of that box and those rows are the only ones the
    switching stage makes.

    The variable is the step d = y - y_lin, so the box is [-y_lin, 1 - y_lin].
    The active row's right side sum pg - sum y_lin pd - L charges the network
    losses L = sum_k P_act,k at lin_point: on a binary y_lin it is the summed
    active balance residual there, so the step must shed at least its
    shortfall.  Each rejected switch set y* in cuts, a 0/1 array, adds the row
    sum_live |y - y*| >= 1, linear over the unit box: coefficient 1 - 2 y* on
    a live demand, 0 on a zero-load one.
    """
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
        stars = np.array(cuts, dtype=float)
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
    stage = QpProblem(q=q, g_lin=g0, A=A, b=b, lower=-y_lin, upper=1.0 - y_lin)
    return {"tag": variant.tag, "y_lin": y_lin, "stage": stage}


def build_subproblem(parts: dict, rho: float, phi_anchor) -> QpProblem:
    """The switching subproblem at penalty rho, from subproblem_parts.

    Only the linear term, and relaxed-one's curvature, depend on rho and the
    anchor: the penalty gradient at phi_anchor times rho comes off g0.
    relaxed-one keeps the exact penalty expanded around y_lin instead, its
    gradient there and curvature 2 rho, whatever the anchor.
    The box and rows are the stage problem's, checked once when the parts
    were formed; each level checks only the shapes of its q and g.
    """
    stage, rho = parts["stage"], float(rho)
    q = stage.q
    if parts["tag"] == "relaxed-one":
        q = q + 2.0 * rho
        phi_anchor = parts["y_lin"]
    g = stage.g_lin - rho * grad_phi(phi_anchor)
    return stage.with_objective(q, g)


def penalty_loop(solve_sub, schedule: PenaltySchedule, psi_of=None, feasible=None):
    """Drive solve_sub under the growing penalty until |phi(y)| <= eps.

    solve_sub(rho, anchor, warm) solves one subproblem and returns a
    (y_candidate, status) pair, y_candidate an array in unit-box
    coordinates.  psi_of(y, rho, phi_y), when given, is each trace row's
    diagnostic, handed the row's phi(y).  A zero-penalty pass, solved with
    no anchor and no warm start, seeds the incumbent and is trace row 0
    (kind "global"); each penalty level then re-anchors the linearized
    complementarity term at the incumbent, solves, and blends the result
    through step_length.  The blended point can extrapolate past the
    subproblem solution, so a feasible(y) predicate, when given, gates it.
    Returns (y, SbqpTrace); raises Ao2Error when rho would pass
    schedule.rho_max first, and, of kind "infeasible", at the first
    subproblem whose status is "infeasible": its rows admit no point of the
    box, by the QP's Farkas certificate of margin SLACK_TOL, and every later
    subproblem has the same rows.
    """
    if feasible is None:
        feasible = lambda _y: True
    rows: list[SbqpTraceRow] = []

    def record(it, y, phi_y, rho_val, alpha, status, kind):
        val = float("nan") if psi_of is None else float(psi_of(y, rho_val, phi_y))
        rows.append(SbqpTraceRow(it, y.copy(), phi_y, rho_val, alpha, status, kind, val))
        if status == "infeasible":
            raise Ao2Error("the switching rows admit no point of the box", SbqpTrace(tuple(rows)), y,
                           kind="infeasible")

    y_cand, status = solve_sub(0.0, None, None)
    y_hat = y_cand.clip(0.0, 1.0)
    record(0, y_hat, phi(y_hat), 0.0, 1.0, status, "global")
    if rows[-1].phi <= schedule.eps:
        return y_hat, SbqpTrace(tuple(rows))

    rho = schedule.rho0
    iteration = 1
    anchor_override = None
    while True:
        anchor = y_hat.copy() if anchor_override is None else anchor_override
        y_new, status = solve_sub(rho, anchor, y_hat)
        y_new = y_new.clip(0.0, 1.0)
        # y_hat is only ever rebound below, never written into
        y_before = y_hat
        alpha, kind = step_length(y_hat, y_new - y_hat, anchor)
        y_step = (y_hat + alpha * (y_new - y_hat)).clip(0.0, 1.0)
        # the zeroing step is only trustworthy near a binary point: far away
        # it can throw the incumbent backwards, and with alpha outside [0, 1]
        # it can leave the subproblem rows entirely.  Keep the plain
        # subproblem solution unless the blend is feasible and at least as
        # close to complementarity.
        phi_step, phi_new = phi(y_step), phi(y_new)
        if phi_step <= phi_new and feasible(y_step):
            y_hat, phi_hat = y_step, phi_step
        else:
            y_hat, phi_hat, alpha, kind = y_new, phi_new, 1.0, "unit"
        record(iteration, y_hat, phi_hat, rho, alpha, status, kind)
        if rows[-1].phi <= schedule.eps:
            return y_hat, SbqpTrace(tuple(rows))
        if rho * schedule.beta > schedule.rho_max:
            raise Ao2Error("penalty cap reached before complementarity",
                           SbqpTrace(tuple(rows)), y_hat)
        # an incumbent the subproblem keeps returning is anchored into place:
        # its own support is what the linearized penalty rewards.  Anchoring
        # the next pass at the floored incumbent rewards only the loads that
        # already fit, so the solve can confirm that binary point and exit.
        stalled = float(np.abs(y_hat - y_before).max(initial=0.0)) <= 1e-14
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
    row each in every subproblem.  Each subproblem gets one QP solve: the
    zero-penalty seeding solve starts cold, and every penalty level is warm
    started from the incumbent.  Raises Ao2Error at the penalty cap, and, of
    kind "infeasible", when a QP reports "infeasible": the aggregate rows and
    the cuts admit no point of the box, by the QP's Farkas certificate of
    margin SLACK_TOL.
    """
    schedule = PenaltySchedule() if schedule is None else schedule
    variant = Ao2Variant() if variant is None else variant
    state, inputs, switches = start
    net = network(case)
    check_sizes(net, "run_ao2 start", state=state, input=inputs, y=switches)
    y_lin = switches.y
    w = net.rank * net.pd

    parts = subproblem_parts(case, start, duals, variant, cuts)
    base = build_subproblem(parts, 0.0, y_lin)

    def row_feasible(y):
        slack = base.b + base.A @ (y - y_lin)
        return float(slack.min(initial=0.0)) >= -1e-9

    def solve_sub(rho, anchor, warm):
        # the seeding solve's subproblem is base itself: at rho = 0 the anchor
        # changes no float
        prob = base if rho == 0.0 else build_subproblem(parts, rho, anchor)
        sol = solve_qp(prob, start=None if warm is None else warm - y_lin)
        return y_lin + sol.primal, sol.status

    def psi_of(y, rho, phi_y):
        # quadratic model value minus the exact penalty, kept as a diagnostic
        if variant.tag == "mixed":
            d = y - y_lin
            return 0.5 * float(d * base.q @ d) + float(base.g_lin @ d) - rho * phi_y
        return float(w @ (y * y)) - rho * phi_y

    y, trace = penalty_loop(solve_sub, schedule, psi_of=psi_of, feasible=row_feasible)
    return SwitchVector(snap_binary(y, 2.0 * schedule.eps)), trace
