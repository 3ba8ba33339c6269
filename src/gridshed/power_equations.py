"""AC power flow quantities and their derivatives.

Layout conventions, frozen because ``constraint_row``, ``constraints_C`` and
``constraint_jacobian`` index by them:

* state vector x: per-bus (v, theta) pairs in ascending bus id,
  ``x = [v_1, th_1, v_2, th_2, ...]``, length 2N including the slack bus
* input vector u: per-generator (pg, qg) pairs in ascending bus id, length 2G
* power vectors: per-bus (active, reactive) pairs, length 2N
* constraint stack C, length 8N + 4G, in this fixed row order:
  P - S (2N), S - P (2N), x_lo - x (2N), x - x_hi (2N),
  u_lo - u (2G), u - u_hi (2G)
* combined derivative column order: x, then u, then y (one column per demand)

``constraint_row`` names a row of C by this order.

Entry points (``network``, ``constraints_C``, ``constraint_row``,
``flat_state``, ``line_flow``) take a ``GridCase``.  The kernels
(``outflow_terms``, ``outflow_derivatives``, ``outflow``, ``supply``,
``objective_E``, ``objective_from_outflow``, ``jacobians``,
``constraint_jacobian``, ``hessian_Q``) take the ``Network`` that their
caller resolved once with ``network(case)``.  ``network`` builds it on the
first call with a case object and keeps it on that object, outside the
dataclass fields, so later calls with the object return it and it is freed
with the case; an equal case built apart gets its own.  It also records
whether every branch conductance is non-negative (``branch_g_nonneg``).

The power flow is evaluated over the branch list, not over the dense
admittance matrix.  ``network`` records two directed edges (k, l) per
branch, with the admittance off-diagonals G_kl = -g and B_kl = -b, plus the
diagonals, stacked as the kernel reads them, and the flat indices at which
the derivative values land.  The kernel is one stacked pass in two halves.
``outflow_terms`` is the one place the angle-difference trig is taken, once
per edge: (cos, sin) share one buffer, both edge terms come from one
product over it, and one ``bincount`` sums them per bus, in edge order,
straight into the stacked outflow P.  It returns P with the terms that the
derivatives reuse (``OutflowTerms``), and ``outflow_derivatives`` forms
the entries of dP/dx on the edges and the diagonal from those terms, as
one flat array, without taking the trig again.  ``outflow`` runs both
halves and scatters the values into the dense, interleaved 2N x 2N dP/dx,
and every evaluation routine here goes through it.  The continuous stage
calls the halves itself: the trig pass at every point of its fit, the
derivative pass only where the fit goes on, scattering the values straight
into its fit Jacobian, the dP/dx columns off the slack next to the constant
-gen_sel block.  ``network`` builds the rest of that fit's layout once per
case, since none of it depends on the switches: the free entries of x
(``fit_free``), the box (``fit_lower``, ``fit_upper``), the flat start
(``fit_start``) and the rows that the generation lands on (``fit_gen``);
these arrays are shared by every fit on the case and read-only.
``jacobians`` returns (P, dP_dx, dE), so a caller that needs the outflow
and its derivatives takes the trig once.  ``hessian_Q`` is the switch
curvature that the balance multipliers give, one per demand.
``check_sizes`` names a state, input or switch vector that does not fit the
network; ``constraints_C``, ``objective_E`` and ``jacobians`` call it first.
``constraint_jacobian`` stacks dP_dx into the full (8N + 4G)-row derivative
of C, whose leading block ``dC[:2N, :2N]`` is dP/dx; only the self-check and
the tests need it, and no solver stage builds it.  ``line_flow`` is a
separate per-branch evaluation, kept as the reference that the tests compare
``outflow`` against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid_model import (
    GridCase,
    build_admittance,  # not called here; bench/tracer.py wraps power_equations.build_admittance
)

Y_BOX_TOL = 1e-9


def constraint_row(case: GridCase, row: int) -> str:
    """Name row of the constraint stack C by family and bus (or generator bus) id."""
    nx, nu = 2 * len(case.buses), 2 * len(case.generators)
    if not 0 <= row < 4 * nx + 2 * nu:
        raise IndexError(f"constraint row {row} out of range")
    if row < 4 * nx:
        block, k = divmod(row, nx)
        part = ("active", "reactive") if block < 2 else ("v", "theta")
        family = ("balance P-S", "balance S-P", "lower bound", "upper bound")[block]
        return f"{part[k % 2]} {family} at bus {case.buses[k // 2].id}"
    block, k = divmod(row - 4 * nx, nu)
    return (f"{('pg', 'qg')[k % 2]} {('lower', 'upper')[block]} bound "
            f"at generator bus {case.generators[k // 2].bus}")


@dataclass(frozen=True, eq=False)
class State:
    """Voltage magnitudes and angles per bus (ascending bus id)."""

    v: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        if self.v.shape != self.theta.shape or self.v.ndim != 1:
            raise ValueError("v and theta must be 1-d arrays of equal length")

    def as_vector(self) -> np.ndarray:
        out = np.empty(2 * self.v.size)
        out[0::2] = self.v
        out[1::2] = self.theta
        return out

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "State":
        x = np.asarray(x, dtype=float)
        return cls(v=x[0::2].copy(), theta=x[1::2].copy())


@dataclass(frozen=True, eq=False)
class InputVector:
    """Generator injections per generator (ascending bus id)."""

    pg: np.ndarray
    qg: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pg", np.asarray(self.pg, dtype=float))
        object.__setattr__(self, "qg", np.asarray(self.qg, dtype=float))
        if self.pg.shape != self.qg.shape or self.pg.ndim != 1:
            raise ValueError("pg and qg must be 1-d arrays of equal length")

    def as_vector(self) -> np.ndarray:
        out = np.empty(2 * self.pg.size)
        out[0::2] = self.pg
        out[1::2] = self.qg
        return out

    @classmethod
    def from_vector(cls, u: np.ndarray) -> "InputVector":
        u = np.asarray(u, dtype=float)
        return cls(pg=u[0::2].copy(), qg=u[1::2].copy())


@dataclass(frozen=True, eq=False)
class SwitchVector:
    """One switch value per demand node, ordered like case.demands."""

    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.y.ndim != 1:
            raise ValueError("y must be a 1-d array")
        # written so that NaN, which fails every comparison, is rejected too
        if self.y.size and not (self.y.min() >= -Y_BOX_TOL and self.y.max() <= 1.0 + Y_BOX_TOL):
            raise ValueError("switch values must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class Network:
    """Precomputed index arrays shared by every evaluation routine."""

    n_bus: int
    n_gen: int
    n_dem: int
    edge_from: np.ndarray      # bus position k of each directed edge (k, l): two per
    edge_to: np.ndarray        # branch, (from, to) then (to, from), in branch order
    edge_GG: np.ndarray        # [G_kl, G_kl] and [B_kl, -B_kl]: the weights of CS and SC, with
    edge_BB: np.ndarray        # the admittance off-diagonals G_kl = -g, B_kl = -b per edge
    edge_lk: np.ndarray        # [l, l, k, k]: the v that outflow_terms gathers per edge
    edge_bins: np.ndarray      # [2k, 2k + 1]: the stacked row of each edge term
    bus_pair: np.ndarray       # (k, k) per bus k, in stacked order
    pair_swap: np.ndarray      # (2k + 1, 2k) per bus k: P_k and Q_k swapped
    diag_GB: np.ndarray        # (G_kk, -B_kk) and (B_kk, G_kk) per bus k, where the admittance
    diag_BG: np.ndarray        # diagonals G_kk, B_kk sum the g, b of k's branches in branch order
    jac_index: np.ndarray      # flat index in the (2N, 2N) dP/dx of each value that
                               # outflow_derivatives forms
    fit_pick: np.ndarray       # the values off the slack columns, and their flat index in
    fit_index: np.ndarray      # the continuous stage's fit Jacobian [dP/dx_free | -gen_sel]
    fit_free: np.ndarray       # the fit's x entries, every one but the slack's (v, theta)
    fit_lower: np.ndarray      # the fit's box over z = [x_free, u]
    fit_upper: np.ndarray
    fit_start: np.ndarray      # the flat z: slack voltage, zero angles, mid-box injections
    fit_gen: np.ndarray        # the stacked row of each u entry, where its generation lands
    slack: int                 # bus position of the slack
    slack_v: float
    dem_pos: np.ndarray        # bus position of each demand
    pd: np.ndarray
    qd: np.ndarray
    rank: np.ndarray
    dem_pg_col: np.ndarray     # pg column in u per demand, -1 when no generator there
    gen_sel: np.ndarray        # (2N, 2G) 0/1 generator selector: generation per bus is
                               # gen_sel @ u, so it is also d(supply)/du
    x_lower: np.ndarray
    x_upper: np.ndarray
    u_lower: np.ndarray
    u_upper: np.ndarray
    branch_g_nonneg: bool      # every branch g >= 0

    @property
    def n_c_rows(self) -> int:
        return 8 * self.n_bus + 4 * self.n_gen

    @property
    def n_cols(self) -> int:
        return 2 * self.n_bus + 2 * self.n_gen + self.n_dem


def network(case: GridCase) -> Network:
    """The case's Network, built on the first call and kept on the case object."""
    try:
        return case._network
    except AttributeError:
        net = _build_network(case)
        object.__setattr__(case, "_network", net)
        return net


def _build_network(case: GridCase) -> Network:
    index = {b.id: i for i, b in enumerate(case.buses)}
    n = len(case.buses)
    ngen = len(case.generators)
    slack = index[case.slack_bus.id]
    gen_pos = np.array([index[g.bus] for g in case.generators], dtype=int)
    dem_pos = np.array([index[d.bus] for d in case.demands], dtype=int)
    pg_col = {g.bus: 2 * j for j, g in enumerate(case.generators)}
    dem_pg_col = np.array([pg_col.get(d.bus, -1) for d in case.demands], dtype=int)
    gen_sel = np.zeros((2 * n, 2 * ngen))
    gen_sel[2 * gen_pos, 0::2] = np.eye(ngen)
    gen_sel[2 * gen_pos + 1, 1::2] = np.eye(ngen)

    # two directed edges per branch, (from, to) then (to, from); GridCase
    # rejects self loops and repeated pairs, so each edge is one off-diagonal
    # of the admittance matrix
    ks, ls, gs, bs = [], [], [], []
    for br in case.branches:
        k, l = index[br.from_bus], index[br.to_bus]
        ks += (k, l)
        ls += (l, k)
        gs += (br.g, br.g)
        bs += (br.b, br.b)
    m = len(ks)
    k, l = np.array([ks, ls], dtype=int).reshape(2, m)
    g, b = np.array([gs, bs], dtype=float).reshape(2, m)
    diag_g = np.bincount(k, weights=g, minlength=n)
    diag_b = np.bincount(k, weights=b, minlength=n)
    edge_GG = np.concatenate([-g, -g])
    edge_BB = np.concatenate([-b, b])
    k2, l2 = np.tile(k, 2), np.tile(l, 2)
    half = np.repeat([0, 1], m)
    pair = np.repeat(np.arange(n), 2)
    # outflow_derivatives forms d/dv over the edges (P half, then Q half) and
    # over the diagonals (stacked), then d/dtheta over the same; the fit
    # Jacobian drops the slack's columns
    rows = np.concatenate([2 * k2 + half, np.arange(2 * n)] * 2)
    cols = np.concatenate([2 * l2, 2 * pair, 2 * l2 + 1, 2 * pair + 1])
    fit_pick = np.flatnonzero(cols // 2 != slack)
    fit_cols = cols[fit_pick]
    fit_cols -= 2 * (fit_cols > 2 * slack)

    x_lower = np.empty(2 * n)
    x_upper = np.empty(2 * n)
    x_lower[0::2] = [b.v_min for b in case.buses]
    x_upper[0::2] = [b.v_max for b in case.buses]
    x_lower[1::2] = [b.theta_min for b in case.buses]
    x_upper[1::2] = [b.theta_max for b in case.buses]
    u_lower = np.empty(2 * ngen)
    u_upper = np.empty(2 * ngen)
    u_lower[0::2] = [g.pg_min for g in case.generators]
    u_upper[0::2] = [g.pg_max for g in case.generators]
    u_lower[1::2] = [g.qg_min for g in case.generators]
    u_upper[1::2] = [g.qg_max for g in case.generators]

    # the continuous stage's fit over z = [x_free, u]; shared by every fit on
    # the case, so read-only
    fit_free = np.delete(np.arange(2 * n), (2 * slack, 2 * slack + 1))
    flat = np.empty(2 * n)
    flat[0::2] = case.slack_voltage()
    flat[1::2] = 0.0
    fit = {
        "fit_free": fit_free,
        "fit_lower": np.concatenate([x_lower[fit_free], u_lower]),
        "fit_upper": np.concatenate([x_upper[fit_free], u_upper]),
        "fit_start": np.concatenate([flat[fit_free], 0.5 * (u_lower + u_upper)]),
        "fit_gen": (2 * gen_pos[:, None] + np.array([0, 1])).ravel(),
    }
    for array in fit.values():
        array.flags.writeable = False
    return Network(
        n_bus=n,
        n_gen=ngen,
        n_dem=len(case.demands),
        edge_from=k,
        edge_to=l,
        edge_GG=edge_GG,
        edge_BB=edge_BB,
        edge_lk=np.concatenate([l2, k2]),
        edge_bins=2 * k2 + half,
        bus_pair=pair,
        pair_swap=np.arange(2 * n) ^ 1,
        diag_GB=np.stack([diag_g, -diag_b], axis=1).ravel(),
        diag_BG=np.stack([diag_b, diag_g], axis=1).ravel(),
        jac_index=rows * (2 * n) + cols,
        fit_pick=fit_pick,
        fit_index=rows[fit_pick] * (2 * n - 2 + 2 * ngen) + fit_cols,
        **fit,
        slack=slack,
        slack_v=case.slack_voltage(),
        dem_pos=dem_pos,
        pd=np.array([d.pd for d in case.demands]),
        qd=np.array([d.qd for d in case.demands]),
        rank=np.array([d.rank for d in case.demands]),
        dem_pg_col=dem_pg_col,
        gen_sel=gen_sel,
        x_lower=x_lower,
        x_upper=x_upper,
        u_lower=u_lower,
        u_upper=u_upper,
        branch_g_nonneg=all(br.g >= 0.0 for br in case.branches),
    )


def flat_state(case: GridCase) -> State:
    """All magnitudes at the slack voltage, all angles zero."""
    n = len(case.buses)
    return State(v=np.full(n, case.slack_voltage()), theta=np.zeros(n))


def line_flow(case: GridCase, state: State, k: int, l: int) -> tuple[float, float]:
    """Complex power leaving bus k over branch (k, l), as an (active, reactive) pair."""
    br = next(
        (b for b in case.branches
         if (b.from_bus == k and b.to_bus == l) or (b.from_bus == l and b.to_bus == k)),
        None,
    )
    if br is None:
        raise ValueError(f"no branch between buses {k} and {l}")
    index = {b.id: i for i, b in enumerate(case.buses)}
    vk, vl = state.v[index[k]], state.v[index[l]]
    th = state.theta[index[k]] - state.theta[index[l]]
    g, b = br.g, br.b
    p = vk * vk * g - vk * vl * (g * np.cos(th) + b * np.sin(th))
    q = -vk * vk * b - vk * vl * (g * np.sin(th) - b * np.cos(th))
    return float(p), float(q)


class OutflowTerms(NamedTuple):
    """What the trig pass of ``outflow_terms`` keeps for the derivative pass.
    The edge arrays run over the m edges twice, for P and then for Q (v_l,
    then v_k, in vlk); the per-bus arrays interleave like P."""

    P: np.ndarray       # stacked outflow, (active, reactive) per bus
    a: np.ndarray       # [G_kl cos + B_kl sin, G_kl sin - B_kl cos] over the edges
    vlk: np.ndarray     # [v_l, v_l, v_k, v_k] over the edges
    v2: np.ndarray      # (v_k, v_k) per bus
    dv: np.ndarray      # (G_kk v_k, -B_kk v_k) per bus
    av: np.ndarray      # per-bus sums of a v_l, dv included, so that P = v2 av


def outflow_terms(net: Network, state: State) -> OutflowTerms:
    """The trig pass: the stacked outflow P and the terms that its derivatives
    reuse, from one (cos, sin) evaluation over the edges.

    P_k = v_k (G_kk v_k + sum over edges (k, l) of (G_kl cos + B_kl sin) v_l),
    and Q_k likewise with (G_kl sin - B_kl cos) and -B_kk; each bus sums its
    edge terms in edge order.  The buffer [cos, sin, cos] holds CS = [cos,
    sin] and SC = [sin, cos], both edge terms are a = [G, G] CS + [B, -B] SC,
    and one bincount over the bins [2k, 2k + 1] sums them straight into the
    stacked order.  The terms hold no array of the caller's, so a caller may
    overwrite its state after the pass."""
    v = state.v
    th = state.theta[net.edge_from] - state.theta[net.edge_to]
    m = th.size
    cs = np.empty(3 * m)
    np.cos(th, out=cs[:m])
    np.sin(th, out=cs[m:2 * m])
    cs[2 * m:] = cs[:m]
    a = net.edge_GG * cs[:2 * m] + net.edge_BB * cs[m:]
    vlk = v[net.edge_lk]
    av = np.bincount(net.edge_bins, weights=a * vlk[:2 * m], minlength=2 * net.n_bus)
    v2 = v[net.bus_pair]
    dv = net.diag_GB * v2
    av += dv
    return OutflowTerms(v2 * av, a, vlk, v2, dv, av)


def outflow_derivatives(net: Network, t: OutflowTerms) -> np.ndarray:
    """The derivative pass: the entries of dP/dx in the order that
    ``net.jac_index`` places them, formed from the terms of one trig pass.

    In four blocks: d(P, Q)/dv over the edges (k, l) and over the diagonals
    (k, k), then d(P, Q)/dtheta over the same; the edge blocks hold the P half
    before the Q half, the diagonal blocks interleave like P."""
    m2, n2 = t.a.size, t.P.size
    m = m2 // 2
    a, vk = t.a, t.vlk[m2:]
    values = np.empty(2 * (m2 + n2))
    dv_edge, dv_diag = values[:m2], values[m2:m2 + n2]
    dth_edge, dth_diag = values[m2 + n2:2 * m2 + n2], values[2 * m2 + n2:]
    np.multiply(vk, a, out=dv_edge)
    np.add(t.av, t.dv, out=dv_diag)
    vv = vk[:m] * t.vlk[:m]
    np.multiply(vv, a[m:], out=dth_edge[:m])
    np.multiply(-vv, a[:m], out=dth_edge[m:])
    # (-Q_k - v_k^2 B_kk, P_k - v_k^2 G_kk)
    swapped = t.P[net.pair_swap]
    np.negative(swapped[0::2], out=swapped[0::2])
    np.subtract(swapped, t.v2 * t.v2 * net.diag_BG, out=dth_diag)
    return values


def outflow(net: Network, state: State, jacobian: bool = False):
    """Stacked (active, reactive) outflow per bus, summed over the branch edges.

    With jacobian=True, returns (P, dP/dx) with interleaved rows and columns,
    shape (2N, 2N); the entries off the edges and the diagonal are zero.
    """
    t = outflow_terms(net, state)
    if not jacobian:
        return t.P
    dP_dx = np.zeros((2 * net.n_bus, 2 * net.n_bus))
    dP_dx.ravel()[net.jac_index] = outflow_derivatives(net, t)
    return t.P, dP_dx


def demand_draw(net: Network, y: SwitchVector) -> np.ndarray:
    """Stacked y^2-scaled demand per bus."""
    out = np.zeros(2 * net.n_bus)
    y2 = y.y * y.y
    out[2 * net.dem_pos] = y2 * net.pd
    out[2 * net.dem_pos + 1] = y2 * net.qd
    return out


def supply(net: Network, input: InputVector, y: SwitchVector) -> np.ndarray:
    """Stacked injections: generation minus y^2-scaled demand."""
    return net.gen_sel @ input.as_vector() - demand_draw(net, y)


def _delivery(net: Network, P: np.ndarray, input: InputVector) -> np.ndarray:
    """pg - P_act per demand; demand buses without a generator take pg = 0."""
    pg_at_dem = np.where(net.dem_pg_col >= 0, input.pg[net.dem_pg_col // 2], 0.0)
    return pg_at_dem - P[2 * net.dem_pos]


def objective_E(net: Network, state: State, input: InputVector, y: SwitchVector) -> float:
    """Weighted delivery objective; demand buses without a generator take pg = 0."""
    check_sizes(net, "objective_E", state, input, y)
    return objective_from_outflow(net, outflow(net, state), input, y)


def objective_from_outflow(net: Network, P: np.ndarray, input: InputVector, y: SwitchVector) -> float:
    """``objective_E`` from the stacked outflow P that the state gives."""
    return float(np.sum(y.y * net.rank * _delivery(net, P, input)))


def check_sizes(net: Network, where: str, state: State | None = None,
                input: InputVector | None = None, y: SwitchVector | None = None) -> None:
    """Raise ValueError, naming where and the expected size, for a given part
    that does not fit net: a state per bus, an input per generator, a switch
    vector per demand."""
    if state is not None and state.v.size != net.n_bus:
        raise ValueError(f"{where}: the state has {state.v.size} buses, expected {net.n_bus}")
    if input is not None and input.pg.size != net.n_gen:
        raise ValueError(f"{where}: the input has {input.pg.size} generators, expected {net.n_gen}")
    if y is not None and y.y.size != net.n_dem:
        raise ValueError(f"{where}: the switch vector has {y.y.size} entries, expected "
                         f"{net.n_dem}, one per demand")


def constraints_C(case: GridCase, state: State, input: InputVector, y: SwitchVector,
                  P: np.ndarray | None = None) -> np.ndarray:
    """Inequality stack, feasible iff every entry is <= 0.  P is the stacked
    outflow at state when the caller has it (a fit's last trig pass), which
    gives the same floats as taking it again."""
    net = network(case)
    check_sizes(net, "constraints_C", state, input, y)
    if P is None:
        P = outflow(net, state)
    S = supply(net, input, y)
    x = state.as_vector()
    u = input.as_vector()
    return np.concatenate([
        P - S,
        S - P,
        net.x_lower - x,
        x - net.x_upper,
        net.u_lower - u,
        u - net.u_upper,
    ])


def jacobians(net: Network, state: State, input: InputVector, y: SwitchVector):
    """Outflow and analytic first derivatives from one trig evaluation.

    Returns (P, dP_dx, dE): the stacked outflow (2N), its derivative over x
    (2N x 2N, interleaved as in ``outflow``), and the objective gradient over
    (x, u, y).  ``constraint_jacobian`` stacks dP_dx into the derivative of C.
    """
    check_sizes(net, "jacobians", state, input, y)
    P, dP_dx = outflow(net, state, jacobian=True)
    # E = sum_D y r (pg - P_act): the demand buses' active rows of dP/dx weigh
    # in at -y r, and each demand bus's pg column takes its y r
    w_dem = y.y * net.rank
    has_gen = net.dem_pg_col >= 0
    dE = np.concatenate([
        -(w_dem[:, None] * dP_dx[2 * net.dem_pos]).sum(axis=0),
        np.bincount(net.dem_pg_col[has_gen], weights=w_dem[has_gen], minlength=2 * net.n_gen),
        net.rank * _delivery(net, P, input),
    ])
    return P, dP_dx, dE


def constraint_jacobian(net: Network, dP_dx: np.ndarray, y: SwitchVector) -> np.ndarray:
    """Derivative of the constraint stack C over (x, u, y), (8N + 4G) x (2N + 2G + D),
    from the dP_dx that ``jacobians`` returned at the same point.

    Its callers are ``cli_driver.self_check`` and the tests; both solver
    stages work from dP_dx and dE directly."""
    n, ngen, ndem = net.n_bus, net.n_gen, net.n_dem
    nx, nu = 2 * n, 2 * ngen

    # d(S)/du is the generator selector, d(S)/dy = -2y (pd, qd) per demand bus
    dS_dy = np.zeros((nx, ndem))
    dS_dy[2 * net.dem_pos, np.arange(ndem)] = -2.0 * y.y * net.pd
    dS_dy[2 * net.dem_pos + 1, np.arange(ndem)] = -2.0 * y.y * net.qd

    dC = np.zeros((net.n_c_rows, net.n_cols))
    r = 0
    dC[r:r + nx, :nx] = dP_dx
    dC[r:r + nx, nx:nx + nu] = -net.gen_sel
    dC[r:r + nx, nx + nu:] = -dS_dy
    r += nx
    dC[r:r + nx] = -dC[:nx]
    r += nx
    dC[r:r + nx, :nx] = -np.eye(nx)
    r += nx
    dC[r:r + nx, :nx] = np.eye(nx)
    r += nx
    dC[r:r + nu, nx:nx + nu] = -np.eye(nu)
    r += nu
    dC[r:r + nu, nx:nx + nu] = np.eye(nu)
    return dC


def hessian_Q(net: Network, nu: np.ndarray) -> np.ndarray:
    """Diagonal of the y-Hessian of E - sum_k nu_k (P - S)_act,k, with nu_k the
    multiplier of demand k's active balance row.  Only the y^2 pd draw in S
    curves, and E is linear in y."""
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (net.n_dem,):
        raise ValueError(f"nu must have length {net.n_dem}")
    return -2.0 * (nu * net.pd)


def phi(y: np.ndarray) -> float:
    y = np.asarray(y, dtype=float)
    return float(np.dot(y, 1.0 - y))


def grad_phi(y: np.ndarray) -> np.ndarray:
    return 1.0 - 2.0 * np.asarray(y, dtype=float)
