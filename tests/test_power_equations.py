import dataclasses
import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from seeded_cases import _random_case

from gridshed import ao1_opf, power_equations
from gridshed.cli_driver import SolverConfig, run_ao_sbqp
from gridshed.grid_model import (
    Branch,
    Bus,
    DemandSpec,
    Generator,
    GridCase,
    ScenarioConfig,
    apply_scenario,
    build_admittance,
    parse_case,
)
from gridshed.power_equations import (
    InputVector,
    Network,
    State,
    SwitchVector,
    constraint_row,
    constraints_C,
    flat_state,
    grad_phi,
    hessian_Q,
    jacobians,
    line_flow,
    network,
    objective_E,
    outflow,
    phi,
    supply,
)

# operating point solved to balance independently (residual < 2e-14); bus-1
# generator absorbs the mismatch, so its value exceeds pg_max on purpose
BAL_V = np.array([1.0, 0.970703892883282, 0.9745373572373851, 0.9836268041913465, 0.9994199874391664])
BAL_TH = np.array([0.0, -0.062429659795857295, -0.05391066664904875, -0.034368817053614095, -0.00038241489785819125])
BAL_PG = np.array([3.4678907595164197, 1.2, 0.9, 1.1])
BAL_QG = np.array([1.411411595164289, 0.4, 0.3, 0.35])
BAL_Y = np.array([1.0, 0.6, 0.8])


def two_bus_case(g=1.0, b=-5.0):
    return GridCase(
        buses=(Bus(id=1, v_min=0.9, v_max=1.1, is_slack=True), Bus(id=2, v_min=0.9, v_max=1.1)),
        branches=(Branch(from_bus=1, to_bus=2, g=g, b=b),),
        generators=(Generator(bus=1, pg_min=0.0, pg_max=2.0, qg_min=-1.0, qg_max=1.0),),
        demands=(DemandSpec(bus=2, pd=0.5, qd=0.1),),
    )


def random_point(case, rng):
    net = network(case)
    state = State(
        v=rng.uniform(0.96, 1.04, net.n_bus),
        theta=np.where(np.arange(net.n_bus) == net.slack, 0.0, rng.uniform(-0.25, 0.25, net.n_bus)),
    )
    span_l, span_u = net.u_lower, net.u_upper
    u = InputVector.from_vector(span_l + rng.uniform(0.1, 0.9, 2 * net.n_gen) * (span_u - span_l))
    y = SwitchVector(rng.uniform(0.05, 0.95, net.n_dem))
    return state, u, y


def random_state(case, rng):
    n = len(case.buses)
    return State(v=rng.uniform(0.9, 1.1, n), theta=rng.uniform(-0.4, 0.4, n))


def kernel_cases(case5, case30):
    """case5, case30 and the seeded random cases 0-9 of the parser tests."""
    return [case5, case30] + [_random_case(np.random.default_rng(seed)) for seed in range(10)]


def test_network_is_kept_on_its_case(case30_text):
    case = parse_case(case30_text)
    net = network(case)
    assert network(case) is net
    # an equal case built apart gets a Network of its own, equal field by field
    twin = parse_case(case30_text)
    assert twin == case and hash(twin) == hash(case)
    other = network(twin)
    assert other is not net
    for f in dataclasses.fields(Network):
        mine, theirs = getattr(net, f.name), getattr(other, f.name)
        if isinstance(mine, np.ndarray):
            assert mine.dtype == theirs.dtype
            np.testing.assert_array_equal(mine, theirs)
        else:
            assert mine == theirs
    # the Network is not a field: repr and replace leave it out
    assert "Network" not in repr(case)
    assert network(dataclasses.replace(case)) is not net


def test_network_is_freed_with_its_case(case30_text):
    case = parse_case(case30_text)
    ref = weakref.ref(network(case))
    del case
    gc.collect()
    assert ref() is None


def test_one_solve_builds_one_network(case30_text, monkeypatch):
    stressed = apply_scenario(parse_case(case30_text), ScenarioConfig())
    builds = []
    build = power_equations._build_network

    def counting(case):
        builds.append(case)
        return build(case)

    monkeypatch.setattr(power_equations, "_build_network", counting)
    run_ao_sbqp(stressed, SolverConfig())
    assert len(builds) == 1 and builds[0] is stressed


def test_line_flow_zero_at_flat_start(case5):
    state = flat_state(case5)
    for br in case5.branches:
        p, q = line_flow(case5, state, br.from_bus, br.to_bus)
        assert p == pytest.approx(0.0, abs=1e-14)
        assert q == pytest.approx(0.0, abs=1e-14)


def test_line_flow_matches_scalar_evaluation():
    case = two_bus_case()
    state = State(v=np.array([1.05, 1.00]), theta=np.array([0.1, 0.0]))
    p, q = line_flow(case, state, 1, 2)
    assert p == pytest.approx(0.5818710638539207, abs=1e-12)
    assert q == pytest.approx(0.1839030448111938, abs=1e-12)


def test_line_flow_lossless_branch():
    case = two_bus_case(g=0.0, b=-4.0)
    state = State(v=np.array([1.03, 0.98]), theta=np.zeros(2))
    p, q = line_flow(case, state, 1, 2)
    assert p == 0.0
    assert q == pytest.approx(4.0 * 1.03 * (1.03 - 0.98))


def test_line_flow_rejects_non_branch(case5):
    with pytest.raises(ValueError, match="no branch"):
        line_flow(case5, flat_state(case5), 2, 5)


def test_node_outflow_zero_at_flat_start(case30):
    P = outflow(network(case30), flat_state(case30))
    np.testing.assert_allclose(P, 0.0, atol=1e-12)


def test_node_outflow_equals_neighbor_sums(case5, case30):
    rng = np.random.default_rng(3)
    for case in kernel_cases(case5, case30):
        net = network(case)
        neighbors = {b.id: [] for b in case.buses}
        for br in case.branches:
            neighbors[br.from_bus].append(br.to_bus)
            neighbors[br.to_bus].append(br.from_bus)
        for _ in range(10):
            state = random_state(case, rng)
            P = outflow(net, state)
            for i, bus in enumerate(case.bus_ids):
                p_sum = sum(line_flow(case, state, bus, l)[0] for l in neighbors[bus])
                q_sum = sum(line_flow(case, state, bus, l)[1] for l in neighbors[bus])
                assert P[2 * i] == pytest.approx(p_sum, abs=1e-12)
                assert P[2 * i + 1] == pytest.approx(q_sum, abs=1e-12)


def test_lossless_network_conserves_active_power():
    case = GridCase(
        buses=tuple(Bus(id=i, v_min=0.9, v_max=1.1, is_slack=(i == 1)) for i in range(1, 5)),
        branches=(
            Branch(from_bus=1, to_bus=2, g=0.0, b=-8.0),
            Branch(from_bus=2, to_bus=3, g=0.0, b=-6.0),
            Branch(from_bus=3, to_bus=4, g=0.0, b=-7.0),
            Branch(from_bus=4, to_bus=1, g=0.0, b=-9.0),
        ),
        generators=(Generator(bus=1, pg_min=0.0, pg_max=2.0, qg_min=-1.0, qg_max=1.0),),
        demands=(DemandSpec(bus=3, pd=0.4, qd=0.1),),
    )
    net = network(case)
    rng = np.random.default_rng(11)
    for _ in range(25):
        state = State(v=rng.uniform(0.9, 1.1, 4), theta=rng.uniform(-0.6, 0.6, 4))
        P = outflow(net, state)
        assert abs(P[0::2].sum()) <= 1e-10


def test_supply_pure_generation_when_y_zero(case5):
    u = InputVector(pg=np.array([1.0, 0.5, 0.25, 0.75]), qg=np.array([0.1, 0.2, 0.3, 0.4]))
    S = supply(network(case5), u, SwitchVector(np.zeros(3)))
    # gens sit at buses 1, 3, 4, 5
    np.testing.assert_allclose(S[0::2], [1.0, 0.0, 0.5, 0.25, 0.75])
    np.testing.assert_allclose(S[1::2], [0.1, 0.0, 0.2, 0.3, 0.4])


def test_supply_pure_demand_bus(case5):
    u = InputVector(pg=np.zeros(4), qg=np.zeros(4))
    S = supply(network(case5), u, SwitchVector(np.array([1.0, 0.0, 0.0])))
    # bus 2 carries demand but no generator
    assert S[2] == pytest.approx(-3.0)
    assert S[3] == pytest.approx(-0.9861)


def test_supply_scales_demand_by_y_squared(case5):
    u = InputVector(pg=np.zeros(4), qg=np.zeros(4))
    net = network(case5)
    S_half = supply(net, u, SwitchVector(np.array([0.5, 0.0, 0.0])))
    S_full = supply(net, u, SwitchVector(np.array([1.0, 0.0, 0.0])))
    assert S_half[2] == pytest.approx(0.25 * S_full[2])
    assert S_half[3] == pytest.approx(0.25 * S_full[3])


def test_switch_vector_rejects_out_of_box():
    with pytest.raises(ValueError):
        SwitchVector(np.array([0.5, 1.2]))
    with pytest.raises(ValueError):
        SwitchVector(np.array([-0.1]))
    with pytest.raises(ValueError, match=r"switch values must lie in \[0, 1\]"):
        SwitchVector(np.array([np.nan, 0.5]))
    SwitchVector(np.array([0.0, 1.0, 1.0 + 1e-12]))  # solver-level roundoff passes


@pytest.mark.parametrize("build, message", [
    (lambda: State(v=np.ones(2), theta=np.zeros(3)), "v and theta must be 1-d arrays of equal length"),
    (lambda: State(v=np.ones((2, 2)), theta=np.zeros((2, 2))), "v and theta must be 1-d arrays of equal length"),
    (lambda: InputVector(pg=np.ones(2), qg=np.zeros(1)), "pg and qg must be 1-d arrays of equal length"),
    (lambda: InputVector(pg=np.ones((1, 2)), qg=np.zeros((1, 2))), "pg and qg must be 1-d arrays of equal length"),
    (lambda: SwitchVector(np.ones((2, 3))), "y must be a 1-d array"),
], ids=["state-lengths", "state-2d", "input-lengths", "input-2d", "switches-2d"])
def test_vectors_reject_a_bad_shape(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("name", ["constraints_C", "objective_E", "jacobians"])
def test_mis_sized_switch_vector_is_named(case5, name):
    # one entry where case5 has three demands; broadcasting it would read as
    # all three demands at that value
    evaluate = getattr(power_equations, name)
    on = case5 if name == "constraints_C" else network(case5)
    state, u = State(v=BAL_V, theta=BAL_TH), InputVector(pg=BAL_PG, qg=BAL_QG)
    message = f"^{name}: the switch vector has 1 entries, expected 3, one per demand$"
    with pytest.raises(ValueError, match=message):
        evaluate(on, state, u, SwitchVector(np.ones(1)))


def test_vector_round_trips():
    s = State(v=np.array([1.0, 1.02]), theta=np.array([0.0, -0.1]))
    assert np.array_equal(State.from_vector(s.as_vector()).v, s.v)
    u = InputVector(pg=np.array([0.4]), qg=np.array([-0.2]))
    np.testing.assert_array_equal(InputVector.from_vector(u.as_vector()).qg, u.qg)


def test_objective_zero_when_y_zero(case5):
    state = flat_state(case5)
    u = InputVector(pg=np.ones(4), qg=np.zeros(4))
    assert objective_E(network(case5), state, u, SwitchVector(np.zeros(3))) == 0.0


def test_objective_at_balanced_point(case5):
    state = State(v=BAL_V, theta=BAL_TH)
    u = InputVector(pg=BAL_PG, qg=BAL_QG)
    y = SwitchVector(BAL_Y)
    E = objective_E(network(case5), state, u, y)
    expected = float(np.sum(BAL_Y**3 * np.array([3.0, 3.0, 4.0])))
    assert E == pytest.approx(expected, abs=1e-12)
    # balance rows of C vanish at this point
    C = constraints_C(case5, state, u, y)
    np.testing.assert_allclose(C[:20], 0.0, atol=1e-12)


def test_constraint_stack_dimension_and_order(case5):
    net = network(case5)
    state = flat_state(case5)
    u = InputVector(pg=np.full(4, 0.5), qg=np.zeros(4))
    y = SwitchVector(np.ones(3))
    C = constraints_C(case5, state, u, y)
    assert C.shape == (8 * 5 + 4 * 4,)
    # flat start carries no flow, so the active balance rows equal the supply
    S = supply(net, u, y)
    np.testing.assert_allclose(C[:10], -S, atol=1e-14)
    np.testing.assert_allclose(C[10:20], S, atol=1e-14)
    assert C[:10].max() > 0  # demand exceeds zero flow: infeasible point


def test_constraint_active_at_bound(case5):
    state = flat_state(case5)
    state.v[2] = case5.buses[2].v_min
    u = InputVector(pg=np.zeros(4), qg=np.zeros(4))
    C = constraints_C(case5, state, u, SwitchVector(np.zeros(3)))
    # row 20 starts the x lower-bound block; bus 3 voltage sits at position 2*2
    assert C[20 + 4] == 0.0
    u2 = InputVector(pg=np.array([2.1, 0.0, 0.0, 0.0]), qg=np.zeros(4))
    C2 = constraints_C(case5, state, u2, SwitchVector(np.zeros(3)))
    # row 48 starts u - u_hi; generator 1 pg sits first and 2.1 is its cap
    assert C2[48] == 0.0


def test_constraint_rows_named_by_family_and_bus(case5):
    net = network(case5)
    labels = [constraint_row(case5, r) for r in range(net.n_c_rows)]
    assert len(set(labels)) == net.n_c_rows
    assert labels[2] == "active balance P-S at bus 2"
    assert labels[48] == "pg upper bound at generator bus 1"
    with pytest.raises(IndexError):
        constraint_row(case5, net.n_c_rows)


def central_diff(f, z, h=1e-6):
    cols = []
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        cols.append((np.asarray(f(zp)) - np.asarray(f(zm))) / (2 * h))
    return np.stack(cols, axis=-1)


def split_z(net, z):
    nx, nu = 2 * net.n_bus, 2 * net.n_gen
    return (
        State.from_vector(z[:nx]),
        InputVector.from_vector(z[nx:nx + nu]),
        SwitchVector(z[nx + nu:]),
    )


@pytest.mark.parametrize("fixture", ["case5", "case30"])
def test_derivatives_match_finite_differences(fixture, request):
    case = request.getfixturevalue(fixture)
    net = network(case)
    rng = np.random.default_rng(42)
    for _ in range(5):
        state, u, y = random_point(case, rng)
        z = np.concatenate([state.as_vector(), u.as_vector(), y.y])
        _, dP_dx, dE = jacobians(net, state, u, y)

        fd_P = central_diff(lambda x: outflow(net, State.from_vector(x)), state.as_vector())
        scale = np.maximum(1.0, np.abs(fd_P))
        assert np.max(np.abs(dP_dx - fd_P) / scale) <= 1e-6

        fd_E = central_diff(lambda zz: objective_E(net, *split_z(net, zz)), z)
        scale = np.maximum(1.0, np.abs(fd_E))
        assert np.max(np.abs(dE - fd_E) / scale) <= 1e-6


def reference_jacobians(case, state, u, y):
    """(P, dP_dx, dE) by the branch-list formula, written out edge by edge as the
    reference that the kernel must reproduce bit for bit.

    Each branch gives the directed edges (from, to) and (to, from), in branch
    order, with G_kl = -g and B_kl = -b.  A bus sums (G_kl cos + B_kl sin) v_l
    over its edges in edge order, from zero, and then adds G_kk v_k, where
    G_kk sums the g of its branches in branch order; likewise for the
    reactive part with (G_kl sin - B_kl cos) and -B_kk v_k."""
    net = network(case)
    index = {b.id: i for i, b in enumerate(case.buses)}
    edges = []
    for br in case.branches:
        k, l = index[br.from_bus], index[br.to_bus]
        edges += [(k, l, br.g, br.b), (l, k, br.g, br.b)]
    v = state.v
    n = v.size
    g_kk, b_kk = [0.0] * n, [0.0] * n
    for k, _, g, b in edges:
        g_kk[k] += g
        b_kk[k] += b
    # the trig goes through numpy, like the kernel's: element by element
    th = np.array([state.theta[k] - state.theta[l] for k, l, _, _ in edges])
    cos, sin = np.cos(th), np.sin(th)
    a1v, a2v = [0.0] * n, [0.0] * n
    dP_dx = np.zeros((2 * n, 2 * n))
    for (k, l, g, b), c, s in zip(edges, cos, sin):
        a1 = -g * c + -b * s
        a2 = -g * s - -b * c
        a1v[k] += a1 * v[l]
        a2v[k] += a2 * v[l]
        dP_dx[2 * k, 2 * l] = v[k] * a1
        dP_dx[2 * k, 2 * l + 1] = v[k] * v[l] * a2
        dP_dx[2 * k + 1, 2 * l] = v[k] * a2
        dP_dx[2 * k + 1, 2 * l + 1] = -(v[k] * v[l]) * a1
    P = np.empty(2 * n)
    for k in range(n):
        a1v[k] += g_kk[k] * v[k]
        a2v[k] -= b_kk[k] * v[k]
        p, q = v[k] * a1v[k], v[k] * a2v[k]
        P[2 * k], P[2 * k + 1] = p, q
        dP_dx[2 * k, 2 * k] = a1v[k] + v[k] * g_kk[k]
        dP_dx[2 * k, 2 * k + 1] = -q - v[k] * v[k] * b_kk[k]
        dP_dx[2 * k + 1, 2 * k] = a2v[k] - v[k] * b_kk[k]
        dP_dx[2 * k + 1, 2 * k + 1] = p - v[k] * v[k] * g_kk[k]

    nx, nu = 2 * n, 2 * net.n_gen
    w_dem = y.y * net.rank
    dE = np.zeros(nx + nu + net.n_dem)
    dE[:nx] = -(w_dem[:, None] * dP_dx[2 * net.dem_pos, :]).sum(axis=0)
    has_gen = net.dem_pg_col >= 0
    dE_u = np.zeros(nu)
    np.add.at(dE_u, net.dem_pg_col[has_gen], w_dem[has_gen])
    dE[nx:nx + nu] = dE_u
    pg_at_dem = np.where(net.dem_pg_col >= 0, u.pg[net.dem_pg_col // 2], 0.0)
    dE[nx + nu:] = net.rank * (pg_at_dem - P[2 * net.dem_pos])
    return P, dP_dx, dE


def dense_outflow(case, state):
    """(P, dP_dx) by the dense formula over the full admittance matrix: row
    sums of the trig-weighted Laplacian, the way the outflow was once taken."""
    Y = build_admittance(case)
    v = state.v
    th = state.theta[:, None] - state.theta[None, :]
    c, s = np.cos(th), np.sin(th)
    A1 = Y.G * c + Y.B * s
    A2 = Y.G * s - Y.B * c
    a1v = A1 @ v
    a2v = A2 @ v
    p = v * a1v
    q = v * a2v
    n = v.size
    P = np.empty(2 * n)
    P[0::2] = p
    P[1::2] = q
    dP_dv = v[:, None] * A1
    np.fill_diagonal(dP_dv, a1v + v * np.diag(Y.G))
    dP_dth = v[:, None] * v[None, :] * A2
    np.fill_diagonal(dP_dth, -q - v * v * np.diag(Y.B))
    dQ_dv = v[:, None] * A2
    np.fill_diagonal(dQ_dv, a2v - v * np.diag(Y.B))
    dQ_dth = -v[:, None] * v[None, :] * A1
    np.fill_diagonal(dQ_dth, p - v * v * np.diag(Y.G))
    dP_dx = np.empty((2 * n, 2 * n))
    dP_dx[0::2, 0::2] = dP_dv
    dP_dx[0::2, 1::2] = dP_dth
    dP_dx[1::2, 0::2] = dQ_dv
    dP_dx[1::2, 1::2] = dQ_dth
    return P, dP_dx


@pytest.mark.parametrize("fixture", ["case5", "case30"])
def test_split_derivatives_match_the_stacked_reference(fixture, request):
    case = request.getfixturevalue(fixture)
    net = network(case)
    rng = np.random.default_rng(17)
    for _ in range(3):
        state, u, y = random_point(case, rng)
        P, dP_dx, dE = jacobians(net, state, u, y)
        ref_P, ref_dP_dx, ref_dE = reference_jacobians(case, state, u, y)
        assert P.tobytes() == ref_P.tobytes()
        assert dP_dx.tobytes() == ref_dP_dx.tobytes()
        assert dE.tobytes() == ref_dE.tobytes()


@pytest.mark.parametrize("fixture", ["case5", "case30"])
def test_ao1_newton_jacobian_is_the_reference_block(fixture, request):
    # AO1 scatters J = [dP/dx_free | -gen_sel] straight into its own layout;
    # it must be the bits of the reference, and it must stay C-contiguous,
    # since J.T @ J rounds differently on a Fortran-ordered J.  With the
    # closed-form multipliers nu = -y r, J' nu is the reference grad E
    case = request.getfixturevalue(fixture)
    net = network(case)
    prob = ao1_opf._Problem(net, SwitchVector(np.full(net.n_dem, 0.6)))
    cols = np.concatenate([prob.free, 2 * net.n_bus + np.arange(2 * net.n_gen)])
    rng = np.random.default_rng(23)
    for _ in range(3):
        z = prob.lower + rng.uniform(0.1, 0.9, prob.lower.size) * (prob.upper - prob.lower)
        J = prob.jacobian(prob.residual(z)[1])
        state, u = ao1_opf._split(net, z)
        _, ref_dP_dx, ref_dE = reference_jacobians(case, state, u, prob.y)
        # bytes, so the -0.0 entries of the -gen_sel block keep their sign
        ref_J = np.concatenate([ref_dP_dx, -net.gen_sel], axis=1).take(cols, axis=1)
        assert J.flags.c_contiguous
        assert J.shape == ref_J.shape
        assert J.tobytes() == ref_J.tobytes()
        nu = -prob.y.y * net.rank
        assert float(np.abs(J[2 * net.dem_pos].T @ nu - ref_dE[cols]).max()) <= 1e-10


def test_outflow_matches_the_dense_formula(case5, case30):
    # the branch-list sums round differently from the dense matvec, by no more
    # than a few ulps of the largest term
    rng = np.random.default_rng(29)
    for case in kernel_cases(case5, case30):
        net = network(case)
        for _ in range(3):
            state = random_state(case, rng)
            P, dP_dx = outflow(net, state, jacobian=True)
            ref_P, ref_dP_dx = dense_outflow(case, state)
            assert np.max(np.abs(P - ref_P) / np.maximum(1.0, np.abs(ref_P))) <= 1e-12
            assert np.max(np.abs(dP_dx - ref_dP_dx) / np.maximum(1.0, np.abs(ref_dP_dx))) <= 1e-12


def test_network_has_two_edges_per_branch(case5, case30):
    for case in kernel_cases(case5, case30):
        net = network(case)
        index = {b.id: i for i, b in enumerate(case.buses)}
        expected = []
        for br in case.branches:
            k, l = index[br.from_bus], index[br.to_bus]
            expected += [(k, l), (l, k)]
        assert list(zip(net.edge_from.tolist(), net.edge_to.tolist())) == expected
        m = net.edge_from.size
        assert net.edge_GG[:m].tolist() == [-br.g for br in case.branches for _ in range(2)]
        assert net.edge_BB[:m].tolist() == [-br.b for br in case.branches for _ in range(2)]


def test_zero_admittance_branch_contributes_nothing(case5):
    # r and x are given, so the record builds although g = b = 0
    dead = Branch(from_bus=2, to_bus=5, g=0.0, b=0.0, r=1.0, x=1.0)
    with_dead = dataclasses.replace(case5, branches=(*case5.branches, dead))
    net, net_dead = network(case5), network(with_dead)
    assert net_dead.edge_from.size == net.edge_from.size + 2
    rng = np.random.default_rng(37)
    for _ in range(5):
        state = random_state(case5, rng)
        P, dP_dx = outflow(net, state, jacobian=True)
        P_dead, dP_dx_dead = outflow(net_dead, state, jacobian=True)
        assert np.array_equal(P_dead, P)
        assert np.array_equal(dP_dx_dead, dP_dx)


def test_flat_lossless_voltage_block_is_zero():
    case = GridCase(
        buses=tuple(Bus(id=i, v_min=0.9, v_max=1.1, is_slack=(i == 1)) for i in range(1, 4)),
        branches=(
            Branch(from_bus=1, to_bus=2, g=0.0, b=-5.0),
            Branch(from_bus=2, to_bus=3, g=0.0, b=-4.0),
        ),
        generators=(Generator(bus=1, pg_min=0.0, pg_max=2.0, qg_min=-1.0, qg_max=1.0),),
        demands=(DemandSpec(bus=3, pd=0.4, qd=0.1),),
    )
    state = flat_state(case)
    u = InputVector(pg=np.array([0.0]), qg=np.array([0.0]))
    net = network(case)
    dP_dx = jacobians(net, state, u, SwitchVector(np.ones(1)))[1]
    np.testing.assert_array_equal(dP_dx[0::2, 0::2], 0.0)


def test_hessian_zero_for_zero_duals(case5):
    net = network(case5)
    q = hessian_Q(net, np.zeros(net.n_dem))
    assert q.shape == (net.n_dem,)
    np.testing.assert_array_equal(q, 0.0)


def test_hessian_single_dual(case5):
    net = network(case5)
    nu = np.zeros(net.n_dem)
    # demand index 0 lives at bus 2, with pd 3.0
    nu[0] = 1.7
    q = hessian_Q(net, nu)
    assert q[0] == pytest.approx(-2.0 * 1.7 * 3.0)
    assert np.count_nonzero(q) == 1


def test_hessian_rejects_a_nu_of_the_wrong_length(case5):
    net = network(case5)
    for size in (net.n_dem - 1, net.n_dem + 1, net.n_c_rows):
        with pytest.raises(ValueError, match=f"length {net.n_dem}"):
            hessian_Q(net, np.zeros(size))


def test_hessian_matches_finite_difference(case5):
    # nu_k weighs demand k's active balance row of C = [P - S, ...], whose
    # y-derivative is 2 y_k pd_k, in column k alone
    rng = np.random.default_rng(5)
    state, u, y = random_point(case5, rng)
    net = network(case5)
    nu = rng.uniform(-1.0, 1.0, net.n_dem)

    def grad_L0_y(yy):
        dE = jacobians(net, state, u, SwitchVector(yy))[2]
        return dE[2 * net.n_bus + 2 * net.n_gen:] - nu * (2.0 * yy * net.pd)

    q = hessian_Q(net, nu)
    fd = central_diff(grad_L0_y, y.y.copy())
    # the full difference matrix against diag(q) also checks that the
    # off-diagonal curvature is zero
    np.testing.assert_allclose(np.diag(q), fd, atol=1e-7)


def test_phi_values():
    assert phi(np.array([0.0, 1.0, 1.0])) == 0.0
    assert phi(np.full(6, 0.5)) == pytest.approx(6 / 4)
    np.testing.assert_allclose(grad_phi(np.array([0.0, 0.5, 1.0])), [1.0, 0.0, -1.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
def test_phi_box_properties(ys):
    y = np.array(ys)
    val = phi(y)
    assert -1e-15 <= val <= len(ys) / 4 + 1e-12
    if val <= 1e-12:
        # tiny penalty forces every coordinate near an endpoint
        assert np.max(np.minimum(y, 1.0 - y)) <= 2e-12
    if np.max(np.minimum(y, 1.0 - y)) <= 1e-13:
        assert val <= 1e-12
