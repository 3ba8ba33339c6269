import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshed import ao2_sbqp, cli_driver, qp_core
from gridshed.ao1_opf import TOL_FEAS, solve_ao1
from gridshed.ao2_sbqp import (
    Ao2Error,
    Ao2Variant,
    PenaltySchedule,
    SbqpTrace,
    build_subproblem,
    live_demands,
    penalty_loop,
    run_ao2,
    snap_binary,
    step_length,
    subproblem_parts,
)
from gridshed.cli_driver import DriverError, SolverConfig, run_ao_sbqp
from gridshed.grid_model import ScenarioConfig, apply_scenario
from gridshed.power_equations import (
    SwitchVector,
    grad_phi,
    jacobians,
    network,
    outflow,
    phi,
)
from gridshed.qp_core import QpProblem, solve_qp

ALL_TAGS = ("mixed", "relaxed-one", "relaxed-two")


def test_schedule_validation():
    with pytest.raises(ValueError):
        PenaltySchedule(rho0=0.0)
    with pytest.raises(ValueError):
        PenaltySchedule(beta=1.0)
    with pytest.raises(ValueError):
        PenaltySchedule(eps=0.0)
    with pytest.raises(ValueError):
        PenaltySchedule(rho0=10.0, rho_max=1.0)
    # a non-finite field would keep the penalty loop from ever reaching its cap
    for field in ("rho0", "beta", "rho_max", "eps"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                PenaltySchedule(**{field: bad})


@pytest.mark.parametrize("field", ["rho0", "beta", "rho_max", "eps"])
@pytest.mark.parametrize("bad", [True, False, "1.0", None])
def test_schedule_fields_reject_non_numbers(field, bad):
    # True would pass every range check as 1 and stay a bool in the schedule
    with pytest.raises(ValueError, match=f"{field} must be a number, got {bad!r}"):
        PenaltySchedule(**{field: bad})


def test_schedule_fields_keep_ints_and_floats():
    assert PenaltySchedule(rho0=2, beta=3.0, rho_max=10, eps=1e-7).rho0 == 2


@pytest.mark.parametrize("part, message", [
    ("state", "run_ao2 start: the state has 4 buses, expected 5"),
    ("input", "run_ao2 start: the input has 3 generators, expected 4"),
    ("switches", "run_ao2 start: the switch vector has 4 entries, expected 3, one per demand"),
])
def test_run_ao2_rejects_a_mis_sized_start(case5, part, message):
    res = solve_ao1(case5, SwitchVector(np.ones(3)))
    state, inputs, switches = res.state, res.input, SwitchVector(np.ones(3))
    if part == "state":
        state = type(state)(v=state.v[:-1], theta=state.theta[:-1])
    elif part == "input":
        inputs = type(inputs)(pg=inputs.pg[:-1], qg=inputs.qg[:-1])
    else:
        switches = SwitchVector(np.ones(4))
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_ao2(case5, (state, inputs, switches), res.duals)


def test_variant_validation():
    with pytest.raises(ValueError):
        Ao2Variant(tag="relaxed-three")


def test_trace_must_be_nonempty():
    with pytest.raises(ValueError, match="^trace must be nonempty$"):
        SbqpTrace(())


def test_snap_binary_only_touches_near_endpoints():
    y = np.array([0.0, 1e-7, 0.3, 1.0 - 1e-7, 1.0])
    out = snap_binary(y, 1e-6)
    np.testing.assert_array_equal(out, [0.0, 0.0, 0.3, 1.0, 1.0])


def test_step_length_zeroing_example():
    # anchor 0.25 gives slope 0.5; the exact step runs backwards to y = 0
    alpha, kind = step_length(np.array([0.25]), np.array([0.5]), np.array([0.25]))
    assert kind == "exact"
    assert alpha == pytest.approx(-0.5, abs=1e-12)
    assert 0.25 + alpha * 0.5 == pytest.approx(0.0, abs=1e-12)


def test_step_length_fallback_on_flat_anchor():
    # anchor 0.5 zeroes the slope, so the denominator degenerates
    alpha, kind = step_length(np.array([0.2]), np.array([0.3]), np.array([0.5]))
    assert kind == "fallback"
    assert alpha == 1.0


def test_step_length_fallback_clipped_by_box():
    alpha, kind = step_length(np.array([0.5]), np.array([0.8]), np.array([0.5]))
    assert kind == "fallback-clipped"
    assert alpha == pytest.approx(0.625)


def test_step_length_exact_clipped_by_box():
    y = np.array([0.9, 0.9])
    d = np.array([-1.0, 0.0])
    anchor = np.array([0.2, 0.9])
    alpha, kind = step_length(y, d, anchor)
    assert kind == "exact-clipped"
    assert alpha == pytest.approx(-0.1, abs=1e-12)
    np.testing.assert_allclose(y + alpha * d, [1.0, 0.9], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_step_length_exact_zeroes_linearized_residual(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    y = rng.uniform(0.0, 1.0, n)
    d = rng.normal(size=n)
    anchor = rng.uniform(0.0, 1.0, n)
    alpha, kind = step_length(y, d, anchor)
    if kind == "exact":
        resid = float((y + alpha * d) @ grad_phi(anchor))
        assert abs(resid) <= 1e-10


def test_aggregate_rows_and_box(stressed30, stressed30_start):
    res, start = stressed30_start
    net = network(stressed30)
    parts = subproblem_parts(stressed30, start, res.duals, Ao2Variant(tag="relaxed-two"))
    prob = build_subproblem(parts, 1.0, parts["y_lin"])
    n = net.n_dem
    assert prob.A.shape == (3, n)
    np.testing.assert_array_equal(prob.lower, -np.ones(n))
    np.testing.assert_array_equal(prob.upper, np.zeros(n))
    np.testing.assert_array_equal(prob.A[0], -net.pd)
    np.testing.assert_array_equal(prob.A[1], -net.qd)
    np.testing.assert_array_equal(prob.A[2], net.qd)
    # the active row charges the network losses at the AO1 point
    losses = float(outflow(net, res.state)[0::2].sum())
    assert prob.b[0] == pytest.approx(float(res.input.pg.sum() - net.pd.sum()) - losses)
    assert prob.b[1] == pytest.approx(float(net.u_upper[1::2].sum() - net.qd.sum()))
    assert prob.b[2] == pytest.approx(float(net.qd.sum() - net.u_lower[1::2].sum()))


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_active_row_is_the_balance_residual_at_a_balanced_point(tag, case30):
    # at a balanced all-ones AO1 point the active row's right side sums the
    # active balance residuals, each within TOL_FEAS: the row has no slack
    # for the losses to hide in
    net = network(case30)
    ones = SwitchVector(np.ones(net.n_dem))
    res = solve_ao1(case30, ones)
    assert res.status == "converged"
    parts = subproblem_parts(case30, (res.state, res.input, ones), res.duals, Ao2Variant(tag=tag))
    prob = build_subproblem(parts, 0.0, parts["y_lin"])
    assert abs(prob.b[0]) <= net.n_bus * TOL_FEAS


def test_mixed_zero_penalty_linear_term_is_objective_gradient(stressed30, stressed30_start):
    res, start = stressed30_start
    net = network(stressed30)
    parts = subproblem_parts(stressed30, start, res.duals, Ao2Variant(tag="mixed"))
    prob = build_subproblem(parts, 0.0, parts["y_lin"])
    _, _, dE = jacobians(net, *start)
    nxu = 2 * net.n_bus + 2 * net.n_gen
    np.testing.assert_array_equal(prob.g_lin, dE[nxu:])


def test_mixed_curvature_pushed_strictly_concave(stressed30, stressed30_start):
    res, start = stressed30_start
    parts = subproblem_parts(stressed30, start, res.duals, Ao2Variant(tag="mixed"))
    prob = build_subproblem(parts, 10.0, parts["y_lin"])
    assert prob.q.shape == (network(stressed30).n_dem,)
    assert float(prob.q.max()) < 0.0


def test_relaxed_one_ignores_the_anchor(stressed30, stressed30_start):
    res, start = stressed30_start
    net = network(stressed30)
    parts = subproblem_parts(stressed30, start, res.duals, Ao2Variant(tag="relaxed-one"))
    a = build_subproblem(parts, 3.0, phi_anchor=np.zeros(net.n_dem))
    b = build_subproblem(parts, 3.0, phi_anchor=np.full(net.n_dem, 0.37))
    np.testing.assert_array_equal(a.g_lin, b.g_lin)
    np.testing.assert_array_equal(a.q, b.q)
    w = net.rank * net.pd
    np.testing.assert_allclose(a.q, 2.0 * w + 6.0, atol=1e-12)


def test_relaxed_two_linearizes_at_the_anchor(stressed30, stressed30_start):
    res, start = stressed30_start
    net = network(stressed30)
    anchor = np.full(net.n_dem, 0.25)
    prob = build_subproblem(subproblem_parts(stressed30, start, res.duals, Ao2Variant(tag="relaxed-two")), 2.0,
                            phi_anchor=anchor)
    w = net.rank * net.pd
    np.testing.assert_allclose(prob.g_lin, 2.0 * w - 2.0 * grad_phi(anchor), atol=1e-12)
    np.testing.assert_array_equal(prob.q, 2.0 * w)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_converges_binary_on_stressed_case(tag, stressed30, stressed30_start):
    res, start = stressed30_start
    schedule = PenaltySchedule()
    y, trace = run_ao2(stressed30, start, res.duals, schedule, Ao2Variant(tag=tag))
    assert trace.final_phi <= schedule.eps
    assert set(np.unique(y.y)) <= {0.0, 1.0}
    # the aggregates still hold at the returned point
    parts = subproblem_parts(stressed30, start, res.duals, Ao2Variant(tag=tag))
    base = build_subproblem(parts, 0.0, parts["y_lin"])
    slack = base.b + base.A @ (y.y - start[2].y)
    assert slack.min() >= -1e-8
    assert np.isfinite(trace.phis()).all()
    assert all(np.isfinite(r.psi) for r in trace.rows)


def test_homotopy_grows_by_beta_exactly(stressed30, stressed30_start):
    res, start = stressed30_start
    schedule = PenaltySchedule(rho0=0.7, beta=10.0)
    _, trace = run_ao2(stressed30, start, res.duals, schedule, Ao2Variant(tag="mixed"))
    rhos = [r.rho for r in trace.rows if r.rho > 0.0]
    assert rhos[0] == schedule.rho0
    for prev, cur in zip(rhos, rhos[1:]):
        assert cur == prev * schedule.beta


def test_seed_row_shape(stressed30, stressed30_start, monkeypatch):
    # every variant runs one penalty loop: its first QP is the cold rho = 0
    # solve, trace row 0, and every later row is a penalty level, warm
    # started and blended through step_length or kept as the plain "unit"
    # solution.  A cut re-run is a stage of its own and is seeded the same way
    res, start = stressed30_start
    starts, solve = [], ao2_sbqp.solve_qp
    monkeypatch.setattr(ao2_sbqp, "solve_qp", lambda prob, start: starts.append(start) or solve(prob, start=start))
    levels = {"exact", "exact-clipped", "fallback", "fallback-clipped", "unit"}
    for tag in ALL_TAGS:
        y0, _ = run_ao2(stressed30, start, res.duals, PenaltySchedule(), Ao2Variant(tag=tag))
        for cuts in ((), (y0.y,)):
            starts.clear()
            _, trace = run_ao2(stressed30, start, res.duals, PenaltySchedule(), Ao2Variant(tag=tag), cuts=cuts)
            first, *rest = trace.rows
            assert (first.iteration, first.rho, first.alpha, first.kind) == (0, 0.0, 1.0, "global")
            assert [r.iteration for r in trace.rows] == list(range(len(trace.rows)))
            assert rest and all(r.rho > 0.0 and r.kind in levels for r in rest)
            assert len(starts) == len(trace.rows)
            assert starts[0] is None and all(s is not None for s in starts[1:])


def test_mixed_levels_do_not_test_the_stage_q_again(stressed30, stressed30_start, monkeypatch):
    # mixed keeps the stage's q at every level; that array passed its
    # finiteness test when the stage problem was built, so a level tests
    # only its own g_lin (and the solve its start)
    res, start = stressed30_start
    stages, seen = [], []
    parts_of, finite = ao2_sbqp.subproblem_parts, qp_core._finite

    def spy_parts(*args, **kwargs):
        parts = parts_of(*args, **kwargs)
        stages.append(parts["stage"])
        seen.clear()
        return parts

    monkeypatch.setattr(ao2_sbqp, "subproblem_parts", spy_parts)
    monkeypatch.setattr(qp_core, "_finite", lambda x: seen.append(x) or finite(x))
    levels, build = [], ao2_sbqp.build_subproblem
    monkeypatch.setattr(ao2_sbqp, "build_subproblem", lambda *a: levels.append(build(*a)) or levels[-1])
    run_ao2(stressed30, start, res.duals, None, Ao2Variant(tag="mixed"))
    (stage,) = stages
    assert len(levels) >= 3 and all(level.q is stage.q for level in levels)
    assert not any(x is stage.q for x in seen)
    assert all(any(x is level.g_lin for x in seen) for level in levels)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_adequate_case_returns_exact_ones(tag, case5):
    y0 = SwitchVector(np.ones(3))
    res = solve_ao1(case5, y0)
    y, trace = run_ao2(case5, (res.state, res.input, y0), res.duals,
                       PenaltySchedule(), Ao2Variant(tag=tag))
    assert len(trace.rows) == 1
    assert trace.rows[0].kind == "global"
    assert np.array_equal(y.y, np.ones(3))


def test_penalty_cap_raises_with_trace():
    stuck = np.array([0.5])

    def solve_sub(rho, anchor, warm):
        return stuck, "optimal"

    schedule = PenaltySchedule(rho0=1.0, beta=10.0, rho_max=100.0)
    with pytest.raises(Ao2Error) as info:
        penalty_loop(solve_sub, schedule)
    err = info.value
    assert np.array_equal(err.y, stuck)
    assert err.trace.rows[-1].phi == pytest.approx(0.25)
    assert err.trace.penalty_iterations == 3
    assert math.isnan(err.trace.rows[0].psi)


def test_infeasible_subproblem_ends_the_stage():
    # the second subproblem reports that its rows admit no point of the box:
    # every later one has the same rows, so the stage stops there, with that
    # subproblem's row in the trace, and does not carry on from its point
    statuses = iter(["optimal", "infeasible", "optimal"])
    solved = []

    def solve_sub(rho, anchor, warm):
        solved.append(rho)
        return np.array([0.5]), next(statuses)

    with pytest.raises(Ao2Error) as info:
        penalty_loop(solve_sub, PenaltySchedule(rho0=1.0, beta=10.0, rho_max=1e6))
    err = info.value
    assert (err.kind, str(err)) == ("infeasible", "the switching rows admit no point of the box")
    assert len(solved) == 2
    assert [row.status for row in err.trace.rows] == ["optimal", "infeasible"]
    assert np.array_equal(err.y, err.trace.rows[-1].y)


def test_penalty_cap_is_the_default_kind():
    with pytest.raises(Ao2Error) as info:
        penalty_loop(lambda rho, anchor, warm: (np.array([0.5]), "optimal"),
                     PenaltySchedule(rho0=1.0, beta=10.0, rho_max=100.0))
    assert info.value.kind == "penalty-cap"


def _battery_loop(seed, n, schedule):
    """Box-only concave battery: random diagonal negative-definite model."""
    rng = np.random.default_rng(seed)
    curvature = -rng.uniform(0.5, 3.0, n)
    pull = rng.normal(size=n)

    def solve_sub(rho, anchor, warm):
        g = pull.copy()
        if anchor is not None:
            g = g - rho * grad_phi(anchor)
        prob = QpProblem(q=curvature, g_lin=g, A=np.zeros((0, n)),
                         b=np.zeros(0), lower=np.zeros(n), upper=np.ones(n))
        sol = solve_qp(prob, start=warm)
        return sol.primal, sol.status

    return penalty_loop(solve_sub, schedule)


def test_battery_run_decays_superlinearly():
    schedule = PenaltySchedule(rho0=0.05, beta=3.0)
    y, trace = _battery_loop(seed=11, n=12, schedule=schedule)
    assert trace.final_phi <= schedule.eps
    assert np.all((y <= schedule.eps * 2) | (y >= 1.0 - schedule.eps * 2))
    pre = [p for p in trace.phis()[1:] if p > schedule.eps]
    assert len(pre) >= 3
    ratios = [pre[i + 1] / pre[i] for i in range(len(pre) - 1)]
    tail = ratios[-2:]
    assert tail[1] < tail[0]


def test_battery_exact_steps_zero_the_linearized_residual():
    schedule = PenaltySchedule(rho0=0.05, beta=3.0)
    found = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 9
        curvature = -rng.uniform(0.5, 3.0, n)
        pull = rng.normal(size=n)
        anchors = []

        def solve_sub(rho, anchor, warm):
            if anchor is not None:
                anchors.append(anchor.copy())
            g = pull.copy()
            if anchor is not None:
                g = g - rho * grad_phi(anchor)
            prob = QpProblem(q=curvature, g_lin=g, A=np.zeros((0, n)),
                             b=np.zeros(0), lower=np.zeros(n), upper=np.ones(n))
            sol = solve_qp(prob, start=warm)
            return sol.primal, sol.status

        try:
            _, trace = penalty_loop(solve_sub, schedule)
        except Ao2Error:
            continue
        penalty_rows = [r for r in trace.rows if r.rho > 0.0]
        for row, anchor in zip(penalty_rows, anchors):
            if row.kind == "exact":
                found += 1
                assert abs(float(row.y @ grad_phi(anchor))) <= 1e-10
    assert found > 0


def test_blend_never_leaves_the_rows(stressed30, stressed30_start):
    # the exact step may extrapolate past the subproblem solution; the loop
    # must not keep a blend that breaks the feasibility rows
    res, start = stressed30_start
    parts = subproblem_parts(stressed30, start, res.duals, Ao2Variant(tag="relaxed-two"))
    base = build_subproblem(parts, 0.0, parts["y_lin"])
    for tag in ALL_TAGS:
        y, trace = run_ao2(stressed30, start, res.duals, PenaltySchedule(), Ao2Variant(tag=tag))
        for row in trace.rows:
            slack = base.b[:1] + base.A[:1] @ (row.y - start[2].y)
            assert slack.min() >= -1e-8, (tag, row.iteration)


# -- no-good cuts ---------------------------------------------------------------

def _fractional_start(start, seed=3):
    state, inputs, ones = start
    y_lin = np.random.default_rng(seed).uniform(0.1, 0.9, ones.y.size)
    return state, inputs, SwitchVector(y_lin)


def test_cut_row_excludes_the_rejected_set(stressed30, stressed30_start):
    res, start = stressed30_start
    net = network(stressed30)
    lin = _fractional_start(start)
    y_lin = lin[2].y
    star = (np.arange(net.n_dem) % 3 == 0).astype(float)
    prob = build_subproblem(subproblem_parts(stressed30, lin, res.duals, Ao2Variant(tag="relaxed-two"),
                                             cuts=(star,)), 1.0, y_lin)
    assert prob.A.shape == (4, net.n_dem)

    def cut_slack(y):
        return float(prob.b[3] + prob.A[3] @ (y - y_lin))

    assert cut_slack(star) == pytest.approx(-1.0, abs=1e-12)
    live = np.flatnonzero(live_demands(net))
    for k in live:
        flipped = star.copy()
        flipped[k] = 1.0 - flipped[k]
        assert cut_slack(flipped) == pytest.approx(0.0, abs=1e-12)
    # the three aggregate rows are the ones built without cuts
    plain = build_subproblem(subproblem_parts(stressed30, lin, res.duals, Ao2Variant(tag="relaxed-two")), 1.0, y_lin)
    np.testing.assert_array_equal(prob.A[:3], plain.A)
    np.testing.assert_array_equal(prob.b[:3], plain.b)


def test_cut_gives_zero_load_demands_zero_coefficients(stressed30, stressed30_start):
    res, start = stressed30_start
    net = network(stressed30)
    live = live_demands(net)
    assert int((~live).sum()) == 10
    star = np.ones(net.n_dem)
    prob = build_subproblem(subproblem_parts(stressed30, start, res.duals, Ao2Variant(tag="mixed"),
                                             cuts=(star, np.zeros(net.n_dem))), 0.0, start[2].y)
    assert prob.A.shape == (5, net.n_dem)
    for row in prob.A[3:]:
        assert np.all(row[~live] == 0.0)
        assert np.all(np.abs(row[live]) == 1.0)
    # flipping only zero-load demands still violates the cut
    ghost = star.copy()
    ghost[~live] = 0.0
    assert float(prob.b[3] + prob.A[3] @ (ghost - start[2].y)) == pytest.approx(-1.0)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_run_ao2_never_returns_a_cut_set(tag, stressed30, stressed30_start):
    res, start = stressed30_start
    live = live_demands(network(stressed30))
    y0, _ = run_ao2(stressed30, start, res.duals, None, Ao2Variant(tag=tag))
    y1, _ = run_ao2(stressed30, start, res.duals, None, Ao2Variant(tag=tag), cuts=(y0.y,))
    assert set(np.unique(y1.y)) <= {0.0, 1.0}
    assert np.any(y1.y[live] != y0.y[live])


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_parts_built_once_give_the_problems_a_fresh_build_gives(tag, stressed30, stressed30_start,
                                                                 monkeypatch):
    # run_ao2 builds the rho-independent parts once; every problem it hands
    # the QP must be, bit for bit, what a build from fresh parts makes
    res, start = stressed30_start
    variant = Ao2Variant(tag=tag)
    parts_calls, built, solved = [], {}, []

    def spy_parts(*args, **kwargs):
        parts_calls.append(args)
        return subproblem_parts(*args, **kwargs)

    def spy_build(parts, rho, phi_anchor):
        prob = build_subproblem(parts, rho, phi_anchor)
        built[id(prob)] = (prob, rho, phi_anchor)
        return prob

    def spy_solve(problem, start=None):
        solved.append(problem)
        return solve_qp(problem, start=start)

    monkeypatch.setattr(ao2_sbqp, "subproblem_parts", spy_parts)
    monkeypatch.setattr(ao2_sbqp, "build_subproblem", spy_build)
    monkeypatch.setattr(ao2_sbqp, "solve_qp", spy_solve)
    y0, _ = run_ao2(stressed30, start, res.duals, None, variant)
    for cuts in ((), (y0.y,)):
        parts_calls.clear()
        built.clear()
        solved.clear()
        run_ao2(stressed30, start, res.duals, None, variant, cuts=cuts)
        assert len(parts_calls) == 1 and solved
        for prob in solved:
            _, rho, anchor = built[id(prob)]
            fresh = build_subproblem(subproblem_parts(stressed30, start, res.duals, variant, cuts), rho, anchor)
            for name in ("q", "g_lin", "A", "b", "lower", "upper"):
                got, want = getattr(prob, name), getattr(fresh, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, rho)


@pytest.mark.parametrize("tag", ["relaxed-one", "relaxed-two"])
def test_each_subproblem_gets_one_qp_solve(tag, stressed30, stressed30_start, monkeypatch):
    # run_ao2's first build is the row check's reference problem, and the
    # rho = 0 seeding solve (trace row 0) solves that very problem; every
    # later build is one subproblem, solved once from the incumbent, with no
    # second start from the all-off corner
    res, start = stressed30_start
    variant = Ao2Variant(tag=tag)
    y0, _ = run_ao2(stressed30, start, res.duals, None, variant)
    calls = []

    def spy_build(*args, **kwargs):
        calls.append(build_subproblem(*args, **kwargs))
        return calls[-1]

    def spy_solve(problem, start=None):
        calls.append(("solve", problem))
        return solve_qp(problem, start=start)

    monkeypatch.setattr(ao2_sbqp, "build_subproblem", spy_build)
    monkeypatch.setattr(ao2_sbqp, "solve_qp", spy_solve)
    for cuts in ((), (y0.y,)):
        calls.clear()
        _, trace = run_ao2(stressed30, start, res.duals, None, variant, cuts=cuts)
        assert trace.rows[0].rho == 0.0 and calls[1] == ("solve", calls[0])
        assert len(calls) == 2 * len(trace.rows)
        for built, solved in zip(calls[2::2], calls[3::2]):
            assert solved == ("solve", built)


# -- one checked stage problem per run_ao2 ---------------------------------------

# the seeded (pd_shift, rank_seed) draws of bench/workloads.py's shed30, seeds 1-3
SHED30_DRAWS = [(2.5118216247002567, 1621709875), (2.2616121342493165, 234731698),
                (2.0856491671436244, 385346042)]


def _checked_every_level_ao2(case, start, duals, variant, cuts=()):
    """run_ao2 with a fully checked QpProblem built at every penalty level
    from the curvature, linear term, rows and box of subproblem_parts' stage
    problem, each trace row's phi taken again for its psi."""
    schedule = PenaltySchedule()
    y_lin = start[2].y
    net = network(case)
    w = net.rank * net.pd
    parts = subproblem_parts(case, start, duals, variant, cuts)
    stage = parts["stage"]

    def build(rho, anchor):
        q, anchor = stage.q, y_lin if anchor is None else anchor
        if variant.tag == "relaxed-one":
            q, anchor = q + 2.0 * rho, y_lin
        return QpProblem(q=q, g_lin=stage.g_lin - rho * grad_phi(anchor), A=stage.A.copy(),
                         b=stage.b.copy(), lower=stage.lower.copy(), upper=stage.upper.copy())

    base = build(0.0, y_lin)

    def solve_sub(rho, anchor, warm):
        prob = base if rho == 0.0 else build(float(rho), anchor)
        sol = solve_qp(prob, start=None if warm is None else warm - y_lin)
        return y_lin + sol.primal, sol.status

    def feasible(y):
        return float((base.b + base.A @ (y - y_lin)).min(initial=0.0)) >= -1e-9

    def psi_of(y, rho, _phi_y):
        if variant.tag == "mixed":
            d = y - y_lin
            return 0.5 * float(d * base.q @ d) + float(base.g_lin @ d) - rho * phi(y)
        return float(w @ (y * y)) - rho * phi(y)

    y, trace = penalty_loop(solve_sub, schedule, psi_of=psi_of, feasible=feasible)
    return SwitchVector(snap_binary(y, 2.0 * schedule.eps)), trace


def _stage_bytes(run):
    """The bytes of a switching stage's switches, or of its Ao2Error's, and of
    every field of every trace row; run() runs the stage."""
    try:
        switches, trace = run()
        head = ("answer", switches.y.tobytes())
    except Ao2Error as exc:
        head, trace = (exc.kind, np.asarray(exc.y).tobytes()), exc.trace
    return head, [(r.iteration, r.y.tobytes(), np.float64([r.phi, r.rho, r.alpha, r.psi]).tobytes(),
                   r.status, r.kind) for r in trace.rows]


def _assert_stage_matches_checked_levels(case, start, duals, variant, cuts=()):
    got = _stage_bytes(lambda: run_ao2(case, start, duals, None, variant, cuts=cuts))
    assert got == _stage_bytes(lambda: _checked_every_level_ao2(case, start, duals, variant, cuts))
    return got


def _stage_cases(stressed30):
    from seeded_cases import _feasible_case

    cases = [stressed30]
    cases += [apply_scenario(stressed30, ScenarioConfig(pd_shift=shift, rank_seed=rank))
              for shift, rank in SHED30_DRAWS]
    cases += [_feasible_case(np.random.default_rng(seed)) for seed in range(20)]
    return cases


def test_run_ao2_matches_a_problem_checked_at_every_level(stressed30, monkeypatch):
    # from each case's all-ones fit, again with the set it answers cut, and
    # at every stage a full solve of the case runs: switches and trace rows
    # are byte-equal to those of a loop that builds and checks a whole
    # QpProblem at every penalty level
    stages = 0
    switch = cli_driver.run_ao2

    def both(case, start, duals, schedule, variant, cuts=()):
        nonlocal stages
        assert schedule == PenaltySchedule()
        _assert_stage_matches_checked_levels(case, start, duals, variant, cuts)
        stages += 1
        return switch(case, start, duals, schedule, variant, cuts=cuts)

    monkeypatch.setattr(cli_driver, "run_ao2", both)
    answered = 0
    for case in _stage_cases(stressed30):
        ones = SwitchVector(np.ones(len(case.demands)))
        res = solve_ao1(case, ones)
        start = (res.state, res.input, ones)
        for tag in ALL_TAGS:
            variant = Ao2Variant(tag=tag)
            (kind, y), _ = _assert_stage_matches_checked_levels(case, start, res.duals, variant)
            if kind == "answer":
                answered += 1
                _assert_stage_matches_checked_levels(case, start, res.duals, variant,
                                                     cuts=(np.frombuffer(y),))
            try:
                run_ao_sbqp(case, SolverConfig(variant=variant))
            except DriverError:
                pass
    # every all-ones stage answers, so each is re-run with its answer cut
    assert answered == 3 * 24 and stages >= 150, (answered, stages)


def test_run_ao2_checks_the_box_and_rows_once(stressed30, stressed30_start, monkeypatch):
    # one full QpProblem check per stage, the stage problem's; every level
    # checks only its q and g_lin, and a mis-sized one still raises
    res, start = stressed30_start
    checks, builds = [], []
    check = QpProblem.__post_init__

    def counted(self):
        checks.append(self)
        check(self)

    def counted_build(*args, **kwargs):
        builds.append(args[1])
        return build_subproblem(*args, **kwargs)

    monkeypatch.setattr(QpProblem, "__post_init__", counted)
    monkeypatch.setattr(ao2_sbqp, "build_subproblem", counted_build)
    for tag in ALL_TAGS:
        checks.clear()
        builds.clear()
        _, trace = run_ao2(stressed30, start, res.duals, None, Ao2Variant(tag=tag))
        assert len(checks) == 1 and len(builds) == len(trace.rows) >= 2
    parts = subproblem_parts(stressed30, start, res.duals, Ao2Variant(tag="relaxed-two"))
    stage = parts["stage"]
    n = stage.dim
    for q, g in ((stage.q, stage.g_lin[:-1]), (stage.q[:-1], stage.g_lin), (stage.q, np.zeros(n + 1)),
                 (np.ones((n, 1)), stage.g_lin), (stage.q, stage.g_lin[:, None])):
        with pytest.raises(ValueError, match="^q and g_lin must be vectors the size of the box$"):
            stage.with_objective(q, g)
    # an anchor of shape (n, 1) broadcasts the level's g to (n, n)
    with pytest.raises(ValueError, match="^q and g_lin must be vectors the size of the box$"):
        build_subproblem(parts, 10.0, phi_anchor=np.zeros((n, 1)))


def _count_memo_entries(monkeypatch):
    """Spies on the stage problems subproblem_parts makes and on the kernel
    constants qp_core forms: returns (stages, formed, reads), formed holding
    (memo, key) per formation, key (row, sign), "stationary" or "exact" (the
    exact path's scaled box, kept in the memo or not), and reads the number
    of memo reads, formations included."""
    stages, formed, reads = [], [], []
    parts_of, memo_entry = ao2_sbqp.subproblem_parts, qp_core._memo_entry
    lone_row, stationary, scaled = qp_core._lone_row, qp_core._stationary_parts, qp_core._scaled_box

    def spy_parts(*args, **kwargs):
        parts = parts_of(*args, **kwargs)
        stages.append(parts["stage"])
        return parts

    def spy_entry(problem, key, form, *args):
        reads.append(key)
        return memo_entry(problem, key, form, *args)

    def spy_row(problem, i, d):
        formed.append((problem._memo, (i, d)))
        return lone_row(problem, i, d)

    def spy_stationary(problem):
        formed.append((problem._memo, "stationary"))
        return stationary(problem)

    def spy_scaled(problem):
        formed.append((problem._memo, "exact"))
        return scaled(problem)

    monkeypatch.setattr(ao2_sbqp, "subproblem_parts", spy_parts)
    monkeypatch.setattr(qp_core, "_memo_entry", spy_entry)
    monkeypatch.setattr(qp_core, "_lone_row", spy_row)
    monkeypatch.setattr(qp_core, "_stationary_parts", spy_stationary)
    monkeypatch.setattr(qp_core, "_scaled_box", spy_scaled)
    return stages, formed, reads


def _assert_formed_once_per_stage(stages, formed):
    """Every formation went into the memo of one of the stages, each key at
    most once per memo; returns each stage's formations by key."""
    per_stage = {id(stage._memo): Counter() for stage in stages}
    assert len(per_stage) == len(stages)
    for memo, key in formed:
        per_stage[id(memo)][key] += 1
    for counts in per_stage.values():
        assert set(counts.values()) <= {1}, counts
    return per_stage


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_a_stage_forms_its_kernel_constants_once(tag, stressed30, stressed30_start, monkeypatch):
    # every penalty level of a run_ao2 stage shares the stage problem's memo:
    # each lone-row entry (row, sign), the stationary path's block and the
    # exact path's scaled box are formed once per stage, whichever level
    # needs them first, and every later level reads them; mixed levels, which
    # keep the stage's q, all take the exact path.  A cut re-run is a stage
    # of its own and forms its own; so do the stages of a whole solve
    res, start = stressed30_start
    variant = Ao2Variant(tag=tag)
    stages, formed, reads = _count_memo_entries(monkeypatch)
    y0, _ = run_ao2(stressed30, start, res.duals, None, variant)
    run_ao2(stressed30, start, res.duals, None, variant, cuts=(y0.y,))
    per_stage = _assert_formed_once_per_stage(stages, formed)
    # both stages formed their own, and the levels read more than they formed
    assert len(per_stage) == 2 and all(per_stage.values()) and len(reads) > len(formed)
    uncut, cut = stages
    assert cut.A.shape[0] == uncut.A.shape[0] + 1
    assert all(("exact" in counts) == (tag == "mixed") for counts in per_stage.values())
    stages.clear()
    formed.clear()
    try:
        run_ao_sbqp(stressed30, SolverConfig(variant=variant))
    except DriverError:
        pass
    assert stages
    _assert_formed_once_per_stage(stages, formed)

    # a problem built directly from a stage's arrays, and a dataclasses.replace
    # copy of the stage, start with memos of their own and form their own
    stage = uncut
    filled = set(stage._memo)
    for problem in (QpProblem(q=stage.q, g_lin=stage.g_lin, A=stage.A, b=stage.b, lower=stage.lower,
                              upper=stage.upper), dataclasses.replace(stage)):
        assert problem._memo == {} and problem._memo is not stage._memo
        formed.clear()
        concave = -np.abs(stage.q) - 1.0
        for q in (concave, np.abs(stage.q)):
            solve_qp(problem.with_objective(q, stage.g_lin))
        assert formed and all(memo is problem._memo for memo, _ in formed)
        assert Counter(key for _, key in formed) == Counter(set(problem._memo))
        assert set(stage._memo) == filled

        # the scaled box is kept with the q it was formed for: a level with
        # that very array reads it, and a level with another q forms a box of
        # its own and leaves the kept one in place
        kept = problem._memo["exact"]
        assert kept[0] is concave
        formed.clear()
        solve_qp(problem.with_objective(concave, 0.5 * stage.g_lin))
        assert [key for _, key in formed if key == "exact"] == []
        for q in (concave.copy(), concave - 1.0):
            formed.clear()
            solve_qp(problem.with_objective(q, stage.g_lin))
            assert [key for _, key in formed if key == "exact"] == ["exact"]
            assert problem._memo["exact"] is kept


def test_penalty_loop_hands_psi_the_rows_phi():
    seen = []

    def psi_of(y, rho, phi_y):
        seen.append((phi_y, phi(y)))
        return rho

    schedule = PenaltySchedule(rho0=1.0, beta=10.0, rho_max=1e6)
    moves = iter([np.array([0.5, 0.25]), np.array([0.75, 0.0]), np.array([1.0, 0.0])])
    _, trace = penalty_loop(lambda rho, anchor, warm: (next(moves), "optimal"), schedule,
                            psi_of=psi_of, feasible=lambda y: True)
    assert [row.phi for row in trace.rows] == [s[0] for s in seen] == [s[1] for s in seen]
    assert len(seen) == len(trace.rows) == 3


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_penalty_loop_takes_each_points_phi_once(tag, stressed30, stressed30_start, monkeypatch):
    # a blended level takes phi of its blended and of its plain point to
    # choose between them, and its trace row reuses the chosen one's: two phi
    # a level, and one at the seeding pass.  Each blended row once took its
    # point's phi a third time
    res, start = stressed30_start
    calls, levels = [], []
    phi_of, solve = ao2_sbqp.phi, ao2_sbqp.solve_qp
    monkeypatch.setattr(ao2_sbqp, "phi", lambda y: calls.append(0) or phi_of(y))
    monkeypatch.setattr(ao2_sbqp, "solve_qp", lambda *a, **k: levels.append(len(calls)) or solve(*a, **k))
    _, trace = run_ao2(stressed30, start, res.duals, PenaltySchedule(), Ao2Variant(tag=tag))
    per_level = np.diff([*levels, len(calls)]).tolist()
    assert per_level == [1 if row.kind == "global" else 2 for row in trace.rows]
    assert 2 in per_level
