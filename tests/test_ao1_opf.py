import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gridshed
from gridshed import ao1_opf
from gridshed.ao1_opf import TOL_FEAS, active_capacity_screen, solve_ao1
from gridshed.ao2_sbqp import Ao2Variant
from gridshed.cli_driver import FEAS_TOL, SolverConfig, enumerate_oracle, run_ao_sbqp
from gridshed.power_equations import (SwitchVector, constraints_C, demand_draw, hessian_Q, jacobians,
                                      network, outflow)


def test_all_switches_open_is_trivial(case5):
    r = solve_ao1(case5, SwitchVector(np.zeros(3)))
    assert r.status == "converged"
    assert r.objective == pytest.approx(0.0, abs=1e-9)
    C = constraints_C(case5, r.state, r.input, SwitchVector(np.zeros(3)))
    assert C.max() <= 1e-8


def test_full_supply_on_adequate_case(case5):
    y = SwitchVector(np.ones(3))
    r = solve_ao1(case5, y)
    assert r.status == "converged"
    C = constraints_C(case5, r.state, r.input, y)
    assert np.abs(C[:20]).max() <= 1e-8   # balance rows
    assert C.max() <= 1e-8
    # everything delivered: E = sum r pd = 10
    assert r.objective == pytest.approx(10.0, abs=1e-6)
    # one multiplier per demand, on a balance row that holds
    net = network(case5)
    assert np.array_equal(r.duals, -net.rank)
    assert np.abs(r.duals * C[2 * net.dem_pos]).max() <= 1e-6


def test_balance_identity_at_fractional_switches(case5):
    yv = np.array([0.3, 0.9, 0.5])
    r = solve_ao1(case5, SwitchVector(yv))
    assert r.status == "converged"
    expected = float(np.sum(yv**3 * np.array([3.0, 3.0, 4.0])))
    assert r.objective == pytest.approx(expected, abs=1e-6)


def test_warm_restart_is_immediate(case5):
    y = SwitchVector(np.ones(3))
    first = solve_ao1(case5, y)
    again = solve_ao1(case5, y, warm=(first.state, first.input))
    assert again.status == "converged"
    assert again.iterations <= 2


def test_balance_duals_take_analytic_values(case5):
    # E depends on (x, u) only through the balance residuals, so the active
    # balance duals equal -y r at the balanced end point, grad E = J' nu holds
    # there, and the switch Hessian comes out positive semi-definite
    yv = np.array([1.0, 0.7, 0.4])
    y = SwitchVector(yv)
    r = solve_ao1(case5, y)
    assert r.status == "converged"
    net = network(case5)
    np.testing.assert_array_equal(r.duals, -yv * net.rank)
    prob = ao1_opf._Problem(net, y)
    z = np.concatenate([r.state.as_vector()[prob.free], r.input.as_vector()])
    F, J = prob.residual_jacobian(z)
    cols = np.concatenate([prob.free, 2 * net.n_bus + np.arange(2 * net.n_gen)])
    grad_E = jacobians(net, r.state, r.input, y)[2][cols]
    assert float(np.abs(F).max()) <= TOL_FEAS
    assert float(np.abs(J[2 * net.dem_pos].T @ r.duals - grad_E).max()) <= 1e-10
    q = hessian_Q(net, r.duals)
    np.testing.assert_allclose(q, 2.0 * yv * net.rank * net.pd, atol=1e-5)
    assert q.min() >= -1e-8


def test_mismatch_case_cannot_balance(stressed30):
    y = SwitchVector(np.ones(30))
    r = solve_ao1(stressed30, y)
    assert r.status == "infeasible"
    # the fit's stationary point parks active injections at their ceilings
    caps = np.array([g.pg_max for g in stressed30.generators])
    assert np.max(caps - r.input.pg) <= 1e-3


def test_adequate_30_bus_full_delivery(case30):
    y = SwitchVector(np.ones(20))
    r = solve_ao1(case30, y)
    assert r.status == "converged"
    total = sum(d.pd for d in case30.demands)
    assert r.objective == pytest.approx(total, abs=1e-6)


# -- active-capacity screen ----------------------------------------------------

@pytest.fixture
def restorations(monkeypatch):
    """Count the least-squares fits that solve_ao1 runs."""
    calls = []
    original = ao1_opf.least_squares

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ao1_opf, "least_squares", counting)
    return calls


def test_negative_conductance_is_never_screened(negative_g5, restorations):
    ones = SwitchVector(np.ones(3))
    assert not active_capacity_screen(network(negative_g5), ones)
    r = solve_ao1(negative_g5, ones)
    assert r.status == "infeasible"
    assert len(restorations) == 1


@pytest.mark.parametrize("side, fires", [(-1.0, False), (1.0, True)])
def test_screen_margin_is_n_bus_times_tol(shortfall5_case, side, fires):
    # move the first demand so that sum pd sits 1e-3 of the margin either
    # side of sum pg_max + n_bus * TOL_FEAS; losses keep both infeasible
    net = network(shortfall5_case)
    margin = net.n_bus * TOL_FEAS
    target = float(net.u_upper[0::2].sum()) + margin * (1.0 + 1e-3 * side)
    first, *rest = shortfall5_case.demands
    first = dataclasses.replace(first, pd=target - sum(d.pd for d in rest))
    case = dataclasses.replace(shortfall5_case, demands=(first, *rest))
    ones = SwitchVector(np.ones(3))
    assert active_capacity_screen(network(case), ones) is fires
    r = solve_ao1(case, ones)
    assert (r.status, r.certificate) == ("infeasible", "screen" if fires else "restoration")


# -- no scipy anywhere in the solver ---------------------------------------------

_CASES = textwrap.dedent("""
    import dataclasses, json, sys
    from importlib import resources
    import numpy as np
    from gridshed import (Ao2Variant, Branch, ScenarioConfig, SolverConfig, SwitchVector,
                          apply_scenario, enumerate_oracle, parse_case, run_ao_sbqp,
                          self_check, solve_ao1)

    def case(name):
        return parse_case(resources.files("gridshed").joinpath(f"cases/{name}.m").read_text())

    case5, case30 = case("case5"), case("case30")
    shortfall = ScenarioConfig(shift_mode="multiplicative", pd_shift=1.0, qd_shift=1.0,
                               pg_upper_scale=0.5, qg_bound_scale=0.5,
                               rank_seed=2, demand_set_mode="loaded-buses")
    loaded = ["scipy.optimize" in sys.modules]
""")


def _scipy_loaded(body: str) -> list[bool]:
    """Run body after _CASES in a fresh interpreter; returns its `loaded` list.

    A fresh process, since other tests load scipy into this one.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(gridshed.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    script = _CASES + textwrap.dedent(body) + "print(json.dumps(loaded))\n"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_screened_solves_never_import_scipy():
    # criterion 1 (every variant), criterion 3 (oracle and solve), the
    # self-check, and a set the screen cannot take (the negative_g5
    # fixture's case, certified by the fit): none loads scipy.optimize
    loaded = _scipy_loaded("""
        for tag in ("mixed", "relaxed-one", "relaxed-two"):
            run_ao_sbqp(case30, SolverConfig(variant=Ao2Variant(tag=tag), scenario=ScenarioConfig()))
        cfg = SolverConfig(scenario=shortfall)
        enumerate_oracle(case5, cfg)
        run_ao_sbqp(case5, cfg)
        self_check(case30)
        work = apply_scenario(case5, shortfall)
        first, *rest = work.branches
        flipped = Branch(from_bus=first.from_bus, to_bus=first.to_bus, g=-first.g, b=first.b)
        work = dataclasses.replace(work, branches=(flipped, *rest))
        assert solve_ao1(work, SwitchVector(np.ones(3))).status == "infeasible"
        loaded.append("scipy.optimize" in sys.modules)
    """)
    assert loaded == [False, False]


def test_oracle_labels_match_direct_solves(shortfall5_case):
    # a screened configuration is labelled without a solve; the label must
    # be the one a solve plus the constraint check gives
    entries = enumerate_oracle(shortfall5_case, SolverConfig())
    assert len(entries) == 8
    assert [e.switches for e in entries if e.screened] == [(1, 1, 1)]
    for e in entries:
        y = SwitchVector(np.array(e.switches, dtype=float))
        r = solve_ao1(shortfall5_case, y)
        feasible = r.status == "converged" and float(
            np.max(constraints_C(shortfall5_case, r.state, r.input, y), initial=0.0)) <= FEAS_TOL
        assert e.feasible == feasible, e.switches


@pytest.mark.parametrize("fixture", ["stressed30", "case5"])
def test_residual_jacobian_reuses_the_outflow_bitwise(fixture, request):
    # the fit's residual is formed from the derivative pass's outflow, which
    # must be the very bits that outflow itself gives
    case = request.getfixturevalue(fixture)
    net = network(case)
    prob = ao1_opf._Problem(net, SwitchVector(np.full(net.n_dem, 0.7)))
    rng = np.random.default_rng(8)
    for _ in range(3):
        z = prob.lower + rng.uniform(0.1, 0.9, prob.lower.size) * (prob.upper - prob.lower)
        state, u = prob.split(z)
        residual = outflow(net, state) - net.gen_sel @ u.as_vector() + prob.draw
        assert np.array_equal(prob.residual_jacobian(z)[0], residual)
        assert np.array_equal(jacobians(net, state, u, prob.y)[0], outflow(net, state))


@pytest.mark.parametrize("yv", [(1.0, 1.0, 1.0), (0.3, 0.9, 0.5), (1.0, 0.0, 1.0)])
def test_converged_result_reports_the_final_residual(case5, yv):
    # the reported residual is max|F| at the end point, not at the start
    y = SwitchVector(np.array(yv))
    r = solve_ao1(case5, y)
    assert r.status == "converged"
    assert r.iterations > 0
    net = network(case5)
    F = outflow(net, r.state) - net.gen_sel @ r.input.as_vector() + demand_draw(net, y)
    assert r.residual == float(np.abs(F).max())
    assert 0.0 <= r.residual <= TOL_FEAS


# -- the least-squares fit and how its end maps to a status ------------------------

def test_unscreened_stall_ends_stationary_and_infeasible(negative_g5, monkeypatch):
    fits = []
    fit = ao1_opf.least_squares

    def recording(prob, z0):
        fits.append(fit(prob, z0))
        return fits[-1]

    monkeypatch.setattr(ao1_opf, "least_squares", recording)
    r = solve_ao1(negative_g5, SwitchVector(np.ones(3)))
    assert [f.status for f in fits] == ["stationary"]
    assert float(np.max(np.abs(fits[0].fun))) > TOL_FEAS
    assert r.status == "infeasible"
    assert r.certificate == "restoration"


def test_capped_fit_is_no_proof(negative_g5, restorations, monkeypatch):
    # one fit iteration cannot reach stationarity: the verdict must say so
    monkeypatch.setattr(ao1_opf, "FIT_MAX_ITERS", 1)
    r = solve_ao1(negative_g5, SwitchVector(np.ones(3)))
    assert len(restorations) == 1
    assert (r.status, r.certificate) == ("max-iterations", "")


def test_screened_stall_carries_the_screen_certificate(stressed30):
    r = solve_ao1(stressed30, SwitchVector(np.ones(30)))
    assert (r.status, r.certificate) == ("infeasible", "screen")


@pytest.mark.parametrize("fixture, cap, fit_end, status, certificate", [
    ("case5", None, "balanced", "converged", ""),
    ("stressed30", None, "stationary", "infeasible", "screen"),
    ("stressed30", 1, "cap", "infeasible", "screen"),
    ("negative_g5", None, "stationary", "infeasible", "restoration"),
    ("negative_g5", 1, "cap", "max-iterations", ""),
])
def test_fit_end_sets_the_status(fixture, cap, fit_end, status, certificate, request, monkeypatch):
    # one fit per solve; the screen proves a screened set infeasible however
    # the fit ends, while elsewhere only a stationary end is proof
    case = request.getfixturevalue(fixture)
    if cap is not None:
        monkeypatch.setattr(ao1_opf, "FIT_MAX_ITERS", cap)
    fits = []
    fit = ao1_opf.least_squares

    def recording(prob, z0):
        fits.append(fit(prob, z0))
        return fits[-1]

    monkeypatch.setattr(ao1_opf, "least_squares", recording)
    r = solve_ao1(case, SwitchVector(np.ones(len(case.demands))))
    assert [f.status for f in fits] == [fit_end]
    assert (r.status, r.certificate) == (status, certificate)
    assert r.iterations == fits[0].nfev - 1


def test_balanced_warm_start_returns_after_one_evaluation(case5, monkeypatch):
    y = SwitchVector(np.ones(3))
    first = solve_ao1(case5, y)
    passes = []
    evaluate = ao1_opf.outflow_terms
    monkeypatch.setattr(ao1_opf, "outflow_terms", lambda *args: passes.append(1) or evaluate(*args))
    again = solve_ao1(case5, y, warm=(first.state, first.input))
    # the KKT check reuses the fit's one evaluation
    assert (again.status, again.iterations, len(passes)) == ("converged", 0, 1)
    assert np.array_equal(again.state.as_vector(), first.state.as_vector())
    assert np.array_equal(again.input.as_vector(), first.input.as_vector())


def test_converged_solve_has_no_certificate(case5):
    assert solve_ao1(case5, SwitchVector(np.ones(3))).certificate == ""


def test_fit_returns_at_once_from_a_balanced_start(case5):
    y = SwitchVector(np.ones(3))
    r = solve_ao1(case5, y)
    prob = ao1_opf._Problem(network(case5), y)
    z = np.concatenate([r.state.as_vector()[prob.free], r.input.as_vector()])
    out = ao1_opf.least_squares(prob, z)
    assert (out.status, out.nfev) == ("balanced", 1)
    assert np.array_equal(out.x, z)
    assert float(np.max(np.abs(out.fun))) <= TOL_FEAS


@pytest.mark.parametrize("start", ["middle", "lower", "upper"])
def test_fit_keeps_every_point_inside_the_bounds(negative_g5, start):
    prob = ao1_opf._Problem(network(negative_g5), SwitchVector(np.ones(3)))
    seen = []
    evaluate = prob.residual_jacobian

    def recording(z):
        seen.append(z.copy())
        return evaluate(z)

    prob.residual_jacobian = recording
    z0 = {"middle": 0.5 * (prob.lower + prob.upper), "lower": prob.lower - 1.0,
          "upper": prob.upper + 1.0}[start]
    out = ao1_opf.least_squares(prob, z0)
    assert out.nfev == len(seen) > 1
    for z in seen + [out.x]:
        assert np.all(z >= prob.lower) and np.all(z <= prob.upper)
    assert out.status == "stationary"


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_spoiled_clip_is_re_solved_on_the_free_coordinates(sign):
    # F = A z - b from z = 0: the damped Gauss-Newton step, about
    # sign * (17, -17), runs along the flat direction of A'A.  The box cuts
    # its second coordinate to the bound and keeps the first, a step up the
    # steep direction that raises the model
    A = np.array([[1.0, 1.0], [0.0, 0.1]])
    b = sign * np.array([0.0, -2.0])
    seen = []

    def residual_jacobian(z):
        seen.append(z.copy())
        return A @ z - b, A.copy()

    prob = SimpleNamespace(lower=np.array([-30.0, -1.0]), upper=np.array([30.0, 1.0]),
                           residual_jacobian=residual_jacobian)
    z0 = np.zeros(2)
    out = ao1_opf.least_squares(prob, z0)

    # the first step as the fit forms it: every coordinate free, lam = 1e-3
    g = A.T @ (A @ z0 - b)
    H = A.T @ A
    M = H + 1e-3 * np.diag(np.diag(H))
    step = np.linalg.solve(M, -g)
    spoiled = np.clip(z0 + step, prob.lower, prob.upper)
    h = spoiled - z0
    assert g @ h + 0.5 * float((A @ h) @ (A @ h)) > 0.0
    left = spoiled != z0 + step
    assert left.tolist() == [False, True]
    keep = ~left

    z1 = seen[1]
    # the leaving coordinate sits at the bound it crossed
    assert np.array_equal(z1[left], np.where(step > 0.0, prob.upper, prob.lower)[left])
    # the kept one solves the reduced damped system
    rhs = -g[keep] - M[np.ix_(keep, left)] @ h[left]
    resid = M[np.ix_(keep, keep)] @ (z1[keep] - z0[keep]) - rhs
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(rhs)
    # no evaluation went to the spoiled point
    assert not any(np.array_equal(z, spoiled) for z in seen)
    assert out.nfev == len(seen)
    assert out.status == "stationary"
    assert np.allclose(out.x, sign * np.array([1.0, -1.0]), atol=1e-6)


@pytest.mark.parametrize("tag", ["mixed", "relaxed-one", "relaxed-two"])
def test_pinned_stressed_fits_take_few_evaluations(stressed30, monkeypatch, tag):
    # the all-ones fit from the flat start and the warm fit at the first
    # proposed set: 15 and 38 evaluations (25 for relaxed-two) when every
    # spoiled clip was evaluated, 10 and 10 (8) with the re-solve
    nfev = []
    fit = ao1_opf.least_squares

    def counting(prob, z0):
        out = fit(prob, z0)
        nfev.append(out.nfev)
        return out

    monkeypatch.setattr(ao1_opf, "least_squares", counting)
    run_ao_sbqp(stressed30, SolverConfig(variant=Ao2Variant(tag=tag)))
    assert nfev[0] <= 12
    assert nfev[1] <= 20


# -- closed-form balance multipliers ---------------------------------------------

@pytest.mark.parametrize("fixture, yv, cap, status", [
    ("case5", (1.0, 0.7, 0.4), None, "converged"),
    ("case5", (1.0, 0.0, 1.0), None, "converged"),
    ("stressed30", None, None, "infeasible"),
    ("negative_g5", None, 1, "max-iterations"),
])
def test_duals_are_the_closed_form_at_every_end(fixture, yv, cap, status, request, monkeypatch):
    # however the fit ends, the hand-off carries nu = -y r, one multiplier per
    # demand's active row, so the mixed curvature is 2 y r pd exactly
    case = request.getfixturevalue(fixture)
    if cap is not None:
        monkeypatch.setattr(ao1_opf, "FIT_MAX_ITERS", cap)
    net = network(case)
    y = SwitchVector(np.ones(net.n_dem) if yv is None else np.array(yv))
    r = solve_ao1(case, y)
    assert r.status == status
    assert r.duals.shape == (net.n_dem,)
    assert np.array_equal(r.duals, -y.y * net.rank)
    q = hessian_Q(net, r.duals)
    assert np.array_equal(q, 2.0 * y.y * net.rank * net.pd)


@pytest.mark.parametrize("fixture", ["case5", "stressed30"])
def test_balance_duals_are_stationary_off_balance(fixture, request):
    # grad E = J' nu holds at every point of the box, not only balanced ones;
    # grad E comes from jacobians, independently of the fit's J
    case = request.getfixturevalue(fixture)
    net = network(case)
    rng = np.random.default_rng(17)
    for _ in range(5):
        prob = ao1_opf._Problem(net, SwitchVector(rng.uniform(0.0, 1.0, net.n_dem)))
        z = prob.lower + rng.uniform(0.0, 1.0, prob.lower.size) * (prob.upper - prob.lower)
        F, J = prob.residual_jacobian(z)
        state, u = prob.split(z)
        cols = np.concatenate([prob.free, 2 * net.n_bus + np.arange(2 * net.n_gen)])
        grad_E = jacobians(net, state, u, prob.y)[2][cols]
        assert float(np.abs(F).max()) > TOL_FEAS
        nu = -prob.y.y * net.rank
        assert float(np.abs(J[2 * net.dem_pos].T @ nu - grad_E).max()) <= 1e-10


def _ranks_scaled(case, factor):
    return dataclasses.replace(case, demands=tuple(
        dataclasses.replace(d, rank=d.rank * factor) for d in case.demands))


def test_large_ranks_keep_full_service(case30):
    # the status reads the balance residual alone, so the rank scale cannot
    # turn a balanced fit into a failed one; at 1e9 the rounding of a
    # run-time check of grad E = J' nu once did
    plain = run_ao_sbqp(case30, SolverConfig())
    big = run_ao_sbqp(_ranks_scaled(case30, 1e9), SolverConfig())
    assert int(np.sum(big.switches.y < 0.5)) == 0
    assert big.objective / 1e9 == pytest.approx(plain.objective, rel=1e-9)


def test_balanced_fit_converges_at_any_rank_scale(case30):
    r = solve_ao1(_ranks_scaled(case30, 1e10), SwitchVector(np.ones(20)))
    assert r.residual <= TOL_FEAS
    assert r.status == "converged"


def test_converged_solve_runs_no_lstsq(case30, monkeypatch):
    # the multipliers come in closed form; lstsq is only the fit's fallback
    # for a singular damped system
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    r = solve_ao1(case30, SwitchVector(np.ones(20)))
    assert r.status == "converged"
    assert calls == []


@pytest.mark.parametrize("fixture", ["case5", "case30"])
def test_free_columns_skip_the_slack(fixture, request):
    net = network(request.getfixturevalue(fixture))
    free = ao1_opf._Problem(net, SwitchVector(np.ones(net.n_dem))).free
    nx = 2 * net.n_bus
    listed = np.array([i for i in range(nx) if i not in (2 * net.slack, 2 * net.slack + 1)])
    assert free.dtype == listed.dtype
    assert np.array_equal(free, listed)
