import dataclasses
import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridshed
from gridshed import ao1_opf, cli_driver
from gridshed.ao1_opf import TOL_FEAS, active_capacity_screen, solve_ao1
from gridshed.ao2_sbqp import Ao2Variant
from gridshed.cli_driver import SolverConfig, enumerate_oracle, run_ao_sbqp
from gridshed.grid_model import ScenarioConfig, apply_scenario
from gridshed.power_equations import (State, SwitchVector, constraints_C, demand_draw, hessian_Q,
                                      jacobians, network, outflow)

# the bound that a reported answer meets on every row of C
FEAS_TOL = 1e-6


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
    F, terms = prob.residual(z)
    J = prob.jacobian(terms)
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


@pytest.mark.parametrize("part, message", [
    ("y", "solve_ao1: the switch vector has 4 entries, expected 3, one per demand"),
    ("state", "solve_ao1 warm start: the state has 4 buses, expected 5"),
    ("input", "solve_ao1 warm start: the input has 5 generators, expected 4"),
])
def test_mis_sized_inputs_are_named_at_entry(case5, part, message):
    y = SwitchVector(np.ones(3))
    first = solve_ao1(case5, y)
    state, u = first.state, first.input
    if part == "y":
        y = SwitchVector(np.ones(4))
    elif part == "state":
        state = State(v=state.v[:-1], theta=state.theta[:-1])
    else:
        u = type(u)(pg=np.append(u.pg, 0.0), qg=np.append(u.qg, 0.0))
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_ao1(case5, y, warm=None if part == "y" else (state, u))


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


def test_oracle_screens_each_set_once(shortfall5_case, monkeypatch):
    # the oracle screens every set to label it; a fit takes the screen again
    # only where an unconverged status or its first tau reads it
    screens, statuses = [], []
    screen, solve = ao1_opf.active_capacity_screen, cli_driver.solve_ao1

    def counted(net, y):
        screens.append(tuple(y.y.tolist()))
        return screen(net, y)

    def recorded(case, y, warm=None):
        r = solve(case, y, warm=warm)
        statuses.append(r.status)
        return r

    monkeypatch.setattr(cli_driver, "active_capacity_screen", counted)
    monkeypatch.setattr(ao1_opf, "active_capacity_screen", counted)
    monkeypatch.setattr(cli_driver, "solve_ao1", recorded)
    entries = enumerate_oracle(shortfall5_case)
    unconverged = sum(status != "converged" for status in statuses)
    assert len(statuses) == sum(not e.screened for e in entries) > unconverged
    assert len(entries) <= len(screens) <= len(entries) + unconverged


@pytest.mark.parametrize("fixture", ["stressed30", "case5"])
def test_residual_jacobian_reuses_the_outflow_bitwise(fixture, request):
    # the fit's residual is formed from the trig pass's outflow, which must
    # be the very bits that outflow itself gives
    case = request.getfixturevalue(fixture)
    net = network(case)
    prob = ao1_opf._Problem(net, SwitchVector(np.full(net.n_dem, 0.7)))
    rng = np.random.default_rng(8)
    for _ in range(3):
        z = prob.lower + rng.uniform(0.1, 0.9, prob.lower.size) * (prob.upper - prob.lower)
        state, u = ao1_opf._split(net, z)
        residual = outflow(net, state) - net.gen_sel @ u.as_vector() + prob.draw
        assert np.array_equal(prob.residual(z)[0], residual)
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
    # 23 evaluations under the relative-decrease test alone; the stop at the
    # rounding floor may only shorten the fit
    assert fits[0].nfev <= 23


def test_capped_fit_is_no_proof(negative_g5, restorations, monkeypatch):
    # one fit iteration cannot reach stationarity: the verdict must say so
    monkeypatch.setattr(ao1_opf, "FIT_MAX_ITERS", 1)
    r = solve_ao1(negative_g5, SwitchVector(np.ones(3)))
    assert len(restorations) == 1
    assert (r.status, r.certificate) == ("max-iterations", "")


def test_screened_stall_carries_the_screen_certificate(stressed30, shortfall5_case):
    # the screen proves the set infeasible in closed form, so the fit ends once
    # a step gains no more than FIT_FTOL f: 10 and 25 evaluations without that
    for case, most in ((stressed30, 8), (shortfall5_case, 16)):
        r = solve_ao1(case, SwitchVector(np.ones(len(case.demands))))
        assert (r.status, r.certificate) == ("infeasible", "screen")
        assert r.iterations + 1 <= most


def test_restoration_fit_ends_at_the_rounding_floor(case30, monkeypatch):
    # a shed30 draw (seed 3), relaxed-one: its second fit, on a set the screen
    # passes, took 74 evaluations when only the lam backstop could end it
    case = apply_scenario(case30, ScenarioConfig(pd_shift=2.0856491671436244, rank_seed=385346042))
    results = []
    solve = cli_driver.solve_ao1

    def recording(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli_driver, "solve_ao1", recording)
    run_ao_sbqp(case, SolverConfig(variant=Ao2Variant(tag="relaxed-one")))
    second = results[1]
    assert (second.status, second.certificate) == ("infeasible", "restoration")
    assert second.iterations + 1 <= 35


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


@pytest.fixture
def passes(monkeypatch):
    """Count the trig passes (residuals) and derivative passes that AO1 runs."""
    counts = {"residual": 0, "derivative": 0}
    trig, derivatives = ao1_opf.outflow_terms, ao1_opf.outflow_derivatives

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ao1_opf, "outflow_terms", counted("residual", trig))
    monkeypatch.setattr(ao1_opf, "outflow_derivatives", counted("derivative", derivatives))
    return counts


def test_balanced_warm_start_returns_after_one_evaluation(case5, passes):
    y = SwitchVector(np.ones(3))
    first = solve_ao1(case5, y)
    passes.update(residual=0, derivative=0)
    again = solve_ao1(case5, y, warm=(first.state, first.input))
    # the fit's one residual pass also gives E, and a balanced start needs no
    # derivatives
    assert (again.status, again.iterations) == ("converged", 0)
    assert passes == {"residual": 1, "derivative": 0}
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
    evaluate = prob.residual

    def recording(z):
        seen.append(z.copy())
        return evaluate(z)

    prob.residual = recording
    z0 = {"middle": 0.5 * (prob.lower + prob.upper), "lower": prob.lower - 1.0,
          "upper": prob.upper + 1.0}[start]
    out = ao1_opf.least_squares(prob, z0)
    assert out.nfev == len(seen) > 1
    for z in seen + [out.x]:
        assert np.all(z >= prob.lower) and np.all(z <= prob.upper)
    assert out.status == "stationary"


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_fit_held_at_a_bound_by_its_gradient_ends_stationary(sign):
    # F = z - 2 sign from z0 = sign on the box [-1, 1]: the gradient pushes
    # the one coordinate out through the bound it sits on, so no coordinate
    # is free and the projected gradient is empty
    prob = SimpleNamespace(lower=np.array([-1.0]), upper=np.array([1.0]),
                           residual=lambda z: (z - 2.0 * sign, None), jacobian=lambda terms: np.ones((1, 1)))
    out = ao1_opf.least_squares(prob, np.array([sign]))
    assert (out.status, out.nfev, out.njev) == ("stationary", 1, 1)
    assert out.x.tolist() == [sign] and out.fun.tolist() == [-sign]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_spoiled_clip_is_re_solved_on_the_free_coordinates(sign):
    # F = A z - b from z = 0: the damped Gauss-Newton step, about
    # sign * (17, -17), runs along the flat direction of A'A.  The box cuts
    # its second coordinate to the bound and keeps the first, a step up the
    # steep direction that raises the model
    A = np.array([[1.0, 1.0], [0.0, 0.1]])
    b = sign * np.array([0.0, -2.0])
    seen = []

    def residual(z):
        seen.append(z.copy())
        return A @ z - b, None

    def rounding(F, terms, z):
        # 8 eps sum_i |F_i| m_i, m_i the magnitudes summed into F_i
        return 8.0 * ao1_opf.EPS * float(np.abs(F) @ (np.abs(A) @ np.abs(z) + np.abs(b)))

    prob = SimpleNamespace(lower=np.array([-30.0, -1.0]), upper=np.array([30.0, 1.0]),
                           residual=residual, jacobian=lambda terms: A.copy(),
                           screened=False, rounding=rounding)
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
        F, terms = prob.residual(z)
        J = prob.jacobian(terms)
        state, u = ao1_opf._split(net, z)
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


def test_balancing_fit_converges_quadratically_in_its_tail(case30):
    # adequate case30, all ones, flat start: once |F| < 1e-2 every accepted
    # step squares it, |F_k+1| <= 10 |F_k|^2, since the damping follows |F|
    # there
    class Recording(ao1_opf._Problem):
        def __init__(self, net, y):
            super().__init__(net, y)
            self.norms, self.accepted = [], []

        def residual(self, z):
            F, terms = super().residual(z)
            self.norms.append(float(np.linalg.norm(F)))
            return F, terms

        def jacobian(self, terms):
            # the fit forms derivatives only at a point it goes on from
            self.accepted.append(len(self.norms) - 1)
            return super().jacobian(terms)

    net = network(case30)
    prob = Recording(net, SwitchVector(np.ones(net.n_dem)))
    fit = ao1_opf.least_squares(prob, net.fit_start)
    assert fit.status == "balanced"
    path = [prob.norms[k] for k in prob.accepted] + [prob.norms[-1]]
    tail = [(a, b) for a, b in zip(path, path[1:]) if a < 1e-2]
    assert len(tail) >= 2
    assert all(b <= 10.0 * a * a for a, b in tail)


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


def _draws(net, rng, count=8):
    """All-ones, all-off and count switch sets drawn from [0, 1]^n."""
    return [np.ones(net.n_dem), np.zeros(net.n_dem)] + [rng.uniform(0.0, 1.0, net.n_dem) for _ in range(count)]


@pytest.mark.parametrize("fixture", ["case5", "shortfall5_case", "stressed30"])
def test_dispatch_start_covers_the_load_when_the_range_allows(fixture, request):
    # one share of each generator's range: the summed pg equals sum y^2 pd
    # whenever the summed bounds bracket it, and otherwise sits at the bound
    # nearer to it; qg likewise against sum y^2 qd; voltages flat at the slack
    net = network(request.getfixturevalue(fixture))
    start = ao1_opf.dispatch_start(net)
    covered = 0
    for yv in _draws(net, np.random.default_rng(3)):
        state, u = start(SwitchVector(yv))
        assert np.array_equal(state.v, np.full(net.n_bus, net.slack_v))
        for got, need, lo, hi in ((u.pg, yv**2 @ net.pd, net.u_lower[0::2], net.u_upper[0::2]),
                                  (u.qg, yv**2 @ net.qd, net.u_lower[1::2], net.u_upper[1::2])):
            assert np.all(got >= lo - 1e-12) and np.all(got <= hi + 1e-12)
            share = (got - lo) / (hi - lo)
            assert np.allclose(share, share[0], rtol=0.0, atol=1e-12)
            if lo.sum() <= need <= hi.sum():
                assert got.sum() == pytest.approx(need, rel=1e-12, abs=1e-12)
                covered += 1
            else:
                assert np.allclose(got, lo if need < lo.sum() else hi, rtol=0.0, atol=1e-12)
    assert covered > 0


@pytest.mark.parametrize("fixture", ["case5", "shortfall5_case", "stressed30"])
def test_dispatch_start_angles_solve_the_reduced_dc_equations(fixture, request):
    # the DC power flow, built here from the branch list: bus k's injection
    # pg - y^2 pd equals sum over its branches (k, l) of -b (theta_k -
    # theta_l) at every bus but the slack, whose angle is 0
    case = request.getfixturevalue(fixture)
    net = network(case)
    index = {b.id: i for i, b in enumerate(case.buses)}
    L = np.zeros((net.n_bus, net.n_bus))
    for br in case.branches:
        k, l = index[br.from_bus], index[br.to_bus]
        L[[k, l], [k, l]] -= br.b
        L[[k, l], [l, k]] += br.b
    start = ao1_opf.dispatch_start(net)
    keep = np.arange(net.n_bus) != net.slack
    turned = 0
    for yv in _draws(net, np.random.default_rng(4)):
        y = SwitchVector(yv)
        state, u = start(y)
        p = (net.gen_sel @ u.as_vector() - demand_draw(net, y))[0::2]
        assert state.theta[net.slack] == 0.0
        np.testing.assert_allclose((L @ state.theta)[keep], p[keep], rtol=0.0, atol=1e-9 * max(1.0, np.abs(p).max()))
        turned += bool(np.any(state.theta != 0.0))
    assert turned > 0


def test_dispatch_start_gives_zero_angles_on_a_singular_laplacian(shortfall5_case):
    # bus 2 is reached only through branches of zero susceptance, so the
    # reduced Laplacian is singular: every angle starts at 0, and a fit from
    # there runs as from any other start
    branches = tuple(dataclasses.replace(br, b=0.0) if 2 in (br.from_bus, br.to_bus) else br
                     for br in shortfall5_case.branches)
    case = dataclasses.replace(shortfall5_case, branches=branches)
    net = network(case)
    start = ao1_opf.dispatch_start(net)
    for yv in _draws(net, np.random.default_rng(5), count=2):
        y = SwitchVector(yv)
        state, u = start(y)
        assert np.array_equal(state.theta, np.zeros(net.n_bus))
        assert u.pg.sum() == pytest.approx(min(yv**2 @ net.pd, net.u_upper[0::2].sum()), rel=1e-12, abs=1e-12)
        assert solve_ao1(case, y, warm=(state, u)).status in ("converged", "infeasible", "max-iterations")


def test_dispatch_start_is_built_once_and_kept_on_the_network(case5, shortfall5_case):
    # a copy of the case gets its own network, so the builder made here is
    # the first on that network
    case = dataclasses.replace(shortfall5_case)
    net = network(case)
    assert "_dispatch_start" not in vars(net)
    start = ao1_opf.dispatch_start(net)
    assert vars(net)["_dispatch_start"] is start
    assert ao1_opf.dispatch_start(net) is start
    assert ao1_opf.dispatch_start(network(case5)) is not start
    assert ao1_opf.dispatch_start(network(shortfall5_case)) is not start
    # nothing outside the network holds it: without the attribute the next
    # call builds again
    assert not any(isinstance(value, dict) and any(v is start for v in value.values())
                   for value in vars(ao1_opf).values())
    object.__delattr__(net, "_dispatch_start")
    fresh = ao1_opf.dispatch_start(net)
    assert fresh is not start
    for yv in _draws(net, np.random.default_rng(6)):
        y = SwitchVector(yv)
        (state, u), (want_state, want_u) = start(y), fresh(y)
        assert state.as_vector().tobytes() == want_state.as_vector().tobytes()
        assert u.as_vector().tobytes() == want_u.as_vector().tobytes()


def test_oracle_entries_are_equal_on_a_second_enumeration(shortfall5_case):
    # the second enumeration takes the kept start tables, after a solve on
    # the same case, and gives the entries of the first and of a fresh case
    case = dataclasses.replace(shortfall5_case)

    def fields(entries):
        return [(e.switches, e.feasible, e.objective, e.screened, e.evaluations) for e in entries]

    first = fields(enumerate_oracle(case))
    run_ao_sbqp(case)
    assert fields(enumerate_oracle(case)) == first
    assert fields(enumerate_oracle(dataclasses.replace(shortfall5_case))) == first


# -- the result's parts formed on read ---------------------------------------------

def _bytes(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("fixture, cap, status, certificate", [
    ("case5", None, "converged", ""),
    ("shortfall5_case", None, "infeasible", "screen"),
    ("stressed30", None, "infeasible", "screen"),
    ("negative_g5", None, "infeasible", "restoration"),
    ("negative_g5", 1, "max-iterations", ""),
])
def test_parts_formed_on_read_equal_the_eager_formulas(fixture, cap, status, certificate, request,
                                                        monkeypatch):
    # state, input, duals and E are formed from the kept fit when first read,
    # one _split for the point, and are the bytes of the eager formulas:
    # _split at the end vector, E from the end point's outflow, and -y r
    case = request.getfixturevalue(fixture)
    if cap is not None:
        monkeypatch.setattr(ao1_opf, "FIT_MAX_ITERS", cap)
    net = network(case)
    y = SwitchVector(np.ones(net.n_dem))
    fits, splits = [], []
    fit, split = ao1_opf.least_squares, ao1_opf._split

    def recording(prob, z0):
        fits.append(fit(prob, z0))
        return fits[-1]

    def counted(net, z):
        splits.append(z)
        return split(net, z)

    monkeypatch.setattr(ao1_opf, "least_squares", recording)
    monkeypatch.setattr(ao1_opf, "_split", counted)
    r = solve_ao1(case, y)
    assert (r.status, r.certificate) == (status, certificate)
    assert splits == []
    state, u = split(net, fits[0].x)
    E = ao1_opf.objective_from_outflow(net, fits[0].terms.P, u, y)
    for lazy, eager in ((r.state.v, state.v), (r.state.theta, state.theta), (r.input.pg, u.pg),
                        (r.input.qg, u.qg), (r.duals, -y.y * net.rank)):
        assert _bytes(lazy) == _bytes(eager)
    assert r.objective.hex() == E.hex()
    # each part is formed once and kept
    assert len(splits) == 1
    assert r.state is r.state and r.input is r.input and r.duals is r.duals
    assert len(splits) == 1


def test_oracle_forms_no_point_and_no_objective(shortfall5_case, monkeypatch):
    # the oracle reads a fit's status and iterations alone
    calls = {"_split": 0, "objective_from_outflow": 0, "solve_ao1": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(ao1_opf, "_split")
    counted(ao1_opf, "objective_from_outflow")
    counted(cli_driver, "solve_ao1")
    entries = enumerate_oracle(shortfall5_case)
    assert calls["solve_ao1"] == sum(not e.screened for e in entries) > 0
    assert (calls["_split"], calls["objective_from_outflow"]) == (0, 0)


def _reference_oracle(case):
    """enumerate_oracle's per-set loop with each set's bits from a list of
    shifts and its switch tuple from int()s, as (switches, objective bytes,
    screened, feasible, evaluations) in the oracle's order."""
    _, work, net = cli_driver._setup(case, None)
    start = ao1_opf.dispatch_start(net)
    entries = []
    for code in range(2 ** net.n_dem):
        bits = np.array([(code >> k) & 1 for k in range(net.n_dem)], dtype=float)
        y = SwitchVector(bits)
        screened = active_capacity_screen(net, y)
        feasible, evaluations = False, 0
        if not screened:
            fit = solve_ao1(work, y, warm=start(y))
            feasible, evaluations = fit.status == "converged", fit.iterations + 1
        objective = float(np.sum(bits * net.rank * net.pd))
        entries.append((tuple(int(b) for b in bits), objective, screened, feasible, evaluations))
    entries.sort(key=lambda e: (not e[3], -e[1], e[0]))
    return [(switches, objective.hex(), *rest) for switches, objective, *rest in entries]


@pytest.mark.parametrize("which", ["shortfall5_case", "feasible cases"])
def test_oracle_entries_equal_a_per_set_reference_loop(which, request):
    if which == "shortfall5_case":
        cases = [request.getfixturevalue(which)]
    else:
        from seeded_cases import _feasible_case
        cases = [_feasible_case(np.random.default_rng(seed)) for seed in range(20)]
    for case in cases:
        entries = enumerate_oracle(case)
        assert all(type(b) is int for e in entries for b in e.switches)
        got = [(e.switches, e.objective.hex(), e.screened, e.feasible, e.evaluations) for e in entries]
        assert got == _reference_oracle(case)


def _fits_to_check(which, request):
    """{label: [(case, y), ...]}: on case5, its shortfall scenario and the
    negative-conductance copy, fits that end converged, by the screen and by
    the fit's own stationary end; on stressed case30, seeded draws that end
    all three ways; or every switch set of _feasible_case seeds 0-19 or of
    _random_case seeds 0-39."""
    if which != "case5 and stressed30":
        from seeded_cases import _feasible_case, _random_case
        draw, seeds = (_feasible_case, 20) if which == "feasible cases" else (_random_case, 40)
        pairs = []
        for seed in range(seeds):
            case = draw(np.random.default_rng(seed))
            pairs += [(case, SwitchVector(np.array(bits, dtype=float)))
                      for bits in itertools.product((0.0, 1.0), repeat=network(case).n_dem)]
        return {which: pairs}
    ones = SwitchVector(np.ones(3))
    stressed30 = request.getfixturevalue("stressed30")
    rng = np.random.default_rng(0)
    draws = [rng.random(30) < rng.uniform(0.2, 0.9) for _ in range(12)]
    return {"case5": [(request.getfixturevalue(name), ones)
                      for name in ("case5", "shortfall5_case", "negative_g5")],
            "stressed30": [(stressed30, SwitchVector(bits.astype(float))) for bits in draws]}


@pytest.mark.parametrize("which", ["case5 and stressed30", "feasible cases", "random cases"])
def test_a_converged_fit_meets_every_row_of_C(which, request, monkeypatch):
    # a fit's point is clipped into the box and the slack's (v, theta) lies in
    # its band, so every bound row of C is <= 0 exactly, and the balance rows
    # are F up to rounding: a converged fit meets every row of C, and its
    # status is the whole verdict, cold here and from the oracle's starts
    oracle_fits = {}
    solve = cli_driver.solve_ao1

    def recorded(case, y, warm=None):
        r = solve(case, y, warm=warm)
        oracle_fits[tuple(y.y.tolist())] = r
        return r

    monkeypatch.setattr(cli_driver, "solve_ao1", recorded)

    def check(case, y, r):
        if r.status == "converged":
            C = constraints_C(case, r.state, r.input, y)
            assert float(C[4 * network(case).n_bus:].max()) <= 0.0
            assert float(C.max()) <= FEAS_TOL

    for label, pairs in _fits_to_check(which, request).items():
        ends = set()
        for case, y in pairs:
            r = solve_ao1(case, y)
            ends.add((r.status, r.certificate))
            check(case, y, r)
        assert {("converged", ""), ("infeasible", "screen")} <= ends, label
        if label in ("case5", "stressed30"):
            assert ("infeasible", "restoration") in ends, label
        if label == "stressed30":
            continue    # too many demands to enumerate
        for case in {id(case): case for case, _ in pairs}.values():
            oracle_fits.clear()
            entries = enumerate_oracle(case)
            assert len(oracle_fits) == sum(not e.screened for e in entries)
            for e in entries:
                r = oracle_fits.get(tuple(float(b) for b in e.switches))
                assert e.feasible == (r is not None and r.status == "converged"), (label, e.switches)
                if r is not None:
                    check(case, SwitchVector(np.array(e.switches, dtype=float)), r)


@pytest.mark.parametrize("fixture, bits", [("negative_g5", (1, 1, 1)), ("shortfall5_case", (1, 1, 1)),
                                           ("stressed30", None)])
def test_rejected_trial_builds_no_jacobian(fixture, bits, request):
    # derivatives are formed at the start and after each accepted step that
    # the fit goes on from, never at a rejected trial, and each point gets at
    # most one derivative pass
    net = network(request.getfixturevalue(fixture))
    prob = ao1_opf._Problem(net, SwitchVector(np.ones(net.n_dem) if bits is None else np.array(bits, float)))
    points, derived = [], []
    residual, jacobian = prob.residual, prob.jacobian

    def recording_residual(z):
        F, terms = residual(z)
        points.append((0.5 * float(F @ F), terms))
        return F, terms

    def recording_jacobian(terms):
        derived.append(terms)
        return jacobian(terms)

    prob.residual, prob.jacobian = recording_residual, recording_jacobian
    out = ao1_opf.least_squares(prob, net.fit_start)
    accepted, rejected = [points[0][1]], []
    f = points[0][0]
    for f_try, terms in points[1:]:
        if f_try < f:
            accepted.append(terms)
            f = f_try
        else:
            rejected.append(terms)
    assert out.nfev == len(points)
    assert out.terms is accepted[-1]
    # every one of these fits ends by its decrease test, at an accepted point
    # that it does not go on from
    assert out.status == "stationary"
    assert len(derived) == len(accepted) - 1
    assert all(d is a for d, a in zip(derived, accepted))
    assert not any(d is r for d in derived for r in rejected)
    if fixture != "stressed30":
        assert len(rejected) > 0


# -- the fit against a frozen copy of its last per-point Jacobian version -----------
#
# Until the derivative pass was split from the trig pass, each fit point formed
# the residual and its whole Jacobian, and outflow_terms took one (cos, sin)
# per edge into separate (4, m + N) value rows.  The copies below are that
# code, frozen, with one later change to the fit: its stop at the rounding
# floor, whose estimate the frozen problem forms from its own trig.  The fit
# must still return the same bits.

def frozen_outflow_terms(net, state, derivatives=True):
    n, m = net.n_bus, net.edge_from.size
    G, B = net.edge_GG[:m], net.edge_BB[:m]
    diag_G = np.bincount(net.edge_from, weights=-G, minlength=n)
    diag_B = np.bincount(net.edge_from, weights=-B, minlength=n)
    v = state.v
    k, l = net.edge_from, net.edge_to
    th = state.theta[k] - state.theta[l]
    c, s = np.cos(th), np.sin(th)
    a1 = G * c + B * s
    a2 = G * s - B * c
    vl = v[l]
    a1v = np.bincount(k, weights=a1 * vl, minlength=n) + diag_G * v
    a2v = np.bincount(k, weights=a2 * vl, minlength=n) - diag_B * v
    p = v * a1v
    q = v * a2v
    P = np.empty(2 * n)
    P[0::2] = p
    P[1::2] = q
    if not derivatives:
        return P, None

    vk = v[k]
    vv = vk * vl
    vsq = v * v
    values = np.empty((4, m + n))
    dP_dv, dP_dth, dQ_dv, dQ_dth = values
    np.multiply(vk, a1, out=dP_dv[:m])
    np.add(a1v, v * diag_G, out=dP_dv[m:])
    np.multiply(vv, a2, out=dP_dth[:m])
    np.subtract(-q, vsq * diag_B, out=dP_dth[m:])
    np.multiply(vk, a2, out=dQ_dv[:m])
    np.subtract(a2v, v * diag_B, out=dQ_dv[m:])
    np.multiply(-vv, a1, out=dQ_dth[:m])
    np.subtract(p, vsq * diag_G, out=dQ_dth[m:])
    return P, values.ravel()


def frozen_layout(net):
    """(jac_index, fit_pick, fit_index) for the frozen value order."""
    n, buses = net.n_bus, np.arange(net.n_bus)
    kl = np.array([np.concatenate([net.edge_from, buses]), np.concatenate([net.edge_to, buses])])
    rows = (2 * kl[0] + np.array([[0], [0], [1], [1]])).ravel()
    cols = (2 * kl[1] + np.array([[0], [1], [0], [1]])).ravel()
    fit_pick = np.flatnonzero(cols // 2 != net.slack)
    fit_cols = cols[fit_pick]
    fit_cols -= 2 * (fit_cols > 2 * net.slack)
    return rows * (2 * n) + cols, fit_pick, rows[fit_pick] * (2 * n - 2 + 2 * net.n_gen) + fit_cols


class FrozenProblem:
    def __init__(self, net, y):
        self.net = net
        self.y = y
        nx = 2 * net.n_bus
        self.free = np.delete(np.arange(nx), (2 * net.slack, 2 * net.slack + 1))
        self.lower = np.concatenate([net.x_lower[self.free], net.u_lower])
        self.upper = np.concatenate([net.x_upper[self.free], net.u_upper])
        self.nx_free = self.free.size
        self.draw = demand_draw(net, y)
        self.screened = active_capacity_screen(net, y)
        self.jac_base = np.concatenate([np.zeros((nx, self.nx_free)), -net.gen_sel], axis=1)
        self.free_bus = self.free[0::2] // 2
        _, self.fit_pick, self.fit_index = frozen_layout(net)
        v = np.empty(net.n_bus)
        theta = np.empty(net.n_bus)
        v[net.slack] = net.slack_v
        theta[net.slack] = 0.0
        self.point = State(v=v, theta=theta)

    def cold_start(self):
        net = self.net
        x0 = np.empty(2 * net.n_bus)
        x0[0::2] = net.slack_v
        x0[1::2] = 0.0
        return np.concatenate([x0[self.free], 0.5 * (net.u_lower + net.u_upper)])

    def residual_jacobian(self, z):
        net = self.net
        nxf = self.nx_free
        self.point.v[self.free_bus] = z[0:nxf:2]
        self.point.theta[self.free_bus] = z[1:nxf:2]
        u = z[nxf:]
        P, values = frozen_outflow_terms(net, self.point)
        J = self.jac_base.copy()
        J.ravel()[self.fit_index] = values[self.fit_pick]
        F = P - net.gen_sel @ u + self.draw
        return F, J

    def rounding(self, F, z):
        """8 eps sum_i |F_i| m_i at z, with m_i the magnitudes summed into F_i:
        v_k (sum over edges |a v_l| + |diagonal v_k|), generation and draw."""
        net = self.net
        n, nxf = net.n_bus, self.nx_free
        v = np.empty(n)
        theta = np.empty(n)
        v[net.slack], theta[net.slack] = net.slack_v, 0.0
        v[self.free_bus], theta[self.free_bus] = z[0:nxf:2], z[1:nxf:2]
        k, l = net.edge_from, net.edge_to
        th = theta[k] - theta[l]
        c, s = np.cos(th), np.sin(th)
        vl = v[l]
        G, B = net.edge_GG[:k.size], net.edge_BB[:k.size]
        diag_G = np.bincount(k, weights=-G, minlength=n)
        diag_B = np.bincount(k, weights=-B, minlength=n)
        m = np.empty(2 * n)
        m[0::2] = np.bincount(k, weights=np.abs((G * c + B * s) * vl), minlength=n)
        m[1::2] = np.bincount(k, weights=np.abs((G * s - B * c) * vl), minlength=n)
        m[0::2] += np.abs(diag_G * v)
        m[1::2] += np.abs(-diag_B * v)
        m[0::2] *= v
        m[1::2] *= v
        m += np.abs(net.gen_sel @ z[nxf:])
        m += np.abs(self.draw)
        return 8.0 * np.finfo(float).eps * float(np.abs(F) @ m)


def frozen_solve(M, b):
    try:
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(M, b, rcond=None)[0]


def frozen_least_squares(prob, z0):
    """The fit as it was, reading its constants from ao1_opf so that a
    monkeypatched cap applies to both."""
    TOL_FEAS, FIT_MAX_ITERS = ao1_opf.TOL_FEAS, ao1_opf.FIT_MAX_ITERS
    FIT_LAMBDA_MAX, FIT_FTOL = ao1_opf.FIT_LAMBDA_MAX, ao1_opf.FIT_FTOL
    lower, upper = prob.lower, prob.upper
    z = np.clip(z0, lower, upper)
    F, J = prob.residual_jacobian(z)
    nfev = 1
    f = 0.5 * float(F @ F)
    lam = 1e-3
    for _ in range(FIT_MAX_ITERS):
        if float(np.abs(F).max()) <= TOL_FEAS:
            return z, F, nfev, "balanced"
        g = J.T @ F
        free = ~(((z <= lower) & (g > 0.0)) | ((z >= upper) & (g < 0.0)))
        if float(np.abs(g[free]).max(initial=0.0)) <= 1e-12 * max(1.0, f):
            return z, F, nfev, "stationary"
        Jf = J[:, free]
        H = Jf.T @ Jf
        d = np.diag(H).copy()
        np.maximum(d, 1e-12 * max(float(d.max()), 1e-300), out=d)
        rhs = -g[free]
        tau = None
        while True:
            M = H + lam * np.diag(d)
            step = np.zeros_like(z)
            step[free] = frozen_solve(M, rhs)
            z_step = z + step
            z_try = np.clip(z_step, lower, upper)
            out = z_try != z_step
            if out.any():
                h = z_try - z
                Jh = J @ h
                if float(g @ h) + 0.5 * float(Jh @ Jh) >= 0.0:
                    keep = free & ~out
                    k, o = keep[free], out[free]
                    s = frozen_solve(M[np.ix_(k, k)], rhs[k] - M[np.ix_(k, o)] @ h[out])
                    z_try[keep] = np.clip(z[keep] + s, lower[keep], upper[keep])
            F_try, J_try = prob.residual_jacobian(z_try)
            nfev += 1
            f_try = 0.5 * float(F_try @ F_try)
            noise = False
            if abs(f - f_try) <= FIT_FTOL * f:
                if tau is None:
                    tau = prob.rounding(F, z)
                    if prob.screened:
                        tau = max(tau, FIT_FTOL * f)
                h = z_try - z
                Jh = J @ h
                noise = abs(f - f_try) <= tau and abs(float(g @ h) + 0.5 * float(Jh @ Jh)) <= tau
            if f_try < f:
                break
            if noise:
                return z, F, nfev, "stationary"
            lam *= 4.0
            if lam > FIT_LAMBDA_MAX:
                return z, F, nfev, "stationary"
        decrease = f - f_try
        r = np.sqrt(f_try / f)
        lam = lam * r if r < 0.1 else lam / 3.0
        z, F, J, f = z_try, F_try, J_try, f_try
        if noise or decrease <= 1e-14 * (f + decrease):
            return z, F, nfev, "stationary"
    status = "balanced" if float(np.abs(F).max()) <= TOL_FEAS else "cap"
    return z, F, nfev, status


def assert_fit_matches_frozen(net, y, z0=None):
    """Run the fit and its frozen copy from z0 (the cold start when None);
    returns the fit."""
    frozen = FrozenProblem(net, y)
    if z0 is None:
        z0 = frozen.cold_start()
        assert net.fit_start.tobytes() == z0.tobytes()
    fit = ao1_opf.least_squares(ao1_opf._Problem(net, y), z0)
    x, fun, nfev, status = frozen_least_squares(frozen, z0)
    assert (fit.nfev, fit.status) == (nfev, status)
    assert fit.x.tobytes() == x.tobytes()
    assert fit.fun.tobytes() == fun.tobytes()
    return fit


@pytest.mark.parametrize("bits", list(itertools.product((0.0, 1.0), repeat=3)))
def test_cold_shortfall_fits_match_the_frozen_fit(shortfall5_case, bits):
    assert_fit_matches_frozen(network(shortfall5_case), SwitchVector(np.array(bits)))


@pytest.mark.parametrize("fixture, cap", [("stressed30", None), ("negative_g5", None),
                                          ("stressed30", 1), ("negative_g5", 1)])
def test_stalled_and_capped_fits_match_the_frozen_fit(fixture, cap, request, monkeypatch):
    # the screened stall, the unscreened stall, and both with FIT_MAX_ITERS = 1
    if cap is not None:
        monkeypatch.setattr(ao1_opf, "FIT_MAX_ITERS", cap)
    net = network(request.getfixturevalue(fixture))
    fit = assert_fit_matches_frozen(net, SwitchVector(np.ones(net.n_dem)))
    assert fit.status == ("cap" if cap else "stationary")


@pytest.mark.parametrize("tag", ["mixed", "relaxed-one", "relaxed-two"])
def test_warm_fit_at_the_first_proposed_set_matches_the_frozen_fit(stressed30, tag, monkeypatch):
    starts = []
    fit = ao1_opf.least_squares

    def recording(prob, z0):
        starts.append((prob.y, np.array(z0)))
        return fit(prob, z0)

    monkeypatch.setattr(ao1_opf, "least_squares", recording)
    run_ao_sbqp(stressed30, SolverConfig(variant=Ao2Variant(tag=tag)))
    monkeypatch.setattr(ao1_opf, "least_squares", fit)
    y, z0 = starts[1]
    assert not np.array_equal(y.y, np.ones(y.y.size))
    assert_fit_matches_frozen(network(stressed30), y, z0)


def test_spoiled_clip_re_solve_matches_the_frozen_fit(shortfall5_case, monkeypatch):
    # on the cold (1, 1, 0) fit one clipped step is re-solved: one more damped
    # solve than trials
    solves = []
    solve = ao1_opf._solve
    monkeypatch.setattr(ao1_opf, "_solve", lambda M, b: solves.append(1) or solve(M, b))
    fit = assert_fit_matches_frozen(network(shortfall5_case), SwitchVector(np.array([1.0, 1.0, 0.0])))
    assert len(solves) > fit.nfev - 1


@pytest.mark.parametrize("start", ["lower", "upper", "alternate"])
@pytest.mark.parametrize("fixture, bits", [("shortfall5_case", (1, 1, 0)), ("negative_g5", (1, 1, 1)),
                                           ("stressed30", None)])
def test_fits_started_on_the_box_match_the_frozen_fit(fixture, bits, start, request):
    # every coordinate of the start on a bound, so the fit forms its
    # bound-hold mask from the first step on
    net = network(request.getfixturevalue(fixture))
    y = SwitchVector(np.ones(net.n_dem) if bits is None else np.array(bits, dtype=float))
    z0 = {"lower": net.fit_lower - 1.0, "upper": net.fit_upper + 1.0,
          "alternate": np.where(np.arange(net.fit_lower.size) % 2 == 0, net.fit_lower, net.fit_upper)}[start]
    assert_fit_matches_frozen(net, y, z0)


@pytest.mark.parametrize("side", [-1, 0, 1])
def test_fit_at_the_balanced_level_matches_the_frozen_fit(shortfall5_case, side, monkeypatch):
    # TOL_FEAS set so that f = 0.5 |F|^2 at the cold start lies above
    # 0.5 n TOL_FEAS^2 by less than the rounding of F'F (side -1), or one or
    # two float steps of TOL_FEAS below it (sides 0 and 1): the fit must take
    # max|F| wherever f does not rule balance out
    net = network(shortfall5_case)
    y = SwitchVector(np.ones(3))
    F, _ = ao1_opf._Problem(net, y).residual(net.fit_start)
    f, n = 0.5 * float(F @ F), F.size
    tol = float(np.sqrt(2.0 * f / n))
    while 0.5 * n * tol * tol >= f:
        tol = float(np.nextafter(tol, 0.0))
    assert f <= 0.5 * n * tol * tol * (1.0 + 2.0 * n * ao1_opf.EPS)
    tol = {-1: tol, 0: float(np.nextafter(tol, 1.0)), 1: float(np.nextafter(np.nextafter(tol, 1.0), 1.0))}[side]
    monkeypatch.setattr(ao1_opf, "TOL_FEAS", tol)
    assert_fit_matches_frozen(net, y)


@pytest.mark.parametrize("n", [10, 15])
def test_residual_at_the_tolerance_in_every_row_is_balanced(n):
    # F = +-TOL_FEAS in every row, so max|F| <= TOL_FEAS, though 0.5 F'F
    # rounds above 0.5 n TOL_FEAS^2: the fit ends balanced at its start, as
    # the frozen fit does
    F = TOL_FEAS * np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
    assert 0.5 * float(F @ F) > 0.5 * n * TOL_FEAS * TOL_FEAS
    J = np.eye(n)
    prob = SimpleNamespace(lower=np.full(n, -1.0), upper=np.full(n, 1.0), residual=lambda z: (F, None),
                           jacobian=lambda terms: J, residual_jacobian=lambda z: (F, J))
    out = ao1_opf.least_squares(prob, np.zeros(n))
    assert (out.status, out.nfev, out.njev) == ("balanced", 1, 0)
    x, fun, nfev, status = frozen_least_squares(prob, np.zeros(n))
    assert (nfev, status) == (1, "balanced")
    assert out.x.tobytes() == x.tobytes() and out.fun.tobytes() == fun.tobytes()


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from(["case5", "case30", "negative_g5"]), seed=st.integers(0, 2**32 - 1),
       spread=st.floats(0.0, 3.2))
@example(which="case5", seed=0, spread=0.0)
def test_outflow_kernel_matches_the_frozen_kernel(which, seed, spread, case5, case30, negative_g5):
    # values and sign bits: the dense dP/dx is compared byte for byte, and an
    # entry off the edges and the diagonal is +0.0 on both sides
    case = {"case5": case5, "case30": case30, "negative_g5": negative_g5}[which]
    net = network(case)
    rng = np.random.default_rng(seed)
    state = State(v=rng.uniform(0.8, 1.2, net.n_bus), theta=rng.uniform(-spread, spread, net.n_bus))
    P, dP_dx = outflow(net, state, jacobian=True)
    ref_P, values = frozen_outflow_terms(net, state)
    ref = np.zeros((2 * net.n_bus, 2 * net.n_bus))
    ref.ravel()[frozen_layout(net)[0]] = values
    assert P.tobytes() == ref_P.tobytes()
    assert dP_dx.tobytes() == ref.tobytes()
    assert outflow(net, state).tobytes() == ref_P.tobytes()
