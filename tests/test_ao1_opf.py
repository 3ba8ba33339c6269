import numpy as np
import pytest

from gridshed.ao1_opf import solve_ao1
from gridshed.power_equations import SwitchVector, constraints_C, hessian_Q, network


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
    assert r.duals.min() >= -1e-8
    assert np.abs(r.duals * C).max() <= 1e-6


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
    # balance duals equal -y r at any interior solution and the switch
    # Hessian comes out positive semi-definite
    yv = np.array([1.0, 0.7, 0.4])
    r = solve_ao1(case5, SwitchVector(yv))
    assert r.status == "converged"
    net = network(case5)
    nx = 2 * net.n_bus
    nu_p = r.duals[2 * net.dem_pos] - r.duals[nx + 2 * net.dem_pos]
    nu_q = r.duals[2 * net.dem_pos + 1] - r.duals[nx + 2 * net.dem_pos + 1]
    np.testing.assert_allclose(nu_p, -yv * net.rank, atol=1e-6)
    np.testing.assert_allclose(nu_q, 0.0, atol=1e-6)
    q = hessian_Q(case5, r.state, r.input, SwitchVector(yv), r.duals)
    np.testing.assert_allclose(q, 2.0 * yv * net.rank * net.pd, atol=1e-5)
    assert q.min() >= -1e-8


def test_mismatch_case_cannot_balance(stressed30):
    y = SwitchVector(np.ones(30))
    r = solve_ao1(stressed30, y)
    assert r.status == "infeasible"
    # the restoration point parks active injections at their ceilings
    caps = np.array([g.pg_max for g in stressed30.generators])
    assert np.max(caps - r.input.pg) <= 1e-3


def test_adequate_30_bus_full_delivery(case30):
    y = SwitchVector(np.ones(20))
    r = solve_ao1(case30, y)
    assert r.status == "converged"
    total = sum(d.pd for d in case30.demands)
    assert r.objective == pytest.approx(total, abs=1e-6)
