"""End-to-end guarantees for the shipped solver, one test per criterion.

Each test asserts its guarantee with pinned tolerances and prints a single
summary line (shown with -s or -rA) so a run reads as a checklist.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from gridshed.ao1_opf import solve_ao1
from gridshed.ao2_sbqp import Ao2Variant, PenaltySchedule, penalty_loop
from gridshed.checks import self_check
from gridshed.cli_driver import SolverConfig, config_from_mapping, enumerate_oracle, main, run_ao_sbqp
from gridshed.documents import emit_outputs, parse_result_document
from gridshed.grid_model import Branch, ScenarioConfig
from gridshed.power_equations import (
    State,
    SwitchVector,
    constraints_C,
    grad_phi,
    network,
    outflow,
    phi,
)
from gridshed.qp_core import QpProblem, solve_qp

VARIANTS = ("mixed", "relaxed-one", "relaxed-two")


@pytest.fixture(scope="module")
def stressed_solutions(case30):
    """Full solve of the stressed 30-bus case per variant, with wall times."""
    out = {}
    for tag in VARIANTS:
        cfg = config_from_mapping({"scenario": "stress", "variant": tag})
        t0 = time.perf_counter()
        res = run_ao_sbqp(case30, cfg)
        out[tag] = (res, cfg, time.perf_counter() - t0)
    return out


def test_criterion_1_stressed_variants_reach_complementarity(stressed_solutions):
    parts = []
    for tag in VARIANTS:
        res, _, wall = stressed_solutions[tag]
        stage_phi = max(t.final_phi for t in res.ao2_traces)
        pen = max(t.penalty_iterations for t in res.ao2_traces)
        assert abs(res.phi_final) <= 1e-6
        assert stage_phi <= 1e-6
        assert pen <= 10
        assert wall < 5.0
        parts.append(f"{tag} |phi|={stage_phi:.1e} pen={pen} {wall:.2f}s")
    print("criterion 1 PASS: " + "; ".join(parts))


@pytest.mark.parametrize("tag, objective, off", [
    ("mixed", 8.438118, 4),
    ("relaxed-one", 8.356871, 5),
    ("relaxed-two", 8.753822, 8),
])
def test_stressed_outcomes_are_pinned(stressed_solutions, tag, objective, off):
    res = stressed_solutions[tag][0]
    assert abs(res.objective - objective) <= 1e-6
    assert int(np.sum(res.switches.y < 0.5)) == off


def test_criterion_2_reported_solutions_are_consistent(stressed_solutions, stressed30,
                                                       case30, tmp_path):
    net = network(stressed30)
    orig = network(case30)
    np.testing.assert_allclose(net.u_upper[0::2], 0.7 * orig.u_upper[0::2])
    for tag in VARIANTS:
        res, cfg, _ = stressed_solutions[tag]
        paths = emit_outputs(res, tmp_path / tag, "kv", cfg)
        doc = parse_result_document(paths["result"].read_text())
        y = np.array(doc["switches"], dtype=float)
        pg = np.array(doc["input_pg"])
        qg = np.array(doc["input_qg"])
        # (a) the reported objective is the served-priority sum, recomputed
        assert abs(doc["objective"] - float(np.sum(y * net.rank * net.pd))) <= 1e-9
        assert abs(doc["supplied_active"] - float(np.sum(y * net.pd))) <= 1e-9
        assert abs(doc["supplied_reactive"] - float(np.sum(y * net.qd))) <= 1e-9
        # (b) aggregate capacity holds at the solution
        assert float(np.sum(pg) - np.sum(y * net.pd)) >= -1e-9
        assert float(np.sum(net.u_upper[1::2]) - np.sum(y * net.qd)) >= -1e-9
        assert float(np.sum(y * net.qd) - np.sum(net.u_lower[1::2])) >= -1e-9
        # (c) every reported input sits inside the scenario-scaled bounds
        tol = 1e-8
        assert np.all(pg >= net.u_lower[0::2] - tol)
        assert np.all(pg <= net.u_upper[0::2] + tol)
        assert np.all(qg >= net.u_lower[1::2] - tol)
        assert np.all(qg <= net.u_upper[1::2] + tol)
    print("criterion 2 PASS: objective, aggregates, and input bounds verified "
          "from emitted documents for all variants")


def test_criterion_3_matches_enumeration_on_small_case(case5):
    scenario = ScenarioConfig(
        shift_mode="multiplicative", pd_shift=1.0, qd_shift=1.0,
        pg_upper_scale=0.5, qg_bound_scale=0.5,
        rank_seed=2, demand_set_mode="loaded-buses",
    )
    cfg = SolverConfig(scenario=scenario)
    t0 = time.perf_counter()
    entries = enumerate_oracle(case5, cfg)
    res = run_ao_sbqp(case5, cfg)
    wall = time.perf_counter() - t0
    assert len(entries) == 8
    feasible = [e for e in entries if e.feasible]
    assert feasible
    assert any(abs(e.objective - res.objective) <= 1e-4 for e in feasible)
    gap = feasible[0].objective - res.objective
    assert gap >= -1e-6
    assert wall < 10.0
    print(f"criterion 3 PASS: objective {res.objective:.6f}, "
          f"gap to enumerated optimum {gap:.6f}, {wall:.2f}s for 8 candidates")


def test_criterion_4_adequate_cases_keep_full_service(case5, case30):
    for case in (case5, case30):
        net = network(case)
        ones = SwitchVector(np.ones(net.n_dem))
        pre = solve_ao1(case, ones)
        assert pre.status == "converged"
        assert float(constraints_C(case, pre.state, pre.input, ones).max()) <= 1e-6
        for tag in VARIANTS:
            res = run_ao_sbqp(case, SolverConfig(variant=Ao2Variant(tag=tag)))
            np.testing.assert_array_equal(res.switches.y, np.ones(net.n_dem))
            assert res.outer_iterations == 1
            assert res.ao2_traces == ()
    print("criterion 4 PASS: full service returned exactly on both adequate cases, "
          "all variants, after one outer iteration with no switching stage")


def test_criterion_5_derivatives_match_finite_differences(case5, case30):
    parts = []
    for name, case in (("five-bus", case5), ("thirty-bus", case30)):
        rows = self_check(case, seed=11, points=20, states=1)
        derivative_rows = [r for r in rows if r.name != "lossless-active-sum"]
        assert [r.name for r in derivative_rows] == [
            "outflow-jacobian", "objective-gradient", "fit-jacobian", "switch-curvature"]
        bad = [r.detail for r in derivative_rows if not r.ok]
        assert not bad, bad
        parts.append(f"{name}: " + ", ".join(r.detail.split()[3] for r in derivative_rows))
    print("criterion 5 PASS (rel err <= 1e-6 at 20 points/case): " + "; ".join(parts))


def test_criterion_6_lossless_network_conserves_active_power(case5, case30):
    worsts = []
    for case in (case5, case30):
        twin = replace(case, branches=tuple(
            Branch(from_bus=b.from_bus, to_bus=b.to_bus, g=0.0, b=b.b)
            for b in case.branches
        ))
        net = network(twin)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            state = State(v=rng.uniform(0.9, 1.1, net.n_bus),
                          theta=rng.uniform(-0.6, 0.6, net.n_bus))
            worst = max(worst, abs(float(outflow(net, state)[0::2].sum())))
        assert worst <= 1e-10
        worsts.append(worst)
    print(f"criterion 6 PASS: max |active sum| {max(worsts):.2e} over 100 states/case")


def _battery_instance(seed, n, schedule):
    """Concave diagonal model whose unpenalized maximizer is interior."""
    rng = np.random.default_rng(seed)
    curvature = -rng.uniform(0.5, 3.0, n)
    target = rng.uniform(0.1, 0.9, n)
    pull = target * -curvature
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

    y, trace = penalty_loop(solve_sub, schedule)
    return y, trace, anchors


def test_criterion_7_battery_shows_superlinear_tail():
    schedule = PenaltySchedule(rho0=0.05, beta=3.0, eps=1e-6)
    shaped = 0
    for seed in range(20):
        n = 5 + seed % 16
        y, trace, anchors = _battery_instance(seed, n, schedule)
        assert trace.final_phi <= schedule.eps
        assert np.all((y <= 2 * schedule.eps) | (y >= 1.0 - 2 * schedule.eps))
        for row, anchor in zip(trace.rows[1:], anchors):
            if row.kind == "exact":
                assert abs(float(row.y @ grad_phi(anchor))) <= 1e-10
        pre = [p for p in trace.phis()[1:] if p > schedule.eps]
        if len(pre) >= 3:
            ratios = [pre[i + 1] / pre[i] for i in range(len(pre) - 1)]
            if ratios[-1] < ratios[-2]:
                shaped += 1
    assert shaped >= 18
    print(f"criterion 7 PASS: exact steps zero the linearized residual; "
          f"contraction ratios shrink in {shaped}/20 instances")


def test_criterion_8_reruns_are_byte_identical(case30_text, tmp_path):
    case_path = tmp_path / "thirty.m"
    case_path.write_text(case30_text)
    cfg_path = tmp_path / "cfg.kv"
    cfg_path.write_text("scenario = stress\n")
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = main(["solve", "--case", str(case_path), "--config", str(cfg_path),
                   "--seed", "2025", "--out-dir", str(out)])
        assert rc == 0
        outs.append(out)
    result_a = (outs[0] / "result.kv").read_bytes()
    result_b = (outs[1] / "result.kv").read_bytes()
    trace_a = (outs[0] / "trace.csv").read_bytes()
    trace_b = (outs[1] / "trace.csv").read_bytes()
    assert result_a == result_b
    assert trace_a == trace_b
    print(f"criterion 8 PASS: result ({len(result_a)} bytes) and trace "
          f"({len(trace_a)} bytes) identical across reruns")
