"""The benchmark tracer patches each name where its caller looks it up, so a
refactor that drops such an import breaks the traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gridshed import ao2_sbqp, cli_driver
from gridshed.ao1_opf import solve_ao1
from gridshed.ao2_sbqp import Ao2Variant
from gridshed.grid_model import ScenarioConfig, apply_scenario
from gridshed.power_equations import SwitchVector

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_boundaries_resolve_to_callables():
    tracer = _load_tracer()
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer.BOUNDARIES
               if not callable(getattr(module, attr, None))]
    assert missing == []


@pytest.mark.parametrize("tag", ["mixed", "relaxed-one"])
def test_traced_qp_spans_carry_a_status(case5, tag):
    # the tracer reads QpSolution.status off every solve_qp result; mixed
    # takes the exact solve and relaxed-one the stationary ascent
    case = apply_scenario(case5, ScenarioConfig(
        shift_mode="multiplicative", pd_shift=1.0, qd_shift=1.0,
        pg_upper_scale=0.5, qg_bound_scale=0.5,
        rank_seed=2, demand_set_mode="loaded-buses",
    ))
    ones = SwitchVector(np.ones(len(case.demands)))
    ao1 = solve_ao1(case, ones)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tracer.call = 0
        ao2_sbqp.run_ao2(case, (ao1.state, ao1.input, ones), ao1.duals, None, Ao2Variant(tag=tag))
    finally:
        tracer.uninstall()
    qp = [span[6] for span in tracer.spans if span[3] == "qp_core.solve_qp"]
    assert qp
    assert all(attrs is not None and "status" in attrs for attrs in qp)


def test_traced_restore_span_carries_nfev(negative_g5):
    # the restore span wraps ao1_opf.least_squares, the fit that every AO1
    # solve runs, and reads out.nfev; checked here on a case the screen
    # cannot take, where the fit's stationary end is the certificate
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tracer.call = 0
        solve_ao1(negative_g5, SwitchVector(np.ones(len(negative_g5.demands))))
    finally:
        tracer.uninstall()
    restore = [span[6] for span in tracer.spans if span[3] == "ao1_opf.restore"]
    assert restore
    assert all(isinstance(attrs["nfev"], int) for attrs in restore)


def test_traced_oracle_records_one_fit_per_unscreened_set(shortfall5_case):
    # enumerate_oracle fits each set that the screen leaves through
    # cli_driver.solve_ao1, so every such set shows one AO1 span under the
    # oracle's span and one restore span under that; its verdict builds the
    # constraint stack from the fit's outflow, still through
    # cli_driver.constraints_C, so one constraints span under the oracle's
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tracer.call = 0
        entries = cli_driver.enumerate_oracle(shortfall5_case)
    finally:
        tracer.uninstall()
    fitted = sum(not e.screened for e in entries)
    assert 0 < fitted < len(entries)
    oracle = [span[0] for span in tracer.spans if span[3] == "cli_driver.enumerate_oracle"]
    ao1 = [span for span in tracer.spans if span[3] == "ao1_opf.solve_ao1"]
    restore = [span for span in tracer.spans if span[3] == "ao1_opf.restore"]
    assert len(oracle) == 1
    assert len(ao1) == len(restore) == fitted
    assert all(span[1] == oracle[0] for span in ao1)
    assert sorted(span[1] for span in restore) == sorted(span[0] for span in ao1)
    stacks = [span for span in tracer.spans if span[3] == "power_equations.constraints_C"]
    assert len(stacks) == fitted
    assert all(span[1] == oracle[0] for span in stacks)

