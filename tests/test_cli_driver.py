import dataclasses
import os
import subprocess
import sys
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridshed
from gridshed import cli_driver, qp_core
from gridshed.ao1_opf import active_capacity_screen
from gridshed.ao2_sbqp import VARIANT_TAGS, Ao2Error, Ao2Variant, PenaltySchedule, live_demands
from gridshed.cli_driver import (
    DriverError,
    SolverConfig,
    config_from_mapping,
    emit_outputs,
    enumerate_oracle,
    main,
    parse_kv,
    parse_result_document,
    parse_trace_table,
    render_result_document,
    render_trace_table,
    result_document,
    run_ao_sbqp,
    self_check,
)
from gridshed.grid_model import (
    Branch,
    Bus,
    DemandSpec,
    Generator,
    GridCase,
    ScenarioConfig,
    apply_scenario,
    parse_case,
    serialize_case,
)
from gridshed.power_equations import InputVector, SwitchVector, constraints_C, network
from test_grid_model import _random_case


@pytest.fixture(scope="session")
def shortfall5():
    """Scenario that leaves case5 able to serve any two demands but not all three."""
    return ScenarioConfig(
        shift_mode="multiplicative", pd_shift=1.0, qd_shift=1.0,
        pg_upper_scale=0.5, qg_bound_scale=0.5,
        rank_seed=2, demand_set_mode="loaded-buses",
    )


# -- config parsing -----------------------------------------------------------

def test_config_defaults():
    cfg = config_from_mapping({})
    assert cfg.schedule == PenaltySchedule()
    assert cfg.variant.tag == "mixed"
    assert not cfg.variant.single_shot
    assert cfg.outer_eps == 1e-6
    assert cfg.outer_max_iters == 20
    assert cfg.seed == 2025
    assert cfg.scenario is None


def test_config_reads_every_key():
    cfg = config_from_mapping({
        "variant": "relaxed-one", "single_shot": "true",
        "rho0": "0.5", "beta": "4.0", "rho_max": "1e8", "eps": "1e-7",
        "outer_eps": "1e-5", "outer_max_iters": "7", "seed": "99",
    })
    assert cfg.variant.tag == "relaxed-one"
    assert cfg.variant.single_shot
    assert cfg.schedule == PenaltySchedule(rho0=0.5, beta=4.0, rho_max=1e8, eps=1e-7)
    assert cfg.outer_eps == 1e-5
    assert cfg.outer_max_iters == 7
    assert cfg.seed == 99


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_mapping({"rho_zero": "1.0"})


def test_config_rejects_bad_bool():
    with pytest.raises(ValueError, match="single_shot"):
        config_from_mapping({"single_shot": "yes"})


def test_config_scenario_keys_imply_stress():
    cfg = config_from_mapping({"scenario.pd_shift": "1.5"})
    assert cfg.scenario is not None
    assert cfg.scenario.pd_shift == 1.5


def test_config_default_scenario_rank_draw_is_stable():
    cfg = config_from_mapping({"scenario": "stress"})
    assert cfg.scenario == ScenarioConfig()


def test_config_explicit_seed_drives_rank_draw():
    cfg = config_from_mapping({"scenario": "stress"}, seed=11)
    assert cfg.scenario.rank_seed == 11
    pinned = config_from_mapping({"scenario": "stress", "scenario.rank_seed": "4"}, seed=11)
    assert pinned.scenario.rank_seed == 4


def test_config_scenario_none_rejects_scenario_keys():
    # scenario = none used to drop every scenario.* key without a word
    with pytest.raises(ValueError, match="scenario = none leaves these keys unused: "
                                         "scenario.pd_shift, scenario.rank_seed"):
        config_from_mapping({"scenario": "none", "scenario.rank_seed": "3",
                             "scenario.pd_shift": "3.0"})


def test_kv_config_parsing():
    mapping = parse_kv("# comment\nscenario.pd_shift = 1.5\nscenario.rank_seed = none\n\n"
                       "scenario.shift_mode=multiplicative\n", "config")
    assert mapping == {"scenario.pd_shift": "1.5", "scenario.rank_seed": "none",
                       "scenario.shift_mode": "multiplicative"}
    sc = config_from_mapping(mapping).scenario
    assert sc.pd_shift == 1.5
    assert sc.rank_seed is None
    assert sc.shift_mode == "multiplicative"
    with pytest.raises(ValueError, match="^config line 1: expected key = value$"):
        parse_kv("not an assignment\n", "config")


def test_config_scenario_keys_are_the_scenario_fields():
    # a misspelled scenario.* key used to be dropped, leaving the default
    keys = [key for key in cli_driver._CONFIG_FIELDS if key.startswith("scenario.")]
    assert keys == [f"scenario.{f.name}" for f in dataclasses.fields(ScenarioConfig)]
    valid = {
        "pd_shift": ("1.5", 1.5), "qd_shift": ("0.3", 0.3), "shift_mode": ("multiplicative",) * 2,
        "qg_bound_scale": ("0.25", 0.25), "pg_upper_scale": ("0.9", 0.9), "rank_levels": ("3", 3),
        "rank_seed": ("none", None), "demand_set_mode": ("loaded-buses",) * 2,
    }
    for key in keys:
        name = key.split(".", 1)[1]
        text, value = valid[name]
        assert config_from_mapping({key: text}).scenario == dataclasses.replace(
            ScenarioConfig(), **{name: value}), key


def test_config_variant_override_wins():
    cfg = config_from_mapping({"variant": "mixed"}, variant="relaxed-two")
    assert cfg.variant.tag == "relaxed-two"


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(outer_eps=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolverConfig(outer_eps=bad)
    with pytest.raises(ValueError):
        SolverConfig(outer_max_iters=0)


@pytest.mark.parametrize("bad", [True, False, "1e-6", None])
def test_solver_config_outer_eps_rejects_non_numbers(bad):
    with pytest.raises(ValueError, match=f"outer_eps must be a number, got {bad!r}"):
        SolverConfig(outer_eps=bad)


@pytest.mark.parametrize("field", ["outer_max_iters", "seed"])
@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None])
def test_solver_config_integer_fields_reject_non_int(field, bad):
    # caught at construction, not as a bare TypeError from range() or SeedSequence
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        SolverConfig(**{field: bad})


@pytest.mark.parametrize("field, bad, least", [("outer_max_iters", 0, 1), ("seed", -1, 0)])
def test_solver_config_integer_fields_reject_values_below_their_floor(field, bad, least):
    # a negative seed used to reach np.random.default_rng, whose message
    # names no key
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= {least}, got {bad}$"):
        SolverConfig(**{field: bad})


# -- the alternation driver ---------------------------------------------------

def test_adequate_case_serves_everything(case5):
    res = run_ao_sbqp(case5)
    net = network(case5)
    np.testing.assert_array_equal(res.switches.y, np.ones(net.n_dem))
    assert res.objective == pytest.approx(float(np.sum(net.rank * net.pd)))
    assert res.supplied_active == pytest.approx(float(np.sum(net.pd)))
    assert res.outer_iterations == 1
    assert res.ao2_traces == ()
    assert res.inner_iterations == 0
    assert res.phi_final == 0.0


def _count_stage_calls(monkeypatch):
    """Wrap both stages of the driver so that each call is counted."""
    calls = {"solve_ao1": 0, "run_ao2": 0}
    for name in calls:
        stage = getattr(cli_driver, name)

        def counted(*args, _stage=stage, _name=name, **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)

        monkeypatch.setattr(cli_driver, name, counted)
    return calls


@pytest.mark.parametrize("tag", ["mixed", "relaxed-one", "relaxed-two"])
@pytest.mark.parametrize("name", ["case5", "case30"])
def test_adequate_case_runs_one_continuous_solve_and_no_switching_stage(request, monkeypatch,
                                                                         name, tag):
    # full service that balances is optimal: every rank is positive and every
    # pd non-negative, so no switch set serves more
    case = request.getfixturevalue(name)
    calls = _count_stage_calls(monkeypatch)
    res = run_ao_sbqp(case, SolverConfig(variant=Ao2Variant(tag=tag)))
    np.testing.assert_array_equal(res.switches.y, np.ones(network(case).n_dem))
    assert calls == {"solve_ao1": 1, "run_ao2": 0}


def test_stressed_case_still_runs_the_switching_stage(case30, monkeypatch):
    calls = _count_stage_calls(monkeypatch)
    res = run_ao_sbqp(case30, SolverConfig(scenario=ScenarioConfig()))
    assert calls["run_ao2"] >= 1
    assert calls["solve_ao1"] == res.outer_iterations
    assert len(res.ao2_traces) == calls["run_ao2"]


@pytest.mark.parametrize("nudge", [0.0, 1e-4], ids=["same-point", "moved-point"])
def test_full_service_ends_the_loop_at_a_later_iteration(case5, monkeypatch, nudge):
    # the first continuous solve on adequate case5 is reported capped, so the
    # switching stage runs once, proposes all ones, and the warm solve that
    # converges there ends the loop.  With the first point's qg nudged, the
    # warm solve moves by more than outer_eps: only the full-service exit
    # stops the loop after two iterations
    solve, switch = cli_driver.solve_ao1, cli_driver.run_ao2
    switching = []

    def first_capped(case, y, warm=None):
        res = solve(case, y, warm=warm)
        if warm is None:
            u = InputVector(pg=res.input.pg, qg=res.input.qg + nudge)
            res = dataclasses.replace(res, input=u, status="max-iterations")
        return res

    def recording_ao2(case, start, duals, schedule, variant, cuts=()):
        y, trace = switch(case, start, duals, schedule, variant, cuts=cuts)
        switching.append(y.y.copy())
        return y, trace

    monkeypatch.setattr(cli_driver, "solve_ao1", first_capped)
    monkeypatch.setattr(cli_driver, "run_ao2", recording_ao2)
    res = run_ao_sbqp(case5)
    ones = np.ones(network(case5).n_dem)
    assert len(switching) == 1
    np.testing.assert_array_equal(switching[0], ones)
    np.testing.assert_array_equal(res.switches.y, ones)
    assert res.outer_iterations == 2
    assert len(res.ao2_traces) == 1


@pytest.mark.parametrize("tag", ["mixed", "relaxed-one", "relaxed-two"])
def test_stressed_case_converges(case30, stressed30, tag):
    cfg = config_from_mapping({"scenario": "stress", "variant": tag})
    res = run_ao_sbqp(case30, cfg)
    assert set(np.unique(res.switches.y)) <= {0.0, 1.0}
    assert res.phi_final == 0.0
    net = network(stressed30)
    assert res.objective == pytest.approx(float(np.sum(res.switches.y * net.rank * net.pd)), abs=1e-12)
    assert res.supplied_active < float(np.sum(net.pd))
    assert res.outer_iterations >= 2
    assert res.timings["total_s"] > 0.0


def test_outer_cap_raises_with_best_iterate(case30):
    cfg = config_from_mapping({"scenario": "stress", "outer_max_iters": "1"})
    with pytest.raises(DriverError) as info:
        run_ao_sbqp(case30, cfg)
    err = info.value
    assert err.kind == "no-convergence"
    assert err.best is not None
    assert err.best.outer_iterations == 1
    assert set(np.unique(err.best.switches.y)) <= {0.0, 1.0}


@pytest.mark.parametrize("infeasible, proposals, cut_calls, tail", [
    # outers 3 and 4 re-propose (1, 0, 1) and (1, 1, 1): each switching stage
    # is re-run with both rejected sets cut
    ({(1, 1, 1), (1, 0, 1)},
     [(1, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 0), (0, 1, 1), (1, 1, 0)],
     [3, 5], "; the switching stage last ran with 2 infeasible switch sets cut"),
    ({(1, 1, 1)}, [(0, 1, 1), (1, 1, 1), (0, 0, 1), (0, 1, 1), (0, 0, 1), (0, 1, 1), (0, 0, 1)],
     [2], "; the switching stage last ran with 1 infeasible switch set cut"),
    # (1, 0, 0) comes back but is not infeasible: nothing is cut
    ({(1, 1, 1), (0, 1, 1), (1, 1, 0)}, [(0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 0, 0), (0, 0, 1), (0, 0, 1)],
     [], ""),
], ids=["repeated-set", "all-on-repeated", "no-repeat"])
def test_outer_cap_names_the_repeated_infeasible_set(case5, shortfall5, monkeypatch,
                                                     infeasible, proposals, cut_calls, tail):
    # both stages faked: AO1 returns a point that never repeats, so the outer
    # loop runs to its cap, with the status its switch set is given.  A
    # proposal AO1 already rejected sends the switching stage back with every
    # rejected set as a cut, so no rejected set is solved twice
    solves = []
    ao2_cuts = []

    def solve_ao1(case, y, warm=None):
        solves.append(tuple(int(v) for v in y.y))
        point = SimpleNamespace(as_vector=lambda k=len(solves): np.array([float(k)]))
        status = "infeasible" if solves[-1] in infeasible else "max-iterations"
        return SimpleNamespace(state=point, input=point, duals=None, status=status)

    moves = iter(proposals)

    def run_ao2(case, start, duals, schedule, variant, cuts=()):
        ao2_cuts.append((len(solves), sorted(tuple(int(v) for v in c) for c in cuts)))
        return SwitchVector(np.array(next(moves), dtype=float)), None

    monkeypatch.setattr(cli_driver, "solve_ao1", solve_ao1)
    monkeypatch.setattr(cli_driver, "run_ao2", run_ao2)
    with pytest.raises(DriverError) as info:
        run_ao_sbqp(case5, SolverConfig(scenario=shortfall5, outer_max_iters=6))
    assert str(info.value) == "operating point still moving after 6 outer iterations" + tail
    assert info.value.kind == "no-convergence"
    assert len(solves) == 6
    assert next(moves, None) is None
    assert [k for k, (_, cuts) in enumerate(ao2_cuts) if cuts] == cut_calls
    for k in cut_calls:
        n_solved, cuts = ao2_cuts[k]
        assert cuts == sorted(set(solves[:n_solved]) & infeasible)
    rejected = [y for y in solves if y in infeasible]
    assert len(rejected) == len(set(rejected))


def test_infeasible_fixed_point_is_cut_not_settled(case5, shortfall5, monkeypatch):
    # AO1 faked to return the screened all-ones end point every time and AO2
    # to propose the set it started from: the set proved infeasible is cut,
    # and when the re-run with the cut still proposes it, the solve ends
    # infeasible after one fit instead of fitting it again until the cap
    work = cli_driver.apply_scenario(case5, shortfall5)
    stall = cli_driver.solve_ao1(work, SwitchVector(np.ones(3)))
    assert (stall.status, stall.certificate) == ("infeasible", "screen")
    fits, cut_runs = [], []

    def run_ao2(case, start, duals, schedule, variant, cuts=()):
        cut_runs.append(len(cuts))
        return start[2], None

    monkeypatch.setattr(cli_driver, "solve_ao1", lambda case, y, warm=None: fits.append(y) or stall)
    monkeypatch.setattr(cli_driver, "run_ao2", run_ao2)
    with pytest.raises(DriverError) as info:
        run_ao_sbqp(case5, SolverConfig(scenario=shortfall5))
    assert info.value.kind == "infeasible"
    assert str(info.value) == ("the switching stage proposed a rejected switch set again with 1 rejected "
                               "set cut; the verdicts are local: a stationary AO1 fit is no global proof")
    assert len(fits) == 1 and cut_runs == [0, 1]
    assert info.value.best.outer_iterations == 1
    assert np.array_equal(info.value.best.switches.y, np.ones(3))


def test_every_live_pattern_rejected_ends_infeasible(case5, shortfall5, monkeypatch):
    # AO1 faked to reject every set and AO2 to propose each of the 2**3 sets
    # once, in turn: the solve ends at the eighth fit, each set fitted once
    work = cli_driver.apply_scenario(case5, shortfall5)
    stall = cli_driver.solve_ao1(work, SwitchVector(np.ones(3)))
    assert network(work).pd.all()
    fits = []
    proposals = iter(sorted(product((0.0, 1.0), repeat=3), reverse=True)[1:])

    def run_ao2(case, start, duals, schedule, variant, cuts=()):
        return SwitchVector(np.array(next(proposals))), None

    monkeypatch.setattr(cli_driver, "solve_ao1", lambda case, y, warm=None: fits.append(tuple(y.y)) or stall)
    monkeypatch.setattr(cli_driver, "run_ao2", run_ao2)
    with pytest.raises(DriverError) as info:
        run_ao_sbqp(case5, SolverConfig(scenario=shortfall5))
    assert info.value.kind == "infeasible"
    assert str(info.value) == ("all 8 live switch patterns proved infeasible; "
                               "the verdicts are local: a stationary AO1 fit is no global proof")
    assert len(fits) == len(set(fits)) == 8
    assert info.value.best.outer_iterations == 8


@pytest.mark.parametrize("tag", ["relaxed-one", "relaxed-two"])
@pytest.mark.parametrize("seed", [12, 26])
def test_random_case_with_piled_up_cuts_ends_with_bounded_kernel_work(seed, tag, monkeypatch):
    # _random_case seeds 12 and 26 have no feasible switch set.  Their relaxed
    # solves pile up nearly parallel cut rows, on which a cyclic search over
    # the row multipliers once took hundreds of thousands of row searches:
    # each solve must end, answered or with a solver error, and every dual
    # clip within a few kernel steps
    steps = []
    clip, step = qp_core._dual_clip, qp_core._dual_step

    def counted_clip(*args):
        steps.append(0)
        return clip(*args)

    def counted_step(*args):
        steps[-1] += 1
        return step(*args)

    monkeypatch.setattr(qp_core, "_dual_clip", counted_clip)
    monkeypatch.setattr(qp_core, "_dual_step", counted_step)
    try:
        run_ao_sbqp(_random_case(np.random.default_rng(seed)), SolverConfig(variant=Ao2Variant(tag=tag)))
    except (DriverError, Ao2Error):
        pass
    assert steps and max(steps) <= 10 < qp_core.DUAL_STEPS
    assert sum(steps) <= 3 * len(steps)


@pytest.mark.parametrize("tag", ["mixed", "relaxed-one", "relaxed-two"])
def test_switching_rows_without_a_point_end_infeasible(tag):
    # _random_case seed 14: the aggregate reactive row admits no point of the
    # box even with every demand off, so the first QP reports infeasible and
    # the solve ends there, where it once ran on to the re-proposal exit
    case = _random_case(np.random.default_rng(14))
    with pytest.raises(DriverError) as info:
        run_ao_sbqp(case, SolverConfig(variant=Ao2Variant(tag=tag)))
    assert info.value.kind == "infeasible"
    assert str(info.value) == ("the switching rows admit no point of the box; "
                               "the verdicts are local: a stationary AO1 fit is no global proof")
    best = info.value.best
    assert best.outer_iterations == 1
    assert [row.status for row in best.ao2_traces[-1].rows] == ["infeasible"]


@pytest.mark.parametrize("tag", ["mixed", "relaxed-one", "relaxed-two"])
def test_penalty_cap_ends_no_convergence_with_the_partial_trace(case30, tag, monkeypatch):
    # a penalty cap at the first penalty level stops the switching stage
    # before complementarity: the solve ends with the fits made so far and
    # the stalled stage's partial trace as the last one
    fits = []
    solve = cli_driver.solve_ao1
    monkeypatch.setattr(cli_driver, "solve_ao1",
                        lambda case, y, warm=None: fits.append(y) or solve(case, y, warm=warm))
    cfg = dataclasses.replace(config_from_mapping({"scenario": "stress", "variant": tag}),
                              schedule=PenaltySchedule(rho0=1.0, rho_max=1.0))
    with pytest.raises(DriverError) as info:
        run_ao_sbqp(case30, cfg)
    assert info.value.kind == "no-convergence"
    assert str(info.value) == "switching stage stalled: penalty cap reached before complementarity"
    stall = info.value.__cause__
    assert isinstance(stall, Ao2Error) and stall.kind == "penalty-cap"
    best = info.value.best
    assert best.outer_iterations == len(fits) == len(best.ao2_traces)
    assert best.ao2_traces[-1] is stall.trace
    assert np.array_equal(best.switches.y, fits[-1].y)


def test_cut_rerun_that_stops_on_a_cut_row_ends_at_the_guard():
    # _random_case seed 6, mixed: the cut re-run's last QP stops at
    # max-iterations on the binary set just rejected, one full unit outside
    # its cut row, and the penalty loop takes that point as it is, so the
    # re-proposal guard ends the solve
    case = _random_case(np.random.default_rng(6))
    with pytest.raises(DriverError) as info:
        run_ao_sbqp(case, SolverConfig())
    assert info.value.kind == "infeasible"
    assert str(info.value) == ("the switching stage proposed a rejected switch set again with 3 rejected "
                               "sets cut; the verdicts are local: a stationary AO1 fit is no global proof")
    best = info.value.best
    assert best.outer_iterations == len(best.ao2_traces) == 3
    last = best.ao2_traces[-1].rows[-1]
    assert (last.status, last.kind, last.phi) == ("max-iterations", "unit", 0.0)
    assert np.array_equal(last.y, best.switches.y)


@pytest.mark.parametrize("seed", [1, 5, 13])
def test_no_rejected_set_is_fitted_again_on_random_cases(seed, monkeypatch):
    # mixed on these _random_case draws, which have no feasible switch set,
    # once fitted a rejected set 16 or 17 more times before the outer cap;
    # sets are told apart by their live demands, as the driver keys them
    case = _random_case(np.random.default_rng(seed))
    live = live_demands(network(case))
    fitted = []
    solve = cli_driver.solve_ao1

    def spy(case, y, warm=None):
        out = solve(case, y, warm=warm)
        fitted.append((tuple(y.y[live].tolist()), out.status))
        return out

    monkeypatch.setattr(cli_driver, "solve_ao1", spy)
    with pytest.raises(DriverError) as info:
        run_ao_sbqp(case, SolverConfig())
    assert info.value.kind == "infeasible"
    for k, (y, status) in enumerate(fitted):
        if status == "infeasible":
            assert y not in [later for later, _ in fitted[k + 1:]]


def test_capped_fixed_point_ends_infeasible(case5, shortfall5, monkeypatch):
    # a capped fit proves nothing, so it cuts nothing: when the point stops
    # moving the loop settles, and the final check refuses the set
    work = cli_driver.apply_scenario(case5, shortfall5)
    stall = cli_driver.solve_ao1(work, SwitchVector(np.ones(3)))
    capped = dataclasses.replace(stall, status="max-iterations", certificate="")
    monkeypatch.setattr(cli_driver, "solve_ao1", lambda case, y, warm=None: capped)
    monkeypatch.setattr(cli_driver, "run_ao2",
                        lambda case, start, duals, schedule, variant, cuts=(): (start[2], None))
    with pytest.raises(DriverError) as info:
        run_ao_sbqp(case5, SolverConfig(scenario=shortfall5))
    assert info.value.kind == "infeasible"
    assert info.value.best.outer_iterations == 2
    assert "(continuous stage max-iterations, worst violation" in str(info.value)


def test_draw_whose_fit_stops_next_to_a_rejected_point_is_answered(case30):
    # shed30 seed 23 call 7: under a switching row blind to the network
    # losses, the sixth AO1 fit proved its set infeasible at a point within
    # outer_eps of the fifth one, and settling there ended the solve with
    # "final switch set admits no feasible operating point"
    scenario = ScenarioConfig(pd_shift=2.6939330806573643, rank_seed=906978376)
    res = run_ao_sbqp(case30, SolverConfig(variant=Ao2Variant(tag="relaxed-one"), scenario=scenario))
    work = cli_driver.apply_scenario(case30, scenario)
    assert set(np.unique(res.switches.y)) <= {0.0, 1.0}
    assert res.objective == pytest.approx(8.590141, abs=1e-6)
    assert float(constraints_C(work, res.state, res.input, res.switches).max()) <= cli_driver.FEAS_TOL


def test_rejected_draw_is_answered_without_re_solving_it(case30, monkeypatch):
    # the shed30 draw of seed 5, call 8, with a switching stage whose first
    # run re-proposes the set AO1 just rejected, all-ones: the driver must
    # re-run the real stage with that set cut, and never solve it again
    scenario = ScenarioConfig(pd_shift=2.80500292374538, rank_seed=48647418)
    live = live_demands(network(cli_driver.apply_scenario(case30, scenario)))
    solved = []
    cut_runs = []
    solve, switch = cli_driver.solve_ao1, cli_driver.run_ao2

    def recording_ao1(case, y, warm=None):
        res = solve(case, y, warm=warm)
        solved.append((tuple(y.y[live]), res.status))
        return res

    def re_proposing_ao2(case, start, duals, schedule, variant, cuts=()):
        cut_runs.append(len(cuts))
        if len(cut_runs) == 1:
            return start[2], None
        return switch(case, start, duals, schedule, variant, cuts=cuts)

    monkeypatch.setattr(cli_driver, "solve_ao1", recording_ao1)
    monkeypatch.setattr(cli_driver, "run_ao2", re_proposing_ao2)
    res = run_ao_sbqp(case30, SolverConfig(variant=Ao2Variant(tag="relaxed-two"), scenario=scenario))
    assert set(np.unique(res.switches.y)) <= {0.0, 1.0}
    assert solved[0] == ((1.0,) * int(live.sum()), "infeasible")
    assert cut_runs[:2] == [0, 1]
    rejected = [key for key, status in solved if status == "infeasible"]
    assert all(sum(key == r for key, _ in solved) == 1 for r in rejected)


def _tiled_case30(case30, offset=100):
    """Two copies of case30, bus 2 of each joined by a tie branch (r 0.02,
    x 0.06); the second copy's buses are renumbered by offset and only the
    first copy keeps its slack bus."""
    def shifted(record, *names):
        return dataclasses.replace(record, **{n: getattr(record, n) + offset for n in names})

    r, x = 0.02, 0.06
    den = r * r + x * x
    tie = Branch(from_bus=2, to_bus=2 + offset, g=r / den, b=-x / den, r=r, x=x)
    return GridCase(
        buses=case30.buses + tuple(dataclasses.replace(shifted(b, "id"), is_slack=False)
                                   for b in case30.buses),
        branches=(case30.branches + tuple(shifted(b, "from_bus", "to_bus") for b in case30.branches)
                  + (tie,)),
        generators=case30.generators + tuple(shifted(g, "bus") for g in case30.generators),
        demands=case30.demands + tuple(shifted(d, "bus") for d in case30.demands),
        base_mva=case30.base_mva,
    )


@pytest.mark.parametrize("tag, objective", [
    ("mixed", 14.675399), ("relaxed-one", 17.847291), ("relaxed-two", 17.847291),
])
def test_stressed_tiled_case_is_answered(case30, tag, objective):
    # 60 buses under the default scenario: with a switching row blind to the
    # network losses, relaxed-one ran to the outer cap and relaxed-two to the
    # penalty cap
    tiled = _tiled_case30(case30)
    res = run_ao_sbqp(tiled, SolverConfig(variant=Ao2Variant(tag=tag), scenario=ScenarioConfig()))
    work = cli_driver.apply_scenario(tiled, ScenarioConfig())
    assert set(np.unique(res.switches.y)) <= {0.0, 1.0}
    assert res.objective == pytest.approx(objective, abs=1e-6)
    assert float(constraints_C(work, res.state, res.input, res.switches).max()) <= cli_driver.FEAS_TOL


def _feasible_case(rng, demands=(2, 7)) -> GridCase:
    """A small case that always has an answer: 2-6 demands on 2-7 buses, or
    demands[0] to demands[1] - 1 demands on as many buses or more.

    pg_min is 0, every qg range contains 0 and every voltage band contains
    [0.95, 1.05], so the all-off set balances at the flat point.  Summed
    pg_max is 0.5-1.5 times summed pd, so about half the cases must shed.
    """
    n_dem = int(rng.integers(*demands))
    n = int(rng.integers(max(2, n_dem), max(8, n_dem + 1)))
    slack = int(rng.integers(n))
    buses = [Bus(id=k + 1, v_min=rng.uniform(0.9, 0.95), v_max=rng.uniform(1.05, 1.1),
                 is_slack=k == slack) for k in range(n)]
    pairs = {(int(rng.integers(k)) + 1, k + 1) for k in range(1, n)}
    for _ in range(int(rng.integers(0, 3))):
        f, t = sorted(int(v) + 1 for v in rng.choice(n, 2, replace=False))
        pairs.add((f, t))
    branches = []
    for f, t in sorted(pairs):
        r, x = rng.uniform(0.005, 0.05), rng.uniform(0.02, 0.2)
        den = r * r + x * x
        branches.append(Branch(from_bus=f, to_bus=t, g=r / den, b=-x / den, r=r, x=x))
    demands = [DemandSpec(bus=int(bus) + 1, pd=rng.uniform(0.1, 1.0), qd=rng.uniform(0.0, 0.3),
                          rank=rng.uniform(0.1, 5.0))
               for bus in rng.choice(n, n_dem, replace=False)]
    gen_buses = rng.choice(n, int(rng.integers(1, min(3, n) + 1)), replace=False)
    total = rng.uniform(0.5, 1.5) * sum(d.pd for d in demands)
    generators = [Generator(bus=int(bus) + 1, pg_min=0.0, pg_max=total * share,
                            qg_min=-rng.uniform(0.5, 2.0), qg_max=rng.uniform(0.5, 2.0))
                  for bus, share in zip(gen_buses, rng.dirichlet(np.ones(gen_buses.size)))]
    return GridCase(buses=tuple(buses), branches=tuple(branches), generators=tuple(generators),
                    demands=tuple(demands))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_answers_on_feasible_random_cases_hold_the_solver_invariants(seed):
    # every answer is binary, feasible and no better than the enumerated
    # optimum; a failure is a DriverError or an Ao2Error, never another
    # exception; a case whose cold all-ones solve converges is answered with
    # full service after one outer iteration
    case = _feasible_case(np.random.default_rng(seed))
    net = network(case)
    best = enumerate_oracle(case)[0]
    assert best.feasible
    ones = SwitchVector(np.ones(net.n_dem))
    full = cli_driver.solve_ao1(case, ones).status == "converged"
    for tag in ("mixed", "relaxed-one", "relaxed-two"):
        try:
            res = run_ao_sbqp(case, SolverConfig(variant=Ao2Variant(tag=tag)))
        except (DriverError, Ao2Error):
            assert not full
            continue
        assert set(np.unique(res.switches.y)) <= {0.0, 1.0}
        assert float(constraints_C(case, res.state, res.input, res.switches).max()) <= cli_driver.FEAS_TOL
        assert res.objective <= best.objective + 1e-9
        if full:
            np.testing.assert_array_equal(res.switches.y, ones.y)
            assert res.outer_iterations == 1


def _outcome_texts(case, cfg):
    """The rendered result and trace of a solve, or the DriverError's text."""
    try:
        res = run_ao_sbqp(case, cfg)
    except DriverError as exc:
        return "DriverError", str(exc)
    return render_result_document(result_document(res, cfg)), render_trace_table(res)


def test_reruns_on_feasible_random_cases_are_byte_equal():
    # _feasible_case seeds 0-19, every variant: a second run on the same case
    # object writes the same result and trace bytes, or fails with the same
    # text.  Those draws are all answered, so _random_case seeds 6 and 23,
    # whose runs end in a DriverError, cover the failing exits
    cases = [(f"feasible {seed}", _feasible_case(np.random.default_rng(seed))) for seed in range(20)]
    cases += [(f"random {seed}", _random_case(np.random.default_rng(seed))) for seed in (6, 23)]
    failed = 0
    for name, case in cases:
        for tag in VARIANT_TAGS:
            cfg = SolverConfig(variant=Ao2Variant(tag=tag))
            first = _outcome_texts(case, cfg)
            assert _outcome_texts(case, cfg) == first, (name, tag)
            failed += first[0] == "DriverError"
    assert 0 < failed < 3 * len(cases)


def test_no_live_pattern_is_fitted_again_after_it_is_proved_infeasible(monkeypatch):
    # _feasible_case seeds 0-19, every variant: once a fit proves a live
    # pattern infeasible, no later fit of the run is at that pattern
    fits = []
    solve = cli_driver.solve_ao1

    def spy(case, y, warm=None):
        out = solve(case, y, warm=warm)
        fits.append((tuple(y.y[live].tolist()), out.status))
        return out

    monkeypatch.setattr(cli_driver, "solve_ao1", spy)
    rejected = 0
    for seed in range(20):
        case = _feasible_case(np.random.default_rng(seed))
        live = live_demands(network(case))
        for tag in VARIANT_TAGS:
            fits.clear()
            try:
                run_ao_sbqp(case, SolverConfig(variant=Ao2Variant(tag=tag)))
            except DriverError:
                pass
            for k, (pattern, status) in enumerate(fits):
                if status == "infeasible":
                    rejected += 1
                    assert pattern not in [p for p, _ in fits[k + 1:]], (seed, tag, pattern)
    assert rejected > 0


def test_a_ray_the_box_meets_within_rounding_certifies_nothing(monkeypatch):
    # _feasible_case seed 118, mixed: one subproblem's kernel ends on a ray
    # whose Farkas margin is about 1e-15, far below SLACK_TOL, since the
    # all-off point meets its rows within rounding.  The ray certifies
    # nothing, and the solve goes on to an answer that sheds every demand
    margins = []
    margin = qp_core._farkas_margin
    monkeypatch.setattr(qp_core, "_farkas_margin", lambda *args: margins.append(margin(*args)) or margins[-1])
    res = run_ao_sbqp(_feasible_case(np.random.default_rng(118)), SolverConfig(variant=Ao2Variant(tag="mixed")))
    assert len(margins) == 1 and abs(margins[0]) < 1e-12
    np.testing.assert_array_equal(res.switches.y, np.zeros(3))
    assert res.objective == 0.0 and res.outer_iterations == 4


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_import_pins_blas_threads_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(gridshed.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, gridshed; print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == [expected, expected]


# -- enumeration oracle -------------------------------------------------------

def test_oracle_enumerates_every_switch_set(case5, shortfall5):
    cfg = SolverConfig(scenario=shortfall5)
    entries = enumerate_oracle(case5, cfg)
    assert len(entries) == 8
    patterns = {e.switches for e in entries}
    assert len(patterns) == 8
    feas = [e for e in entries if e.feasible]
    # serving all three demands needs more than the scaled-down budget
    assert (1, 1, 1) not in {e.switches for e in feas}
    assert len(feas) == 7
    objs = [e.objective for e in feas]
    assert objs == sorted(objs, reverse=True)
    # infeasible entries sort after every feasible one
    assert all(e.feasible for e in entries[:len(feas)])


def test_oracle_matches_solver_on_shortfall(case5, shortfall5):
    cfg = SolverConfig(scenario=shortfall5)
    entries = enumerate_oracle(case5, cfg)
    best = entries[0]
    res = run_ao_sbqp(case5, cfg)
    assert any(e.feasible and abs(e.objective - res.objective) <= 1e-4 for e in entries)
    assert res.objective <= best.objective + 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_oracle_entries_equal_a_per_set_loop(seed):
    # 7 or 8 demands: each entry is what a solve_ao1 call on its set alone gives
    case = _feasible_case(np.random.default_rng(seed), demands=(7, 9))
    net = network(case)
    entries = enumerate_oracle(case)
    assert len(entries) == 2 ** net.n_dem
    for e in entries:
        y = SwitchVector(np.array(e.switches, dtype=float))
        assert e.screened == active_capacity_screen(net, y)
        assert e.objective == float(np.sum(y.y * net.rank * net.pd))
        feasible = False
        if not e.screened:
            res = cli_driver.solve_ao1(case, y)
            feasible = res.status == "converged" and float(
                np.max(constraints_C(case, res.state, res.input, y), initial=0.0)) <= cli_driver.FEAS_TOL
        assert e.feasible == feasible, e.switches


def test_oracle_fits_each_unscreened_set_once_from_the_dispatch_start(shortfall5_case, monkeypatch):
    # every set that the screen leaves reaches cli_driver.solve_ao1 once,
    # with dispatch_start's point for the set as its warm start, and its
    # entry counts that fit's evaluations; a screened entry counts none
    net = network(shortfall5_case)
    start = cli_driver.dispatch_start(net)
    calls = []
    solve = cli_driver.solve_ao1

    def spy(case, y, warm=None):
        out = solve(case, y, warm=warm)
        calls.append((tuple(int(b) for b in y.y), warm, out.iterations + 1))
        return out

    monkeypatch.setattr(cli_driver, "solve_ao1", spy)
    entries = enumerate_oracle(shortfall5_case)
    seen = {bits: rest for bits, *rest in calls}
    assert len(seen) == len(calls)
    assert sorted(seen) == sorted(e.switches for e in entries if not e.screened)
    for e in entries:
        if e.screened:
            assert e.evaluations == 0
            continue
        (state, u), evaluations = seen[e.switches]
        want_state, want_u = start(SwitchVector(np.array(e.switches, dtype=float)))
        np.testing.assert_array_equal(state.as_vector(), want_state.as_vector())
        np.testing.assert_array_equal(u.as_vector(), want_u.as_vector())
        assert e.evaluations == evaluations > 0


def test_oracle_refuses_wide_cases(case30):
    cfg = config_from_mapping({"scenario": "stress"})
    with pytest.raises(ValueError, match="cap"):
        enumerate_oracle(case30, cfg)


# -- output documents ---------------------------------------------------------

@pytest.fixture(scope="module")
def solved5(case5):
    cfg = SolverConfig()
    return run_ao_sbqp(case5, cfg), cfg


def test_result_document_round_trip_kv(solved5):
    res, cfg = solved5
    doc = result_document(res, cfg)
    assert doc["format"] == 2
    assert "full_rows" not in doc
    parsed = parse_result_document(render_result_document(doc, "kv"))
    assert set(parsed) == set(doc)
    for key, value in doc.items():
        if isinstance(value, list):
            assert parsed[key] == tuple(value)
        else:
            assert parsed[key] == value


@pytest.mark.parametrize("text, message", [
    ("objective = 1.5\nobjective = 2.5\n", "result line 2: objective already set on line 1"),
    ("# run 1\nobjective = 1.5\nseed 3\n", "result line 3: expected key = value"),
], ids=["repeat", "no-assignment"])
def test_result_document_kv_is_read_strictly(text, message):
    # a repeated key used to let the later value win without a word
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_result_document(text)


@pytest.mark.parametrize("text, message", [
    ('{"objective": 1.5, "objective": 2.5}', "result: objective already set"),
    ('{"objectve": 1.5}', "unknown result key 'objectve'"),
    ('{"seed": "x"}', "seed: expected an integer, got 'x'"),
    ('{"seed": "3"}', "seed: expected an integer, got '3'"),
    ('{"switches": [[1, 0]]}', r"switches: expected comma-separated integers, got \[\[1, 0\]\]"),
], ids=["repeat", "unknown-key", "text-seed", "numeric-text-seed", "nested-list"])
def test_result_document_json_is_read_strictly(text, message):
    # the JSON reader used to keep the last of a repeated key and return
    # every entry untyped; it now gives the kv reader's errors
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_result_document(text)


def test_result_document_round_trip_json(solved5):
    res, cfg = solved5
    doc = result_document(res, cfg)
    parsed = parse_result_document(render_result_document(doc, "json"))
    for key, value in doc.items():
        if isinstance(value, list):
            assert parsed[key] == tuple(value)
        else:
            assert parsed[key] == value


def test_trace_table_round_trip(solved5):
    res, _ = solved5
    rows = parse_trace_table(render_trace_table(res))
    assert len(rows) == res.inner_iterations
    flat = [r for t in res.ao2_traces for r in t.rows]
    for parsed, row in zip(rows, flat):
        np.testing.assert_array_equal(parsed["y"], row.y)
        assert parsed["phi"] == row.phi
        assert parsed["rho"] == row.rho
        assert parsed["kind"] == row.kind


_TRACE_HEADER = "stage,iteration,y_0,y_1,phi,rho,alpha,kind,status,psi"


@pytest.mark.parametrize("text, message", [
    ("", "trace line 1: expected a header line"),
    (f"{_TRACE_HEADER}\n0,1,1.0,0.0,0.5\n", "trace line 2: expected 10 cells, got 5"),
    (f"{_TRACE_HEADER}\n\n0,1,1.0,0.0,x,1.0,0.0,penalty,optimal,0.0\n",
     "trace line 3: phi: expected a number, got 'x'"),
    ("stage,iteration,y_0\n", "trace line 1: unexpected header 'stage,iteration,y_0'"),
], ids=["empty", "short-row", "non-number", "header"])
def test_trace_table_is_read_strictly(text, message):
    # these raised a bare IndexError, or float's own message without a line
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_trace_table(text)


def test_emit_outputs_bytes_are_stable(solved5, tmp_path):
    res, cfg = solved5
    a = emit_outputs(res, tmp_path / "a", "kv", cfg)
    b = emit_outputs(res, tmp_path / "b", "kv", cfg)
    assert a["result"].read_bytes() == b["result"].read_bytes()
    assert a["trace"].read_bytes() == b["trace"].read_bytes()
    report = parse_kv(a["report"].read_text(), "report")
    assert list(report) == ["outer_iterations", "inner_iterations", "phi_final",
                            "wall_ao1_s", "wall_ao2_s", "wall_total_s"]
    assert report["outer_iterations"] == str(res.outer_iterations)
    assert report["inner_iterations"] == str(res.inner_iterations)
    assert float(report["phi_final"]) == res.phi_final
    assert float(report["wall_total_s"]) == res.timings["total_s"]


# -- self checks --------------------------------------------------------------

def test_self_check_passes(case5):
    rows = self_check(case5, seed=0, points=3, states=20)
    assert [r.name for r in rows] == [
        "outflow-jacobian", "objective-gradient", "constraint-jacobian",
        "switch-curvature", "lossless-active-sum",
    ]
    assert all(r.ok for r in rows), [r.detail for r in rows if not r.ok]


# -- command line -------------------------------------------------------------

@pytest.fixture()
def case5_path(tmp_path, case5_text):
    p = tmp_path / "five.m"
    p.write_text(case5_text)
    return p


@pytest.fixture()
def case30_path(tmp_path, case30_text):
    p = tmp_path / "thirty.m"
    p.write_text(case30_text)
    return p


def test_cli_solve_writes_outputs(case5_path, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--case", str(case5_path), "--out-dir", str(out)]) == 0
    doc = parse_result_document((out / "result.kv").read_text())
    assert doc["switches"] == (1, 1, 1)
    assert (out / "trace.csv").exists()
    assert (out / "report.kv").exists()


def test_cli_solve_json_format(case5_path, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--case", str(case5_path), "--out-dir", str(out),
                 "--format", "json"]) == 0
    doc = parse_result_document((out / "result.json").read_text())
    assert doc["objective"] == pytest.approx(10.0)


def test_cli_solve_exit_three_on_outer_cap(case30_path, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.kv"
    cfgfile.write_text("scenario = stress\nouter_max_iters = 1\n")
    rc = main(["solve", "--case", str(case30_path), "--config", str(cfgfile),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "best iterate" in err


def test_cli_solve_byte_identical_reruns(case30_path, tmp_path):
    cfgfile = tmp_path / "cfg.kv"
    cfgfile.write_text("scenario = stress\nvariant = relaxed-two\n")
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["solve", "--case", str(case30_path), "--config", str(cfgfile),
                     "--seed", "6", "--out-dir", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "result.kv").read_bytes() == (outs[1] / "result.kv").read_bytes()
    assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()


def test_cli_oracle_writes_table(case5_path, tmp_path):
    cfgfile = tmp_path / "cfg.kv"
    cfgfile.write_text(
        "scenario.shift_mode = multiplicative\nscenario.pd_shift = 1.0\n"
        "scenario.qd_shift = 1.0\nscenario.pg_upper_scale = 0.5\n"
        "scenario.qg_bound_scale = 0.5\nscenario.rank_seed = 2\n"
        "scenario.demand_set_mode = loaded-buses\n"
    )
    out = tmp_path / "out"
    assert main(["oracle", "--case", str(case5_path), "--config", str(cfgfile),
                 "--out-dir", str(out)]) == 0
    lines = (out / "oracle.csv").read_text().splitlines()
    assert lines[0] == "y_0,y_1,y_2,feasible,objective"
    assert len(lines) == 9


def test_cli_oracle_summary_counts_fits_and_evaluations(case5_path, shortfall5_case, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.kv"
    cfgfile.write_text(
        "scenario.shift_mode = multiplicative\nscenario.pd_shift = 1.0\n"
        "scenario.qd_shift = 1.0\nscenario.pg_upper_scale = 0.5\n"
        "scenario.qg_bound_scale = 0.5\nscenario.rank_seed = 2\n"
        "scenario.demand_set_mode = loaded-buses\n"
    )
    assert main(["oracle", "--case", str(case5_path), "--config", str(cfgfile),
                 "--out-dir", str(tmp_path / "out")]) == 0
    evaluations = sum(e.evaluations for e in enumerate_oracle(shortfall5_case))
    assert capsys.readouterr().out.splitlines()[0] == (
        "8 configurations, 7 feasible, 1 infeasible by the active-capacity screen, "
        f"7 fits, {evaluations} evaluations")


def test_cli_check_passes(case5_path):
    assert main(["check", "--case", str(case5_path)]) == 0


def test_python_m_gridshed_runs_the_command_without_warnings(case5_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(gridshed.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-m", "gridshed", "check", "--case", str(case5_path)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "RuntimeWarning" not in out.stderr
    assert "PASS" in out.stdout and "FAIL" not in out.stdout


def test_cli_scenario_prints_modified_case(case30_path, capsys):
    assert main(["scenario", "--case", str(case30_path)]) == 0
    text = capsys.readouterr().out
    modified = parse_case(text)
    case30 = parse_case(case30_path.read_text())
    assert len(modified.demands) == len(case30.buses)
    pd_before = sum(d.pd for d in case30.demands)
    pd_after = sum(d.pd for d in modified.demands)
    assert pd_after == pytest.approx(pd_before + 2.5)


def test_cli_scenario_prints_the_instance_solve_uses(case30_path, case30, capsys):
    # without a seed it used to draw ranks with the run seed 2025, not the
    # pinned rank_seed of the stressed case that solve runs
    assert main(["scenario", "--case", str(case30_path)]) == 0
    assert capsys.readouterr().out == serialize_case(apply_scenario(case30, ScenarioConfig()))


@pytest.mark.parametrize("how", ["flag", "config"])
def test_cli_scenario_explicit_seed_moves_the_rank_draw(case30_path, case30, tmp_path, capsys, how):
    cfgfile = tmp_path / "cfg.kv"
    cfgfile.write_text("seed = 11\n")
    seed = ["--seed", "11"] if how == "flag" else ["--config", str(cfgfile)]
    assert main(["scenario", "--case", str(case30_path), *seed]) == 0
    assert capsys.readouterr().out == serialize_case(apply_scenario(case30, ScenarioConfig(rank_seed=11)))


def test_cli_scenario_negative_seed_names_the_key(case30_path, capsys):
    # it used to print numpy's "expected non-negative integer", naming no key
    assert main(["scenario", "--case", str(case30_path), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: rank_seed must be None or an integer >= 0, got -1\n"


@pytest.mark.parametrize("command", ["solve", "check"])
def test_cli_negative_seed_names_the_key(case5_path, tmp_path, capsys, command):
    # check used to print numpy's "expected non-negative integer", and solve
    # on a case with no scenario ran with seed = -1
    argv = [command, "--case", str(case5_path), "--seed", "-1"]
    if command == "solve":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_cli_missing_case_exits_two(tmp_path, capsys):
    rc = main(["solve", "--case", str(tmp_path / "nope.m"), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_bad_config_key_exits_two(case5_path, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.kv"
    cfgfile.write_text("rho_zero = 1.0\n")
    rc = main(["solve", "--case", str(case5_path), "--config", str(cfgfile),
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["rho_max = nan", "rho_max = inf", "outer_eps = nan"])
def test_cli_non_finite_config_value_exits_two(case5_path, tmp_path, capsys, line):
    # rho_max = nan used to pass validation and leave the penalty loop
    # without an exit
    cfgfile = tmp_path / "cfg.kv"
    cfgfile.write_text(line + "\n")
    rc = main(["solve", "--case", str(case5_path), "--config", str(cfgfile),
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("rho0 = abc\n", "rho0: expected a number, got 'abc'"),
    ("outer_max_iters = 2.5\n", "outer_max_iters: expected an integer, got '2.5'"),
    ("seed = x\n", "seed: expected an integer, got 'x'"),
    ("scenario.pd_shift = abc\n", "scenario.pd_shift: expected a number, got 'abc'"),
    ("scenario.rank_seed = 1.5\n", "scenario.rank_seed: expected an integer or none, got '1.5'"),
    ("rho0 = 1.0\n# comment\nbeta = 5\nrho0 = 2.0\n", "config line 4: rho0 already set on line 1"),
    ("scenario = none\nscenario.pd_shift = 3.0\n", "scenario = none leaves these keys unused: scenario.pd_shift"),
    ("full_rows = true\n", "unknown config keys: full_rows"),
    ("scenario.pd_shfit = 3.0\n", "unknown config keys: scenario.pd_shfit"),
], ids=["float", "int", "seed", "scenario-float", "scenario-rank-seed", "duplicate", "scenario-none",
        "removed-key", "scenario-typo"])
def test_cli_bad_config_value_names_its_key(case5_path, tmp_path, capsys, text, message):
    # a bare "could not convert string to float" used to leave the key unnamed,
    # a repeated key used to let the later value win silently,
    # scenario = none used to drop the scenario.* keys without a word, and a
    # misspelled scenario.* key was dropped the same way
    cfgfile = tmp_path / "cfg.kv"
    cfgfile.write_text(text)
    rc = main(["solve", "--case", str(case5_path), "--config", str(cfgfile),
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
