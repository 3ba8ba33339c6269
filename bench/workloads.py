"""Seeded workloads for the gridshed benchmark.

Every workload is a fixed list of calls drawn from the workload seed.  A call
names its instance by parameters only (case file plus scenario fields), so a
single call can be rebuilt and re-run alone.  Instance parameters come from the
seed and are never chosen by outcome.

Why each workload exists:

* shed30   stressed case30: the pinned criterion-1 instance and one seeded
           (rank_seed, pd_shift) draw, each solved with all three variants
           through run_ao_sbqp (the pinned calls four times per pass).  The
           scipy least-squares restoration is most of every solve, and the
           solver's no-convergence failures (20 outer iterations, each with a
           restoration) show up here.
* serve30  adequate case30 with seeded multiplicative load scaling in
           [0.6, 1.2] and redrawn ranks, variants rotated.  Every instance is
           feasible, so AO1 is a pure interior point, AO2 runs a single QP and
           restoration never runs: a restoration change must not move it.
* oracle5  case5 shortfall instances from the criterion-3 family with seeded
           rank_seed and pg_upper_scale in [0.5, 0.6].  One call enumerates all
           switch sets with enumerate_oracle, then solves with run_ao_sbqp; it
           is the only workload with an exact quality reference, and it runs
           many small cold AO1 solves on infeasible configurations.
* switch30 run_ao2 alone, all three variants, from AO1 all-ones starts on
           the pinned stressed case30 and three seeded draws, computed during
           set-up (the pinned calls eight times per draw).  AO2 and the QP are
           all of a call here, while in a full solve they are at most 5% of
           the time.

The full linearized balance rows (Ao2Variant.full_rows) are left out of every
workload: in probes at the seed commit they raised Ao2Error on all 8 calls and
relaxed-one took 31 s on case5.  All workloads use the default aggregate rows.

gridshed names are looked up through their modules at call time
(``cli_driver.run_ao_sbqp``, not a name imported here), so the tracer's
wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridshed import ao1_opf, ao2_sbqp, cli_driver, grid_model, power_equations
from gridshed.ao2_sbqp import Ao2Error, Ao2Variant
from gridshed.cli_driver import DriverError, SolverConfig

# Bound before the tracer wraps anything, so the answer check is never traced.
from gridshed.power_equations import SwitchVector, constraints_C

VARIANTS = ("mixed", "relaxed-one", "relaxed-two")
WORKLOADS = ("shed30", "serve30", "oracle5", "switch30")

# ScenarioConfig() defaults: the stressed case30 of acceptance criterion 1.
PINNED_STRESS = {"pd_shift": 2.5, "rank_seed": 6}
SERVE30_INSTANCES = 30      # at most 32, the size of network()'s cache
ORACLE5_INSTANCES = 20
SWITCH30_DRAWS = 3

OBJECTIVE_TOL = 1e-9
FEAS_TOL = 1e-6
ROW_TOL = 1e-6

CASES_DIR = Path(grid_model.__file__).resolve().parent / "cases"


def _stress_draw(rng) -> dict:
    return {"pd_shift": float(rng.uniform(2.0, 3.0)), "rank_seed": int(rng.integers(0, 2**31))}


def _serve_draw(rng) -> dict:
    scale = float(rng.uniform(0.6, 1.2))
    return {"shift_mode": "multiplicative", "pd_shift": scale, "qd_shift": scale,
            "qg_bound_scale": 1.0, "pg_upper_scale": 1.0,
            "rank_seed": int(rng.integers(0, 2**31))}


def _oracle_draw(rng) -> dict:
    # criterion-3 family: case5 loads as given, generation cut below demand
    return {"shift_mode": "multiplicative", "pd_shift": 1.0, "qd_shift": 1.0,
            "qg_bound_scale": 0.5, "pg_upper_scale": float(rng.uniform(0.5, 0.6)),
            "rank_seed": int(rng.integers(0, 2**31)), "demand_set_mode": "loaded-buses"}


def _solve_call(workload, case, scenario, variant, kind="solve") -> dict:
    return {"workload": workload, "kind": kind, "case": case, "scenario": scenario,
            "variant": variant}


def call_list(workload: str, seed: int) -> list[dict]:
    """The workload's calls in loop order; each is a JSON-ready parameter record."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "shed30":
        # The pinned calls are four fifths of a pass, so the median call is a
        # pinned one whatever the draw; the draw adds the seed's variety and,
        # often, the failures.
        pinned = [_solve_call(workload, "case30", PINNED_STRESS, v) for v in VARIANTS]
        draw = _stress_draw(rng)
        return 2 * pinned + [_solve_call(workload, "case30", draw, v) for v in VARIANTS] + 2 * pinned
    if workload == "serve30":
        return [_solve_call(workload, "case30", _serve_draw(rng), VARIANTS[k % 3])
                for k in range(SERVE30_INSTANCES)]
    if workload == "oracle5":
        return [_solve_call(workload, "case5", _oracle_draw(rng), VARIANTS[k % 3], "oracle-solve")
                for k in range(ORACLE5_INSTANCES)]
    if workload == "switch30":
        # A call's cost varies fourfold between draws and threefold between
        # variants.  The pinned start is eight ninths of a pass, which holds
        # the median call near the middle of its middle variant.
        pinned = [_solve_call(workload, "case30", PINNED_STRESS, v, "switch") for v in VARIANTS]
        out = []
        for _ in range(SWITCH30_DRAWS):
            draw = _stress_draw(rng)
            out += 4 * pinned + [_solve_call(workload, "case30", draw, v, "switch")
                                 for v in VARIANTS] + 4 * pinned
        return out
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Instance:
    """A built instance: the scenario already applied, its network cached."""

    case: grid_model.GridCase
    weights: np.ndarray             # rank * pd per demand, read from the case
    bound: float                    # capacity bound on sum(y * rank * pd)
    start: tuple | None = None      # switch30: (state, input, ones), duals


def capacity_bound(case) -> float:
    """Largest sum(y * rank * pd) over y in [0, 1] with sum(y * pd) at most
    the total generation cap: a fractional knapsack, filled by rank.  Branch
    resistances are non-negative, so network losses are too, and no feasible
    switch set serves more."""
    cap = sum(g.pg_max for g in case.generators)
    value = 0.0
    for d in sorted(case.demands, key=lambda d: -d.rank):
        take = min(d.pd, cap)
        value += d.rank * take
        cap -= take
    return value


def instance_key(call: dict) -> tuple:
    return call["case"], tuple(sorted(call["scenario"].items())), call["kind"] == "switch"


def build(calls: list[dict]) -> dict:
    """Set-up: parse each case, apply each scenario, build its network().

    switch30 instances also get their AO1 start at all-ones.  Returns
    {instance key: Instance}.
    """
    parsed = {}
    built = {}
    for call in calls:
        key = instance_key(call)
        if key in built:
            continue
        name = call["case"]
        if name not in parsed:
            parsed[name] = grid_model.parse_case((CASES_DIR / f"{name}.m").read_text())
        scenario = grid_model.ScenarioConfig(**call["scenario"])
        case = grid_model.apply_scenario(parsed[name], scenario)
        power_equations.network(case)
        inst = Instance(case, np.array([d.rank * d.pd for d in case.demands]), capacity_bound(case))
        if call["kind"] == "switch":
            ones = SwitchVector(np.ones(len(case.demands)))
            ao1 = ao1_opf.solve_ao1(case, ones)
            inst.start = ((ao1.state, ao1.input, ones), ao1.duals)
        built[key] = inst
    return built


@dataclass
class Outcome:
    answered: bool          # the program returned an answer (no DriverError/Ao2Error)
    check_ok: bool          # the answer passed the check; True when there was none
    objective: float        # served objective sum(y * rank * pd); nan when unanswered
    ratio: float = float("nan")     # objective over the instance's capacity bound
    error: str = ""
    oracle_opt: float = float("nan")

    @property
    def failed(self) -> bool:
        return not (self.answered and self.check_ok)


def run(call: dict, inst: Instance):
    """Make the call; returns the raw answer or the raised solver error."""
    variant = Ao2Variant(tag=call["variant"])
    try:
        if call["kind"] == "switch":
            start, duals = inst.start
            return ao2_sbqp.run_ao2(inst.case, start, duals, None, variant)
        cfg = SolverConfig(variant=variant)
        if call["kind"] == "oracle-solve":
            entries = cli_driver.enumerate_oracle(inst.case, cfg)
            return entries, cli_driver.run_ao_sbqp(inst.case, cfg)
        return cli_driver.run_ao_sbqp(inst.case, cfg)
    except (DriverError, Ao2Error) as exc:
        return exc


def check(call: dict, inst: Instance, answer) -> Outcome:
    """Check an answer from outside the program.

    Switches are binary; the reported objective is sum(y * rank * pd) within
    1e-9; the constraint stack at the reported point is at most 1e-6 (for a
    bare AO2 call, which reports no operating point, the aggregate capacity
    rows it solves against hold instead); on oracle5 the objective is at most
    the enumerated optimum.
    """
    if isinstance(answer, (DriverError, Ao2Error)):
        return Outcome(False, True, float("nan"), error=f"{type(answer).__name__}: {answer}")
    entries = None
    if call["kind"] == "oracle-solve":
        entries, answer = answer
    if call["kind"] == "switch":
        switches, _trace = answer
        y = switches.y
    else:
        y = answer.switches.y
    objective = float(np.sum(y * inst.weights))
    problems = []
    if not np.all((y == 0.0) | (y == 1.0)):
        problems.append("switches not binary")
    if call["kind"] == "switch":
        (_state, inputs, _ones), _duals = inst.start
        case = inst.case
        served_p = float(y @ np.array([d.pd for d in case.demands]))
        served_q = float(y @ np.array([d.qd for d in case.demands]))
        rows = (float(inputs.pg.sum()) - served_p,
                sum(g.qg_max for g in case.generators) - served_q,
                served_q - sum(g.qg_min for g in case.generators))
        if min(rows) < -ROW_TOL:
            problems.append(f"aggregate row violated by {-min(rows):.3e}")
    else:
        if abs(answer.objective - objective) > OBJECTIVE_TOL:
            problems.append(f"objective {answer.objective!r} != {objective!r}")
        worst = float(np.max(constraints_C(inst.case, answer.state, answer.input, answer.switches)))
        if worst > FEAS_TOL:
            problems.append(f"constraint violation {worst:.3e}")
    opt = float("nan")
    if entries is not None:
        feasible = [e.objective for e in entries if e.feasible]
        opt = max(feasible) if feasible else float("nan")
        if not objective <= opt + OBJECTIVE_TOL:
            problems.append(f"objective {objective!r} above the enumerated optimum {opt!r}")
    return Outcome(True, not problems, objective, objective / inst.bound, "; ".join(problems), opt)
