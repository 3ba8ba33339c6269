"""Outer alternation driver, enumeration oracle, config reader, and the CLI.

The driver alternates the continuous stage and the switching stage until two
consecutive continuous solutions agree, or until the continuous stage
converges at full service, then accepts the final binary switch set when its
continuous fit converged there.  Full service needs no switching stage:
every demand has rank > 0 and pd >= 0 (DemandSpec enforces both), so the
served-priority objective sum(y * rank * pd) is largest at all ones.

Everything the CLI writes is deterministic for a fixed case, config, and seed;
wall-clock numbers go to a separate report file so result and trace files can
be compared byte for byte.

``_CONFIG_FIELDS`` holds every config key, the ``scenario.*`` ones included,
and ``config_from_mapping`` reads them from text that documents.parse_kv
split into lines.  The text of every output file is the documents module's,
and the self-checks that ``check`` prints are the checks module's.
"""

from __future__ import annotations

import argparse
import math
import numbers
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ao1_opf import Ao1Result, active_capacity_screen, dispatch_start, solve_ao1
from .ao2_sbqp import (VARIANT_TAGS, Ao2Error, Ao2Variant, PenaltySchedule, SbqpTrace, live_demands,
                       run_ao2)
from .checks import self_check
from .documents import _value, emit_oracle, emit_outputs, parse_kv
from .grid_model import (
    CaseError,
    GridCase,
    ScenarioConfig,
    apply_scenario,
    parse_case,
    serialize_case,
)
from .power_equations import InputVector, State, SwitchVector, constraint_row, constraints_C, network, phi

ORACLE_CAP = 20
LOCAL_VERDICTS = "the verdicts are local: a stationary AO1 fit is no global proof"


class DriverError(RuntimeError):
    """The alternation could not deliver a valid binary operating point.

    kind is "infeasible" when the final switch set admits no feasible
    continuous solution or the rejected sets leave none to try, and
    "no-convergence" when an iteration budget ran out first.  best is always
    given: the SolveResult of the run so far, its answer fields read from
    the last fit, with every fit made and every switching stage's trace.
    """

    def __init__(self, message: str, kind: str, best: SolveResult):
        super().__init__(message)
        self.kind = kind
        self.best = best


@dataclass(frozen=True)
class SolverConfig:
    """Everything the driver needs besides the case itself."""

    schedule: PenaltySchedule = PenaltySchedule()
    variant: Ao2Variant = Ao2Variant()
    outer_eps: float = 1e-6
    outer_max_iters: int = 20
    seed: int = 2025
    scenario: ScenarioConfig | None = None

    def __post_init__(self):
        if isinstance(self.outer_eps, bool) or not isinstance(self.outer_eps, numbers.Real):
            raise ValueError(f"outer_eps must be a number, got {self.outer_eps!r}")
        if not math.isfinite(self.outer_eps):
            raise ValueError("outer_eps must be finite")
        if self.outer_eps <= 0.0:
            raise ValueError("outer_eps must be positive")
        for name, least in (("outer_max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True, eq=False)
class SolveResult:
    state: State
    input: InputVector
    switches: SwitchVector
    objective: float
    supplied_active: float
    supplied_reactive: float
    fits: tuple[Ao1Result, ...]         # every continuous fit, in order
    ao2_traces: tuple[SbqpTrace, ...]   # trace k: the switching stage kept after fit k
    timings: dict = field(default_factory=dict)

    @property
    def outer_iterations(self) -> int:
        return len(self.fits)

    @property
    def inner_iterations(self) -> int:
        return sum(len(t.rows) for t in self.ao2_traces)

    @property
    def phi_final(self) -> float:
        return phi(self.switches.y)


def _setup(case: GridCase, cfg: SolverConfig | None):
    """The config (defaults when None), the case its scenario runs on, and its network."""
    cfg = SolverConfig() if cfg is None else cfg
    work = apply_scenario(case, cfg.scenario) if cfg.scenario is not None else case
    return cfg, work, network(work)


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def run_ao_sbqp(case: GridCase, cfg: SolverConfig | None = None) -> SolveResult:
    """Alternate both stages until consecutive continuous solutions agree or
    full service balances, then accept the settled set when its fit
    converged, the rule that enumerate_oracle judges a set by.

    The switch set starts at all-ones, and a continuous solve that converges
    at all-ones ends the loop without a switching stage: with rank > 0 and
    pd >= 0 for every demand (DemandSpec enforces both), no y in [0, 1]^n
    serves more, so an adequate case is one continuous solve.  A solve that
    cannot close its residuals mid-run still steers the switching stage with
    its iterate and its balance multipliers, closed-form at every point.

    A set that a continuous solve proved infeasible is remembered by its live
    demands, and a switching stage that proposes one again is re-run with
    every remembered set as a no-good cut.  So no rejected set is fitted
    twice or settled on, and a case whose live patterns are all rejected
    ends within 2**live + 1 fits.

    The answer and every DriverError's best hold the run's history: fits,
    every continuous fit in order, and ao2_traces, trace k of the switching
    stage kept after fit k (its cut re-run when one ran), a failed stage's
    partial trace last.  Their state, input and switches are the last fit's,
    at the set it was fitted at, and outer_iterations counts the fits.

    Every other ending raises a DriverError.  By kind and message head (the
    infeasible verdicts of a fit or a QP end with LOCAL_VERDICTS):

    * infeasible, "all N live switch patterns proved infeasible";
    * infeasible, "the switching rows admit no point of the box": an
      Ao2Error of kind "infeasible", by a QP's Farkas test;
    * no-convergence, "switching stage stalled: ...": an Ao2Error of kind
      "penalty-cap";
    * infeasible, "the switching stage proposed a rejected switch set again
      with N rejected sets cut": the guard behind the Farkas exit;
    * no-convergence, "operating point still moving after N outer
      iterations", and, when a switching stage was ever re-run with cuts,
      the number of sets cut at the last such re-run;
    * infeasible, "final switch set admits no feasible operating point": the
      settled fit did not converge; the message names its status and the
      worst row of constraints_C at its point, with the row's value.
    """
    cfg, work, net = _setup(case, cfg)
    t0 = time.perf_counter()
    wall = {"ao1_s": 0.0, "ao2_s": 0.0}
    live = live_demands(net)
    rejected: dict = {}     # live switch pattern -> a switch set AO1 proved infeasible
    cuts: tuple = ()        # the sets cut at the last re-run of a switching stage
    fits: list[Ao1Result] = []
    traces: list[SbqpTrace] = []
    y = SwitchVector(np.ones(net.n_dem))    # the set the next fit is made at

    def pattern(switches: SwitchVector) -> tuple:
        return tuple(switches.y[live].tolist())

    def timed(key: str, stage, *args, **kwargs):
        tick = time.perf_counter()
        try:
            return stage(*args, **kwargs)
        finally:
            wall[key] += time.perf_counter() - tick

    def best() -> SolveResult:
        last = fits[-1]
        on = last.switches.y
        return SolveResult(state=last.state, input=last.input, switches=last.switches,
                           objective=float(np.sum(on * net.rank * net.pd)),
                           supplied_active=float(np.sum(on * net.pd)),
                           supplied_reactive=float(np.sum(on * net.qd)),
                           fits=tuple(fits), ao2_traces=tuple(traces),
                           timings={**wall, "total_s": time.perf_counter() - t0})

    def infeasible(message: str) -> DriverError:
        return DriverError(f"{message}; {LOCAL_VERDICTS}", "infeasible", best())

    for _ in range(cfg.outer_max_iters):
        # each fit after the first starts from the one before
        ao1 = timed("ao1_s", solve_ao1, work, y, warm=(fits[-1].state, fits[-1].input) if fits else None)
        fits.append(ao1)
        if ao1.status == "infeasible":
            # a set proved infeasible is cut, never settled on
            rejected.setdefault(pattern(y), y.y)
            if len(rejected) == 2 ** int(live.sum()):
                raise infeasible(f"all {_count(len(rejected), 'live switch pattern')} proved infeasible")
        elif ao1.status == "converged" and bool(np.all(y.y == 1.0)):
            break   # full service balances: no switch set serves more
        # a fit's end vector is its point but for the slack's (v, theta),
        # which never moves, so it moves by as much as the point does
        elif len(fits) > 1 and np.max(np.abs(ao1.fit.x - fits[-2].fit.x), initial=0.0) <= cfg.outer_eps:
            break
        ao2_args = (work, (ao1.state, ao1.input, y), ao1.duals, cfg.schedule, cfg.variant)
        try:
            y, trace = timed("ao2_s", run_ao2, *ao2_args)
            if pattern(y) in rejected:
                cuts = tuple(rejected.values())
                y, trace = timed("ao2_s", run_ao2, *ao2_args, cuts=cuts)
        except Ao2Error as exc:
            traces.append(exc.trace)
            if exc.kind == "infeasible":
                raise infeasible(str(exc)) from exc
            raise DriverError(f"switching stage stalled: {exc}", "no-convergence", best()) from exc
        traces.append(trace)
        if pattern(y) in rejected:
            raise infeasible(f"the switching stage proposed a rejected switch set again with "
                             f"{_count(len(cuts), 'rejected set')} cut")
    else:
        message = f"operating point still moving after {_count(len(fits), 'outer iteration')}"
        if cuts:
            message += ("; the switching stage was last re-run with "
                        f"{_count(len(cuts), 'infeasible switch set')} cut")
        raise DriverError(message, "no-convergence", best())

    if ao1.status != "converged":
        resid = constraints_C(work, ao1.state, ao1.input, ao1.switches)
        worst = int(np.argmax(resid))
        value = float(resid[worst])
        raise DriverError("final switch set admits no feasible operating point (continuous stage "
                          f"{ao1.status}, worst violation {value:.3e} in {constraint_row(work, worst)}, "
                          f"row {worst})", "infeasible", best())
    return best()


@dataclass(frozen=True, eq=False)
class OracleEntry:
    switches: tuple[int, ...]
    feasible: bool
    objective: float
    screened: bool     # infeasible by the active-capacity screen, without a solve
    evaluations: int   # the set's fit evaluations (iterations + 1); 0 when screened


def enumerate_oracle(case: GridCase, cfg: SolverConfig | None = None) -> list[OracleEntry]:
    """Solve the continuous stage for every binary switch set.

    Returns every configuration with its served-priority objective, feasible
    entries first, best objective first; ties break on the switch pattern so
    the order is reproducible.  A configuration that the active-capacity
    screen proves infeasible is labelled without a solve, since the
    continuous stage could not converge on it.  Each of the others gets one
    ``solve_ao1``, started from ``dispatch_start``'s point for its set (a
    dispatch that covers its load, at the DC power-flow angles), and is
    feasible by the rule that accepts the driver's final set: its fit
    converges, which puts its point within every row of constraints_C (the
    ao1_opf module docstring says why).  Only the labels are reported, so
    where a fit starts is free; the verdicts stay local, one fit per set.
    Refuses cases with more than ORACLE_CAP switchable demands.
    """
    _, work, net = _setup(case, cfg)
    if net.n_dem > ORACLE_CAP:
        raise ValueError(
            f"enumeration needs 2^{net.n_dem} continuous solves; the cap is 2^{ORACLE_CAP}"
        )
    start = dispatch_start(net)
    shifts = np.arange(net.n_dem)
    entries = []
    for code in range(2 ** net.n_dem):
        ints = code >> shifts & 1
        y = SwitchVector(ints)
        screened = active_capacity_screen(net, y)
        feasible, evaluations = False, 0
        if not screened:
            fit = solve_ao1(work, y, warm=start(y))
            feasible, evaluations = fit.status == "converged", fit.iterations + 1
        entries.append(OracleEntry(
            switches=tuple(ints.tolist()),
            feasible=feasible,
            objective=float(np.sum(y.y * net.rank * net.pd)),
            screened=screened,
            evaluations=evaluations,
        ))
    entries.sort(key=lambda e: (not e.feasible, -e.objective, e.switches))
    return entries


# -- config files and the command line ----------------------------------------

# config key: (record, field, kind); a key left out keeps the record's default.
# scenario is read into the solver record as its mode and replaced there by
# the ScenarioConfig that the mode and the scenario record select
_CONFIG_FIELDS = {
    "variant": ("variant", "tag", "str"),
    "rho0": ("schedule", "rho0", "float"),
    "beta": ("schedule", "beta", "float"),
    "rho_max": ("schedule", "rho_max", "float"),
    "eps": ("schedule", "eps", "float"),
    "outer_eps": ("solver", "outer_eps", "float"),
    "outer_max_iters": ("solver", "outer_max_iters", "int"),
    "seed": ("solver", "seed", "int"),
    "scenario": ("solver", "scenario", "none-or-stress"),
    "scenario.pd_shift": ("scenario", "pd_shift", "float"),
    "scenario.qd_shift": ("scenario", "qd_shift", "float"),
    "scenario.shift_mode": ("scenario", "shift_mode", "str"),
    "scenario.qg_bound_scale": ("scenario", "qg_bound_scale", "float"),
    "scenario.pg_upper_scale": ("scenario", "pg_upper_scale", "float"),
    "scenario.rank_levels": ("scenario", "rank_levels", "int"),
    "scenario.rank_seed": ("scenario", "rank_seed", "int-or-none"),
    "scenario.demand_set_mode": ("scenario", "demand_set_mode", "str"),
}


def config_from_mapping(mapping: dict[str, str], variant: str | None = None,
                        seed: int | None = None) -> SolverConfig:
    """Build a SolverConfig from flat key = value text.

    scenario.* keys configure the stress transform and imply scenario = stress;
    with an explicit scenario = none they are an error, not silently dropped;
    an explicit seed (flag or config key) also drives the scenario rank draw
    unless scenario.rank_seed pins it, so one --seed flag controls the run.
    """
    unknown = set(mapping) - set(_CONFIG_FIELDS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    records: dict[str, dict] = {"variant": {}, "schedule": {}, "solver": {}, "scenario": {}}
    for key, (record, name, kind) in _CONFIG_FIELDS.items():
        if key in mapping:
            records[record][name] = _value(key, mapping[key], kind)
    if variant is not None:
        records["variant"]["tag"] = variant
    solver, scenario = records["solver"], records["scenario"]
    if seed is not None:
        solver["seed"] = seed

    mode = solver.pop("scenario", "stress" if scenario else "none")
    if mode == "none" and scenario:
        keys = ", ".join(sorted(f"scenario.{k}" for k in scenario))
        raise ValueError(f"scenario = none leaves these keys unused: {keys}")
    if mode == "stress":
        if "seed" in solver:
            scenario.setdefault("rank_seed", solver["seed"])
        solver["scenario"] = ScenarioConfig(**scenario)

    return SolverConfig(
        schedule=PenaltySchedule(**records["schedule"]),
        variant=Ao2Variant(**records["variant"]),
        **solver,
    )


def _load(args, stress: bool = False) -> tuple[GridCase, SolverConfig]:
    case = parse_case(Path(args.case).read_text())
    mapping = parse_kv(Path(args.config).read_text(), "config") if args.config else {}
    if stress:
        mapping["scenario"] = "stress"
    cfg = config_from_mapping(mapping, variant=getattr(args, "variant", None), seed=args.seed)
    return case, cfg


def _cmd_solve(args) -> int:
    case, cfg = _load(args)
    try:
        result = run_ao_sbqp(case, cfg)
    except DriverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        best = exc.best
        print(f"best iterate: objective {best.objective:.6f}, "
              f"served {best.supplied_active:.4f} p.u. active, "
              f"{int(np.sum(best.switches.y < 0.5))} of {best.switches.y.size} demands off",
              file=sys.stderr)
        return 2 if exc.kind == "infeasible" else 3
    paths = emit_outputs(result, args.out_dir, args.format, cfg)
    off = int(np.sum(result.switches.y < 0.5))
    print(f"objective {result.objective:.6f}  served {result.supplied_active:.4f} p.u. active  "
          f"{off} of {result.switches.y.size} demands off")
    print(f"outer iterations {result.outer_iterations}  "
          f"switching iterations {result.inner_iterations}  "
          f"phi {result.phi_final:.3e}")
    for name in ("result", "trace", "report"):
        print(f"wrote {paths[name]}")
    return 0


def _cmd_oracle(args) -> int:
    case, cfg = _load(args)
    try:
        entries = enumerate_oracle(case, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = emit_oracle(entries, args.out_dir)
    feasible = [e for e in entries if e.feasible]
    screened = sum(e.screened for e in entries)
    evaluations = sum(e.evaluations for e in entries)
    print(f"{len(entries)} configurations, {len(feasible)} feasible, "
          f"{screened} infeasible by the active-capacity screen, "
          f"{_count(len(entries) - screened, 'fit')}, {_count(evaluations, 'evaluation')}")
    for e in feasible[:5]:
        print(f"  y={''.join(str(b) for b in e.switches)}  objective {e.objective:.6f}")
    print(f"wrote {path}")
    return 0


def _cmd_check(args) -> int:
    case, cfg = _load(args)
    _, work, _ = _setup(case, cfg)
    checks = self_check(work, seed=cfg.seed)
    for row in checks:
        print(f"{'PASS' if row.ok else 'FAIL'} {row.name}: {row.detail}")
    return 0 if all(row.ok for row in checks) else 2


def _cmd_scenario(args) -> int:
    # the stress transform by the rule solve uses: only an explicit --seed or
    # seed key moves the rank draw off ScenarioConfig's pinned rank_seed
    case, cfg = _load(args, stress=True)
    sys.stdout.write(serialize_case(apply_scenario(case, cfg.scenario)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridshed",
        description="Optimal demand shut-off for islanded grids with insufficient generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, out_dir=False, fmt=False, variant=False):
        sp.add_argument("--case", required=True, help="case file in .m table format")
        sp.add_argument("--config", help="solver config file, key = value lines")
        sp.add_argument("--seed", type=int, help="run seed, overrides the config")
        if variant:
            sp.add_argument("--variant", choices=VARIANT_TAGS, help="switch subproblem model")
        if out_dir:
            sp.add_argument("--out-dir", default=".", help="directory for output files")
        if fmt:
            sp.add_argument("--format", choices=("kv", "json"), default="kv",
                            help="result document format")

    sp = sub.add_parser("solve", help="run the alternating solver")
    common(sp, out_dir=True, fmt=True, variant=True)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("oracle", help="enumerate every switch set (small cases)")
    common(sp, out_dir=True)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("check", help="finite-difference and conservation self-checks")
    common(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("scenario", help="print the stressed variant of a case")
    common(sp)
    sp.set_defaults(func=_cmd_scenario)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, CaseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
