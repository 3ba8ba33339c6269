"""Outer alternation driver, enumeration oracle, output files, and the CLI.

The driver alternates the continuous stage and the switching stage until two
consecutive continuous solutions agree, or until the continuous stage
converges at full service, then accepts the final binary switch set when its
continuous fit converged there.  Full service needs no switching stage:
every demand has rank > 0 and pd >= 0 (DemandSpec enforces both), so the
served-priority objective sum(y * rank * pd) is largest at all ones.

Everything the CLI writes is deterministic for a fixed case, config, and seed;
wall-clock numbers go to a separate report file so result and trace files can
be compared byte for byte.

This module owns all config text: ``parse_kv`` reads the ``key = value``
lines of config files and kv result documents, ``render_kv`` writes
result.kv and report.kv, and ``_CONFIG_FIELDS`` holds every config key, the
``scenario.*`` ones included.  Each output document is stated once, and its
writer and reader both read the one table: ``_RESULT_FIELDS`` holds every
result key (kv and JSON) and ``_TRACE_COLUMNS`` every trace.csv column after
the ``y_k`` ones; ``_csv`` writes trace.csv and oracle.csv.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .ao1_opf import Ao1Result, _Problem, active_capacity_screen, dispatch_start, solve_ao1
from .ao2_sbqp import (VARIANT_TAGS, Ao2Error, Ao2Variant, PenaltySchedule, SbqpTrace, live_demands,
                       run_ao2)
from .grid_model import (
    CaseError,
    GridCase,
    ScenarioConfig,
    apply_scenario,
    parse_case,
    serialize_case,
)
from .power_equations import (
    InputVector,
    State,
    SwitchVector,
    constraint_row,
    constraints_C,
    hessian_Q,
    jacobians,
    network,
    objective_E,
    outflow,
    phi,
)

ORACLE_CAP = 20
LOCAL_VERDICTS = "the verdicts are local: a stationary AO1 fit is no global proof"
FORMAT_VERSION = 2


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


# -- key = value text ----------------------------------------------------------

def _one_of(**values):
    """Converter that maps each allowed text to its value and rejects any other."""
    def convert(text: str):
        if text not in values:
            raise ValueError(text)
        return values[text]
    return convert


def _list_of(conv):
    """Converter of comma-separated values, each read by conv; '' is ()."""
    return lambda text: tuple(map(conv, text.split(","))) if text else ()


# value kind: (converter of the value text, expected type as named in errors);
# the config key, result key and trace column tables give each entry one
_KINDS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (_one_of(true=True, false=False), "true or false"),
    "str": (str, "text"),
    "int-list": (_list_of(int), "comma-separated integers"),
    "float-list": (_list_of(float), "comma-separated numbers"),
    "int-or-none": (lambda text: None if text.lower() == "none" else int(text), "an integer or none"),
    "none-or-stress": (_one_of(none="none", stress="stress"), "none or stress"),
}


def _value(key: str, text: str, kind: str):
    """text read as kind; a text the kind rejects raises a ValueError naming
    the key and the expected type."""
    conv, expected = _KINDS[kind]
    try:
        return conv(text)
    except ValueError:
        raise ValueError(f"{key}: expected {expected}, got {text!r}") from None


def parse_kv(text: str, what: str) -> dict[str, str]:
    """The ``key = value`` lines of a config file or a kv result document, as
    {key: value text} in file order.

    '#' starts a comment and blank lines are skipped.  A line without '=' and
    a key given twice raise a ValueError that names the document (what, such
    as "config" or "result") and the line, and for a repeat the first line too.
    """
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{what} line {line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ValueError(f"{what} line {line_no}: {key} already set on line {seen[key]}")
        seen[key] = line_no
        out[key] = value
    return out


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return ",".join(map(_text, value))
    return str(value)


def render_kv(doc: dict) -> str:
    """One ``key = value`` line per entry of doc, in its order: true or false,
    a float's repr, a list comma-joined; parse_kv reads it back."""
    return "".join(f"{key} = {_text(value)}\n" for key, value in doc.items())


# -- output documents --------------------------------------------------------

def _typed(value, kind: str):
    """value as the Python type that kind's reader returns, so that _text
    writes a float kind's value as repr(float(v)) even when it is an int."""
    if kind.endswith("-list"):
        return [_typed(v, kind[:-len("-list")]) for v in value]
    return {"int": int, "float": float, "bool": bool, "str": str}[kind](value)


# result key: (kind, its value for a result and its config), in file order;
# the writer and the reader of both formats take every key from here
_RESULT_FIELDS = {
    "format": ("int", lambda r, c: FORMAT_VERSION),
    "variant": ("str", lambda r, c: c.variant.tag),
    "single_shot": ("bool", lambda r, c: c.variant.single_shot),
    "seed": ("int", lambda r, c: c.seed),
    "outer_iterations": ("int", lambda r, c: r.outer_iterations),
    "inner_iterations": ("int", lambda r, c: r.inner_iterations),
    "phi_final": ("float", lambda r, c: r.phi_final),
    "objective": ("float", lambda r, c: r.objective),
    "supplied_active": ("float", lambda r, c: r.supplied_active),
    "supplied_reactive": ("float", lambda r, c: r.supplied_reactive),
    "switches": ("int-list", lambda r, c: [round(v) for v in r.switches.y]),
    "state_v": ("float-list", lambda r, c: r.state.v),
    "state_theta": ("float-list", lambda r, c: r.state.theta),
    "input_pg": ("float-list", lambda r, c: r.input.pg),
    "input_qg": ("float-list", lambda r, c: r.input.qg),
}


def result_document(result: SolveResult, config: SolverConfig) -> dict:
    """Flat mapping of everything a result file records, in file order."""
    return {key: _typed(value(result, config), kind) for key, (kind, value) in _RESULT_FIELDS.items()}


def render_result_document(doc: dict, format: str = "kv") -> str:
    if format == "json":
        return json.dumps(doc, indent=2) + "\n"
    if format != "kv":
        raise ValueError(f"unknown format {format!r}")
    return render_kv(doc)


def _unique_keys(pairs) -> dict:
    """object_pairs_hook of the JSON result reader: a key given twice raises
    the kv reader's ValueError, without line numbers."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"result: {key} already set")
        out[key] = value
    return out


def parse_result_document(text: str) -> dict:
    """Inverse of render_result_document for both formats; values are typed.

    Both formats are read by _RESULT_FIELDS, with the kv reader's errors for
    a key given twice, a key it does not hold and a value not of its key's
    kind.  A JSON value is read from its kv text, and must be written as the
    JSON writer writes the value read: "3" is text, not an integer, and 2 is
    not a float key's value, which the writer gives as 2.0.
    """
    stripped = text.lstrip()
    is_json = stripped.startswith("{")
    entries = json.loads(stripped, object_pairs_hook=_unique_keys) if is_json else parse_kv(text, "result")
    out: dict = {}
    for key, value in entries.items():
        if key not in _RESULT_FIELDS:
            raise ValueError(f"unknown result key {key!r}")
        kind = _RESULT_FIELDS[key][0]
        out[key] = _value(key, _text(value), kind)
        if is_json and json.dumps(out[key]) != json.dumps(value):
            raise ValueError(f"{key}: expected {_KINDS[kind][1]}, got {value!r}")
    return out


# trace column after stage, iteration and the y_k columns: its kind, read from
# the SbqpTraceRow field of its name
_TRACE_COLUMNS = {"phi": "float", "rho": "float", "alpha": "float",
                  "kind": "str", "status": "str", "psi": "float"}


def _csv(header: list[str], rows) -> str:
    """The header line, then one line per row of values, each cell by _text."""
    return "".join(",".join(map(_text, cells)) + "\n" for cells in [header, *rows])


def _trace_header(n: int) -> list[str]:
    """The trace table's columns for n demands."""
    return ["stage", "iteration", *(f"y_{k}" for k in range(n)), *_TRACE_COLUMNS]


def render_trace_table(result: SolveResult) -> str:
    """CSV of every switching-stage iteration across all outer passes."""
    rows = ([stage, row.iteration, *_typed(row.y, "float-list"),
             *(_typed(getattr(row, name), kind) for name, kind in _TRACE_COLUMNS.items())]
            for stage, trace in enumerate(result.ao2_traces) for row in trace.rows)
    return _csv(_trace_header(result.switches.y.size), rows)


def parse_trace_table(text: str) -> list[dict]:
    """Inverse of render_trace_table.  A missing or unexpected header, a row
    whose cell count differs from the header's and a number cell that does
    not read as its column's number raise a ValueError that names the line,
    as parse_kv does ("trace line 3: ...")."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("trace line 1: expected a header line")
    header_no, header_line = lines[0]
    header = header_line.split(",")
    n = sum(1 for h in header if h.startswith("y_"))
    if header != _trace_header(n):
        raise ValueError(f"trace line {header_no}: unexpected header {header_line!r}")
    rows = []
    for line_no, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"trace line {line_no}: expected {len(header)} cells, got {len(cells)}")
        try:
            row = {"stage": _value("stage", cells[0], "int"),
                   "iteration": _value("iteration", cells[1], "int"),
                   "y": np.array([_value(f"y_{k}", cells[2 + k], "float") for k in range(n)])}
            for (name, kind), cell in zip(_TRACE_COLUMNS.items(), cells[2 + n:]):
                row[name] = _value(name, cell, kind)
        except ValueError as exc:
            raise ValueError(f"trace line {line_no}: {exc}") from None
        rows.append(row)
    return rows


def emit_outputs(result: SolveResult, out_dir, format: str, config: SolverConfig) -> dict[str, Path]:
    """Write result, trace, and report files; returns {name: path}.

    The result and trace files are byte-identical across repeat runs with the
    same inputs; timing lives only in report.kv.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    suffix = "json" if format == "json" else "kv"
    paths = {
        "result": out / f"result.{suffix}",
        "trace": out / "trace.csv",
        "report": out / "report.kv",
    }
    doc = result_document(result, config)
    paths["result"].write_bytes(render_result_document(doc, format).encode())
    paths["trace"].write_bytes(render_trace_table(result).encode())
    report = {key: doc[key] for key in ("outer_iterations", "inner_iterations", "phi_final")}
    report |= {
        "wall_ao1_s": float(result.timings.get("ao1_s", 0.0)),
        "wall_ao2_s": float(result.timings.get("ao2_s", 0.0)),
        "wall_total_s": float(result.timings.get("total_s", 0.0)),
    }
    paths["report"].write_bytes(render_kv(report).encode())
    return paths


# -- derivative and conservation self-checks ---------------------------------

@dataclass(frozen=True)
class CheckRow:
    name: str
    ok: bool
    detail: str


def _central(f, z, h=1e-6):
    cols = []
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        cols.append((np.asarray(f(zp)) - np.asarray(f(zm))) / (2 * h))
    return np.stack(cols, axis=-1)


def _rel_err(analytic, fd) -> float:
    scale = max(1.0, float(np.max(np.abs(analytic), initial=0.0)))
    return float(np.max(np.abs(analytic - fd), initial=0.0)) / scale


def _interior_point(net, rng):
    state = State(
        v=rng.uniform(0.96, 1.04, net.n_bus),
        theta=np.where(np.arange(net.n_bus) == net.slack, 0.0, rng.uniform(-0.25, 0.25, net.n_bus)),
    )
    span_l, span_u = net.u_lower, net.u_upper
    u = InputVector.from_vector(span_l + rng.uniform(0.1, 0.9, 2 * net.n_gen) * (span_u - span_l))
    y = SwitchVector(rng.uniform(0.05, 0.95, net.n_dem))
    return state, u, y


def self_check(case: GridCase, seed: int = 2025, points: int = 20, states: int = 100) -> list[CheckRow]:
    """Compare analytic derivatives with central differences, among them the
    Jacobian that the continuous stage fits with, and test that a lossless
    copy of the network conserves active power exactly."""
    net = network(case)
    rng = np.random.default_rng(seed)
    nx, nu = 2 * net.n_bus, 2 * net.n_gen
    worst = {"outflow-jacobian": 0.0, "objective-gradient": 0.0,
             "fit-jacobian": 0.0, "switch-curvature": 0.0}

    def split(z):
        return (State.from_vector(z[:nx]), InputVector.from_vector(z[nx:nx + nu]),
                SwitchVector(z[nx + nu:]))

    for _ in range(points):
        state, u, y = _interior_point(net, rng)
        _, dP_dx, dE = jacobians(net, state, u, y)
        fd_p = _central(lambda xv: outflow(net, State.from_vector(xv)), state.as_vector())
        worst["outflow-jacobian"] = max(worst["outflow-jacobian"], _rel_err(dP_dx, fd_p))
        z0 = np.concatenate([state.as_vector(), u.as_vector(), y.y])
        fd_e = _central(lambda z: objective_E(net, *split(z)), z0)
        worst["objective-gradient"] = max(worst["objective-gradient"], _rel_err(dE, fd_e))
        # the fit's J = [dP/dx_free | -gen_sel] at the same point, with the
        # slack's (v, theta) at the fit's fixed values
        prob = _Problem(net, y)
        z_fit = np.concatenate([state.as_vector()[net.fit_free], u.as_vector()])
        J = prob.jacobian(prob.residual(z_fit)[1])
        fd_j = _central(lambda z: prob.residual(z)[0], z_fit)
        worst["fit-jacobian"] = max(worst["fit-jacobian"], _rel_err(J, fd_j))
        # one multiplier per demand's active balance row, drawn at the length
        # of the constraint stack so that every later draw stays the same
        nu_act = rng.uniform(-1.0, 1.0, net.n_c_rows)[:net.n_dem]

        def grad_l0_y(yy):
            # demand k's active balance row of C = [P - S, ...] has the
            # y-derivative 2 y_k pd_k, in column k alone
            return jacobians(net, state, u, SwitchVector(yy))[2][nx + nu:] - nu_act * (2.0 * yy * net.pd)

        Qd = np.diag(hessian_Q(net, nu_act))
        worst["switch-curvature"] = max(worst["switch-curvature"], _rel_err(Qd, _central(grad_l0_y, y.y.copy())))

    checks = [
        CheckRow(name, err <= 1e-6, f"max relative error {err:.3e} over {points} points")
        for name, err in worst.items()
    ]

    # r and x are kept, so a branch with b = 0 has a lossless twin too
    net_t = network(replace(case, branches=tuple(replace(b, g=0.0) for b in case.branches)))
    worst_sum = 0.0
    for _ in range(states):
        state = State(v=rng.uniform(0.9, 1.1, net_t.n_bus), theta=rng.uniform(-0.6, 0.6, net_t.n_bus))
        worst_sum = max(worst_sum, abs(float(outflow(net_t, state)[0::2].sum())))
    checks.append(CheckRow(
        "lossless-active-sum", worst_sum <= 1e-10,
        f"max |sum| {worst_sum:.3e} over {states} states",
    ))
    return checks


# -- config files and the command line ----------------------------------------

# config key: (record, field, kind); a key left out keeps the record's default.
# scenario is read into the solver record as its mode and replaced there by
# the ScenarioConfig that the mode and the scenario record select
_CONFIG_FIELDS = {
    "variant": ("variant", "tag", "str"),
    "single_shot": ("variant", "single_shot", "bool"),
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
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = len(entries[0].switches) if entries else 0
    path = out / "oracle.csv"
    path.write_bytes(_csv([*(f"y_{k}" for k in range(n)), "feasible", "objective"],
                          ([*e.switches, e.feasible, e.objective] for e in entries)).encode())
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
    checks = self_check(case, seed=cfg.seed)
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
