"""Grid case model: file parsing, admittance construction, scenario transforms.

The case format is a plain-text subset of the MATPOWER layout: the
``baseMVA`` scalar plus up to eight tables, read at their standard column
positions (documented in the README). Unknown columns are ignored. Each row
has a key in its leading columns:

    bus          bus id                  gen       generator bus
    branch       unordered bus pair      gen_pu    generator bus
    demand_rank  bus id                  demand_pu bus id
    theta_bound  bus id                  branch_pu unordered bus pair

Each key appears once in its table, and one bus row is the slack. The
rows of the other seven tables name buses the case has; a ``gen_pu`` row
must name a generator and a ``branch_pu`` row a branch, in either bus
order. A row that breaks a rule, or makes its record invalid, fails at its
own line. Demands and generator limits are normalized to per unit at parse
time; branch series impedance r + jx is converted to the series admittance
g = r/(r^2+x^2), b = -x/(r^2+x^2).

Config text is not read here: ``cli_driver`` owns the ``key = value`` files
and the ``scenario.*`` keys that build a ScenarioConfig.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_THETA_BOUND = math.pi / 2.0

# column positions in the source tables (0-based); the key of every row is
# in column 0, or in columns 0 and 1 for a bus pair
BUS_TYPE, BUS_PD, BUS_QD = 1, 2, 3
BUS_VMAX, BUS_VMIN = 11, 12
GEN_QMAX, GEN_QMIN, GEN_PMAX, GEN_PMIN = 3, 4, 8, 9
BR_R, BR_X = 2, 3
SLACK_TYPE = 3


class CaseError(ValueError):
    """Invalid grid case data."""


class ParseError(CaseError):
    """Malformed case text; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class MalformedRowError(ParseError):
    pass


class UnknownBusError(ParseError):
    """A row names a bus, generator or branch the case lacks."""


class DuplicateBranchError(ParseError):
    pass


class ZeroImpedanceError(ParseError):
    pass


class ScenarioError(CaseError):
    """Scenario transform produced an invalid case."""


def _require_finite(owner: str, record, *fields: str) -> None:
    for name in fields:
        if not math.isfinite(getattr(record, name)):
            raise CaseError(f"{owner}: {name} must be finite")


@dataclass(frozen=True)
class Bus:
    id: int
    v_min: float
    v_max: float
    theta_min: float = -DEFAULT_THETA_BOUND
    theta_max: float = DEFAULT_THETA_BOUND
    is_slack: bool = False

    def __post_init__(self):
        _require_finite(f"bus {self.id}", self, "v_min", "v_max", "theta_min", "theta_max")
        if not self.v_min > 0:
            raise CaseError(f"bus {self.id}: v_min must be positive")
        if self.v_min > self.v_max:
            raise CaseError(f"bus {self.id}: v_min > v_max")
        if self.theta_min > self.theta_max:
            raise CaseError(f"bus {self.id}: theta_min > theta_max")
        if self.is_slack and not self.theta_min <= 0.0 <= self.theta_max:
            raise CaseError(f"bus {self.id}: the slack angle band must contain 0")


@dataclass(frozen=True)
class Branch:
    """Series element with admittance g + jb.

    The source impedance r + jx is kept alongside so serialization can emit
    the original numbers; when constructed from (g, b) alone it is derived.
    """

    from_bus: int
    to_bus: int
    g: float
    b: float
    r: float | None = None
    x: float | None = None

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise CaseError(f"branch {self.from_bus}-{self.to_bus}: self loop")
        if self.r is None or self.x is None:
            mag2 = self.g * self.g + self.b * self.b
            if mag2 == 0.0:
                raise CaseError(f"branch {self.from_bus}-{self.to_bus}: zero admittance")
            object.__setattr__(self, "r", self.g / mag2)
            object.__setattr__(self, "x", -self.b / mag2)
        _require_finite(f"branch {self.from_bus}-{self.to_bus}", self, "g", "b", "r", "x")


@dataclass(frozen=True)
class Generator:
    bus: int
    pg_min: float
    pg_max: float
    qg_min: float
    qg_max: float

    def __post_init__(self):
        _require_finite(f"generator at bus {self.bus}", self, "pg_min", "pg_max", "qg_min", "qg_max")
        if self.pg_min > self.pg_max or self.qg_min > self.qg_max:
            raise CaseError(f"generator at bus {self.bus}: empty bound interval")


@dataclass(frozen=True)
class DemandSpec:
    bus: int
    pd: float
    qd: float
    rank: float = 1.0

    def __post_init__(self):
        _require_finite(f"demand at bus {self.bus}", self, "pd", "qd", "rank")
        if not self.rank > 0:
            raise CaseError(f"demand at bus {self.bus}: rank must be positive")
        if self.pd < 0:
            raise CaseError(f"demand at bus {self.bus}: pd must be non-negative")


@dataclass(frozen=True)
class GridCase:
    """A grid case: buses, branches, generators, switchable demands.

    Collections are kept sorted by bus id; all quantities are per unit on
    ``base_mva``.  ``power_equations.network`` keeps the case's Network on
    the object, outside the fields, so equality, hash, repr and ``replace``
    read the fields alone.
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    demands: tuple[DemandSpec, ...]
    base_mva: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(sorted(self.buses, key=lambda b: b.id)))
        object.__setattr__(
            self, "branches", tuple(sorted(self.branches, key=lambda b: (b.from_bus, b.to_bus)))
        )
        object.__setattr__(self, "generators", tuple(sorted(self.generators, key=lambda g: g.bus)))
        object.__setattr__(self, "demands", tuple(sorted(self.demands, key=lambda d: d.bus)))
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise CaseError("duplicate bus ids")
        known = set(ids)
        slacks = [b.id for b in self.buses if b.is_slack]
        if len(slacks) != 1:
            raise CaseError(f"expected exactly one slack bus, found {len(slacks)}")
        seen_pairs = set()
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise CaseError(f"branch {br.from_bus}-{br.to_bus}: unknown bus reference")
            pair = frozenset((br.from_bus, br.to_bus))
            if pair in seen_pairs:
                raise CaseError(f"branch {br.from_bus}-{br.to_bus}: duplicate branch")
            seen_pairs.add(pair)
        gen_buses = [g.bus for g in self.generators]
        if len(set(gen_buses)) != len(gen_buses):
            raise CaseError("duplicate generator bus")
        for g in self.generators:
            if g.bus not in known:
                raise CaseError(f"generator at bus {g.bus}: unknown bus reference")
        dem_buses = [d.bus for d in self.demands]
        if len(set(dem_buses)) != len(dem_buses):
            raise CaseError("duplicate demand bus")
        if not self.demands:
            raise CaseError("demand set is empty")
        for d in self.demands:
            if d.bus not in known:
                raise CaseError(f"demand at bus {d.bus}: unknown bus reference")
        if not self.base_mva > 0:
            raise CaseError("base_mva must be positive")

    @property
    def bus_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses)

    @property
    def slack_bus(self) -> Bus:
        return next(b for b in self.buses if b.is_slack)

    @property
    def generator_buses(self) -> tuple[int, ...]:
        return tuple(g.bus for g in self.generators)

    @property
    def demand_buses(self) -> tuple[int, ...]:
        return tuple(d.bus for d in self.demands)

    def slack_voltage(self) -> float:
        # magnitude pinned at the reference bus: 1.0 clipped into its band
        s = self.slack_bus
        return min(max(1.0, s.v_min), s.v_max)


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Real and imaginary parts of the complex Laplacian G + jB."""

    G: np.ndarray
    B: np.ndarray


@dataclass(frozen=True)
class ScenarioConfig:
    """Demand-to-capacity mismatch transform.

    Defaults reproduce the stress scenario used throughout the tests:
    +2.5 p.u. total active and +0.7 p.u. total reactive demand spread
    proportionally over loaded buses, reactive generator bounds halved,
    active upper bounds cut to 70%, ranks redrawn uniformly from
    {1..rank_levels}, and a switch at every bus. In ``multiplicative``
    mode pd_shift/qd_shift act as per-bus factors instead. rank_seed None
    keeps the existing ranks.
    """

    pd_shift: float = 2.5
    qd_shift: float = 0.7
    shift_mode: str = "additive-total"
    qg_bound_scale: float = 0.5
    pg_upper_scale: float = 0.7
    rank_levels: int = 5
    rank_seed: int | None = 6
    demand_set_mode: str = "all-buses"

    def __post_init__(self):
        if self.shift_mode not in ("additive-total", "multiplicative"):
            raise CaseError(f"unknown shift_mode {self.shift_mode!r}")
        if self.demand_set_mode not in ("all-buses", "loaded-buses"):
            raise CaseError(f"unknown demand_set_mode {self.demand_set_mode!r}")
        for name in ("pd_shift", "qd_shift", "qg_bound_scale", "pg_upper_scale"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise CaseError(f"{name} must be a number, got {v!r}")
        for name in ("qg_bound_scale", "pg_upper_scale"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise CaseError(f"{name} must lie in (0, 1]")
        levels, seed = self.rank_levels, self.rank_seed
        if isinstance(levels, bool) or not isinstance(levels, int) or levels < 1:
            raise CaseError(f"rank_levels must be an integer >= 1, got {levels!r}")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
            raise CaseError(f"rank_seed must be None or an integer >= 0, got {seed!r}")


_ASSIGN_RE = re.compile(r"^\s*(?:mpc\.)?(\w+)\s*=\s*(.*)$")


def _strip_comment(line: str) -> str:
    return line.split("%", 1)[0]


def _parse_matrix_rows(name, lines, start_idx):
    """Collect the numeric rows of ``name = [ ... ];`` starting at start_idx.

    The table ends at the first ``]``, with or without a ``;`` after it, so
    the last row may close it: ``... 0.9]``."""
    rows = []
    i = start_idx
    while i < len(lines):
        raw, bracket, _ = _strip_comment(lines[i][1]).partition("]")
        i += 1
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                row = [float(t) for t in chunk.split()]
            except ValueError:
                raise MalformedRowError(f"bad numeric row in {name}", lines[i - 1][0])
            if not all(map(math.isfinite, row)):
                raise MalformedRowError(f"non-finite value in {name}", lines[i - 1][0])
            rows.append((row, lines[i - 1][0]))
        if bracket:
            return rows, i
    raise MalformedRowError(f"unterminated matrix {name}", lines[start_idx - 1][0])


def _whole(name, what, value, line_no) -> int:
    """A table entry that must be an integer, such as a bus id; a fractional
    value fails at line_no rather than being truncated onto another record."""
    if not value.is_integer():
        raise MalformedRowError(f"{name} row has non-integer {what} {value:g}", line_no)
    return int(value)


def _keyed_rows(tables, name, n_cols, buses, known=None, pair=False):
    """The rows of table ``name`` as {key: (row, line)}, in file order.

    The key is the bus id in column 0, or with ``pair`` the unordered pair of
    bus ids in columns 0 and 1.  Raised at the row's line: a row shorter than
    n_cols, a bus id that is not an integer, a key an earlier row has, a bus
    id not in ``buses`` (None for the bus table itself) and a key not in
    ``known`` when that is given.
    """
    rows = {}
    for row, ln in tables.get(name, []):
        if len(row) < n_cols:
            raise MalformedRowError(f"{name} row needs at least {n_cols} columns, got {len(row)}", ln)
        ids = tuple(_whole(name, "bus id", v, ln) for v in row[:2 if pair else 1])
        key = frozenset(ids) if pair else ids[0]
        if key in rows:
            error = DuplicateBranchError if pair else MalformedRowError
            raise error(f"duplicate {name} row {'-'.join(map(str, ids))}, "
                        f"the first is on line {rows[key][1]}", ln)
        for bus in ids:
            if buses is not None and bus not in buses:
                raise UnknownBusError(f"{name} references unknown bus {bus}", ln)
        if known is not None and key not in known:
            raise UnknownBusError(f"{name} row {'-'.join(map(str, ids))} names no "
                                  f"{'branch' if pair else 'generator'}", ln)
        rows[key] = (row, ln)
    return rows


def _from_row(line_no, build, *args, **fields):
    """build(*args, **fields), with a CaseError re-raised at the source row's line."""
    try:
        return build(*args, **fields)
    except CaseError as exc:
        raise MalformedRowError(str(exc), line_no) from exc


def parse_case(text: str) -> GridCase:
    """Parse case text into a validated GridCase (all quantities p.u.)."""
    lines = list(enumerate(text.splitlines(), start=1))
    base_mva = 100.0
    tables: dict[str, list] = {}
    starts: dict[str, int] = {}     # table name -> line of its "name = [" opener
    i = 0
    while i < len(lines):
        line_no, raw = lines[i]
        stripped = _strip_comment(raw).strip()
        i += 1
        if not stripped or stripped.startswith("function"):
            continue
        m = _ASSIGN_RE.match(stripped)
        if not m:
            continue
        name, rest = m.group(1), m.group(2).strip()
        if rest.startswith("["):
            if name in starts:
                raise MalformedRowError(
                    f"second {name} table, the first starts on line {starts[name]}", line_no)
            starts[name] = line_no
            rest = rest[1:].strip()
            if rest:
                # rows may start on the assignment line itself
                lines.insert(i, (line_no, rest))
            tables[name], i = _parse_matrix_rows(name, lines, i)
        else:
            value = rest.rstrip(";").strip()
            if name == "baseMVA":
                try:
                    base_mva = float(value)
                except ValueError:
                    raise MalformedRowError("baseMVA is not numeric", line_no)
                if not (math.isfinite(base_mva) and base_mva > 0):
                    raise MalformedRowError("baseMVA must be finite and positive", line_no)
    if "bus" not in tables:
        raise MalformedRowError("missing bus table", None)
    bus_rows = _keyed_rows(tables, "bus", BUS_VMIN + 1, None)
    gen_rows = _keyed_rows(tables, "gen", GEN_PMIN + 1, bus_rows)
    branch_rows = _keyed_rows(tables, "branch", BR_X + 1, bus_rows, pair=True)
    # the override tables: each row changes the record with its key, and a
    # record it makes invalid is reported at the row's line.  demand_pu,
    # gen_pu and branch_pu hold the exact per-unit values serialize_case
    # writes; they win over the MVA-scaled columns, which round-trip only
    # approximately
    ranks = _keyed_rows(tables, "demand_rank", 2, bus_rows)
    demand_pu = _keyed_rows(tables, "demand_pu", 3, bus_rows)
    gen_pu = _keyed_rows(tables, "gen_pu", 5, bus_rows, gen_rows)
    theta_bounds = _keyed_rows(tables, "theta_bound", 3, bus_rows)
    branch_pu = _keyed_rows(tables, "branch_pu", 4, bus_rows, branch_rows, pair=True)

    slack_lines = [ln for row, ln in bus_rows.values()
                   if _whole("bus", "type", row[BUS_TYPE], ln) == SLACK_TYPE]
    if len(slack_lines) > 1:
        raise MalformedRowError(f"second slack bus row, the first is on line {slack_lines[0]}",
                                slack_lines[1])
    buses, demands = [], []
    for bus, (row, ln) in bus_rows.items():
        node = _from_row(ln, Bus, id=bus, v_min=row[BUS_VMIN], v_max=row[BUS_VMAX],
                         is_slack=row[BUS_TYPE] == SLACK_TYPE)
        if bus in theta_bounds:
            (_, lo, hi, *_), t_ln = theta_bounds[bus]
            node = _from_row(t_ln, replace, node, theta_min=lo, theta_max=hi)
        buses.append(node)
        pd, qd, pu_ln = row[BUS_PD] / base_mva, row[BUS_QD] / base_mva, ln
        if bus in demand_pu:
            (_, pd, qd, *_), pu_ln = demand_pu[bus]
        if pd != 0.0 or qd != 0.0 or bus in ranks or bus in demand_pu:
            demand = _from_row(pu_ln, DemandSpec, bus=bus, pd=pd, qd=qd)
            if bus in ranks:
                (_, rank, *_), r_ln = ranks[bus]
                demand = _from_row(r_ln, replace, demand, rank=rank)
            demands.append(demand)

    branches = []
    for pair, (row, ln) in branch_rows.items():
        f, t, r, x = int(row[0]), int(row[1]), row[BR_R], row[BR_X]
        den = r * r + x * x
        if den == 0.0:
            raise ZeroImpedanceError(f"branch {f}-{t} has zero impedance", ln)
        branch = _from_row(ln, Branch, from_bus=f, to_bus=t, g=r / den, b=-x / den, r=r, x=x)
        if pair in branch_pu:
            (_, _, g, b, *_), pu_ln = branch_pu[pair]
            branch = _from_row(pu_ln, replace, branch, g=g, b=b)
        branches.append(branch)

    gens = []
    for bus, (row, ln) in gen_rows.items():
        gen = _from_row(ln, Generator, bus=bus,
                        pg_min=row[GEN_PMIN] / base_mva, pg_max=row[GEN_PMAX] / base_mva,
                        qg_min=row[GEN_QMIN] / base_mva, qg_max=row[GEN_QMAX] / base_mva)
        if bus in gen_pu:
            (_, pg_min, pg_max, qg_min, qg_max, *_), pu_ln = gen_pu[bus]
            gen = _from_row(pu_ln, Generator, bus=bus, pg_min=pg_min, pg_max=pg_max,
                            qg_min=qg_min, qg_max=qg_max)
        gens.append(gen)

    try:
        return GridCase(
            buses=tuple(buses),
            branches=tuple(branches),
            generators=tuple(gens),
            demands=tuple(demands),
            base_mva=base_mva,
        )
    except CaseError as exc:
        raise ParseError(str(exc), None) from exc


def _fmt(x: float) -> str:
    return format(x, ".17g")


def serialize_case(case: GridCase) -> str:
    """Emit case text that parses back to an equal GridCase."""
    out = ["function mpc = case", "", f"mpc.baseMVA = {_fmt(case.base_mva)};", ""]
    demand_by_bus = {d.bus: d for d in case.demands}
    gen_buses = set(case.generator_buses)
    out.append("%\tbus_i\ttype\tPd\tQd\tGs\tBs\tarea\tVm\tVa\tbaseKV\tzone\tVmax\tVmin")
    out.append("mpc.bus = [")
    for b in case.buses:
        d = demand_by_bus.get(b.id)
        pd = d.pd * case.base_mva if d else 0.0
        qd = d.qd * case.base_mva if d else 0.0
        btype = SLACK_TYPE if b.is_slack else (2 if b.id in gen_buses else 1)
        out.append(
            f"\t{b.id}\t{btype}\t{_fmt(pd)}\t{_fmt(qd)}\t0\t0\t1\t1\t0\t0\t1\t{_fmt(b.v_max)}\t{_fmt(b.v_min)};"
        )
    out.append("];\n")
    out.append("%\tbus\tPg\tQg\tQmax\tQmin\tVg\tmBase\tstatus\tPmax\tPmin")
    out.append("mpc.gen = [")
    for g in case.generators:
        out.append(
            f"\t{g.bus}\t0\t0\t{_fmt(g.qg_max * case.base_mva)}\t{_fmt(g.qg_min * case.base_mva)}"
            f"\t1\t{_fmt(case.base_mva)}\t1\t{_fmt(g.pg_max * case.base_mva)}\t{_fmt(g.pg_min * case.base_mva)};"
        )
    out.append("];\n")
    out.append("%\tfbus\ttbus\tr\tx")
    out.append("mpc.branch = [")
    for br in case.branches:
        out.append(f"\t{br.from_bus}\t{br.to_bus}\t{_fmt(br.r)}\t{_fmt(br.x)};")
    out.append("];\n")
    out.append("% switchable demands: bus, priority rank")
    out.append("mpc.demand_rank = [")
    for d in case.demands:
        out.append(f"\t{d.bus}\t{_fmt(d.rank)};")
    out.append("];\n")
    out.append("% exact per-unit values; the MVA columns above are informational")
    out.append("mpc.demand_pu = [")
    for d in case.demands:
        out.append(f"\t{d.bus}\t{_fmt(d.pd)}\t{_fmt(d.qd)};")
    out.append("];\n")
    out.append("mpc.gen_pu = [")
    for g in case.generators:
        out.append(
            f"\t{g.bus}\t{_fmt(g.pg_min)}\t{_fmt(g.pg_max)}\t{_fmt(g.qg_min)}\t{_fmt(g.qg_max)};"
        )
    out.append("];\n")
    out.append("mpc.branch_pu = [")
    for br in case.branches:
        out.append(f"\t{br.from_bus}\t{br.to_bus}\t{_fmt(br.g)}\t{_fmt(br.b)};")
    out.append("];")
    nondefault = [
        b for b in case.buses
        if (b.theta_min, b.theta_max) != (-DEFAULT_THETA_BOUND, DEFAULT_THETA_BOUND)
    ]
    if nondefault:
        out.append("\nmpc.theta_bound = [")
        for b in nondefault:
            out.append(f"\t{b.id}\t{_fmt(b.theta_min)}\t{_fmt(b.theta_max)};")
        out.append("];")
    return "\n".join(out) + "\n"


def build_admittance(case: GridCase) -> AdmittanceMatrix:
    """Assemble the dense Laplacian admittance matrix."""
    n = len(case.buses)
    index = {b.id: i for i, b in enumerate(case.buses)}
    G = np.zeros((n, n))
    B = np.zeros((n, n))
    for br in case.branches:
        k, l = index[br.from_bus], index[br.to_bus]
        G[k, l] -= br.g
        G[l, k] -= br.g
        B[k, l] -= br.b
        B[l, k] -= br.b
        G[k, k] += br.g
        G[l, l] += br.g
        B[k, k] += br.b
        B[l, l] += br.b
    return AdmittanceMatrix(G=G, B=B)


def apply_scenario(case: GridCase, cfg: ScenarioConfig) -> GridCase:
    """Apply the mismatch transform; deterministic for a given (case, cfg)."""
    demands = list(case.demands)
    if cfg.demand_set_mode == "loaded-buses":
        demands = [d for d in demands if d.pd != 0.0 or d.qd != 0.0]
    if cfg.shift_mode == "additive-total":
        pd_total = sum(d.pd for d in demands)
        qd_total = sum(d.qd for d in demands)
        if cfg.pd_shift != 0.0 and pd_total <= 0.0:
            raise ScenarioError("additive pd_shift requires positive total active demand")
        if cfg.qd_shift != 0.0 and qd_total <= 0.0:
            raise ScenarioError("additive qd_shift requires positive total reactive demand")
        demands = [
            replace(
                d,
                pd=d.pd * (1.0 + cfg.pd_shift / pd_total) if cfg.pd_shift != 0.0 else d.pd,
                qd=d.qd * (1.0 + cfg.qd_shift / qd_total) if cfg.qd_shift != 0.0 else d.qd,
            )
            for d in demands
        ]
    else:
        try:
            demands = [replace(d, pd=d.pd * cfg.pd_shift, qd=d.qd * cfg.qd_shift) for d in demands]
        except CaseError as exc:
            raise ScenarioError(str(exc)) from exc
    if cfg.demand_set_mode == "all-buses":
        have = {d.bus for d in demands}
        demands += [DemandSpec(bus=b.id, pd=0.0, qd=0.0) for b in case.buses if b.id not in have]
    demands.sort(key=lambda d: d.bus)
    if cfg.rank_seed is not None:
        rng = np.random.default_rng(cfg.rank_seed)
        draws = rng.integers(1, cfg.rank_levels + 1, size=len(demands))
        demands = [replace(d, rank=float(r)) for d, r in zip(demands, draws)]
    gens = [
        replace(
            g,
            pg_max=g.pg_max * cfg.pg_upper_scale,
            qg_min=g.qg_min * cfg.qg_bound_scale,
            qg_max=g.qg_max * cfg.qg_bound_scale,
        )
        for g in case.generators
    ]
    try:
        return GridCase(
            buses=case.buses,
            branches=case.branches,
            generators=tuple(gens),
            demands=tuple(demands),
            base_mva=case.base_mva,
        )
    except CaseError as exc:
        raise ScenarioError(str(exc)) from exc

