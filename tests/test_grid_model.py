import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshed.cli_driver import main
from gridshed.grid_model import (
    DEFAULT_THETA_BOUND,
    Branch,
    Bus,
    CaseError,
    DemandSpec,
    DuplicateBranchError,
    Generator,
    GridCase,
    MalformedRowError,
    ParseError,
    ScenarioConfig,
    ScenarioError,
    UnknownBusError,
    ZeroImpedanceError,
    apply_scenario,
    build_admittance,
    parse_case,
    serialize_case,
)

TWO_BUS = """
function mpc = two_bus
mpc.baseMVA = 100;
mpc.bus = [
    1  3  0   0  0 0 1 1 0 0 1 1.1 0.9;
    2  1  50  10 0 0 1 1 0 0 1 1.1 0.9;
];
mpc.gen = [
    1  0 0 30 -30 1 100 1 80 0;
];
mpc.branch = [
    1  2  0.038461538461538464  0.19230769230769232;
];
"""


def test_parse_case5_sets(case5):
    assert case5.bus_ids == (1, 2, 3, 4, 5)
    assert case5.generator_buses == (1, 3, 4, 5)
    assert case5.demand_buses == (2, 3, 4)
    assert case5.slack_bus.id == 1


def test_parse_case30_generator_set(case30):
    assert case30.generator_buses == (1, 2, 13, 22, 23, 27)
    assert len(case30.buses) == 30
    assert len(case30.branches) == 41


def test_parse_normalizes_to_per_unit(case5):
    d2 = next(d for d in case5.demands if d.bus == 2)
    assert d2.pd == pytest.approx(3.0)
    assert d2.qd == pytest.approx(0.9861)
    g1 = next(g for g in case5.generators if g.bus == 1)
    assert g1.pg_max == pytest.approx(2.1)


def test_parse_converts_impedance_to_admittance():
    case = parse_case(TWO_BUS)
    br = case.branches[0]
    # g = r/(r^2+x^2), b = -x/(r^2+x^2) with r=1/26*... chosen so g=1, b=-5
    assert br.g == pytest.approx(1.0)
    assert br.b == pytest.approx(-5.0)


def test_parse_unknown_bus_reports_line():
    bad = TWO_BUS.replace("1  2  0.038461538461538464", "1  99  0.038461538461538464")
    with pytest.raises(UnknownBusError) as exc:
        parse_case(bad)
    assert "99" in str(exc.value)
    assert exc.value.line_no is not None


def test_parse_duplicate_branch_rejected():
    bad = TWO_BUS.replace(
        "1  2  0.038461538461538464  0.19230769230769232;",
        "1  2  0.04  0.2;\n    2  1  0.04  0.2;",
    )
    with pytest.raises(DuplicateBranchError):
        parse_case(bad)


def test_parse_zero_impedance_rejected():
    bad = TWO_BUS.replace("0.038461538461538464  0.19230769230769232", "0  0")
    with pytest.raises(ZeroImpedanceError):
        parse_case(bad)


def test_parse_malformed_row_reports_line():
    bad = TWO_BUS.replace("1  0 0 30 -30 1 100 1 80 0;", "1  0 0 oops;")
    with pytest.raises(MalformedRowError) as exc:
        parse_case(bad)
    assert exc.value.line_no is not None


@pytest.mark.parametrize("close", ["]", "];", " ] ;"])
def test_parse_last_row_may_close_its_table(case5_text, case5, close):
    # "... 0.9]" with no ";" used to leave the table open, so the next
    # table's opener failed as a bad numeric row
    text, n = re.subn(r";[ \t]*\n\];", close, case5_text)
    assert n >= 3
    assert parse_case(text) == case5


def test_parse_unterminated_matrix_reports_its_opener():
    lines = TWO_BUS.splitlines()
    assert lines[-1] == "];"
    with pytest.raises(MalformedRowError, match="unterminated matrix branch") as exc:
        parse_case("\n".join(lines[:-1]))
    assert exc.value.line_no == lines.index("mpc.branch = [") + 1


@pytest.mark.parametrize("table, row, col, value", [
    ("mpc.branch", 0, 2, "nan"),  # r of branch 1-2
    ("mpc.bus", 1, 11, "nan"),    # Vmax of bus 2
    ("mpc.gen", 0, 8, "inf"),     # Pmax of the bus-1 generator
])
def test_parse_rejects_non_finite_values(case5_text, table, row, col, value):
    lines = case5_text.splitlines()
    at = lines.index(f"{table} = [") + 1 + row
    tokens = lines[at].split()
    tokens[col] = value
    lines[at] = "\t".join(tokens)
    with pytest.raises(CaseError) as exc:
        parse_case("\n".join(lines))
    assert exc.value.line_no == at + 1


@pytest.mark.parametrize("table, row, col, value", [
    ("mpc.baseMVA", None, None, "0"),
    ("mpc.baseMVA", None, None, "-100"),
    ("mpc.baseMVA", None, None, "inf"),
    ("mpc.baseMVA", None, None, "nan"),
    ("mpc.bus", 1, 12, "1.2"),    # Vmin of bus 2 above its Vmax 1.1
    ("mpc.bus", 1, 12, "0"),      # Vmin of bus 2 at zero
    ("mpc.bus", 1, 2, "-300"),    # negative Pd at bus 2
    ("mpc.gen", 0, 9, "300"),     # Pmin of the bus-1 generator above its Pmax 210
    ("mpc.theta_bound", None, None, "[ 1 0.1 0.2; ]"),    # slack bus 1's band leaves out 0;
    # it used to parse, and every switch set then failed late
], ids=["baseMVA-0", "baseMVA-negative", "baseMVA-inf", "baseMVA-nan", "bus-vmin-above-vmax",
        "bus-vmin-zero", "bus-negative-pd", "gen-pmin-above-pmax", "theta_bound-slack-off-zero"])
def test_parse_reports_invalid_records_at_their_line(case5_text, tmp_path, table, row, col, value):
    lines = case5_text.splitlines()
    if row is None:
        # the line that sets table, or a new last line when the case has none
        at = next((k for k, ln in enumerate(lines) if ln.startswith(f"{table} =")), len(lines))
        lines[at:at + 1] = [f"{table} = {value};"]
    else:
        at = lines.index(f"{table} = [") + 1 + row
        tokens = lines[at].split()
        tokens[col] = value
        lines[at] = "\t".join(tokens)
    text = "\n".join(lines)
    with pytest.raises(ParseError) as exc:
        parse_case(text)
    assert exc.value.line_no == at + 1
    path = tmp_path / "bad.m"
    path.write_text(text)
    assert main(["solve", "--case", str(path), "--out-dir", str(tmp_path)]) == 2


CASE_TABLES = ("bus", "gen", "branch", "demand_rank", "demand_pu", "gen_pu", "theta_bound", "branch_pu")


def _rows(lines, table):
    """Indices into lines of the rows of ``mpc.<table> = [ ... ];``."""
    start = lines.index(f"mpc.{table} = [") + 1
    return range(start, lines.index("];", start))


@pytest.fixture()
def case5_lines(case5):
    """case5 as serialize_case writes it, with bus 3 given angle bounds so
    that all eight tables are present."""
    buses = tuple(dataclasses.replace(b, theta_min=-1.0, theta_max=0.5) if b.id == 3 else b
                  for b in case5.buses)
    return serialize_case(dataclasses.replace(case5, buses=buses)).splitlines()


@pytest.mark.parametrize("table", CASE_TABLES)
def test_parse_repeated_row_fails_at_its_line(case5_lines, table):
    # a repeated bus or gen row used to fail with no line, and a repeated
    # demand_rank or theta_bound row silently replaced the earlier one
    lines = case5_lines
    first = _rows(lines, table)[-1]
    lines.insert(first + 1, lines[first])
    expected = DuplicateBranchError if table.startswith("branch") else MalformedRowError
    with pytest.raises(expected, match=f"duplicate {table} row .*, the first is on line {first + 1}$") as exc:
        parse_case("\n".join(lines))
    assert exc.value.line_no == first + 2


def test_parse_second_slack_row_fails_at_its_line(case5_lines):
    lines = case5_lines
    at = _rows(lines, "bus")[2]
    tokens = lines[at].split()
    tokens[1] = "3"
    lines[at] = "\t".join(tokens)
    with pytest.raises(MalformedRowError, match="second slack bus row, the first is on line 7") as exc:
        parse_case("\n".join(lines))
    assert exc.value.line_no == at + 1


@pytest.mark.parametrize("table", CASE_TABLES)
def test_parse_second_table_block_fails_at_its_line(case5_lines, table):
    # a second "mpc.<table> = [" block used to replace the first without a word
    lines = case5_lines
    rows = _rows(lines, table)
    opener = rows[0]    # the 1-based line of "mpc.<table> = [", just above the first row
    block = lines[rows[0] - 1:rows[-1] + 2]
    lines += block
    with pytest.raises(MalformedRowError,
                       match=f"second {table} table, the first starts on line {opener}$") as exc:
        parse_case("\n".join(lines))
    assert exc.value.line_no == len(lines) - len(block) + 1


@pytest.mark.parametrize("table, col, what", [
    *((table, 0, "bus id") for table in CASE_TABLES),
    ("branch", 1, "bus id"),
    ("branch_pu", 1, "bus id"),
    ("bus", 1, "type"),
])
def test_parse_non_integer_id_fails_at_its_line(case5_lines, table, col, what):
    # int() used to truncate the value, so a bus 2.5 landed on bus 2
    lines = case5_lines
    at = _rows(lines, table)[-1]
    tokens = lines[at].split()
    tokens[col] = f"{float(tokens[col]) + 0.5:g}"
    lines[at] = "\t".join(tokens)
    with pytest.raises(MalformedRowError,
                       match=f"{table} row has non-integer {what} {tokens[col]}$") as exc:
        parse_case("\n".join(lines))
    assert exc.value.line_no == at + 1


@pytest.mark.parametrize("table, row, message", [
    ("gen_pu", "2\t0\t1\t-1\t1;", "gen_pu row 2 names no generator"),
    ("branch_pu", "2\t4\t1\t-5;", "branch_pu row 2-4 names no branch"),
    ("branch_pu", "1\t99\t1\t-5;", "branch_pu references unknown bus 99"),
], ids=["gen_pu-no-generator", "branch_pu-no-branch", "branch_pu-unknown-bus"])
def test_parse_override_row_must_name_a_record(case5_lines, table, row, message):
    # each of these rows used to be dropped without a word
    lines = case5_lines
    at = _rows(lines, table)[-1] + 1
    lines.insert(at, "\t" + row)
    with pytest.raises(UnknownBusError, match=message) as exc:
        parse_case("\n".join(lines))
    assert exc.value.line_no == at + 1


def test_parse_branch_pu_row_applies_in_either_order(case5_lines):
    lines = case5_lines
    at = _rows(lines, "branch_pu")[0]
    assert lines[at].split()[:2] == ["1", "2"]
    lines[at] = "\t2\t1\t7.5\t-20;"
    branch = parse_case("\n".join(lines)).branches[0]
    assert (branch.from_bus, branch.to_bus, branch.g, branch.b) == (1, 2, 7.5, -20.0)


def _random_case(rng) -> GridCase:
    """A small valid case: 2-8 buses with gapped ids, a random spanning tree
    of branches plus a few more, 1-3 generators, random loads and ranks, and
    non-default angle bounds on at least one bus."""
    n = int(rng.integers(2, 9))
    ids = [int(v) for v in np.cumsum(rng.integers(2, 40, n))]
    slack = rng.integers(n)
    bounded = rng.random(n) < 0.4
    bounded[rng.integers(n)] = True
    buses = []
    for k, bus in enumerate(ids):
        v_min = rng.uniform(0.8, 1.0)
        lo, hi = (-rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5)) if bounded[k] else \
            (-DEFAULT_THETA_BOUND, DEFAULT_THETA_BOUND)
        buses.append(Bus(id=bus, v_min=v_min, v_max=v_min + rng.uniform(0.0, 0.3),
                         theta_min=lo, theta_max=hi, is_slack=bool(k == slack)))
    pairs = {frozenset((ids[k], ids[rng.integers(k)])) for k in range(1, n)}
    for _ in range(rng.integers(0, 4)):
        pairs.add(frozenset(int(v) for v in rng.choice(ids, 2, replace=False)))
    branches = []
    for pair in sorted(pairs, key=sorted):
        f, t = rng.permutation(sorted(pair))
        branches.append(Branch(from_bus=int(f), to_bus=int(t), g=rng.uniform(0.0, 20.0),
                               b=-rng.uniform(0.1, 50.0)))
    generators = []
    for bus in rng.choice(ids, int(rng.integers(1, min(3, n) + 1)), replace=False):
        pg_min, qg_min = rng.uniform(0.0, 1.0), -rng.uniform(0.0, 3.0)
        generators.append(Generator(bus=int(bus), pg_min=pg_min, pg_max=pg_min + rng.uniform(0.0, 4.0),
                                    qg_min=qg_min, qg_max=qg_min + rng.uniform(0.0, 6.0)))
    demands = []
    for bus in rng.choice(ids, int(rng.integers(1, n + 1)), replace=False):
        loaded = rng.random() < 0.8
        demands.append(DemandSpec(bus=int(bus), pd=rng.uniform(0.0, 3.0) if loaded else 0.0,
                                  qd=rng.uniform(-0.5, 1.5) if loaded else 0.0,
                                  rank=rng.uniform(0.1, 5.0)))
    return GridCase(buses=tuple(buses), branches=tuple(branches), generators=tuple(generators),
                    demands=tuple(demands), base_mva=rng.uniform(10.0, 1000.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_serialize_round_trips_random_cases(seed):
    case = _random_case(np.random.default_rng(seed))
    text = serialize_case(case)
    parsed = parse_case(text)
    assert parsed == case
    assert serialize_case(parsed) == text


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_repeated_row_of_any_table_fails_at_its_line(seed):
    rng = np.random.default_rng(seed)
    lines = serialize_case(_random_case(rng)).splitlines()
    for table in CASE_TABLES:
        rows = _rows(lines, table)
        at = rows[rng.integers(len(rows))]
        with pytest.raises(ParseError) as exc:
            parse_case("\n".join(lines[:at + 1] + [lines[at]] + lines[at + 1:]))
        assert exc.value.line_no == at + 2, table


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: Generator(bus=1, pg_min=0.0, pg_max=NAN, qg_min=-1.0, qg_max=1.0),
    lambda: Generator(bus=1, pg_min=0.0, pg_max=INF, qg_min=-1.0, qg_max=1.0),
    lambda: Bus(id=1, v_min=0.9, v_max=NAN),
    lambda: Bus(id=1, v_min=0.9, v_max=1.1, theta_min=NAN),
    lambda: Branch(from_bus=1, to_bus=2, g=NAN, b=-5.0),
    lambda: Branch(from_bus=1, to_bus=2, g=1.0, b=-5.0, r=NAN, x=0.2),
    lambda: DemandSpec(bus=2, pd=0.5, qd=0.1, rank=INF),
], ids=["gen-pg_max-nan", "gen-pg_max-inf", "bus-v_max-nan", "bus-theta_min-nan",
        "branch-g-nan", "branch-r-nan", "demand-rank-inf"])
def test_constructors_reject_non_finite_values(build):
    # a nan compares False both ways, so it would pass every ordering check
    # and silently switch off the active-capacity screen
    with pytest.raises(CaseError, match="must be finite"):
        build()


def test_case_validation_rejects_bad_structures():
    buses = (Bus(id=1, v_min=0.9, v_max=1.1, is_slack=True), Bus(id=2, v_min=0.9, v_max=1.1))
    branch = Branch(from_bus=1, to_bus=2, g=1.0, b=-5.0)
    gen = Generator(bus=1, pg_min=0.0, pg_max=1.0, qg_min=-1.0, qg_max=1.0)
    dem = DemandSpec(bus=2, pd=0.5, qd=0.1)
    # duplicate generator bus
    with pytest.raises(CaseError, match="duplicate generator"):
        GridCase(buses=buses, branches=(branch,), generators=(gen, gen), demands=(dem,))
    # no demands at all
    with pytest.raises(CaseError, match="empty"):
        GridCase(buses=buses, branches=(branch,), generators=(gen,), demands=())
    # two slack buses
    both_slack = (buses[0], dataclasses.replace(buses[1], is_slack=True))
    with pytest.raises(CaseError, match="slack"):
        GridCase(buses=both_slack, branches=(branch,), generators=(gen,), demands=(dem,))
    with pytest.raises(CaseError, match="v_min"):
        Bus(id=1, v_min=-0.1, v_max=1.1)
    with pytest.raises(CaseError, match="rank"):
        DemandSpec(bus=1, pd=0.1, qd=0.0, rank=0.0)


def test_build_admittance_two_bus():
    Y = build_admittance(parse_case(TWO_BUS))
    np.testing.assert_allclose(Y.G, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(Y.B, [[-5.0, 5.0], [5.0, -5.0]], atol=1e-12)


@pytest.mark.parametrize("fixture", ["case5", "case30"])
def test_admittance_is_symmetric_laplacian(fixture, request):
    case = request.getfixturevalue(fixture)
    Y = build_admittance(case)
    np.testing.assert_allclose(Y.G, Y.G.T, atol=1e-12)
    np.testing.assert_allclose(Y.B, Y.B.T, atol=1e-12)
    np.testing.assert_allclose(Y.G.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(Y.B.sum(axis=1), 0.0, atol=1e-12)


def test_admittance_sparsity_matches_adjacency(case5):
    Y = build_admittance(case5)
    index = {b.id: i for i, b in enumerate(case5.buses)}
    adjacent = set()
    for br in case5.branches:
        adjacent.add((index[br.from_bus], index[br.to_bus]))
        adjacent.add((index[br.to_bus], index[br.from_bus]))
    n = len(case5.buses)
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            if (k, l) in adjacent:
                assert Y.G[k, l] != 0.0 or Y.B[k, l] != 0.0
            else:
                assert Y.G[k, l] == 0.0 and Y.B[k, l] == 0.0


@pytest.mark.parametrize("fixture", ["case5", "case30"])
def test_serialize_round_trip(fixture, request):
    case = request.getfixturevalue(fixture)
    assert parse_case(serialize_case(case)) == case


def test_serialize_round_trip_after_scenario(case30):
    stressed = apply_scenario(case30, ScenarioConfig())
    assert parse_case(serialize_case(stressed)) == stressed


def test_scenario_identity_config(case30):
    cfg = ScenarioConfig(
        pd_shift=0.0,
        qd_shift=0.0,
        qg_bound_scale=1.0,
        pg_upper_scale=1.0,
        rank_seed=None,
        demand_set_mode="loaded-buses",
    )
    assert apply_scenario(case30, cfg) == case30


def test_scenario_default_dimensions(case30):
    stressed = apply_scenario(case30, ScenarioConfig())
    assert 2 * len(stressed.buses) == 60
    assert 2 * len(stressed.generators) == 12
    assert len(stressed.demands) == 30


def test_scenario_shifts_totals_proportionally(case30):
    stressed = apply_scenario(case30, ScenarioConfig())
    pd0 = sum(d.pd for d in case30.demands)
    qd0 = sum(d.qd for d in case30.demands)
    assert sum(d.pd for d in stressed.demands) == pytest.approx(pd0 + 2.5)
    assert sum(d.qd for d in stressed.demands) == pytest.approx(qd0 + 0.7)
    # profile shape preserved on originally loaded buses
    by_bus = {d.bus: d for d in stressed.demands}
    scale = 1.0 + 2.5 / pd0
    for d in case30.demands:
        if d.pd > 0:
            assert by_bus[d.bus].pd == pytest.approx(d.pd * scale)


def test_scenario_scales_generator_bounds(case30):
    stressed = apply_scenario(case30, ScenarioConfig())
    for g0, g1 in zip(case30.generators, stressed.generators):
        assert g1.pg_max == pytest.approx(0.7 * g0.pg_max)
        assert g1.qg_max == pytest.approx(0.5 * g0.qg_max)
        assert g1.qg_min == pytest.approx(0.5 * g0.qg_min)
        assert g1.pg_min == g0.pg_min


def test_scenario_rank_determinism(case30):
    a = apply_scenario(case30, ScenarioConfig(rank_seed=7))
    b = apply_scenario(case30, ScenarioConfig(rank_seed=7))
    c = apply_scenario(case30, ScenarioConfig(rank_seed=8))
    assert a == b
    assert [d.rank for d in a.demands] != [d.rank for d in c.demands]
    assert all(1 <= d.rank <= 5 for d in a.demands)


def test_case_equality_is_field_equality(case5):
    def fields_of(case):
        return (case.buses, case.branches, case.generators, case.demands, case.base_mva)

    slack = next(i for i, b in enumerate(case5.buses) if b.is_slack)
    first = case5.demands[0]
    variants = {
        "same": case5,
        # -0.0 == 0.0 and True == 1: equal, and equal hashes
        "signed-zero": dataclasses.replace(case5, demands=(dataclasses.replace(first, qd=-0.0),)
                                           + case5.demands[1:]),
        "unsigned-zero": dataclasses.replace(case5, demands=(dataclasses.replace(first, qd=0.0),)
                                             + case5.demands[1:]),
        "int-slack": dataclasses.replace(case5, buses=tuple(
            dataclasses.replace(b, is_slack=1) if i == slack else b
            for i, b in enumerate(case5.buses))),
        "one-ulp": dataclasses.replace(case5, demands=(dataclasses.replace(
            first, pd=np.nextafter(first.pd, 1.0)),) + case5.demands[1:]),
        "base-mva": dataclasses.replace(case5, base_mva=case5.base_mva + 1.0),
        "fewer-demands": dataclasses.replace(case5, demands=case5.demands[1:]),
    }
    for a in variants.values():
        for b in variants.values():
            assert (a == b) is (fields_of(a) == fields_of(b))
            assert (a != b) is (fields_of(a) != fields_of(b))
            if a == b:
                assert hash(a) == hash(b)
    assert variants["signed-zero"] == variants["unsigned-zero"]
    assert variants["int-slack"] == case5
    assert variants["one-ulp"] != case5
    assert case5 != fields_of(case5)


@pytest.mark.parametrize("field, value", [
    ("rank_levels", 2.5), ("rank_levels", True), ("rank_levels", 0), ("rank_levels", None),
    ("rank_seed", 2.5), ("rank_seed", True), ("rank_seed", -1), ("rank_seed", "6"),
])
def test_scenario_rejects_a_bad_integer_field(field, value):
    # rank_levels = 2.5 used to draw ranks from {1, 2}, and rank_seed = 2.5
    # failed inside numpy with a bare TypeError
    with pytest.raises(CaseError, match=f"^{field} must be "):
        ScenarioConfig(**{field: value})


@pytest.mark.parametrize("field", ["pd_shift", "qd_shift", "qg_bound_scale", "pg_upper_scale"])
@pytest.mark.parametrize("value", [True, False, None, "0.5"], ids=["true", "false", "none", "text"])
def test_scenario_rejects_a_bad_float_field(field, value):
    # qg_bound_scale = True passed the (0, 1] range check and was kept as True
    with pytest.raises(CaseError, match=f"^{field} must be a number, got {value!r}$"):
        ScenarioConfig(**{field: value})


def test_scenario_float_fields_keep_ints_and_floats():
    cfg = ScenarioConfig(pd_shift=2, qd_shift=np.float64(0.5), qg_bound_scale=1, pg_upper_scale=0.5)
    assert (cfg.pd_shift, cfg.qd_shift, cfg.qg_bound_scale, cfg.pg_upper_scale) == (2, 0.5, 1, 0.5)


def test_scenario_integer_fields_take_their_edge_values(case30):
    assert ScenarioConfig(rank_levels=1, rank_seed=0).rank_seed == 0
    assert ScenarioConfig(rank_seed=None).rank_seed is None
    ranks = {d.rank for d in apply_scenario(case30, ScenarioConfig(rank_levels=1)).demands}
    assert ranks == {1.0}


def test_scenario_zero_total_demand_rejected(case30):
    # reactive shift with nothing to distribute over
    drained = GridCase(
        buses=case30.buses,
        branches=case30.branches,
        generators=case30.generators,
        demands=tuple(dataclasses.replace(d, qd=0.0) for d in case30.demands),
        base_mva=case30.base_mva,
    )
    with pytest.raises(ScenarioError):
        apply_scenario(drained, ScenarioConfig(qd_shift=0.7))

