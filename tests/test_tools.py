"""The command-line tools under tools/, run in-process on small inputs."""

import importlib.util
import json
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "workload_digests.py"


@pytest.fixture()
def tool(monkeypatch):
    # the tool puts ./src and ./bench on sys.path when it loads; undo that after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("workload_digests", DIGESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outcomes_name_each_oracle5_call_in_place_of_a_digest(tmp_path, tool, capsys):
    out = tmp_path / "oracle5.json"
    assert tool.main([str(out), "--workload", "oracle5", "--seeds", "1", "--outcomes"]) == 0
    printed = capsys.readouterr().out.splitlines()
    doc = json.loads(out.read_text())
    tally = {}
    assert doc["seeds"] == [1]
    assert len(doc["calls"]) == doc["distinct_calls"] > 0
    every_set = sorted("".join(bits) for bits in product("01", repeat=3))
    for index, entry in enumerate(doc["calls"]):
        assert "digest" not in entry
        where, _, outcome = entry["outcome"].partition(": ")
        assert where == f"seed 1 call {index} {entry['call']['variant']}"
        objectives = tally.setdefault(entry["call"]["variant"], [])
        objectives.append(None)
        if entry["error"]:
            assert outcome.startswith("failed ")
            continue
        fields = dict(part.split("=", 1) for part in outcome.split()[1:])
        assert outcome.startswith("answered ")
        assert len(fields["switches"]) == 3 and set(fields["switches"]) <= {"0", "1"}
        assert repr(float(fields["objective"])) == fields["objective"]
        objectives[-1] = float(fields["objective"])
        # the oracle labels split all eight switch sets between them
        labelled = [s for key in ("feasible", "infeasible") for s in fields[key].split(",") if s]
        assert sorted(labelled) == every_set
    # one tally line per variant, after the summary line: distinct calls,
    # answered calls and their mean served objective
    expected = []
    for variant, objs in sorted(tally.items()):
        served = [o for o in objs if o is not None]
        expected.append(f"{variant}: {len(objs)} distinct calls, {len(served)} answered, "
                        f"mean served objective {sum(served) / len(served):.6f}")
    assert len(expected) == 3
    assert printed[-3:] == expected


def test_compare_names_each_call_that_differs(tmp_path, tool, capsys):
    base = tmp_path / "base.json"
    args = ["--workload", "switch30", "--seeds", "1"]
    assert tool.main([str(base), *args]) == 0
    # the same checkout computes the same bits
    assert tool.main([str(tmp_path / "again.json"), *args, "--compare", str(base)]) == 0
    assert "0 of" in capsys.readouterr().out

    doc = json.loads(base.read_text())
    entry = doc["calls"][1]
    entry["digest"] = "0" * 64
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(doc))
    assert tool.main([str(tmp_path / "b.json"), *args, "--compare", str(moved)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"seed 1 call 1 {entry['call']['variant']}: digest differs" in lines
    assert lines[-1].startswith("1 of ")

    # another workload, seed set or BLAS thread count, or outcomes in place of
    # digests: nothing is comparable, and no call runs
    for key, value in [("workload", "oracle5"), ("seeds", [1, 2]), ("OPENBLAS_NUM_THREADS", "4")]:
        other = tmp_path / f"other-{key}.json"
        other.write_text(json.dumps({**doc, key: value}))
        assert tool.main([str(tmp_path / "c.json"), *args, "--compare", str(other)]) == 2
        assert key in capsys.readouterr().out
    assert tool.main([str(tmp_path / "c.json"), *args, "--outcomes", "--compare", str(base)]) == 2
    assert "no outcome" in capsys.readouterr().out
    assert not (tmp_path / "c.json").exists()


CENSUS = Path(__file__).resolve().parents[1] / "tools" / "restore_census.py"


@pytest.fixture()
def census(monkeypatch):
    # run as a script, the tool finds workload_digests next to it
    monkeypatch.setattr(sys, "path", [str(CENSUS.parent), *sys.path])
    spec = importlib.util.spec_from_file_location("restore_census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_counts_derivative_passes_per_call_and_in_total(census, capsys):
    # the fit forms derivatives only where it goes on, so every call's passes
    # fall short of its evaluations: at least one fit per call ends balanced,
    # and that end point costs a residual alone; and its most evaluations in
    # one fit fall short of its evaluations (an oracle5 call runs several
    # fits) but bound them from above, fits x most
    assert census.main(["--workload", "oracle5", "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[2:7] == ["fits", "nfev", "most", "jac", "b/s/cap"]
    calls = [line.split() for line in lines if line.startswith("seed 1 call ")]
    assert len(calls) == 20
    for fields in calls:
        fits, nfev, most, jac = (int(v) for v in fields[5:9])
        assert 0 < jac < nfev
        assert nfev <= fits * most and most < nfev
    total = next(line for line in lines if line.startswith("AO1 fits "))
    words = total.replace(",", "").split()
    assert int(words[2]) == sum(int(f[5]) for f in calls)
    assert int(words[3]) == sum(int(f[6]) for f in calls)
    assert int(words[5]) == sum(int(f[8]) for f in calls)
    assert words[6:9] == ["derivative", "passes;", "exits:"]
    assert total.endswith(f"; at most {max(int(f[7]) for f in calls)} evaluations in one fit")


def test_census_counts_each_member_of_the_oracle_batch(census, shortfall5_case):
    # the oracle fits each set that the screen leaves through least_squares,
    # from dispatch_start's point for the set: the census counts one fit per
    # such set, in the oracle's set order, with the evaluations, exit, end
    # residual and derivative passes of a solve_ao1 loop over those sets from
    # the same starts, and each entry carries its fit's evaluations
    from gridshed import ao1_opf, cli_driver
    from gridshed.power_equations import SwitchVector, network

    start = ao1_opf.dispatch_start(network(shortfall5_case))
    tally = census.Census()
    tally.install()
    try:
        entries = cli_driver.enumerate_oracle(shortfall5_case)
        oracle = tally.take()
        fitted = sorted((e for e in entries if not e.screened),
                        key=lambda e: sum(b << k for k, b in enumerate(e.switches)))
        for e in fitted:
            y = SwitchVector(np.array(e.switches, dtype=float))
            ao1_opf.solve_ao1(shortfall5_case, y, warm=start(y))
        alone = tally.take()
    finally:
        tally.uninstall()
    assert len(oracle) == len(alone) == len(fitted) > 1
    assert [(r[0], r[1], r[2], r[4]) for r in oracle] == [(r[0], r[1], r[2], r[4]) for r in alone]
    assert [e.evaluations for e in fitted] == [r[0] for r in oracle]


QP_CENSUS = Path(__file__).resolve().parents[1] / "tools" / "qp_census.py"


@pytest.fixture()
def qp_census(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(QP_CENSUS.parent), *sys.path])
    spec = importlib.util.spec_from_file_location("qp_census", QP_CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_qp_census_counts_clips_and_steps_per_call_and_in_total(qp_census, capsys):
    # switch30 seed 1 and _random_case seed 23, whose demands draw no power,
    # so its one live pattern, the empty one, is rejected at the first fit
    assert qp_census.main(["--workload", "switch30", "--seeds", "1", "--random", "23"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[2:7] == ["clips", "steps", "single/newton", "most", "cap"]
    calls = [line.split() for line in lines if line.startswith("seed 1 call ")]
    assert len(calls) == 12 and all(fields[-1] == "answered" for fields in calls)
    for fields in calls:
        clips, steps, most, cap = (int(v) for v in fields[5:7] + fields[8:10])
        single, newton = (int(v) for v in fields[7].split("/"))
        assert clips > 0 and most <= steps and cap == 0
        # every switch30 step of seed 1 has one working row
        assert (single, newton) == (steps, 0)
    total = next(line for line in lines if line.startswith("switch30 seeds 1: "))
    words = total.replace(",", "").replace(";", "").split()
    assert words[3:5] == ["12", "calls"]
    assert int(words[7]) == sum(int(f[5]) for f in calls)
    assert int(words[10]) == sum(int(f[6]) for f in calls)
    assert words[13:17] == [f"({words[10]}", "single-row", "0", "Newton)"]
    randoms = [line for line in lines if line.startswith("random 23 ")]
    assert [line.split()[2] for line in randoms] == ["mixed", "relaxed-one", "relaxed-two"]
    assert all(line.endswith("DriverError: all 1 live switch pattern proved infeasible") for line in randoms)
    assert lines[-1].startswith("_random_case seeds 23: 3 calls, 3 failed; ")


def test_qp_census_counts_solves_by_status_per_call_and_in_total(qp_census, capsys):
    # every switch30 solve of seed 1 has a status, and the totals add them
    # up; on _random_case seed 14 the aggregate reactive row admits no point
    # of the box, so each variant's first QP reports infeasible and the
    # switching stage stops there
    assert qp_census.main(["--workload", "switch30", "--seeds", "1", "--random", "14"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[7] == "o/m/i"
    calls = [line.split() for line in lines if line.startswith("seed 1 call ")]
    counts = [[int(v) for v in fields[10].split("/")] for fields in calls]
    assert all(sum(c) > 0 for c in counts)
    total = next(line for line in lines if line.startswith("switch30 seeds 1: "))
    solves = total.split("; ")[2]
    expected = [sum(c[k] for c in counts) for k in range(3)]
    assert solves == (f"{sum(expected)} QP solves: {expected[0]} optimal, {expected[1]} max-iterations, "
                      f"{expected[2]} infeasible")
    randoms = [line for line in lines if line.startswith("random 14 ")]
    assert [line.split()[8] for line in randoms] == ["0/0/1"] * 3
    assert all(line.endswith("DriverError: the switching rows admit no point of the box") for line in randoms)
    assert "; 3 QP solves: 0 optimal, 0 max-iterations, 3 infeasible; " in lines[-1]
    # switch30 seed 1 ends no clip unconverged, so it tests no certificate;
    # on seed 14 each variant's infeasible verdict rests on the ray of a
    # kernel step, with a margin well above SLACK_TOL
    assert lines[0].split()[8:10] == ["ray/last/none", "margin"]
    assert all(fields[11:13] == ["0/0/0", "-"] for fields in calls)
    assert ("; infeasible by 0 ray and 0 last-multiplier certificates, 0 unconverged clips certify "
            "nothing, smallest margin -; ") in total
    assert [line.split()[9] for line in randoms] == ["1/0/0"] * 3
    # that ray comes from each clip's one step, a Newton step on two rows
    assert [line.split()[5] for line in randoms] == ["0/1"] * 3
    margins = [float(line.split()[10]) for line in randoms]
    assert min(margins) > 1e3 * qp_census.qp_core.SLACK_TOL
    assert ("; infeasible by 3 ray and 0 last-multiplier certificates, 0 unconverged clips certify "
            f"nothing, smallest margin {min(margins):.2e}; ") in lines[-1]
