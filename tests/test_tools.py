"""The command-line tools under tools/, run in-process on small inputs."""

import importlib.util
import json
import sys
from itertools import product
from pathlib import Path

DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "workload_digests.py"


def test_outcomes_name_each_oracle5_call_in_place_of_a_digest(tmp_path, monkeypatch):
    # the tool puts ./src and ./bench on sys.path when it loads; undo that after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("workload_digests", DIGESTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tmp_path / "oracle5.json"
    assert tool.main([str(out), "--workload", "oracle5", "--seeds", "1", "--outcomes"]) == 0
    doc = json.loads(out.read_text())
    assert doc["seeds"] == [1]
    assert len(doc["calls"]) == doc["distinct_calls"] > 0
    every_set = sorted("".join(bits) for bits in product("01", repeat=3))
    for index, entry in enumerate(doc["calls"]):
        assert "digest" not in entry
        where, _, outcome = entry["outcome"].partition(": ")
        assert where == f"seed 1 call {index} {entry['call']['variant']}"
        if entry["error"]:
            assert outcome.startswith("failed ")
            continue
        fields = dict(part.split("=", 1) for part in outcome.split()[1:])
        assert outcome.startswith("answered ")
        assert len(fields["switches"]) == 3 and set(fields["switches"]) <= {"0", "1"}
        assert repr(float(fields["objective"])) == fields["objective"]
        # the oracle labels split all eight switch sets between them
        labelled = [s for key in ("feasible", "infeasible") for s in fields[key].split(",") if s]
        assert sorted(labelled) == every_set
