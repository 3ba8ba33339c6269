"""Digest every distinct call of a benchmark workload, for bit-identity checks.

    python3 tools/workload_digests.py OUT.json --workload oracle5 --seeds 1-10

Builds the calls of ``bench/workloads.py`` for each seed (the module is
imported, never changed), runs each distinct call once, in first-seen order,
in this process and against ./src, and writes one JSON document: the
workload, the seeds, the BLAS thread settings, and per distinct call its
parameters, the seeds whose call lists hold it, and a SHA-256 digest.

The digest covers the bytes of everything the call returns:

* an answer: the switch set, the objective, the state (v, theta) and input
  (pg, qg) arrays and every AO2 trace row, plus, on oracle5, every
  enumerated entry; a bare AO2 call (switch30) gives its switch set and
  trace, and the state and input of its AO1 start from set-up are digested
  too (its multipliers, -rank by construction, are not);
* a failure: the error type and text, and the best iterate (a
  ``DriverError``'s partial result, or an ``Ao2Error``'s trace and switches).

No wall-clock value enters the file, so two checkouts that compute the same
bits write the same file and ``cmp`` or ``diff`` shows any change.  Digests
depend on the BLAS thread count, which is recorded so that files taken at
different counts are not compared by mistake.

With ``--outcomes`` each call gets a readable one-line outcome in place of its
digest, led by the seed and call index where it first appears:

* an answer: the switch set as a 0/1 string and ``repr`` of the served
  objective sum(y * rank * pd), as ``bench/workloads.py`` checks it, plus on
  oracle5 the enumerated switch sets labelled feasible and infeasible;
* a failure: the error type and, for a ``DriverError``, its kind.

So when a change moves float bits, ``cmp`` on two outcome files shows whether
it also moved an answer, and ``diff`` names each call that moved.  The run
also prints one line per variant: its distinct calls, how many were answered
and their mean served objective, a quality figure for a change that moves
answers on purpose.

With ``--compare BASE.json`` (a file this tool wrote, say in the parent
checkout) the run is checked against BASE after OUT is written: each call
whose digest, or outcome, differs is printed by the seed and call index where
it first appears and its variant, and the exit status is 1 if any differs,
0 if none does.  A BASE taken for another workload, other seeds or other BLAS
thread settings, or one holding outcomes where this run writes digests or
the other way round, cannot be compared: that exits 2 before any call runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import gridshed  # noqa: E402,F401  (first: it pins the BLAS threads before numpy loads)
import numpy as np  # noqa: E402

import workloads  # noqa: E402
from gridshed.ao2_sbqp import Ao2Error  # noqa: E402
from gridshed.cli_driver import DriverError  # noqa: E402


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def text(self, value) -> None:
        data = str(value).encode()
        self._h.update(len(data).to_bytes(8, "little") + data)

    def floats(self, values) -> None:
        self.text(np.ascontiguousarray(values, dtype=float).tobytes().hex())

    def trace(self, trace) -> None:
        for row in trace.rows:
            self.floats(row.y)
            self.floats([row.iteration, row.phi, row.rho, row.alpha, row.psi])
            self.text(row.status)
            self.text(row.kind)

    def result(self, res) -> None:
        """A run_ao_sbqp result, wall-clock timings left out."""
        self.floats(res.switches.y)
        self.floats([res.objective, res.supplied_active, res.supplied_reactive, res.outer_iterations])
        for values in (res.state.v, res.state.theta, res.input.pg, res.input.qg):
            self.floats(values)
        for trace in res.ao2_traces:
            self.trace(trace)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def call_digest(call: dict, inst, answer) -> str:
    d = _Digest()
    if call["kind"] == "switch":
        # the start's multipliers are -rank by construction; its state and
        # input pin it
        (state, inputs, ones), _duals = inst.start
        for values in (state.v, state.theta, inputs.pg, inputs.qg, ones.y):
            d.floats(values)
    if isinstance(answer, (DriverError, Ao2Error)):
        d.text(type(answer).__name__)
        d.text(answer)
        if isinstance(answer, DriverError):
            d.text(answer.kind)
            if answer.best is not None:
                d.result(answer.best)
        else:
            d.trace(answer.trace)
            d.floats(answer.y)
        return d.hexdigest()
    if call["kind"] == "oracle-solve":
        entries, answer = answer
        for e in entries:
            d.floats([*e.switches, e.feasible, e.objective, e.screened])
    if call["kind"] == "switch":
        switches, trace = answer
        d.floats(switches.y)
        d.trace(trace)
    else:
        d.result(answer)
    return d.hexdigest()


def _bits(values) -> str:
    return "".join(str(int(v)) for v in values)


def call_outcome(call: dict, inst, answer) -> tuple[str, float | None]:
    """The call's outcome line, and its served objective (None on a failure)."""
    if isinstance(answer, DriverError):
        return f"failed {type(answer).__name__} kind={answer.kind}", None
    if isinstance(answer, Ao2Error):
        return f"failed {type(answer).__name__}", None
    outcome = workloads.check(call, inst, answer)
    entries = None
    if call["kind"] == "oracle-solve":
        entries, answer = answer
    switches = answer[0] if call["kind"] == "switch" else answer.switches
    text = f"answered switches={_bits(switches.y)} objective={outcome.objective!r}"
    if not outcome.check_ok:
        text += f" check failed: {outcome.error}"
    if entries is not None:
        labels = {True: [], False: []}
        for e in sorted(entries, key=lambda e: e.switches):
            labels[e.feasible].append(_bits(e.switches))
        text += f" feasible={','.join(labels[True])} infeasible={','.join(labels[False])}"
    return text, outcome.objective


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def walk(workload: str, seeds: list[int]):
    """Every call of the workload's call lists over seeds, in order, as
    (seed, index, call, key, inst): key is the call's JSON key, and inst the
    instance it runs on, or None for a call seen before.  A seed's calls are
    built once, before its first new call is yielded; running the call is
    left to the caller."""
    seen: set[str] = set()
    for seed in seeds:
        calls = workloads.call_list(workload, seed)
        built = None
        for index, call in enumerate(calls):
            key = json.dumps(call, sort_keys=True)
            if key in seen:
                yield seed, index, call, key, None
                continue
            seen.add(key)
            if built is None:
                built = workloads.build(calls)
            yield seed, index, call, key, built[workloads.instance_key(call)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", default="1-10", help="seeds as ranges, e.g. 1-10 or 1,3,5-7")
    parser.add_argument("--outcomes", action="store_true",
                        help="write each call's switch set and objective, or its error, in place of a digest")
    parser.add_argument("--compare", metavar="BASE.json",
                        help="name each call that differs from BASE's; exit 1 if any does")
    args = parser.parse_args(argv)
    field = "outcome" if args.outcomes else "digest"
    settings = {
        "workload": args.workload,
        "seeds": _seeds(args.seeds),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }

    base = None
    if args.compare:
        base = json.loads(Path(args.compare).read_text())
        mismatch = [f"{k} {base.get(k)!r}, here {v!r}" for k, v in settings.items() if base.get(k) != v]
        if any(field not in entry for entry in base.get("calls", [])):
            mismatch.append(f"its calls hold no {field}")
        if mismatch:
            print(f"cannot compare with {args.compare}: " + "; ".join(mismatch))
            return 2

    seen: dict[str, dict] = {}
    tally: dict[str, list] = {}     # variant -> [distinct calls, answered, sum of served objectives]
    first: dict[str, str] = {}      # call key -> "seed S call I VARIANT" where it first appears
    for seed, index, call, key, inst in walk(args.workload, settings["seeds"]):
        if inst is None:
            if seed not in seen[key]["seeds"]:
                seen[key]["seeds"].append(seed)
            continue
        answer = workloads.run(call, inst)
        error = "" if not isinstance(answer, (DriverError, Ao2Error)) else f"{type(answer).__name__}: {answer}"
        seen[key] = {"call": call, "seeds": [seed], "error": error}
        first[key] = f"seed {seed} call {index} {call['variant']}"
        if args.outcomes:
            text, objective = call_outcome(call, inst, answer)
            seen[key]["outcome"] = f"seed {seed} call {index} {call['variant']}: {text}"
            counts = tally.setdefault(call["variant"], [0, 0, 0.0])
            counts[0] += 1
            if objective is not None:
                counts[1] += 1
                counts[2] += objective
        else:
            seen[key]["digest"] = call_digest(call, inst, answer)
    doc = {
        **settings,
        "distinct_calls": len(seen),
        "failed_calls": sum(1 for entry in seen.values() if entry["error"]),
        "calls": list(seen.values()),
    }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload}: {len(seen)} distinct calls, {doc['failed_calls']} failed, "
          f"OPENBLAS_NUM_THREADS={doc['OPENBLAS_NUM_THREADS']}, wrote {args.out}")
    for variant, (calls, answered, total) in sorted(tally.items()):
        mean = total / answered if answered else float("nan")
        print(f"{variant}: {calls} distinct calls, {answered} answered, mean served objective {mean:.6f}")
    if base is None:
        return 0
    old = {json.dumps(entry["call"], sort_keys=True): entry for entry in base["calls"]}
    differ = 0
    for key, entry in seen.items():
        was = old.pop(key, None)
        if was is None or was[field] != entry[field]:
            differ += 1
            print(f"{first[key]}: {field} differs" if was else f"{first[key]}: not in {args.compare}")
    for entry in old.values():
        differ += 1
        print(f"seeds {entry['seeds']} {entry['call']['variant']}: only in {args.compare}")
    print(f"{differ} of {len(seen)} distinct calls differ from {args.compare}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
