"""Count the QP kernel's work in each distinct call of a benchmark workload.

    python3 tools/qp_census.py --workload switch30 --seeds 1-10

Builds the calls of ``bench/workloads.py`` for each seed (the module is
imported, never changed), runs each distinct call once, in first-seen order,
in this process and against ./src, and wraps ``gridshed.qp_core._dual_clip``
(one run of the kernel: the row multipliers for one linear term),
``gridshed.qp_core._dual_step`` (one kernel step: a Newton direction and the
line search along it) and ``gridshed.ao2_sbqp.solve_qp`` (one QP solve of the
switching stage) from outside the package.

One line per distinct call: the seed and index where it first appears, its
variant, its dual clips, their kernel steps, the most steps one clip took,
how many clips ended at the step cap ``DUAL_STEPS``, its QP solves by status
(optimal/max-iterations/infeasible), the call's seconds, and its outcome
(answered, or the error's first clause).  Kernel work during a
seed's set-up gets a line of its own.  Then the same figures for
``run_ao_sbqp`` with each variant on the ``_random_case`` draws of the given
``--random`` seeds (the parser tests' generator in tests/test_grid_model.py,
off the workloads, where cut rows pile up).  Totals follow each part.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "tests"))

import gridshed  # noqa: E402,F401  (first: it pins the BLAS threads before numpy loads)
import numpy as np  # noqa: E402

import workloads  # noqa: E402
from gridshed import ao2_sbqp, qp_core  # noqa: E402
from gridshed.ao2_sbqp import VARIANT_TAGS, Ao2Variant  # noqa: E402
from gridshed.cli_driver import SolverConfig, run_ao_sbqp  # noqa: E402
from restore_census import _outcome  # noqa: E402
from test_grid_model import _random_case  # noqa: E402
from workload_digests import _seeds  # noqa: E402


STATUSES = ("optimal", "max-iterations", "infeasible")


class Census:
    """Wraps qp_core._dual_clip, qp_core._dual_step and ao2_sbqp.solve_qp;
    keeps the steps of each clip and the status of each QP solve."""

    def __init__(self):
        self.clips: list[int] = []
        self.solves: list[str] = []
        self._clip = qp_core._dual_clip
        self._step = qp_core._dual_step
        self._solve = ao2_sbqp.solve_qp

    def install(self):
        def clip(*args, **kwargs):
            self.clips.append(0)
            return self._clip(*args, **kwargs)

        def step(*args, **kwargs):
            self.clips[-1] += 1
            return self._step(*args, **kwargs)

        def solve(*args, **kwargs):
            out = self._solve(*args, **kwargs)
            self.solves.append(out.status)
            return out

        qp_core._dual_clip = clip
        qp_core._dual_step = step
        ao2_sbqp.solve_qp = solve

    def uninstall(self):
        qp_core._dual_clip = self._clip
        qp_core._dual_step = self._step
        ao2_sbqp.solve_qp = self._solve

    def take(self) -> tuple[list[int], list[str]]:
        clips, self.clips = self.clips, []
        solves, self.solves = self.solves, []
        return clips, solves


def _statuses(solves) -> str:
    """QP solves per status, in STATUSES order: optimal/max-iterations/infeasible."""
    return "/".join(str(solves.count(s)) for s in STATUSES)


def _figures(clips, solves) -> str:
    capped = sum(c >= qp_core.DUAL_STEPS for c in clips)
    return f"{len(clips):>6} {sum(clips):>7} {max(clips, default=0):>5} {capped:>4} {_statuses(solves):>9}"


HEADER = (f"{'call':<16} {'variant':<11} {'clips':>6} {'steps':>7} {'most':>5} {'cap':>4} {'o/m/i':>9} "
          f"{'s':>8}  outcome")


def _total(label: str, clips, solves, seconds: float, outcomes) -> str:
    failed = sum(o != "answered" for o in outcomes)
    capped = sum(c >= qp_core.DUAL_STEPS for c in clips)
    by_status = ", ".join(f"{solves.count(s)} {s}" for s in STATUSES)
    return (f"{label}: {len(outcomes)} calls, {failed} failed; {len(clips)} dual clips, "
            f"{sum(clips)} kernel steps, at most {max(clips, default=0)} in one clip, "
            f"{capped} at the cap of {qp_core.DUAL_STEPS}; {len(solves)} QP solves: {by_status}; "
            f"{seconds:.3f} s")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", default="1-10", help="seeds as ranges, e.g. 1-10 or 1,3,5-7")
    parser.add_argument("--random", default="0-39", help="_random_case seeds, as ranges")
    args = parser.parse_args(argv)

    census = Census()
    census.install()
    seen: set[str] = set()
    every: list[int] = []
    solved: list[str] = []
    outcomes: list[str] = []
    spent = 0.0
    print(HEADER)
    try:
        for seed in _seeds(args.seeds):
            calls = workloads.call_list(args.workload, seed)
            built = None
            for k, call in enumerate(calls):
                key = json.dumps(call, sort_keys=True)
                if key in seen:
                    continue
                seen.add(key)
                if built is None:
                    built = workloads.build(calls)
                    clips, solves = census.take()
                    if clips or solves:
                        every += clips
                        solved += solves
                        print(f"{f'seed {seed} setup':<16} {'':<11} {_figures(clips, solves)}")
                t0 = time.perf_counter()
                answer = workloads.run(call, built[workloads.instance_key(call)])
                seconds = time.perf_counter() - t0
                spent += seconds
                clips, solves = census.take()
                every += clips
                solved += solves
                outcomes.append(_outcome(answer))
                print(f"{f'seed {seed} call {k}':<16} {call['variant']:<11} {_figures(clips, solves)} "
                      f"{seconds:>8.3f}  {outcomes[-1]}", flush=True)
        print(_total(f"{args.workload} seeds {args.seeds}", every, solved, spent, outcomes))

        every, solved, outcomes, spent = [], [], [], 0.0
        for seed in _seeds(args.random):
            case = _random_case(np.random.default_rng(seed))
            for tag in VARIANT_TAGS:
                t0 = time.perf_counter()
                try:
                    answer = run_ao_sbqp(case, SolverConfig(variant=Ao2Variant(tag=tag)))
                except (workloads.DriverError, workloads.Ao2Error) as exc:
                    answer = exc
                seconds = time.perf_counter() - t0
                spent += seconds
                clips, solves = census.take()
                every += clips
                solved += solves
                outcomes.append(_outcome(answer))
                print(f"{f'random {seed}':<16} {tag:<11} {_figures(clips, solves)} {seconds:>8.3f}  "
                      f"{outcomes[-1]}", flush=True)
        if outcomes:
            print(_total(f"_random_case seeds {args.random}", every, solved, spent, outcomes))
    finally:
        census.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
