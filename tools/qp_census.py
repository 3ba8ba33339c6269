"""Count the QP kernel's work in each distinct call of a benchmark workload.

    python3 tools/qp_census.py --workload switch30 --seeds 1-10

Builds the calls of ``bench/workloads.py`` for each seed (the module is
imported, never changed), runs each distinct call once, in first-seen order,
in this process and against ./src, and wraps ``gridshed.qp_core._dual_clip``
(one run of the kernel: the row multipliers for one linear term),
``gridshed.qp_core._dual_step`` (one kernel step: a Newton direction and the
line search along it), ``gridshed.qp_core._farkas_margin`` (the closed-form
infeasibility test of an unconverged clip's multipliers) and
``gridshed.ao2_sbqp.solve_qp`` (one QP solve of the switching stage) from
outside the package.

One line per distinct call: the seed and index where it first appears, its
variant, its dual clips, their kernel steps, those steps by the size of their
working set (single/newton: one working row, whose step is closed form, or
two or more, whose step solves the Newton system; a Newton step may drop rows
down to one before it searches), the most steps one clip took,
how many clips ended at the step cap ``DUAL_STEPS``, its QP solves by status
(optimal/max-iterations/infeasible), the unconverged clips that a solve
tested, by test result (ray/last/none: certified by the ray of a step along
which the dual falls without bound, certified by the clip's last
multipliers, or certifying nothing), the smallest margin of a certificate
(``-`` for none), the call's seconds, and its outcome (answered, or the
error's first clause).  Kernel work during a
seed's set-up gets a line of its own.  Then the same figures for
``run_ao_sbqp`` with each variant on the ``_random_case`` draws of the given
``--random`` seeds (the parser tests' generator in tests/test_grid_model.py,
off the workloads, where cut rows pile up).  Totals follow each part.
"""

from __future__ import annotations

import argparse
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
from workload_digests import _seeds, walk  # noqa: E402


STATUSES = ("optimal", "max-iterations", "infeasible")
CERTIFICATES = ("ray", "last", "none")


class Census:
    """Wraps qp_core._dual_clip, qp_core._dual_step, qp_core._farkas_margin
    and ao2_sbqp.solve_qp; keeps the steps of each clip, the working rows of
    each step, the status of each QP solve, and per infeasibility test its
    certificate (CERTIFICATES) and margin."""

    def __init__(self):
        self.clips: list[int] = []
        self.rows: list[int] = []
        self.solves: list[str] = []
        self.tests: list[tuple[str, float]] = []
        self._lam = None    # the last clip's multipliers: a test of them is a test of "last"
        self._clip = qp_core._dual_clip
        self._step = qp_core._dual_step
        self._margin = qp_core._farkas_margin
        self._solve = ao2_sbqp.solve_qp

    def install(self):
        def clip(*args, **kwargs):
            self.clips.append(0)
            out = self._clip(*args, **kwargs)
            self._lam = out[1]
            return out

        def step(problem, box, lam, shifted, slack):
            self.clips[-1] += 1
            self.rows.append(int(((lam > 0.0) | (slack < 0.0)).sum()))
            return self._step(problem, box, lam, shifted, slack)

        def margin(problem, w):
            out = self._margin(problem, w)
            kind = "none" if out <= qp_core.SLACK_TOL else "last" if w is self._lam else "ray"
            self.tests.append((kind, out))
            return out

        def solve(*args, **kwargs):
            out = self._solve(*args, **kwargs)
            self.solves.append(out.status)
            return out

        qp_core._dual_clip = clip
        qp_core._dual_step = step
        qp_core._farkas_margin = margin
        ao2_sbqp.solve_qp = solve

    def uninstall(self):
        qp_core._dual_clip = self._clip
        qp_core._dual_step = self._step
        qp_core._farkas_margin = self._margin
        ao2_sbqp.solve_qp = self._solve

    def take(self) -> tuple[list[int], list[int], list[str], list[tuple[str, float]]]:
        clips, self.clips = self.clips, []
        rows, self.rows = self.rows, []
        solves, self.solves = self.solves, []
        tests, self.tests = self.tests, []
        return clips, rows, solves, tests


def _statuses(solves) -> str:
    """QP solves per status, in STATUSES order: optimal/max-iterations/infeasible."""
    return "/".join(str(solves.count(s)) for s in STATUSES)


def _certificates(tests) -> tuple[list[int], str]:
    """Tests per result, in CERTIFICATES order, and the smallest margin of a
    certificate ("-" when none certified)."""
    counts = [sum(kind == k for kind, _ in tests) for k in CERTIFICATES]
    least = min((m for kind, m in tests if kind != "none"), default=None)
    return counts, "-" if least is None else f"{least:.2e}"


def _single(rows) -> int:
    """Kernel steps with one working row."""
    return sum(r == 1 for r in rows)


def _figures(clips, rows, solves, tests) -> str:
    capped = sum(c >= qp_core.DUAL_STEPS for c in clips)
    counts, least = _certificates(tests)
    split = f"{_single(rows)}/{len(rows) - _single(rows)}"
    return (f"{len(clips):>6} {sum(clips):>7} {split:>13} {max(clips, default=0):>5} {capped:>4} "
            f"{_statuses(solves):>9} {'/'.join(map(str, counts)):>13} {least:>8}")


HEADER = (f"{'call':<16} {'variant':<11} {'clips':>6} {'steps':>7} {'single/newton':>13} {'most':>5} {'cap':>4} "
          f"{'o/m/i':>9} {'ray/last/none':>13} {'margin':>8} {'s':>8}  outcome")


def _total(label: str, clips, rows, solves, tests, seconds: float, outcomes) -> str:
    failed = sum(o != "answered" for o in outcomes)
    capped = sum(c >= qp_core.DUAL_STEPS for c in clips)
    by_status = ", ".join(f"{solves.count(s)} {s}" for s in STATUSES)
    (ray, last, none), least = _certificates(tests)
    return (f"{label}: {len(outcomes)} calls, {failed} failed; {len(clips)} dual clips, "
            f"{sum(clips)} kernel steps ({_single(rows)} single-row, {len(rows) - _single(rows)} Newton), "
            f"at most {max(clips, default=0)} in one clip, "
            f"{capped} at the cap of {qp_core.DUAL_STEPS}; {len(solves)} QP solves: {by_status}; "
            f"infeasible by {ray} ray and {last} last-multiplier certificates, "
            f"{none} unconverged clips certify nothing, smallest margin {least}; {seconds:.3f} s")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", default="1-10", help="seeds as ranges, e.g. 1-10 or 1,3,5-7")
    parser.add_argument("--random", default="0-39", help="_random_case seeds, as ranges")
    args = parser.parse_args(argv)

    census = Census()
    census.install()
    # the census figures of a part: clips, their steps' working rows, solves, tests
    part: tuple[list, ...] = ([], [], [], [])
    outcomes: list[str] = []
    spent = 0.0
    print(HEADER)
    try:
        for seed, k, call, _key, inst in walk(args.workload, _seeds(args.seeds)):
            if inst is None:
                continue
            # all the census holds here is set-up: the seed's build, if walk just ran it
            taken = census.take()
            if taken[0] or taken[2]:
                for acc, new in zip(part, taken):
                    acc += new
                print(f"{f'seed {seed} setup':<16} {'':<11} {_figures(*taken)}")
            t0 = time.perf_counter()
            answer = workloads.run(call, inst)
            seconds = time.perf_counter() - t0
            spent += seconds
            taken = census.take()
            for acc, new in zip(part, taken):
                acc += new
            outcomes.append(_outcome(answer))
            print(f"{f'seed {seed} call {k}':<16} {call['variant']:<11} {_figures(*taken)} "
                  f"{seconds:>8.3f}  {outcomes[-1]}", flush=True)
        print(_total(f"{args.workload} seeds {args.seeds}", *part, spent, outcomes))

        part, outcomes, spent = ([], [], [], []), [], 0.0
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
                taken = census.take()
                for acc, new in zip(part, taken):
                    acc += new
                outcomes.append(_outcome(answer))
                print(f"{f'random {seed}':<16} {tag:<11} {_figures(*taken)} {seconds:>8.3f}  "
                      f"{outcomes[-1]}", flush=True)
        if outcomes:
            print(_total(f"_random_case seeds {args.random}", *part, spent, outcomes))
    finally:
        census.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
