"""Count the AO1 fits and the QP kernel's work in each call of a benchmark workload.

    python3 tools/census.py --workload switch30 --seeds 1-10 --random 0-39

Builds the calls of ``bench/workloads.py`` for each seed (the module is
imported, never changed) and runs each distinct call once, in first-seen
order, in this process and against ./src.  Then it runs ``run_ao_sbqp`` with
each variant on the ``_random_case`` draws of the ``--random`` seeds (the
generator of tests/seeded_cases.py, off the workloads, where cut rows pile
up).  From outside the package it wraps:

* ``gridshed.ao1_opf.least_squares``, the bounded least-squares fit that
  every AO1 solve runs once, the oracle's included.  Each fit reports its
  evaluations and derivative passes (``FitResult.nfev`` and ``njev``);
* ``gridshed.qp_core._dual_clip`` (one run of the kernel: the row
  multipliers for one linear term), ``gridshed.qp_core._dual_step`` (one
  kernel step: a Newton direction and the line search along it),
  ``gridshed.qp_core._farkas_margin`` (the closed-form infeasibility test of
  an unconverged clip's multipliers) and ``gridshed.ao2_sbqp.solve_qp`` (one
  QP solve of the switching stage).

One line per call: the seed and index where it first appears (or the random
seed), and its variant.  Then its AO1 fits, their function evaluations, the
most evaluations in one fit, their derivative (Jacobian) passes, how many
ended balanced (end max|F| at most ``TOL_FEAS``), stationary and at the
fit's iteration cap, the smallest and largest end max|F| (the balance
residual each fit stopped at), their seconds and the slowest one in ms.
Then its dual clips, their kernel steps, those steps by the size of their
working set (single/newton: one working row, whose step is closed form, or
two or more, whose step solves the Newton system; a Newton step may drop
rows down to one before it searches), the most steps one clip took, how many
clips ended at the step cap ``DUAL_STEPS``, its QP solves by status
(optimal/max-iterations/infeasible), the unconverged clips that a solve
tested, by result (ray/last/none: certified by the ray of a step along which
the dual falls without bound, certified by the clip's last multipliers, or
certifying nothing) and the smallest margin of a certificate (``-`` for
none).  Last come the call's seconds and its outcome (answered, or the
error's first clause).  Work during a seed's set-up (switch30 builds its AO1
starts there) gets a line of its own.  Totals for both layers follow each
part, with the fits' median and slowest time, how many took longer than
SLOW_MS, and the balanced fits by their derivative passes (``4: 170, 5: 10``:
170 balanced fits took 4 passes and 10 took 5).

Before the random part's totals come three shares per variant, over its
runs, against ``enumerate_oracle`` on each drawn case (run before the census
wraps anything, so its fits are not counted): the runs answered, the runs
answered at the oracle's optimum (the largest objective of a set it labels
feasible), and the runs that failed on a case where the oracle labels no set
feasible.  They are printed, not asserted: a run that fails on a case with a
balanced set, or answers below the optimum, is in none of the last two.
"""

from __future__ import annotations

import argparse
import re
import statistics
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "tests"))

import gridshed  # noqa: E402,F401  (first: it pins the BLAS threads before numpy loads)
import numpy as np  # noqa: E402

import workloads  # noqa: E402
from gridshed import ao1_opf, ao2_sbqp, qp_core  # noqa: E402
from gridshed.ao2_sbqp import VARIANT_TAGS, Ao2Error, Ao2Variant  # noqa: E402
from gridshed.cli_driver import DriverError, SolverConfig, enumerate_oracle, run_ao_sbqp  # noqa: E402
from seeded_cases import _random_case  # noqa: E402
from workload_digests import _seeds, walk  # noqa: E402

EXITS = ("balanced", "stationary", "cap")
STATUSES = ("optimal", "max-iterations", "infeasible")
CERTIFICATES = ("ray", "last", "none")
SLOW_MS = 50.0
# what the census keeps: per fit (nfev, exit, end max|F|, seconds, derivative
# passes), per clip its steps, per step its working rows, per QP solve its
# status, and per infeasibility test its certificate and margin
WORK = ("fits", "clips", "rows", "solves", "tests")


def _empty() -> dict[str, list]:
    return {kind: [] for kind in WORK}


class Census:
    """Wraps ao1_opf.least_squares, qp_core._dual_clip, qp_core._dual_step,
    qp_core._farkas_margin and ao2_sbqp.solve_qp while entered, and keeps
    their WORK until taken."""

    TARGETS = ((ao1_opf, "least_squares"), (qp_core, "_dual_clip"), (qp_core, "_dual_step"),
               (qp_core, "_farkas_margin"), (ao2_sbqp, "solve_qp"))

    def __init__(self):
        self.work = _empty()
        self._lam = None    # the last clip's multipliers: a test of them is a test of "last"
        self._saved = [getattr(module, name) for module, name in self.TARGETS]

    def __enter__(self) -> Census:
        fit, clip, step, margin, solve = self._saved

        def counted_fit(*args, **kwargs):
            t0 = time.perf_counter()
            out = fit(*args, **kwargs)
            self.work["fits"].append((int(out.nfev), out.status, float(np.max(np.abs(out.fun))),
                                      time.perf_counter() - t0, int(out.njev)))
            return out

        def counted_clip(*args, **kwargs):
            self.work["clips"].append(0)
            out = clip(*args, **kwargs)
            self._lam = out[1]
            return out

        def counted_step(problem, box, lam, shifted, slack):
            self.work["clips"][-1] += 1
            self.work["rows"].append(int(((lam > 0.0) | (slack < 0.0)).sum()))
            return step(problem, box, lam, shifted, slack)

        def counted_margin(problem, w):
            out = margin(problem, w)
            kind = "none" if out <= qp_core.SLACK_TOL else "last" if w is self._lam else "ray"
            self.work["tests"].append((kind, out))
            return out

        def counted_solve(*args, **kwargs):
            out = solve(*args, **kwargs)
            self.work["solves"].append(out.status)
            return out

        wrappers = (counted_fit, counted_clip, counted_step, counted_margin, counted_solve)
        for (module, name), wrapper in zip(self.TARGETS, wrappers):
            setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for (module, name), original in zip(self.TARGETS, self._saved):
            setattr(module, name, original)

    def take(self) -> dict[str, list]:
        work, self.work = self.work, _empty()
        return work


def _outcome(answer) -> str:
    if isinstance(answer, (DriverError, Ao2Error)):
        return f"{type(answer).__name__}: {re.split(r'[;:(]', str(answer))[0].strip()}"
    return "answered"


def _counts(keys, values) -> list[int]:
    return [sum(v == k for v in values) for k in keys]


def _per(keys, values) -> str:
    """Values per key, in keys order, as "a/b/c"."""
    return "/".join(map(str, _counts(keys, values)))


def _histogram(values) -> str:
    """How many times each value occurs, in rising order, as "4: 170, 5: 10"
    ("-" when there are none)."""
    counts = Counter(values)
    return ", ".join(f"{v}: {counts[v]}" for v in sorted(counts)) or "-"


def _least_margin(tests) -> str:
    """The smallest margin of a certificate, "-" when none certified."""
    least = min((m for kind, m in tests if kind != "none"), default=None)
    return "-" if least is None else f"{least:.2e}"


HEADER = (f"{'call':<16} {'variant':<11} {'fits':>5} {'nfev':>6} {'max_nfev':>8} {'jac':>6} "
          f"{'b/s/cap':>8} {'min|F|':>9} {'max|F|':>9} {'fit_s':>9} {'max_ms':>7} {'clips':>6} "
          f"{'steps':>7} {'single/newton':>13} {'max_steps':>9} {'cap':>4} {'o/m/i':>9} "
          f"{'ray/last/none':>13} {'margin':>8} {'s':>8}  outcome")


def _line(label: str, variant: str, work, seconds: str, outcome: str) -> str:
    fits, clips, rows = work["fits"], work["clips"], work["rows"]
    if fits:
        ends = [f[2] for f in fits]
        spread = f"{min(ends):>9.2e} {max(ends):>9.2e}"
        slowest = f"{1e3 * max(f[3] for f in fits):>7.1f}"
    else:
        spread, slowest = f"{'-':>9} {'-':>9}", f"{'-':>7}"
    single = rows.count(1)
    exits = _per(EXITS, [f[1] for f in fits])
    statuses = _per(STATUSES, work["solves"])
    results = _per(CERTIFICATES, [kind for kind, _ in work["tests"]])
    return (f"{label:<16} {variant:<11} {len(fits):>5} {sum(f[0] for f in fits):>6} "
            f"{max((f[0] for f in fits), default=0):>8} {sum(f[4] for f in fits):>6} {exits:>8} "
            f"{spread} {sum(f[3] for f in fits):>9.3f} {slowest} {len(clips):>6} {sum(clips):>7} "
            f"{f'{single}/{len(rows) - single}':>13} {max(clips, default=0):>9} "
            f"{sum(c >= qp_core.DUAL_STEPS for c in clips):>4} {statuses:>9} {results:>13} "
            f"{_least_margin(work['tests']):>8} {seconds:>8}  {outcome}")


def _tally(census: Census, calls) -> tuple[dict[str, list], list, float]:
    """Run each (where, what, variant, run) call, print its line and one for
    any work done between calls, and return the part's work, answers (a
    result or the error raised) and seconds."""
    part, answers, spent = _empty(), [], 0.0
    for where, what, variant, run in calls:
        # all the census holds here is set-up: the seed's build, if walk just ran it
        setup = census.take()
        if any(setup.values()):
            print(_line(f"{where} setup", "", setup, "-", ""))
        t0 = time.perf_counter()
        try:
            answer = run()
        except (DriverError, Ao2Error) as exc:
            answer = exc
        seconds = time.perf_counter() - t0
        spent += seconds
        work = census.take()
        for kind in WORK:
            part[kind] += setup[kind] + work[kind]
        answers.append(answer)
        print(_line(f"{where} {what}".strip(), variant, work, f"{seconds:.3f}", _outcome(answer)),
              flush=True)
    return part, answers, spent


def _totals(label: str, work, answers, seconds: float) -> list[str]:
    fits, clips, rows, solves, tests = (work[kind] for kind in WORK)
    failed = sum(_outcome(a) != "answered" for a in answers)
    lines = [f"{label}: {len(answers)} calls, {failed} failed; {seconds:.3f} s"]
    if fits:
        ends, times = [f[2] for f in fits], [f[3] for f in fits]
        exits = ", ".join(f"{n} {e}" for n, e in zip(_counts(EXITS, [f[1] for f in fits]), EXITS))
        lines += [f"AO1 fits {len(fits)}, {sum(f[0] for f in fits)} evaluations, "
                  f"{sum(f[4] for f in fits)} derivative passes; exits: {exits}; "
                  f"at most {max(f[0] for f in fits)} evaluations in one fit",
                  f"end max|F| from {min(ends):.2e} to {max(ends):.2e}; {sum(times):.3f} s in all, "
                  f"median {1e3 * statistics.median(times):.1f} ms, slowest {1e3 * max(times):.1f} ms; "
                  f"{sum(t > SLOW_MS / 1e3 for t in times)} took longer than {SLOW_MS:g} ms",
                  f"balanced fits by derivative passes: {_histogram(f[4] for f in fits if f[1] == 'balanced')}"]
    else:
        lines.append("no AO1 fit ran")
    single = rows.count(1)
    by_status = ", ".join(f"{solves.count(s)} {s}" for s in STATUSES)
    ray, last, none = _counts(CERTIFICATES, [kind for kind, _ in tests])
    lines.append(f"QP kernel: {len(clips)} dual clips, {sum(clips)} kernel steps ({single} single-row, "
                 f"{len(rows) - single} Newton), at most {max(clips, default=0)} in one clip, "
                 f"{sum(c >= qp_core.DUAL_STEPS for c in clips)} at the cap of {qp_core.DUAL_STEPS}; "
                 f"{len(solves)} QP solves: {by_status}; infeasible by {ray} ray and {last} "
                 f"last-multiplier certificates, {none} unconverged clips certify nothing, "
                 f"smallest margin {_least_margin(tests)}")
    return lines


def _random_calls(cases: list):
    for seed, case in cases:
        for tag in VARIANT_TAGS:
            yield f"random {seed}", "", tag, partial(
                run_ao_sbqp, case, SolverConfig(variant=Ao2Variant(tag=tag)))


def _optimum(case) -> float | None:
    """The largest objective of a set that enumerate_oracle labels feasible,
    None when it labels none."""
    return max((e.objective for e in enumerate_oracle(case) if e.feasible), default=None)


def _shares(optima: list, answers: list) -> list[str]:
    """Per variant, over the runs of _random_calls (each case's runs in
    VARIANT_TAGS order): the runs answered, answered at the oracle's optimum,
    and failed on a case with no balanced set."""
    balanced = sum(o is not None for o in optima)
    lines = [f"against enumerate_oracle: {balanced} of {len(optima)} cases have a balanced set"]
    for k, tag in enumerate(VARIANT_TAGS):
        runs = list(zip(optima, answers[k::len(VARIANT_TAGS)]))
        answered = [(o, a) for o, a in runs if _outcome(a) == "answered"]
        counts = (len(answered), sum(a.objective == o for o, a in answered),
                  sum(o is None for o, a in runs if _outcome(a) != "answered"))
        answered, optimal, unbalanced = (f"{n} ({n / len(runs):.3f})" for n in counts)
        lines.append(f"{tag}: {len(runs)} runs, answered {answered}, at the oracle's optimum {optimal}, "
                     f"failed on a case with no balanced set {unbalanced}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", default="1-10", type=_seeds, help="seeds as ranges, e.g. 1-10 or 1,3,5-7")
    parser.add_argument("--random", default="0-39", type=_seeds, help="_random_case seeds, as ranges")
    args = parser.parse_args(argv)

    calls = ((f"seed {seed}", f"call {k}", call["variant"], partial(workloads.run, call, inst))
             for seed, k, call, _key, inst in walk(args.workload, args.seeds)
             if inst is not None)
    cases = [(seed, _random_case(np.random.default_rng(seed))) for seed in args.random]
    optima = [_optimum(case) for _, case in cases]
    print(HEADER)
    with Census() as census:
        print("\n".join(_totals(f"{args.workload} seeds {args.seeds}", *_tally(census, calls))))
        work, answers, seconds = _tally(census, _random_calls(cases))
        print("\n".join(_shares(optima, answers)))
        print("\n".join(_totals(f"_random_case seeds {args.random}", work, answers, seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
