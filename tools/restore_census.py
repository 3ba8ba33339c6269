"""Count the AO1 fits that each distinct call of a benchmark workload runs.

    python3 tools/restore_census.py --workload shed30 --seeds 1-10

Builds the calls of ``bench/workloads.py`` for each seed (the module is
imported, never changed), runs each distinct call once, in first-seen order,
in this process and against ./src, and wraps ``gridshed.ao1_opf.least_squares``
(the bounded least-squares fit that every AO1 solve runs once, the
oracle's included) from outside the package.  Each fit reports its
evaluations and derivative passes (``FitResult.nfev`` and ``njev``).

One line per distinct call: the seed and index where it first appears, its
variant, its AO1 fits, their function evaluations, the most evaluations in
one fit, their derivative (Jacobian) passes, how many ended balanced,
stationary and at the fit's iteration cap, the smallest and largest end
max|F| (the balance residual each fit stopped at), their seconds, the
slowest one in ms, and the call's outcome (answered, or the error's first
clause).  Fits during a seed's set-up (switch30 builds its AO1 starts there)
get a line of their own.  Totals follow: the evaluations, the derivative
passes, fits by exit (balanced means end max|F| at most ``TOL_FEAS``), the
most evaluations in one fit, the time spent, and how many took longer than
SLOW_MS.
"""

from __future__ import annotations

import argparse
import re
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import gridshed  # noqa: E402,F401  (first: it pins the BLAS threads before numpy loads)
import numpy as np  # noqa: E402

import workloads  # noqa: E402
from gridshed import ao1_opf  # noqa: E402
from gridshed.ao2_sbqp import Ao2Error  # noqa: E402
from gridshed.cli_driver import DriverError  # noqa: E402
from workload_digests import _seeds, walk  # noqa: E402

EXITS = ("balanced", "stationary", "cap")
SLOW_MS = 50.0


class Census:
    """Wraps ao1_opf.least_squares; keeps (nfev, exit, end max|F|, seconds,
    derivative passes) per fit."""

    def __init__(self):
        self.runs: list[tuple[int, str, float, float, int]] = []
        self._fit = ao1_opf.least_squares

    def install(self):
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            out = self._fit(*args, **kwargs)
            self.runs.append((int(out.nfev), out.status, float(np.max(np.abs(out.fun))),
                              time.perf_counter() - t0, int(out.njev)))
            return out

        ao1_opf.least_squares = counted

    def uninstall(self):
        ao1_opf.least_squares = self._fit

    def take(self) -> list[tuple[int, str, float, float, int]]:
        runs, self.runs = self.runs, []
        return runs


def _outcome(answer) -> str:
    if isinstance(answer, (DriverError, Ao2Error)):
        return f"{type(answer).__name__}: {re.split(r'[;:(]', str(answer))[0].strip()}"
    return "answered"


def _exits(runs) -> str:
    """Fits per exit, in EXITS order: balanced/stationary/cap."""
    return "/".join(str(sum(r[1] == e for r in runs)) for e in EXITS)


def _line(label: str, variant: str, runs, outcome: str) -> str:
    if runs:
        ends = [r[2] for r in runs]
        spread = f"{min(ends):>9.2e} {max(ends):>9.2e}"
        slowest = f"{1e3 * max(r[3] for r in runs):>7.1f}"
    else:
        spread = f"{'-':>9} {'-':>9}"
        slowest = f"{'-':>7}"
    most = max((r[0] for r in runs), default=0)
    return (f"{label:<14} {variant:<11} {len(runs):>5} {sum(r[0] for r in runs):>6} {most:>5} "
            f"{sum(r[4] for r in runs):>6} {_exits(runs):>8} {spread} "
            f"{sum(r[3] for r in runs):>9.3f} {slowest}  {outcome}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", default="1-10", help="seeds as ranges, e.g. 1-10 or 1,3,5-7")
    args = parser.parse_args(argv)

    census = Census()
    census.install()
    every: list[tuple[int, str, float, float, int]] = []
    outcomes: list[str] = []
    print(f"{'call':<14} {'variant':<11} {'fits':>5} {'nfev':>6} {'most':>5} {'jac':>6} "
          f"{'b/s/cap':>8} {'min|F|':>9} {'max|F|':>9} {'fit_s':>9} {'max_ms':>7}  outcome")
    try:
        for seed, k, call, _key, inst in walk(args.workload, _seeds(args.seeds)):
            if inst is None:
                continue
            # all the census holds here is set-up: the seed's build, if walk just ran it
            runs = census.take()
            if runs:
                every += runs
                print(_line(f"seed {seed} setup", "", runs, ""))
            answer = workloads.run(call, inst)
            runs = census.take()
            every += runs
            outcomes.append(_outcome(answer))
            print(_line(f"seed {seed} call {k}", call["variant"], runs, outcomes[-1]), flush=True)
    finally:
        census.uninstall()

    failed = sum(o != "answered" for o in outcomes)
    print(f"{args.workload} seeds {args.seeds}: {len(outcomes)} distinct calls, {failed} failed")
    if not every:
        print("no AO1 fit ran")
        return 0
    ends = [r[2] for r in every]
    seconds = [r[3] for r in every]
    exits = ", ".join(f"{sum(r[1] == e for r in every)} {e}" for e in EXITS)
    print(f"AO1 fits {len(every)}, {sum(r[0] for r in every)} evaluations, "
          f"{sum(r[4] for r in every)} derivative passes; exits: {exits}; "
          f"at most {max(r[0] for r in every)} evaluations in one fit")
    print(f"end max|F| from {min(ends):.2e} to {max(ends):.2e}; {sum(seconds):.3f} s in all, "
          f"median {1e3 * statistics.median(seconds):.1f} ms, slowest {1e3 * max(seconds):.1f} ms; "
          f"{sum(t > SLOW_MS / 1e3 for t in seconds)} took longer than {SLOW_MS:g} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
