"""Write the deterministic outputs of a fixed set of gridshed commands.

    python3 tools/reference_outputs.py OUT_DIR

Runs, in this process and against ./src:

* ``solve`` on stressed case30 (``scenario = stress``), adequate case30,
  the criterion-3 case5 shortfall config and adequate case5, once per
  variant, and once with mixed and ``--format json`` on stressed case30,
  the one run that writes ``result.json``;
* two ``solve`` runs that end in a ``DriverError``, so that the exit text
  and the best-iterate line are compared too: stressed case30 with mixed and
  ``outer_max_iters = 1`` (exit 3, the outer cap), and mixed on the
  ``_random_case`` draw of seed 6 (the generator of tests/seeded_cases.py),
  written out by ``serialize_case`` as configs/random6.m (exit 2, the
  switching stage proposes a rejected set again);
* ``oracle`` on the case5 shortfall config;
* ``check`` on case30 and on case5, and on case30 with the stressed30 config,
  whose scenario it checks as ``solve`` runs it;
* ``scenario`` with the stressed30 and shortfall5 configs, whose standard
  output is the ``serialize_case`` text of the case each ``solve`` runs.

Each command writes its files (``result.kv`` or ``result.json``,
``trace.csv``, ``oracle.csv``) under OUT_DIR/<name>/, with ``report.kv``
dropped since it holds wall-clock times, plus ``stdout.txt``: the exit code,
standard output without the ``wrote ...`` lines (they name OUT_DIR) and
standard error.  Every file is byte-stable, so ``diff -r`` between the
OUT_DIRs of two checkouts shows any change of result, and two runs of one
checkout give an empty diff.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from gridshed.cli_driver import main as gridshed  # noqa: E402  (first: it pins the BLAS threads)
from gridshed.grid_model import serialize_case  # noqa: E402
import numpy as np  # noqa: E402
from seeded_cases import _random_case  # noqa: E402

CASES = ROOT / "src" / "gridshed" / "cases"
VARIANTS = ("mixed", "relaxed-one", "relaxed-two")
# name: (case file, config text); shortfall5 is the criterion-3 scenario, and
# adequate30 and adequate5 are the two adequate cases of criterion 4
INSTANCES = {
    "stressed30": ("case30.m", "scenario = stress\n"),
    "adequate30": ("case30.m", ""),
    "shortfall5": ("case5.m", (
        "scenario.shift_mode = multiplicative\n"
        "scenario.pd_shift = 1.0\n"
        "scenario.qd_shift = 1.0\n"
        "scenario.pg_upper_scale = 0.5\n"
        "scenario.qg_bound_scale = 0.5\n"
        "scenario.rank_seed = 2\n"
        "scenario.demand_set_mode = loaded-buses\n"
    )),
    "adequate5": ("case5.m", ""),
}


def _run(target: Path, argv: list[str]) -> None:
    target.mkdir(parents=True, exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = gridshed(argv)
    (target / "report.kv").unlink(missing_ok=True)
    kept = [ln for ln in stdout.getvalue().splitlines(keepends=True) if not ln.startswith("wrote ")]
    (target / "stdout.txt").write_text(f"exit {code}\n" + "".join(kept) + stderr.getvalue())


def _solve(out: Path, name: str, case: Path, config: Path | None, tag: str, *options: str) -> None:
    target = out / f"solve-{name}"
    if config:
        options = ("--config", str(config), *options)
    _run(target, ["solve", "--case", str(case), *options, "--variant", tag, "--out-dir", str(target)])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/reference_outputs.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    configs = out / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    for name, (case, text) in INSTANCES.items():
        (configs / f"{name}.kv").write_text(text)
        for tag in VARIANTS:
            _solve(out, f"{name}-{tag}", CASES / case, configs / f"{name}.kv", tag)
    _solve(out, "stressed30-mixed-json", CASES / "case30.m", configs / "stressed30.kv", "mixed",
           "--format", "json")
    capped = configs / "stressed30-outer-cap.kv"
    capped.write_text(INSTANCES["stressed30"][1] + "outer_max_iters = 1\n")
    _solve(out, "stressed30-mixed-outer-cap", CASES / "case30.m", capped, "mixed")
    random6 = configs / "random6.m"
    random6.write_text(serialize_case(_random_case(np.random.default_rng(6))))
    _solve(out, "random6-mixed", random6, None, "mixed")
    target = out / "oracle-shortfall5"
    _run(target, ["oracle", "--case", str(CASES / "case5.m"),
                  "--config", str(configs / "shortfall5.kv"), "--out-dir", str(target)])
    for name in ("case30", "case5"):
        _run(out / f"check-{name}", ["check", "--case", str(CASES / f"{name}.m")])
    _run(out / "check-stressed30", ["check", "--case", str(CASES / "case30.m"),
                                    "--config", str(configs / "stressed30.kv")])
    for name in ("stressed30", "shortfall5"):
        case, _ = INSTANCES[name]
        _run(out / f"scenario-{name}", ["scenario", "--case", str(CASES / case),
                                        "--config", str(configs / f"{name}.kv")])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
