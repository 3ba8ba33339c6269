"""Run the benchmark over several seeds and write one BENCH_<tag>.json.

    python3 bench/collect.py --tag seed

For each workload of BENCHMARK.json: one untraced run of run_seconds per seed
(seeds 1, 2, ...), then the median, quartiles and spread ((q3 - q1) / median,
quartiles as statistics.quantiles(n=4) gives them) of each end-to-end metric
and of the unscaled solve_ms_p50 and setup_s, with the calibration kernel's
range; then one traced run on seed 1 for the per-layer numbers and the
per-call split.  Runs are sequential, one process at a time, from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = 10


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med}


def _run(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1], time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    args = parser.parse_args(argv)
    seconds = BENCH["run_seconds"]
    seeds = list(range(1, SEEDS + 1))
    doc = {"command": "python3 bench/collect.py " + " ".join(sys.argv[1:]),
           "seconds": seconds, "seeds": seeds, "machine": platform.machine(), "workloads": {}}
    for workload in (w["name"] for w in BENCH["workloads"]):
        runs = []
        for seed in seeds:
            result, lines, wall = _run(workload, seed, seconds, 0)
            unscaled = json.loads(next(ln for ln in lines if ln.startswith("unscaled: ")).split(": ", 1)[1])
            runs.append({"seed": seed, "wall_s": wall, **result, "unscaled": unscaled})
            print(f"{workload} seed {seed} ({wall:.1f} s): " + json.dumps(
                {k: v["value"] for k, v in result["metrics"].items()}) + " unscaled " + json.dumps(unscaled),
                flush=True)
        summary = {}
        for metric in BENCH["end_to_end"]:
            name = metric["name"]
            summary[name] = {"unit": metric["unit"], "bound": metric["bound"],
                             **_spread([r["metrics"][name]["value"] for r in runs])}
            print(f"  {name}: median {summary[name]['median']:.6g} "
                  f"spread {summary[name]['spread']:.4f} (bound {metric['bound']})", flush=True)
        unscaled = {name: _spread([r["unscaled"][name] for r in runs])
                    for name in ("solve_ms_p50", "setup_s", "kernel_ms")}
        for name, row in unscaled.items():
            print(f"  unscaled {name}: median {row['median']:.6g} spread {row['spread']:.4f} "
                  f"range {row['min']:.6g}-{row['max']:.6g}", flush=True)
        traced, traced_lines, _ = _run(workload, seeds[0], seconds, 1)
        doc["workloads"][workload] = {
            "end_to_end": summary,
            "unscaled": unscaled,
            "runs": runs,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_run": [ln for ln in traced_lines if not ln.startswith("call ")],
        }
        if "environment" not in doc:
            env_line = next(ln for ln in traced_lines if ln.startswith("environment: "))
            doc["environment"] = json.loads(env_line.split(": ", 1)[1])
    out = ROOT / "bench" / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
