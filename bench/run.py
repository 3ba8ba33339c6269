"""gridshed benchmark: one workload, one process, a closed loop with one client.

    python3 bench/run.py --workload shed30 --seed 1 --seconds 8 --trace 0

Run from the repository root; the program is imported from ./src.  Each call
starts only after the previous one returned.  The loop runs the workload's
call list (workloads.py) in whole passes until --seconds have passed, so every
run covers each call the same number of times; no call starts later than
LAST_START_S into the process.  Every answer is checked outside the timed
region.

--trace 0 prints the end-to-end metrics:

  setup_s        median over three fresh processes (this one and two more) of
                 the time to import gridshed, parse the cases, apply the
                 scenarios and build network() (switch30: also the AO1 starts)
  solve_ms_p50   median over all calls made (a call that fails counts at its
                 time to failure)
  served_ratio   mean over the answered distinct calls of sum(y*rank*pd) over
                 the instance's capacity bound (workloads.capacity_bound)
  peak_rss_mb    peak resident memory of this process

Times are scaled to a reference host speed with a calibration kernel that runs
between calls (see _make_kernel); the lines before the JSON give the unscaled
figures too, and the line starting "unscaled: " gives them as JSON.  Those
lines also give the median and tail of all calls, calls per second, the
failure ratio, the served objective and, on oracle5, the gap to the enumerated
optimum.  Those depend on the seed's few instances more than any regression
bound allows (a shed30 call takes 1 s or, failing, 20 s), so they are reported
but not bounded; the failure ratio and the oracle gap are also per-layer
metrics of the driver.

--trace 1 runs whole passes of calls under the tracer; during the first half of
--seconds each call also runs untraced, before the traced repetition on even
calls and after it on odd ones, which measures the tracing overhead on
identical calls without favouring either repetition with warm caches.  It
prints the per-layer metrics, the overhead and each distinct call's split
across layers, and writes the spans.

Per-call records, with each call's parameters, and spans go to .bench_out/.
The last line of standard output is one JSON object.

    python3 bench/run.py --call '<one "call" object from a calls file>'

re-runs a single call alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("shed30", "serve30", "oracle5", "switch30")
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
# No call starts later than this after the process started, so that a run
# whose calls all fail slowly on a slowed host still exits within 180 s.
LAST_START_S = 90.0
STARTED = time.perf_counter()
# Time of one calibration kernel run on the host that measured the committed
# baseline (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4) at its full speed.
KERNEL_REF_MS = 1.5


def _make_kernel():
    """A fixed slice of the solver's kind of work: a small dense solve, a
    trig-weighted matrix and a Python loop.  Returns a function that runs it
    once and returns the seconds it took.

    On a shared host the speed this process gets drifts by up to 2x, in
    bursts under a second long and in phases that last minutes.  The kernel
    runs between calls; a call's time is scaled by KERNEL_REF_MS over the
    mean of the kernel runs on either side of it.  The kernel does not change
    with the program, so scaled figures compare across runs and commits.
    Scaling by the fastest kernel run instead fails: a 1 s call cannot pick
    the quiet moments that the fastest of many 1.5 ms runs picks.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((62, 62))
    a = a @ a.T + 62.0 * np.eye(62)
    b = rng.standard_normal(62)
    theta = rng.uniform(-0.3, 0.3, 30)
    g = rng.standard_normal((30, 30))

    def kernel():
        t0 = time.perf_counter()
        for _ in range(20):
            np.linalg.solve(a, b)
            d = theta[:, None] - theta[None, :]
            float((g * np.cos(d) + g * np.sin(d)).sum())
            sum(i * 0.5 for i in range(200))
        return time.perf_counter() - t0

    return kernel


def _kernel_median(kernel, runs=5):
    return statistics.median(kernel() for _ in range(runs))


def _setup(workload, seed, traced=False):
    """Import gridshed and build the workload; returns (workloads, calls, built, tracer, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gridshed  # noqa: F401  (importing is part of set-up)
    import workloads
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    calls = workloads.call_list(workload, seed)
    built = workloads.build(calls)
    if tracer is not None:
        tracer.uninstall()
    return workloads, calls, built, tracer, time.perf_counter() - t0


def _environment() -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridshed").rglob("*")):
        if path.suffix in (".py", ".m"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def _timed(wl, call, inst, wrap=None):
    def fn():
        return wl.run(call, inst)
    t0 = time.perf_counter()
    answer = fn() if wrap is None else wrap(fn)
    return time.perf_counter() - t0, answer


def _setup_in_fresh_process(workload, seed) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, cwd=str(ROOT), env=os.environ.copy())
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["kernel_s"]


def _more(t0, seconds, done, pass_len) -> bool:
    """Keep calling until `seconds` have passed and the pass is whole."""
    if time.perf_counter() - STARTED > LAST_START_S:
        return False
    return time.perf_counter() - t0 < seconds or done % pass_len != 0


def _nearest_rank(values, q):
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _tail(ms):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond).  With 2 * TAIL_BEYOND calls or fewer
    that percentile is the median or below it, so the slowest call stands in
    (p100, none beyond); a failed solve, the slowest kind, then still shows."""
    s = sorted(ms)
    n = len(s)
    if n > 2 * TAIL_BEYOND:
        return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return s[-1], 100.0, 0


def _distinct(records):
    """{call key: (call, outcome)} in first-seen order.  The program is
    deterministic, so repetitions of a call share one outcome."""
    out = {}
    for call, _, outcome in records:
        out.setdefault(json.dumps(call, sort_keys=True), (call, outcome))
    return out


def _outcomes(records):
    """Counts over every call made; quality figures over the distinct calls."""
    distinct = list(_distinct(records).values())
    answered = [o for _, o in distinct if o.answered]
    gaps = []
    for call, o in distinct:
        if call["kind"] != "oracle-solve":
            continue
        if o.failed:
            gaps.append(1.0)    # a failed solve misses the whole optimum
        elif o.oracle_opt > 0:
            gaps.append((o.oracle_opt - o.objective) / o.oracle_opt)
        else:
            gaps.append(0.0)
    failed = sum(1 for _, o in distinct if o.failed)
    return {
        "attempted": len(records),
        "failed": sum(1 for _, _, o in records if o.failed),
        "wrong": sum(1 for _, _, o in records if o.answered and not o.check_ok),
        "distinct": len(distinct),
        "distinct_failed": failed,
        "fail_ratio": failed / len(distinct),
        "served_objective": statistics.fmean(o.objective for o in answered) if answered else 0.0,
        "served_ratio": statistics.fmean(o.ratio for o in answered) if answered else 0.0,
        "oracle_gap": statistics.fmean(gaps) if gaps else 0.0,
    }


def _write_calls(path, records):
    with open(path, "w") as fh:
        for i, (call, dt, o) in enumerate(records):
            fh.write(json.dumps({
                "i": i, "ms": 1e3 * dt, "answered": o.answered, "check_ok": o.check_ok,
                "objective": None if math.isnan(o.objective) else o.objective,
                "error": o.error, "call": call}) + "\n")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_metrics(agg, setup_agg, n_calls, outcomes, speed):
    """Per-layer figures; '/call' units are means over the traced calls, and
    times are scaled by the run's calibration speed."""
    def count(name):
        return agg[name][0] if name in agg else 0

    def incl_ms(name):
        return 1e3 * speed * agg[name][1] if name in agg else 0.0

    def self_ms(name):
        return 1e3 * speed * agg[name][2] if name in agg else 0.0

    def attrs(name):
        return agg[name][3] if name in agg else []

    def ratio(a, b):
        return a / b if b else 0.0

    per = 1.0 / n_calls
    ao1 = attrs("ao1_opf.solve_ao1")
    iterations = sum(a.get("iterations", 0) for a in ao1)
    warm = [a for a in ao1 if a.get("warm")]
    qp = attrs("qp_core.solve_qp")
    # each run_ao2 call also builds one base subproblem that it never solves
    solved_subproblems = count("ao2_sbqp.build_subproblem") - count("ao2_sbqp.run_ao2")
    return {
        "ao1_opf.restore_calls": _metric(count("ao1_opf.restore") * per, "count/call"),
        "ao1_opf.restore_ms": _metric(incl_ms("ao1_opf.restore") * per, "ms/call"),
        "ao1_opf.restore_nfev": _metric(
            sum(a["nfev"] for a in attrs("ao1_opf.restore")) * per, "count/call"),
        "ao1_opf.calls": _metric(len(ao1) * per, "count/call"),
        "ao1_opf.self_ms": _metric(self_ms("ao1_opf.solve_ao1") * per, "ms/call"),
        "ao1_opf.iterations": _metric(iterations * per, "count/call"),
        "ao1_opf.ms_per_iteration": _metric(
            ratio(incl_ms("ao1_opf.solve_ao1") - incl_ms("ao1_opf.restore"), iterations), "ms/iteration"),
        "ao1_opf.converged_ratio": _metric(
            ratio(sum(a.get("status") == "converged" for a in ao1), len(ao1)), "ratio"),
        "ao1_opf.warm_exit_ratio": _metric(
            ratio(sum(a.get("iterations") == 0 for a in warm), len(warm)), "ratio"),
        "power_equations.jacobians_calls": _metric(count("power_equations.jacobians") * per, "count/call"),
        "power_equations.jacobians_ms": _metric(incl_ms("power_equations.jacobians") * per, "ms/call"),
        "power_equations.network_calls": _metric(count("power_equations.network") * per, "count/call"),
        "power_equations.network_ms": _metric(incl_ms("power_equations.network") * per, "ms/call"),
        "power_equations.constraints_calls": _metric(
            count("power_equations.constraints_C") * per, "count/call"),
        "ao2_sbqp.calls": _metric(count("ao2_sbqp.run_ao2") * per, "count/call"),
        "ao2_sbqp.self_ms": _metric(self_ms("ao2_sbqp.run_ao2") * per, "ms/call"),
        "ao2_sbqp.build_calls": _metric(count("ao2_sbqp.build_subproblem") * per, "count/call"),
        "ao2_sbqp.build_ms": _metric(incl_ms("ao2_sbqp.build_subproblem") * per, "ms/call"),
        "ao2_sbqp.penalty_iterations": _metric(
            sum(a.get("rows", 0) for a in attrs("ao2_sbqp.run_ao2")) * per, "count/call"),
        "ao2_sbqp.fail_ratio": _metric(
            ratio(sum("error" in a for a in attrs("ao2_sbqp.run_ao2")), count("ao2_sbqp.run_ao2")), "ratio"),
        "qp_core.calls": _metric(len(qp) * per, "count/call"),
        "qp_core.ms": _metric(incl_ms("qp_core.solve_qp") * per, "ms/call"),
        "qp_core.optimal_ratio": _metric(
            ratio(sum(a.get("status") == "optimal" for a in qp), len(qp)), "ratio"),
        "qp_core.calls_per_subproblem": _metric(ratio(len(qp), solved_subproblems), "ratio"),
        "cli_driver.outer_iterations": _metric(
            sum(a.get("outer", 0) for a in attrs("cli_driver.run_ao_sbqp")) * per, "count/call"),
        "cli_driver.self_ms": _metric(
            (self_ms("cli_driver.run_ao_sbqp") + self_ms("cli_driver.enumerate_oracle")) * per, "ms/call"),
        "cli_driver.oracle_configs": _metric(
            sum(a.get("configs", 0) for a in attrs("cli_driver.enumerate_oracle")) * per, "count/call"),
        "cli_driver.fail_ratio": _metric(outcomes["fail_ratio"], "ratio"),
        "cli_driver.oracle_gap": _metric(outcomes["oracle_gap"], "ratio"),
        "grid_model.parse_ms": _metric(1e3 * speed * setup_agg.get("grid_model.parse_case", 0.0), "ms"),
        "grid_model.scenario_ms": _metric(
            1e3 * speed * setup_agg.get("grid_model.apply_scenario", 0.0), "ms"),
    }


def _print_header(calls):
    print("environment: " + json.dumps(_environment(), sort_keys=True))
    for k, call in enumerate(calls):
        print(f"call {k}: {json.dumps(call, sort_keys=True)}")


def _result_line(outcomes, metrics):
    return json.dumps({"correct": outcomes["wrong"] == 0, "attempted": outcomes["attempted"],
                       "failed": outcomes["failed"], "metrics": metrics})


def run_untraced(args):
    wl, calls, built, _, setup_here = _setup(args.workload, args.seed)
    kernel = _make_kernel()
    setups = [(setup_here, _kernel_median(kernel))]
    _print_header(calls)
    records, kernels = [], []     # kernels[i] runs just before call i
    t0 = time.perf_counter()
    while _more(t0, args.seconds, len(records), len(calls)):
        call = calls[len(records) % len(calls)]
        inst = built[wl.instance_key(call)]
        kernels.append(kernel())
        dt, answer = _timed(wl, call, inst)
        records.append((call, dt, wl.check(call, inst, answer)))
    kernels.append(kernel())
    elapsed = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [_setup_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    setup_s = statistics.median(s * 1e-3 * KERNEL_REF_MS / k for s, k in setups)
    distinct = _distinct(records)
    ms = [1e3 * dt for _, dt, _ in records]
    p50_raw = _nearest_rank(ms, 0.5)
    # each call at the speed measured on either side of it
    p50 = _nearest_rank([t * 2e-3 * KERNEL_REF_MS / (before + after)
                         for t, before, after in zip(ms, kernels, kernels[1:])], 0.5)
    tail, tail_pct, beyond = _tail(ms)
    slowest = "" if beyond else "; the slowest call, too few calls for ten beyond a percentile"
    out = _outcomes(records)
    OUT.mkdir(exist_ok=True)
    calls_path = OUT / f"{args.workload}-seed{args.seed}-calls.jsonl"
    _write_calls(calls_path, records)

    print(f"workload {args.workload}  seed {args.seed}  {len(records)} calls "
          f"({len(records) / len(calls):g} passes of {len(calls)}) in {elapsed:.3f} s")
    print(f"calibration kernel {1e3 * statistics.median(kernels):.4f} ms, median of {len(kernels)} "
          f"(reference {KERNEL_REF_MS} ms); timings marked * are scaled to the reference")
    print(f"setup_s            {setup_s:.6f} s*  (median of "
          f"{', '.join(f'{s:.4f} s with kernel {1e3 * k:.4f} ms' for s, k in setups)})")
    print(f"solve_ms_p50       {p50:.4f} ms*  (unscaled {p50_raw:.4f} ms, over all {len(ms)} calls)")
    print(f"solve_ms_tail      {tail:.4f} ms   (p{tail_pct:.2f} of {len(ms)} calls, {beyond} beyond{slowest})")
    print(f"solves_per_s       {len(records) / elapsed:.4f} 1/s")
    print(f"fail_ratio         {out['fail_ratio']:.6f}   ({out['distinct_failed']} of "
          f"{out['distinct']} distinct calls; {out['failed']} of {out['attempted']} calls made; "
          f"{out['wrong']} failed the answer check)")
    print(f"served_objective   {out['served_objective']:.6f}   (mean over answered distinct calls)")
    print(f"served_ratio       {out['served_ratio']:.6f}   (the same, each over its capacity bound)")
    if args.workload == "oracle5":
        print(f"oracle_gap         {out['oracle_gap']:.6f}")
    print(f"peak_rss_mb        {rss_mb:.3f} MB")
    print("unscaled: " + json.dumps({"solve_ms_p50": p50_raw, "setup_s": statistics.median(s for s, _ in setups),
                                     "kernel_ms": 1e3 * statistics.median(kernels)}))
    print(f"per-call records: {calls_path.relative_to(ROOT)}")
    for call, o in distinct.values():
        if o.failed:
            print(f"  failed: {json.dumps(call, sort_keys=True)}: {o.error}")
    print(_result_line(out, {
        "setup_s": _metric(setup_s, "s"),
        "solve_ms_p50": _metric(p50, "ms"),
        "served_ratio": _metric(out["served_ratio"], "ratio"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }))
    return 0


def run_traced(args):
    wl, calls, built, tracer, _ = _setup(args.workload, args.seed, traced=True)
    kernel = _make_kernel()
    _print_header(calls)
    records, pairs, kernels = [], [], []
    t0 = time.perf_counter()
    while _more(t0, args.seconds, len(records), len(calls)):
        call = calls[len(records) % len(calls)]
        inst = built[wl.instance_key(call)]
        kernels.append(kernel())
        paired = time.perf_counter() - t0 < args.seconds / 2.0
        untraced = None
        if paired and len(records) % 2 == 0:
            untraced, _ = _timed(wl, call, inst)
        tracer.call = len(records)
        tracer.install()
        dt, answer = _timed(wl, call, inst, tracer.root)
        tracer.uninstall()
        if paired and untraced is None:
            untraced, _ = _timed(wl, call, inst)
        records.append((call, dt, wl.check(call, inst, answer)))
        if paired:
            pairs.append((dt, untraced))
    diffs = [traced - untraced for traced, untraced in pairs]
    base = sum(untraced for _, untraced in pairs)
    overhead = (f"tracing overhead (traced - untraced time) over the same {len(pairs)} calls, "
                f"alternating which runs first: {1e3 * sum(diffs):.3f} ms in total "
                f"({100.0 * sum(diffs) / base:+.2f}%), median per call {1e3 * statistics.median(diffs):.4f} ms")
    out = _outcomes(records)
    speed = 1e-3 * KERNEL_REF_MS / statistics.median(kernels)
    metrics = _layer_metrics(tracer.totals(), tracer.setup_totals(), len(records), out, speed)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.csv"
    tracer.write(spans_path, f"workload {args.workload} seed {args.seed}; {overhead}")
    _write_calls(OUT / f"{args.workload}-seed{args.seed}-traced-calls.jsonl", records)

    print(f"workload {args.workload}  seed {args.seed}  traced {len(records)} calls "
          f"({len(records) / len(calls):g} passes), {len(tracer.spans)} spans")
    print(overhead)
    print(f"calibration kernel {1e3 * statistics.median(kernels):.4f} ms, median of {len(kernels)} "
          f"(reference {KERNEL_REF_MS} ms): per-layer times are scaled by {speed:.4f}, "
          f"the split below is unscaled")
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:.6f} {metric['unit']}")
    print("per-call split, inclusive ms, first traced repetition of each distinct call:")
    split = tracer.per_call()
    first = {}
    for i, (call, _, _) in enumerate(records):
        first.setdefault(json.dumps(call, sort_keys=True), i)
    for i in first.values():
        row = split[i]
        print(f"  call {i:3d} {records[i][0]['variant']:11s} total {1e3 * row['bench.call']:10.3f}"
              f"  ao1 {1e3 * row['ao1_opf.solve_ao1']:10.3f}  restore {1e3 * row['ao1_opf.restore']:10.3f}"
              f"  ao2 {1e3 * row['ao2_sbqp.run_ao2']:8.3f}  qp {1e3 * row['qp_core.solve_qp']:8.3f}"
              f"  oracle {1e3 * row['cli_driver.enumerate_oracle']:9.3f}")
    print(f"spans: {spans_path.relative_to(ROOT)}")
    print(_result_line(out, metrics))
    return 0


def run_one_call(call):
    sys.path.insert(0, str(SRC))
    import workloads as wl
    inst = wl.build([call])[wl.instance_key(call)]
    dt, answer = _timed(wl, call, inst)
    o = wl.check(call, inst, answer)
    print(json.dumps({"ms": 1e3 * dt, "answered": o.answered, "check_ok": o.check_ok,
                      "objective": None if math.isnan(o.objective) else o.objective,
                      "error": o.error}))
    return 0 if o.check_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--call", help="re-run one call given as JSON")
    args = parser.parse_args(argv)
    if args.call is None and args.workload is None:
        parser.error("--workload is required")

    # one BLAS thread, set before numpy is first imported
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    if not (SRC / "gridshed" / "__init__.py").is_file():
        print(f"error: no gridshed sources under {SRC}", file=sys.stderr)
        return 2
    if args.call is not None:
        return run_one_call(json.loads(args.call))
    if args.setup_only:
        *_, seconds = _setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds, "kernel_s": _kernel_median(_make_kernel())}))
        return 0
    return run_traced(args) if args.trace else run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
