"""In-memory spans around calls into gridshed's layers, recorded from outside.

The tracer replaces a function where its caller looks it up (for example
``gridshed.ao1_opf.least_squares``) with a wrapper that records a span: id,
parent id, the benchmark call it belongs to, name, start, end, and a few
attributes read from the result.  Nothing inside the program changes.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from gridshed import ao1_opf, ao2_sbqp, cli_driver, grid_model, power_equations

# (module, attribute looked up by the caller, span name).  The span name is the
# layer that owns the code, then the function.
BOUNDARIES = [
    (cli_driver, "run_ao_sbqp", "cli_driver.run_ao_sbqp"),
    (cli_driver, "enumerate_oracle", "cli_driver.enumerate_oracle"),
    (cli_driver, "solve_ao1", "ao1_opf.solve_ao1"),
    (cli_driver, "run_ao2", "ao2_sbqp.run_ao2"),
    (cli_driver, "constraints_C", "power_equations.constraints_C"),
    (cli_driver, "network", "power_equations.network"),
    (ao1_opf, "solve_ao1", "ao1_opf.solve_ao1"),
    (ao1_opf, "least_squares", "ao1_opf.restore"),
    (ao1_opf, "jacobians", "power_equations.jacobians"),
    (ao1_opf, "objective_E", "power_equations.objective_E"),
    (ao1_opf, "network", "power_equations.network"),
    (ao2_sbqp, "run_ao2", "ao2_sbqp.run_ao2"),
    (ao2_sbqp, "build_subproblem", "ao2_sbqp.build_subproblem"),
    (ao2_sbqp, "solve_qp", "qp_core.solve_qp"),
    (ao2_sbqp, "jacobians", "power_equations.jacobians"),
    (ao2_sbqp, "hessian_Q", "power_equations.hessian_Q"),
    (ao2_sbqp, "constraints_C", "power_equations.constraints_C"),
    (ao2_sbqp, "network", "power_equations.network"),
    (power_equations, "network", "power_equations.network"),
    (power_equations, "build_admittance", "grid_model.build_admittance"),
    (grid_model, "parse_case", "grid_model.parse_case"),
    (grid_model, "apply_scenario", "grid_model.apply_scenario"),
]


def _attrs(name, args, kwargs, out):
    if name == "ao1_opf.solve_ao1":
        warm = kwargs.get("warm", args[2] if len(args) > 2 else None)
        return {"iterations": out.iterations, "status": out.status, "warm": warm is not None}
    if name == "ao1_opf.restore":
        return {"nfev": int(out.nfev)}
    if name == "qp_core.solve_qp":
        return {"status": out.status}
    if name == "ao2_sbqp.run_ao2":
        return {"rows": len(out[1].rows)}
    if name == "cli_driver.run_ao_sbqp":
        return {"outer": out.outer_iterations}
    if name == "cli_driver.enumerate_oracle":
        return {"configs": len(out)}
    return None


def _error_attrs(name, exc):
    attrs = {"error": type(exc).__name__}
    if name == "ao2_sbqp.run_ao2" and hasattr(exc, "trace"):
        attrs["rows"] = len(exc.trace.rows)
    if name == "cli_driver.run_ao_sbqp" and getattr(exc, "best", None) is not None:
        attrs["outer"] = exc.best.outer_iterations
    return attrs


class Tracer:
    """Spans kept as lists [id, parent, call, name, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.call = -1      # index of the benchmark call in progress; -1 in set-up

    def install(self):
        for module, attr, name in BOUNDARIES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.call, name, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = clock()
                span[6] = _error_attrs(name, exc)
                raise
            finally:
                stack.pop()
            span[5] = clock()
            span[6] = _attrs(name, args, kwargs, out)
            return out

        return traced

    def root(self, fn):
        """Run fn() under a root span for the current benchmark call."""
        return self._wrap(fn, "bench.call")()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[5] - s[4]
        return out

    def totals(self):
        """{name: [count, inclusive s, self s, [attrs...]]} over the benchmark calls."""
        agg = defaultdict(lambda: [0, 0.0, 0.0, []])
        for span, own in zip(self.spans, self.self_times()):
            if span[2] < 0:
                continue
            row = agg[span[3]]
            row[0] += 1
            row[1] += span[5] - span[4]
            row[2] += own
            if span[6] is not None:
                row[3].append(span[6])
        return agg

    def per_call(self):
        """{call: {name: inclusive s}} over the benchmark calls."""
        out = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            if span[2] >= 0:
                out[span[2]][span[3]] += span[5] - span[4]
        return out

    def setup_totals(self):
        agg = defaultdict(float)
        for span in self.spans:
            if span[2] == -1:
                agg[span[3]] += span[5] - span[4]
        return agg

    def write(self, path, header: str):
        own = self.self_times()
        with open(path, "w") as fh:
            fh.write(f"# {header}\n")
            fh.write("id,parent,call,name,start_ms,end_ms,self_ms,attrs\n")
            t0 = self.spans[0][4] if self.spans else 0.0
            for span, s in zip(self.spans, own):
                attrs = "" if span[6] is None else ";".join(f"{k}={v}" for k, v in span[6].items())
                fh.write(f"{span[0]},{span[1]},{span[2]},{span[3]},"
                         f"{1e3 * (span[4] - t0):.6f},{1e3 * (span[5] - t0):.6f},{1e3 * s:.6f},{attrs}\n")
