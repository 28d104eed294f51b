"""Per-layer spans and counts, recorded from outside the package.

The package imports functions by name (``from .energy import log_volume``),
so a wrapper must replace every module attribute that holds the original
function object, not only the defining one.  :class:`Tracer` does that for
the layer boundaries in :data:`SPANS`, keeps spans in memory, and puts every
original back on exit.  Nothing under ``src/`` is modified.

Span names are the per-layer metric names the benchmark reports; an
in-package instrumentation registry should reuse them.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import Counter

import scipy.sparse.linalg as spla

import liouvillelab as L
from liouvillelab import energy, flow, green, inequalities, mesh, solver

_MODULES = (L, mesh, energy, solver, green, flow, inequalities, spla)

# span name -> public callable at that layer boundary
SPANS = {
    "mesh.build": L.build_icosphere,
    "mesh.validate": L.TriangulatedSphere.__post_init__,
    "mesh.background": L.set_conformal_background,
    "mesh.assemble": L.assemble_operators,
    "mesh.band_field": L.random_band_field,
    "mesh.geodesic": L.geodesic_distances,
    "energy.functional": L.perturbed_functional,
    "energy.gradient": L.perturbed_gradient,
    "energy.log_volume": L.log_volume,
    "energy.liouville": L.liouville_energy,
    "solver.minimize": L.minimize_perturbed,
    "inequalities.global_mt": L.check_global_mt,
    "green.solve": L.solve_green,
    "green.fit": L.extract_A,
    "flow.run": L.run_flow,
    "sparse.factor": spla.splu,
    "sparse.lu_solve": None,  # SuperLU.solve, reached through the splu proxy
    "sparse.spsolve": spla.spsolve,
    "sparse.eigsh": spla.eigsh,
}

class _TracedLU:
    """Proxy for a SuperLU factor whose ``solve`` is a ``sparse.lu_solve`` span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer._wrap("sparse.lu_solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Installs the wrappers while active (``with Tracer() as t:``)."""

    def __init__(self):
        self.spans = []  # (name, depth, start, end, self_seconds)
        self.counts = Counter()
        self.op_windows = []  # (start, end) of each timed op
        self._stack = []  # [name, start, child_seconds]
        self._patched = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------
    def _wrap(self, name, fn, after=None):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans.append((name, len(stack), frame[1], end, duration - frame[2]))
            return result if after is None else after(result)

        return wrapper

    def _count_caller(self, key, fn):
        # Attribute each call to the library function that made it.
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f"{key}<-{sys._getframe(1).f_code.co_name}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that read counts off results -------------------------------
    def _after_splu(self, lu):
        self.counts["sparse.factor_nnz"] += lu.nnz
        return _TracedLU(lu, self)

    def _after_minimize(self, result):
        newton_rows = result.polish_steps
        self.counts["solver.descent_steps"] += len(result.iterations) - newton_rows - 1
        self.counts["solver.newton_steps"] += max(newton_rows - 1, 0)
        return result

    def _after_global_mt(self, report):
        self.counts["inequalities.ascent_trials"] += report.samples
        self.counts["inequalities.ascent_iterations"] += report.parameters["total_iterations"]
        return report

    def _after_flow(self, trace):
        self.counts["flow.steps_accepted"] += len(trace.times) - 1
        return trace

    def _spsolve_wrapper(self, fn):
        spsolve = self._wrap("sparse.spsolve", fn)
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == "flow.run":
                counts["flow.step_attempts"] += 1
            return spsolve(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------
    def _replace(self, original, replacement):
        found = False
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacement)
                    found = True
        if not found:
            raise RuntimeError(f"no module attribute holds {original!r}")

    def __enter__(self):
        after = {
            "sparse.factor": self._after_splu,
            "solver.minimize": self._after_minimize,
            "inequalities.global_mt": self._after_global_mt,
            "flow.run": self._after_flow,
        }
        try:
            for name, fn in SPANS.items():
                if name == "mesh.validate":
                    cls = L.TriangulatedSphere
                    self._patched.append((cls, "__post_init__", fn))
                    cls.__post_init__ = self._wrap(name, fn)
                elif name == "sparse.spsolve":
                    self._replace(fn, self._spsolve_wrapper(fn))
                elif fn is not None:
                    self._replace(fn, self._wrap(name, fn, after.get(name)))
            pc = L.project_constraint
            self._replace(pc, self._count_caller("project_constraint", pc))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def metrics(self, overhead_s: float) -> dict:
        """Per-layer metrics over everything recorded while active."""
        out = {}
        totals = {name: [0.0, 0.0, 0] for name in SPANS}
        for name, _depth, start, end, self_s in self.spans:
            row = totals[name]
            row[0] += end - start
            row[1] += self_s
            row[2] += 1
        for name, (total, self_s, calls) in totals.items():
            out[f"{name}_s"] = total
            out[f"{name}_self_s"] = self_s
            out[f"{name}_calls"] = calls
        c = self.counts
        out["solver.descent_steps"] = c["solver.descent_steps"]
        out["solver.newton_steps"] = c["solver.newton_steps"]
        # One projection per minimize call precedes the descent; every other
        # projection it makes is a line-search trial.
        minimize_calls = totals["solver.minimize"][2]
        trials = c["project_constraint<-minimize_perturbed"] - minimize_calls
        out["solver.line_search_accept_ratio"] = _ratio(
            "solver.line_search_accept_ratio", c["solver.descent_steps"], trials, minimize_calls
        )
        out["inequalities.ascent_trials"] = c["inequalities.ascent_trials"]
        out["inequalities.ascent_iterations"] = c["inequalities.ascent_iterations"]
        trials = c["project_constraint<-_ascend"] - c["inequalities.ascent_trials"]
        out["inequalities.line_search_accept_ratio"] = _ratio(
            "inequalities.line_search_accept_ratio",
            c["inequalities.ascent_iterations"],
            trials,
            totals["inequalities.global_mt"][2],
        )
        accepted, attempts = c["flow.steps_accepted"], c["flow.step_attempts"]
        out["flow.steps_accepted"] = accepted
        out["flow.steps_rejected"] = attempts - accepted
        out["flow.accept_ratio"] = _ratio(
            "flow.accept_ratio", accepted, attempts, totals["flow.run"][2]
        )
        out["sparse.factor_nnz"] = c["sparse.factor_nnz"]
        out["trace.overhead_s"] = overhead_s
        out["trace.uncovered_frac"] = self.uncovered_fraction()
        return out

    def uncovered_fraction(self) -> float:
        """Share of op time that no top-level layer span covers."""
        op_time = sum(end - start for start, end in self.op_windows)
        if op_time <= 0.0:
            return 0.0
        covered = 0.0
        for _name, depth, start, end, _self in self.spans:
            if depth == 0 and any(a <= start and end <= b for a, b in self.op_windows):
                covered += end - start
        return 1.0 - covered / op_time

    def write_spans(self, path, origin: float) -> None:
        """Write every span as CSV, times in seconds from ``origin``."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "depth", "start_s", "end_s", "self_s"])
            for name, depth, start, end, self_s in self.spans:
                writer.writerow(
                    [name, depth, f"{start - origin:.9f}", f"{end - origin:.9f}", f"{self_s:.9f}"]
                )


def _ratio(name, num, den, span_calls) -> float:
    """``num / den``, or 0 for a layer that did not run.

    The denominators count calls by call site; if the span ran but none
    were counted, the call sites have moved and the tracer must follow.
    """
    if span_calls == 0:
        return 0.0
    if den <= 0:
        raise RuntimeError(f"{name}: {span_calls} span calls but {den} counted trials")
    return num / den
