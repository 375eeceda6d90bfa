"""Span tracer for the traced benchmark run.

The tracer wraps thermovisco's public entry points at the names the program
looks them up by at call time (module globals and class attributes), so no
file of the program changes.  Each call becomes one span: name, start, end,
parent span and simulation id.  Spans are kept in memory and reduced to
per-layer totals, self times and counts after each simulation.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import scipy.sparse.linalg as spla

from thermovisco import cli, config, constitutive, diagnostics, discretization, solver

RUN = "solver.run"
SOLVE_SPANS = ("scipy.spsolve", "scipy.lu_solve")
FACTOR_SPANS = ("scipy.spsolve", "scipy.splu", "scipy.factorized")

# (owner, attribute, span name).  Span names are "<layer>.<function>", where
# the layer is the thermovisco module the function belongs to.
ENTRY_POINTS = (
    (cli, "load_config", "config.load_config"),
    (cli, "build_problem", "config.build_problem"),
    (config, "build_mesh", "discretization.build_mesh"),
    (config, "build_spaces", "discretization.build_spaces"),
    (cli, "solver_run", RUN),
    (solver, "verify_admissibility", "constitutive.verify_admissibility"),
    (solver, "initialize", "solver.initialize"),
    (solver, "step", "solver.step"),
    (solver, "divergence_of", "solver.divergence_of"),
    (solver, "heat_substep", "solver.heat_substep"),
    (solver, "momentum_substep", "solver.momentum_substep"),
    (solver, "stress_substep", "solver.stress_substep"),
    (discretization.GalerkinSystem, "advection_matrix", "discretization.advection_matrix"),
    (constitutive.FlowRule, "eval_mandel", "constitutive.eval_mandel"),
    (diagnostics.BalanceLedger, "record_step", "diagnostics.record_step"),
    (diagnostics.LedgerBase, "summary", "diagnostics.summary"),
    (diagnostics.LedgerBase, "to_csv", "diagnostics.to_csv"),
    (diagnostics.LedgerBase, "write_summary_json", "diagnostics.write_summary_json"),
    (cli, "write_snapshot", "cli.write_snapshot"),
    (spla, "spsolve", "scipy.spsolve"),
    (spla, "splu", "scipy.splu"),
    (spla, "factorized", "scipy.factorized"),
)


class _TracedFactor:
    """A SuperLU factor made during the solve, whose solves become spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call("scipy.lu_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index, sim id]
        self.steps = []         # (sim id, Picard iterations, stress inner iterations)
        self._stack = []
        self._first = {}        # sim id -> index of its first span
        self.sim = -1

    def call(self, name, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.sim]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _in_run(self) -> bool:
        return any(self.spans[i][0] == RUN for i in self._stack)

    def _wrap(self, name, fn):
        if name == "solver.step":
            def traced(*args, **kwargs):
                result = self.call(name, fn, args, kwargs)
                self.steps.append((self.sim, result.iterations, result.stress_inner_iters))
                return result
        elif name == "scipy.splu":
            def traced(*args, **kwargs):
                lu = self.call(name, fn, args, kwargs)
                return _TracedFactor(lu, self) if self._in_run() else lu
        elif name == "scipy.factorized":
            def traced(*args, **kwargs):
                solve = self.call(name, fn, args, kwargs)
                if not self._in_run():
                    return solve
                return lambda *a, **k: self.call("scipy.lu_solve", solve, a, k)
        else:
            def traced(*args, **kwargs):
                return self.call(name, fn, args, kwargs)
        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self, sim: int):
        """Trace every entry point while the block runs simulation ``sim``."""
        self.sim = sim
        self._first[sim] = len(self.spans)
        saved = []
        try:
            for owner, attr, name in ENTRY_POINTS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layers(self, sim: int) -> dict:
        """Per span name: total and self seconds, call durations, and the
        durations of the calls made inside the solve (``solver.run``)."""
        index = [i for i in range(self._first[sim], len(self.spans)) if self.spans[i][4] == sim]
        child = defaultdict(float)
        in_run = {}
        for i in index:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
            in_run[i] = name == RUN or in_run.get(parent, False)
        out = defaultdict(lambda: {"total": 0.0, "self": 0.0, "durations": [], "in_run": []})
        for i in index:
            name, start, end, _, _ = self.spans[i]
            rec = out[name]
            rec["total"] += end - start
            rec["self"] += end - start - child[i]
            rec["durations"].append(end - start)
            if in_run[i]:
                rec["in_run"].append(end - start)
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("sim\tindex\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent, sim) in enumerate(self.spans):
                fh.write(f"{sim}\t{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")

