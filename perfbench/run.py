"""Benchmark of the thermovisco simulator, run the way a user runs it.

    python3 perfbench/run.py --workload coupled_1d --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  For the chosen workload the benchmark writes a config from
``--seed`` (see ``workloads.py``) and calls ``thermovisco.cli.main(["run",
cfg])`` in this process, one simulation after another: a closed loop with a
single caller, BLAS pinned to one thread.  It first runs the seed-0 config
once, untimed, as warm-up and to compare its final fields with the stored
reference, then repeats the seeded simulation until ``--seconds`` have
passed.

``--trace 0`` reports the end-to-end metrics, timed at the public
boundaries ``cmd_run`` crosses: the whole ``cli.main`` call (wall), its
return from ``build_problem`` (setup) and the ``solver_run`` call (solve),
with a step observer added to the ``observers`` argument for per-step times.
``--trace 1`` alternates untraced and traced simulations and reports the
per-layer metrics from the traced ones (see ``tracing.py``).

A simulation fails if it raises, exits non-zero, writes a ledger that is not
byte-identical to the other runs of its seed, drifts from the seed-0
reference, or (coupled_1d) strays from the finite-difference oracle.  The
last line printed is one JSON object with the keys correct, attempted,
failed and metrics; the metric names and units are the ones BENCHMARK.json
declares.  Outputs and spans go to ``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported; a run is one single-threaded caller.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("THERMOVISCO_OUTDIR", None)

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, amplitude_factor, write_config  # noqa: E402


def import_program():
    """Import thermovisco from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import thermovisco
        from thermovisco import cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import thermovisco from {SRC}: {exc}")
    if not Path(thermovisco.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: thermovisco was imported from {thermovisco.__file__}, "
                         f"not from {SRC}")
    return cli


@dataclass
class Sim:
    """One ``thermovisco run`` call and what it left behind."""

    code: int = -1
    error: str = ""
    start: float = 0.0
    built: float = 0.0
    solve_start: float = 0.0
    solve_end: float = 0.0
    end: float = 0.0
    step_stamps: list = field(default_factory=list)
    system: object = None
    solver_cfg: object = None
    result: object = None
    ledger_sha256: str = ""
    ledger_bytes: int = 0
    snapshot_bytes: int = 0
    traced: bool = False
    failures: list = field(default_factory=list)

    @property
    def setup_s(self):
        return self.built - self.start

    @property
    def solve_s(self):
        return self.solve_end - self.solve_start

    @property
    def wall_s(self):
        return self.end - self.start

    @property
    def step_s(self):
        s = self.step_stamps
        return [b - a for a, b in zip(s, s[1:])]


def simulate(cli, cfg_path: Path, outdir: Path) -> Sim:
    """Run ``thermovisco run cfg_path`` with timestamps at its public boundaries."""
    sim = Sim()
    build_problem, solver_run = cli.build_problem, cli.solver_run

    def timed_build(*args, **kwargs):
        problem = build_problem(*args, **kwargs)
        sim.built = time.perf_counter()
        sim.system, sim.solver_cfg = problem
        return problem

    def timed_run(*args, observers=(), **kwargs):
        def on_step(i, t, state, row):
            sim.step_stamps.append(time.perf_counter())
        sim.solve_start = time.perf_counter()
        sim.result = solver_run(*args, observers=[*observers, on_step], **kwargs)
        sim.solve_end = time.perf_counter()
        return sim.result

    cli.build_problem, cli.solver_run = timed_build, timed_run
    messages = io.StringIO()
    gc.collect()  # every simulation starts from a collected heap, as in a fresh process
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(messages):
            sim.start = time.perf_counter()
            sim.code = cli.main(["run", str(cfg_path)])
            sim.end = time.perf_counter()
    except Exception as exc:  # a failed simulation is counted, not fatal
        sim.error = f"{type(exc).__name__}: {exc}"
    finally:
        cli.build_problem, cli.solver_run = build_problem, solver_run
    if sim.code != 0:
        sim.failures.append(f"exit code {sim.code} {sim.error or messages.getvalue().strip()}")
        return sim
    ledger = (outdir / "ledger.csv").read_bytes()
    sim.ledger_sha256 = hashlib.sha256(ledger).hexdigest()
    sim.ledger_bytes = len(ledger)
    sim.snapshot_bytes = sum(p.stat().st_size for p in outdir.glob("snapshot_*.txt"))
    return sim


def environment() -> dict:
    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", key], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            out = ""
        caches[key] = int(out) if out.isdigit() else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cache_bytes": caches,
        "note": "every operator working set is under 10 MB, so no memory-bandwidth "
                "figure is claimed",
    }


def operator_bytes(system) -> int:
    """Bytes held by the assembled sparse operators of the Galerkin system."""
    total = 0
    for value in vars(system).values():
        if sp.issparse(value):
            for attr in ("data", "indices", "indptr", "row", "col", "offsets"):
                if hasattr(value, attr):
                    total += getattr(value, attr).nbytes
    return total


def percentile(values, p) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), p))


def tail_percentile(count: int):
    """Highest of p75/p90/p99/p99.9 with at least ten samples beyond it, else None."""
    for p in (99.9, 99.0, 90.0, 75.0):
        if count * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def end_to_end(sims, peak_rss_mb) -> dict:
    steps_ms = [1e3 * s for sim in sims for s in sim.step_s]
    return {
        "setup_s": statistics.median(s.setup_s for s in sims),
        "solve_s": statistics.median(s.solve_s for s in sims),
        "wall_s": statistics.median(s.wall_s for s in sims),
        "step_ms_p50": percentile(steps_ms, 50),
        "step_ms_p90": percentile(steps_ms, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, sim_id: int, sim: Sim) -> dict:
    """Per-layer metrics of one traced simulation."""
    from tracing import FACTOR_SPANS, RUN, SOLVE_SPANS

    layers = tracer.layers(sim_id)
    empty = {"total": 0.0, "self": 0.0, "durations": [], "in_run": []}

    def span(name):
        return layers.get(name, empty)

    solves = [d for n in SOLVE_SPANS for d in span(n)["in_run"]]
    steps = [(p, q) for s, p, q in tracer.steps if s == sim_id]
    picard = sum(p for p, _ in steps)
    inner = sum(q for _, q in steps)
    system = sim.system
    return {
        "config.load_s": span("config.load_config")["total"],
        "discretization.build_mesh_s": span("discretization.build_mesh")["total"],
        "discretization.build_spaces_s": span("discretization.build_spaces")["total"],
        "discretization.advection_s": span("discretization.advection_matrix")["total"],
        "discretization.advection_calls": len(span("discretization.advection_matrix")["durations"]),
        "discretization.operator_bytes": operator_bytes(system),
        "discretization.heat_nnz": (system.M_theta + system.K_theta).nnz,
        "constitutive.gate_s": span("constitutive.verify_admissibility")["total"],
        "constitutive.flow_eval_s": span("constitutive.eval_mandel")["total"],
        "constitutive.flow_eval_calls": len(span("constitutive.eval_mandel")["durations"]),
        "solver.init_s": span("solver.initialize")["total"],
        "solver.step_s": span("solver.step")["total"],
        "solver.step_self_s": span("solver.step")["self"],
        "solver.step_call_ms_p50": 1e3 * percentile(span("solver.step")["durations"], 50),
        "solver.heat_s": span("solver.heat_substep")["total"],
        "solver.heat_self_s": span("solver.heat_substep")["self"],
        "solver.heat_call_ms_p50": 1e3 * percentile(span("solver.heat_substep")["durations"], 50),
        "solver.linsolve_s": sum(solves),
        "solver.linsolve_calls": len(solves),
        "solver.linsolve_call_ms_p50": 1e3 * percentile(solves, 50) if solves else 0.0,
        "solver.factorizations": sum(len(span(n)["in_run"]) for n in FACTOR_SPANS),
        "solver.momentum_s": span("solver.momentum_substep")["total"],
        "solver.stress_s": span("solver.stress_substep")["total"],
        "solver.divergence_s": span("solver.divergence_of")["total"],
        "solver.picard_iters": picard,
        "solver.picard_per_step": picard / max(len(steps), 1),
        "solver.stress_inner_iters": inner,
        "solver.stress_inner_per_picard": inner / max(picard, 1),
        "diagnostics.record_s": span("diagnostics.record_step")["total"],
        "diagnostics.summary_s": span("diagnostics.summary")["total"],
        "diagnostics.summary_calls": len(span("diagnostics.summary")["durations"]),
        "cli.snapshot_s": span("cli.write_snapshot")["total"],
        "cli.snapshot_count": len(span("cli.write_snapshot")["durations"]),
        "cli.snapshot_bytes": sim.snapshot_bytes,
        "cli.ledger_csv_s": span("diagnostics.to_csv")["total"],
        "cli.ledger_bytes": sim.ledger_bytes,
        "cli.summary_json_s": span("diagnostics.write_summary_json")["total"],
        "trace.coverage": 1.0 - span(RUN)["self"] / span(RUN)["total"],
    }


def describe(name: str, values, unit: str) -> str:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    p = tail_percentile(len(values))
    tail = f"p{p:g} {percentile(values, p):.6g}" if p is not None else "tail n/a"
    return (f"  {name:<14} median {statistics.median(values):.6g} {unit}  {tail}  "
            f"(n={len(values)})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    cli = import_program()
    from checks import (ORACLE_BOUND, Oracle, drift_bound, final_fields, load_reference,
                        reference_drift)
    from tracing import Tracer

    workload = WORKLOADS[args.workload]
    out = OUT / workload.name
    simdir = out / "sim"
    shutil.rmtree(simdir, ignore_errors=True)
    ref_cfg = write_config(workload, 0, out / "seed_0.cfg", simdir)
    cfg = write_config(workload, args.seed, out / f"seed_{args.seed}.cfg", simdir)
    reference, reference_sha = load_reference(REFERENCE / f"{workload.name}.npz")

    def check_reference(sim):
        drift = reference_drift(final_fields(sim.result.state), reference)
        bound = drift_bound(sim.result.n_steps, sim.solver_cfg.picard_tol)
        if not drift <= bound:
            sim.failures.append(f"final fields drift {drift:.3e} from the seed-0 "
                                f"reference (bound {bound:.3e})")
        return drift

    env = environment()
    print(f"# thermovisco benchmark: workload {workload.name}, seed {args.seed} "
          f"(amplitude x{amplitude_factor(args.seed):.6f}), trace {args.trace}")
    print("# environment: " + json.dumps(env, sort_keys=True))

    warm = simulate(cli, ref_cfg, simdir)
    warm_drift = check_reference(warm) if not warm.failures else float("nan")
    warm.system = warm.result = None
    oracle = Oracle(cfg) if workload.oracle else None

    tracer = Tracer() if args.trace else None
    sims, layer_rows, oracle_gaps = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        sim_id = len(sims)
        sim_traced = tracer is not None and sim_id % 2 == 1
        with tracer.installed(sim_id) if sim_traced else contextlib.nullcontext():
            sim = simulate(cli, cfg, simdir)
        sim.traced = sim_traced
        sims.append(sim)
        if sim.failures:
            break
        if sim.ledger_sha256 != sims[0].ledger_sha256:
            sim.failures.append("ledger.csv differs from the first run of this seed")
        if args.seed == 0:
            check_reference(sim)
        if oracle is not None:
            gap = oracle.gap(sim.system, sim.result.state)
            oracle_gaps.append(gap)
            if not gap < ORACLE_BOUND:
                sim.failures.append(f"rel-L2 gap {gap:.4f} to the finite-difference "
                                    f"oracle (bound {ORACLE_BOUND})")
        if sim_traced and not sim.failures:
            layer_rows.append((sim, per_layer(tracer, sim_id, sim)))
        # Keep one simulation's objects alive at a time, so peak RSS is a
        # simulation's and not the benchmark's.
        sim.system = sim.result = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    every = [warm, *sims]
    failed = sum(1 for s in every if s.failures)
    for i, s in enumerate(every):
        for msg in s.failures:
            print(f"! simulation {i}: {msg}")
    untraced = [s for s in sims if not s.traced and not s.failures]

    print(f"# fingerprint: seed-0 ledger sha256 {warm.ledger_sha256} "
          f"({'equal to' if warm.ledger_sha256 == reference_sha else 'differs from'} "
          f"the stored one), final-field drift {warm_drift:.3e}")
    if sims:
        print(f"# fingerprint: seed {args.seed} ledger sha256 {sims[0].ledger_sha256}")
    if oracle_gaps:
        print(f"# oracle: worst rel-L2 gap {max(oracle_gaps):.4f} (bound {ORACLE_BOUND})")
    print(f"# runs_attempted {len(every)}  runs_failed {failed}")

    metrics = {}
    if untraced:
        print("# end-to-end (untraced simulations):")
        print(describe("setup_s", [s.setup_s for s in untraced], "s"))
        print(describe("solve_s", [s.solve_s for s in untraced], "s"))
        print(describe("wall_s", [s.wall_s for s in untraced], "s"))
        print(describe("step_ms", [1e3 * d for s in untraced for d in s.step_s], "ms"))
        print(f"  peak_rss_mb    {peak_rss_mb:.1f} MB")
        if not args.trace:
            metrics = end_to_end(untraced, peak_rss_mb)
    if args.trace and layer_rows and untraced:
        metrics = {k: statistics.median(row[k] for _, row in layer_rows) for k in layer_rows[0][1]}
        metrics["trace.overhead_s"] = (statistics.median(s.wall_s for s, _ in layer_rows)
                                       - statistics.median(s.wall_s for s in untraced))
        print(f"# per layer (median of {len(layer_rows)} traced simulations):")
        for key, value in metrics.items():
            print(f"  {key:<36} {value:.6g} {units.get(key, '?')}")
        tracer.write(out / "spans.tsv")

    complete = bool(metrics) and set(metrics) == set(units)
    if metrics and not complete:
        print(f"! metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
              f"undeclared {sorted(set(metrics) - set(units))}")
    correct = failed == 0 and complete
    line = {
        "correct": correct,
        "attempted": len(every),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }
    (out / f"result_seed_{args.seed}_trace_{args.trace}.json").write_text(json.dumps(
        {**line, "workload": workload.name, "seed": args.seed, "environment": env,
         "samples": {"setup_s": [s.setup_s for s in untraced],
                     "solve_s": [s.solve_s for s in untraced],
                     "wall_s": [s.wall_s for s in untraced]}}, indent=1))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
