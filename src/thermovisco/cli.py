"""Command-line entry point.

    thermovisco run <config.cfg>
    thermovisco check-constitutive <config.cfg> [--samples N] [--seed S]
    thermovisco convergence <config.cfg> --levels "cells:dt;..."

Exit codes: 0 all verdicts pass, 1 runtime or verdict failure, 2 config
error.  THERMOVISCO_OUTDIR overrides the configured output directory.

``convergence`` reruns the config once per ``cells:dt`` level, each on the
full discrete spaces of its mesh, and reports the pairwise differences of the
final fields at fixed probe points.

``run`` writes the final state as ``snapshot_final.npz`` and, every
``snapshot_stride`` steps, the state as ``snapshot_<step>.npz``: one format,
raw arrays exact to the bit.  Each snapshot is written by ``write_snapshot``
before the solve goes on.
"""

from __future__ import annotations

import argparse
import math
import os
import sys as _sys
import numpy as np
from dataclasses import asdict, replace
from pathlib import Path

from .config import (ConfigError, RunConfig, _float, _int_list, build_problem, check,
                     load_config, make_flow_rule, shipped_config_path)
from .constitutive import verify_admissibility
from .diagnostics import format_summary
from .discretization import eval_displacement, eval_stress, eval_temperature
from .solver import StepFailureError, run as solver_run

STATE_SCHEMA = "thermovisco-state-v1"


def _resolve_config(path_arg: str) -> Path:
    p = Path(path_arg)
    if p.is_file():
        return p
    shipped = shipped_config_path(path_arg)
    if shipped.is_file():
        return shipped
    raise ConfigError(f"config file not found: {path_arg}")


class SnapshotError(Exception):
    """A snapshot file could not be written."""


def write_snapshot(path, sys_, state) -> None:
    """Write ``state`` to the ``.npz`` file ``path``.

    It holds the coefficient vectors ``u``, ``v``, ``stress`` and ``theta``
    with ``t``, ``schema`` (STATE_SCHEMA), ``dim`` and ``cells``, as plain
    arrays that ``np.load(path, allow_pickle=False)`` reads back exactly.
    An OSError becomes a SnapshotError naming ``path``.
    """
    mesh = sys_.mesh
    try:
        np.savez(path, schema=STATE_SCHEMA, dim=mesh.dim, cells=mesh.cells, t=state.t,
                 u=state.u, v=state.v, stress=state.stress, theta=state.theta)
    except OSError as exc:
        raise SnapshotError(f"writing {path} failed: {exc}") from exc


def cmd_run(args) -> int:
    rc = load_config(_resolve_config(args.config))
    sys_, cfg = build_problem(rc)
    out = Path(os.environ.get("THERMOVISCO_OUTDIR", rc.output_dir))
    observers = []
    if rc.snapshot_stride > 0:
        def snap(i, t, state, result):
            if i % rc.snapshot_stride == 0:
                write_snapshot(out / f"snapshot_{i:06d}.npz", sys_, state)
        observers.append(snap)

    try:
        out.mkdir(parents=True, exist_ok=True)
        result = solver_run(sys_, cfg, observers=observers)
        ledger = result.ledger
        ledger.to_csv(out / rc.ledger_filename)
        write_snapshot(out / "snapshot_final.npz", sys_, result.state)
        summary = ledger.write_summary_json(out / "summary.json",
                                            solver_stats=asdict(result.stats))
    except (StepFailureError, ValueError, SnapshotError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot use output directory {out}: {exc}", file=_sys.stderr)
        return 1

    print(format_summary(summary))
    print(f"wrote {out / rc.ledger_filename}, snapshot_final.npz, summary.json")
    return 0 if summary["passed"] else 1


def cmd_check_constitutive(args) -> int:
    rc = load_config(_resolve_config(args.config))
    rule = make_flow_rule(rc)
    report = verify_admissibility(rule, sample_count=args.samples, rng_seed=args.seed)
    print(report)
    return 0 if report.passed else 1


def _parse_levels(arg: str, rc: RunConfig) -> list:
    """The runs of a ``--levels`` list: ``rc`` at each cells:dt level, checked like a config."""
    levels = []
    for chunk in arg.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(f"level {chunk!r}: expected cells:dt")
        try:
            levels.append(check(replace(rc, cells=_int_list(parts[0]), dt=_float(parts[1]))))
        except ValueError as exc:
            raise ConfigError(f"level {chunk!r}: {exc}") from exc
    if len(levels) < 2:
        raise ConfigError("need at least two levels, coarse to fine")
    # coarse -> fine: cell counts non-decreasing, dt non-increasing
    for a, b in zip(levels, levels[1:]):
        if math.prod(b.cells) < math.prod(a.cells) or b.dt > a.dt + 1e-15:
            raise ConfigError(
                f"levels must be ordered coarse to fine (cells non-decreasing, "
                f"dt non-increasing); got {a.cells}@dt={a.dt:g} before {b.cells}@dt={b.dt:g}")
    return levels


def _probe_points(dim, extents, per_axis=256):
    if dim == 1:
        x = np.linspace(0, extents[0], per_axis)
        return x[:, None]
    per = 48 if dim == 2 else 12
    axes = [np.linspace(0, extents[a], per) for a in range(dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def cmd_convergence(args) -> int:
    rc = load_config(_resolve_config(args.config))
    levels = _parse_levels(args.levels, rc)
    probes = _probe_points(rc.dim, rc.extents)

    fields, summaries = [], []
    for k, level_rc in enumerate(levels):
        sys_, cfg = build_problem(level_rc)
        try:
            result = solver_run(sys_, cfg)
        except (StepFailureError, ValueError) as exc:
            cells = "x".join(map(str, level_rc.cells))
            print(f"error: level {k} ({cells} cells, dt={level_rc.dt:g}) failed: {exc}",
                  file=_sys.stderr)
            return 1
        fields.append({
            "u": eval_displacement(sys_, result.state.u, probes),
            "stress": eval_stress(sys_, result.state.stress, probes),
            "theta": eval_temperature(sys_, result.state.theta, probes),
        })
        summaries.append(result.ledger.summary())

    weight = 1.0 / probes.shape[0]
    print(f"{'pair':>12} {'du':>12} {'dstress':>12} {'dtheta':>12} {'total':>12}")
    totals = []
    for i in range(1, len(fields)):
        diffs = {}
        for key in ("u", "stress", "theta"):
            d = fields[i][key] - fields[i - 1][key]
            diffs[key] = float(np.sqrt(weight * np.sum(d * d)))
        total = float(np.sqrt(sum(v ** 2 for v in diffs.values())))
        totals.append(total)
        print(f"{i - 1}->{i:>10} {diffs['u']:12.4e} {diffs['stress']:12.4e} "
              f"{diffs['theta']:12.4e} {total:12.4e}")
    for i, s in enumerate(summaries):
        failed = [name for name, ok in s["verdicts"].items() if not ok]
        print(f"level {i}: energy residual {s['energy_residual']:.4e}, "
              f"dissipation margin {s['dissipation_margin_min']:.4e}, "
              f"verdicts: {'FAIL ' + ', '.join(failed) if failed else 'pass'}")
    decreasing = all(b <= a * (1.0 + 1e-12) for a, b in zip(totals, totals[1:]))
    print(f"pairwise differences monotonically decreasing: {decreasing}")
    return 0 if decreasing and all(s["passed"] for s in summaries) else 1


def int_at_least(low: int):
    """The argparse type of an int >= ``low``; argparse names it ``integer`` in errors."""
    def integer(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermovisco",
        description="coupled thermo-visco-elastic simulator with balance diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write ledger/snapshots")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_chk = sub.add_parser("check-constitutive",
                           help="randomized admissibility checks of the flow rule")
    p_chk.add_argument("config")
    p_chk.add_argument("--samples", type=int_at_least(1), default=10_000)
    p_chk.add_argument("--seed", type=int_at_least(0), default=0)
    p_chk.set_defaults(func=cmd_check_constitutive)

    p_cnv = sub.add_parser("convergence", help="refinement study over cells and dt")
    p_cnv.add_argument("config")
    p_cnv.add_argument("--levels", required=True,
                       help='semicolon list "cells:dt", coarse to fine')
    p_cnv.set_defaults(func=cmd_convergence)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
