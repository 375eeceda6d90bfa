"""Correctness checks applied to every benchmarked simulation.

* the stored seed-0 reference: final fields of a seed-0 run may drift from it
  by at most ``n_steps · picard_tol`` relative to each field's size (at least
  1), the error each step's Picard stopping test can leave, summed;
* the 1D finite-difference oracle (coupled_1d): the relative L2 gap of the
  final u, stress and θ must stay below 0.05, acceptance criterion 06's bound.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from thermovisco.config import load_config, make_flow_rule
from thermovisco.discretization import eval_displacement, eval_stress, eval_temperature
from thermovisco.oracle import fd_run, make_grid

FIELDS = ("u", "v", "stress", "theta")
ORACLE_BOUND = 0.05


def final_fields(state) -> dict:
    return {key: np.array(getattr(state, key), dtype=float) for key in FIELDS}


def save_reference(path: Path, fields: dict, ledger_sha256: str) -> None:
    np.savez_compressed(path, ledger_sha256=np.array(ledger_sha256), **fields)


def load_reference(path: Path):
    with np.load(path) as data:
        return {key: data[key] for key in FIELDS}, str(data["ledger_sha256"])


def reference_drift(fields: dict, reference: dict) -> float:
    """max |Δ| over the final fields, each relative to max(1, max |reference|)."""
    worst = 0.0
    for key in FIELDS:
        new, ref = fields[key], reference[key]
        if new.shape != ref.shape:
            return float("inf")
        scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
        worst = max(worst, float(np.abs(new - ref).max(initial=0.0)) / scale)
    return worst


def drift_bound(n_steps: int, picard_tol: float) -> float:
    return n_steps * picard_tol


def _rel_l2(a, b, x) -> float:
    num = np.sqrt(np.trapezoid((a - b) ** 2, x))
    den = np.sqrt(np.trapezoid(b ** 2, x))
    return float(num / max(den, 1e-300))


class Oracle:
    """The finite-difference reference run of a 1D config, built from the
    same generated file the simulator reads (one node per Galerkin vertex)."""

    def __init__(self, cfg_path: Path):
        rc = load_config(cfg_path)
        if rc.dim != 1:
            raise ValueError("the finite-difference oracle is one-dimensional")
        data = rc.data

        def scalar(sampler, pick):
            return None if sampler is None else (lambda x: pick(sampler(x[:, None])))

        grid = make_grid(rc.cells[0] + 1, rc.extents[0], rc.dt,
                         u0=scalar(data.get("u0"), lambda a: a[:, 0]),
                         u1=scalar(data.get("u1"), lambda a: a[:, 0]),
                         T0=scalar(data.get("stress0"), lambda a: a[:, 0, 0]),
                         theta0=scalar(data["theta0"], lambda a: a))
        forcing = data.get("forcing")
        f_sampler = None if forcing is None else (lambda t, x: forcing(t, x[:, None])[:, 0])
        self.grid, _ = fd_run(grid, rc.lam + 2.0 * rc.mu, make_flow_rule(rc).scalar_eval,
                              rc.t_end, f_sampler=f_sampler)

    def gap(self, system, state) -> float:
        """Largest relative L2 gap of u, stress and θ to the oracle."""
        grid = self.grid
        x = grid.x
        mid = 0.5 * (x[:-1] + x[1:])
        return max(
            _rel_l2(eval_displacement(system, state.u, x[:, None])[:, 0], grid.u, x),
            _rel_l2(eval_stress(system, state.stress, mid[:, None])[:, 0],
                    0.5 * (grid.T[:-1] + grid.T[1:]), mid),
            _rel_l2(eval_temperature(system, state.theta, x[:, None]), grid.theta, x),
        )
