"""Balance-law bookkeeping: energy, entropy, total dissipation, positivity.

The ledger keeps one row per accepted step, computed per block of steps,
holding every integral entering the three identities the scheme shadows:

  energy       E(t) = ½∫|u_t|² + ½∫ℂ⁻¹T:T + ∫θ changes only through the
               applied work and the clamp deficit of the dissipation source;
  entropy      ∫ln θ gains the entropic source e^{−τ}·clamp(G:T) plus the
               gradient term ∫|∇ ln θ|² (∫div u of the zero-boundary u
               vanishes identically, so it is not booked);
  dissipation  the combined inequality whose nonnegative margin equals the
               discarded entropic dissipation ∫∫G:T/θ up to O(dt).

τ = ln θ is the nodal-log interpolant, so ∫|∇τ|² is exactly τᵀKτ.  All
accumulated dissipation terms are monotone; violations are collected, not
raised, so adversarial runs can be inspected.

``BalanceLedger.summary`` is the one place a verdict is decided.  From the
rows it computes the worst dissipation margin, the worst positivity ratio, the
uniform-bound slack and the final residuals, each verdict's tolerance and
pass/fail, and ``passed`` as all of them; callers read its keys or ``rows``.

``BalanceLedger`` opens every ``ACCUMULATORS`` entry at zero, buffers the
accepted steps, at most ``BLOCK_BYTES`` (1 MiB) of them or a single step, and
adds a block's increments at once and integrates the θ floor.  The energy
functional (``energy_terms``, ``total_energy``) is defined here, once.
"""

from __future__ import annotations

import json
import math
import operator
import numpy as np

from .constitutive import ElasticityTensor
from .discretization import GalerkinSystem

LEDGER_COLUMNS = (
    "t", "kinetic", "elastic", "thermal", "entropy", "grad_tau_diss",
    "inelastic_diss", "entropic_diss", "work", "source_trunc",
    "energy_residual", "dissipation_margin", "theta_min", "positivity_ratio",
)

# Integrals over [0, t] that only grow: dissipation and the dissipation source.
MONOTONE_ACCUMULATORS = ("grad_tau_diss", "inelastic_diss", "entropic_diss",
                         "source_trunc", "entropic_src_trunc")
# Every running integral a step adds to; the applied work has either sign.
ACCUMULATORS = MONOTONE_ACCUMULATORS + ("work",)

# Bytes of step data a BalanceLedger holds before it computes the block's rows:
# 218 steps of the 100-cell 1D scenario, 5 at 48² and 9 at 10³.
BLOCK_BYTES = 1 << 20

# First-order scheme constant, calibrated once on the shipped smooth coupled
# scenario (observed energy residual / dt ≈ 0.054 at t = 0.5) and frozen with
# a ~4x safety factor.  Tolerances below scale as max(1e-10, C_SCHEME·dt).
C_SCHEME = 0.25


def scheme_tolerance(dt: float, scale: float = 1.0) -> float:
    return max(1e-10, C_SCHEME * dt * scale)


def _energy(row: dict) -> float:
    """E = kinetic + elastic + thermal, summed in that order."""
    return row["kinetic"] + row["elastic"] + row["thermal"]


def entropy_residual(first: dict, row: dict) -> float:
    """|∫ln θ − ∫ln θ₀ − entropic source − ∫∫|∇τ|²| at ``row``, ``first`` the ledger's
    first row: the defect of the integrated entropy identity."""
    if row["theta_min"] <= 0.0 or first["theta_min"] <= 0.0:
        raise ValueError("entropy residual undefined: nonpositive temperature")
    return abs(row["entropy"] - first["entropy"]
               - row["entropic_src_trunc"] - row["grad_tau_diss"])


def stress_quadratic_form(sys: GalerkinSystem, C: ElasticityTensor,
                          coeffs: np.ndarray) -> np.ndarray:
    """Cellwise vol·(ℂ⁻¹T̂):T̂ = vol·(|T̂|² − c·(tr T̂)²)/(2μ), c = λ/(dλ + 2μ), the
    closed form of isotropic ℂ⁻¹.
    Leading axes of ``coeffs`` are kept, so stacked coefficients give one row each."""
    dim = sys.mesh.dim
    blocks = sys.stress_blocks(coeffs)
    trace = blocks[..., :dim].sum(axis=-1)
    c = C.lam / (dim * C.lam + 2.0 * C.mu)
    return (np.einsum("...c,...c->...", blocks, blocks) - c * trace * trace) \
        * (sys.mesh.cell_volume / (2.0 * C.mu))


def _apply(op, x: np.ndarray) -> np.ndarray:
    """The linear map ``op`` of the vector ``x``, or of each row of ``x`` in contiguous
    rows, with which ``np.vecdot`` adds in the order of one vector's dot."""
    return np.ascontiguousarray(op(x.T).T)


def energy_terms(sys: GalerkinSystem, C: ElasticityTensor, v: np.ndarray,
                 stress: np.ndarray, theta: np.ndarray) -> dict:
    """Kinetic ½‖u_t‖², elastic ½∫ℂ⁻¹T:T and thermal ∫θ energy of the fields of
    one state, or of each row of fields stacked by row."""
    return {
        "kinetic": 0.5 * np.vecdot(v, _apply(sys.M_u.dot, v)),
        "elastic": 0.5 * stress_quadratic_form(sys, C, stress).sum(axis=-1),
        "thermal": sys.integrate_nodal(theta),
    }


def total_energy(sys: GalerkinSystem, C: ElasticityTensor, state) -> float:
    """½‖u_t‖² + ½∫ℂ⁻¹T:T + ∫θ of a solver state."""
    return float(_energy(energy_terms(sys, C, state.v, state.stress, state.theta)))


class BalanceLedger:
    """The rows, verdicts and output files of a run, fed by solver.run once per step.

    ``record_step`` copies what a step's row needs into one row of a block
    buffer of at most ``BLOCK_BYTES``.  The call that fills the block, or that
    takes step ``n_steps``, computes the rows of the whole block.
    """

    def __init__(self, sys: GalerkinSystem, elasticity: ElasticityTensor, dt: float,
                 n_steps: int):
        self.sys, self.elasticity, self.dt, self.n_steps = sys, elasticity, dt, n_steps
        self.rows, self.invariant_violations = [], []
        # A buffer row: t and div_sup, then v, f_load, stress, θ and both sources.
        n_cells = sys.mesh.n_cells
        self._splits = np.cumsum((2, sys.n_disp, sys.n_disp, sys.k_stress, sys.n_temp, n_cells))
        width = self._splits[-1] + n_cells
        self._block = np.empty((max(1, BLOCK_BYTES // (8 * width)), width))
        self._filled = 0
        self._theta = None      # θ of the last recorded state, the next step's start

    # -- accumulation -------------------------------------------------------

    def record_initial(self, state) -> None:
        """Record the initial row: accumulators and residuals at zero, θ floor = min θ₀."""
        self._theta = state.theta
        cols = self._integrals(state.t, state.v, state.stress, state.theta, np.log(state.theta))
        row = {key: float(x) for key, x in cols.items()}
        row.update(dict.fromkeys(ACCUMULATORS + ("div_integral", "energy_residual",
                                                 "dissipation_margin"), 0.0),
                   div_sup=self.sys.divergence_sup(state.v), theta_floor=row["theta_min"],
                   positivity_ratio=1.0)
        self.rows.append(row)

    def record_step(self, state, result) -> None:
        """Take one accepted step; ``result`` is its solver.StepResult."""
        np.concatenate(([state.t, result.div_sup], state.v, result.f_load, state.stress,
                        state.theta, result.heat.source_raw, result.heat.source_trunc),
                       out=self._block[self._filled])
        self._filled += 1
        if self._filled == len(self._block) or len(self.rows) + self._filled > self.n_steps:
            self._record_block()

    def _integrals(self, t, v, stress, theta, tau) -> dict:
        """The instantaneous columns of one state, or of states stacked by row."""
        return {"t": t, **energy_terms(self.sys, self.elasticity, v, stress, theta),
                "entropy": self.sys.integrate_nodal(tau), "theta_min": theta.min(axis=-1)}

    def _record_block(self):
        """Compute and record the rows of the buffered steps, and empty the block.

        Running sums continue from the last row by cumsum, which adds in the
        order prev + increment; ``div_integral`` is the trapezoid ∫‖div u_t‖_∞ of
        the θ floor min θ₀·exp(−∫‖div u_t‖_∞)."""
        block, self._filled = self._block[:self._filled], 0
        head, v, f_load, stress, theta, src_raw, src_trunc = np.split(block, self._splits, axis=1)
        t, div_sup = head.T
        # Row k is the state before step k of the block, row k + 1 the state after it.
        theta_all = np.vstack((self._theta, theta))
        self._theta = theta_all[-1].copy()
        tau_all = np.log(theta_all)
        tau = tau_all[1:]
        # Source accumulators re-use exactly what the final heat solve
        # received, so the clamp deficit vanishes identically whenever the
        # clamp is inactive and the energy residual measures scheme error only.
        # Entropic weights use the same lagged (start-of-step) temperature as
        # the source itself: 1/θ for the full dissipation, e^{−τ} with the
        # nodal-log interpolant for the clamped entropy source.
        inv_theta = 1.0 / _apply(self.sys.cell_center_values, theta_all[:-1])
        exp_neg_tau = np.exp(-_apply(self.sys.cell_center_values, tau_all[:-1]))
        dt, dt_vol = self.dt, self.dt * self.sys.mesh.cell_volume
        cols = self._integrals(t, v, stress, theta, tau)
        first, last = self.rows[0], self.rows[-1]
        div = np.append(last["div_sup"], div_sup)
        cols["div_sup"] = div[1:]
        increments = {
            "grad_tau_diss": dt * np.vecdot(tau, _apply(self.sys.K_theta.dot, tau)),
            "inelastic_diss": dt_vol * src_raw.sum(axis=1),
            "source_trunc": dt_vol * src_trunc.sum(axis=1),
            "entropic_diss": dt_vol * np.vecdot(src_raw, inv_theta),
            "entropic_src_trunc": dt_vol * np.vecdot(src_trunc, exp_neg_tau),
            "work": dt * np.vecdot(f_load, v),
            "div_integral": 0.5 * dt * (div[:-1] + div[1:]),
        }
        for key, inc in increments.items():
            cols[key] = np.cumsum(np.append(last[key], inc))[1:]
        # libm's exp, as one exp per step takes it: numpy's may differ in the last bit.
        cols["theta_floor"] = first["theta_min"] * np.array(
            [math.exp(-x) for x in cols["div_integral"].tolist()])
        acc = np.column_stack([cols[key] for key in MONOTONE_ACCUMULATORS])
        prev = np.vstack(([last[key] for key in MONOTONE_ACCUMULATORS], acc[:-1]))
        for i, j in zip(*np.nonzero(acc < prev - 1e-12 * np.maximum(1.0, np.abs(prev)))):
            self.invariant_violations.append(
                f"t={cols['t'][i]:g}: accumulator {MONOTONE_ACCUMULATORS[j]} decreased "
                f"({prev[i, j]:.6g} -> {acc[i, j]:.6g})")
        cols["energy_residual"] = abs((_energy(cols) - _energy(first)) - (
            cols["work"] + cols["source_trunc"] - cols["inelastic_diss"]))
        lhs = (cols["thermal"] - cols["entropy"]) + cols["kinetic"] + cols["elastic"] \
            + cols["grad_tau_diss"]
        rhs = cols["work"] + (first["thermal"] - first["entropy"]) \
            + first["kinetic"] + first["elastic"]
        cols["dissipation_margin"] = rhs - lhs
        floor = cols["theta_floor"]
        cols["positivity_ratio"] = np.divide(cols["theta_min"], floor,
                                             out=np.full(floor.shape, np.inf), where=floor > 0)
        self.rows += [dict(zip(cols, row)) for row in zip(*(x.tolist() for x in cols.values()))]

    # -- serialization ----------------------------------------------------------

    def to_csv(self, path=None) -> str:
        values = operator.itemgetter(*LEDGER_COLUMNS)   # every row value is a Python float
        lines = [",".join(LEDGER_COLUMNS)]
        lines += [",".join(map(repr, values(row))) for row in self.rows]
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def summary(self) -> dict:
        """The run's worst and final values, each verdict's tolerance, and the verdicts."""
        if not self.rows:
            raise ValueError("empty ledger")
        first, last = self.rows[0], self.rows[-1]
        e0 = _energy(first)
        energy_tol = scheme_tolerance(self.dt, scale=max(1.0, e0))
        margin_tol = scheme_tolerance(self.dt)
        margin = min(r["dissipation_margin"] for r in self.rows)
        ratio = min(r["positivity_ratio"] for r in self.rows)
        # E(t) ≤ E(0) + work(t) + tol at every row.
        slack = min(e0 + r["work"] + energy_tol - _energy(r) for r in self.rows)
        verdicts = {
            "energy_balance": last["energy_residual"] <= energy_tol,
            "dissipation_inequality": margin >= -margin_tol,
            "temperature_positivity": ratio >= 0.95,   # θ_min within 5% of its floor
            "uniform_bound": slack >= 0.0,
            "accumulators_monotone": not self.invariant_violations,
        }
        return {
            "t_final": last["t"],
            "steps": len(self.rows) - 1,
            "energy_residual": last["energy_residual"],
            "energy_residual_tol": energy_tol,
            "entropy_residual": entropy_residual(first, last),
            "dissipation_margin_min": margin,
            "dissipation_margin_tol": margin_tol,
            "entropic_dissipation": last["entropic_diss"],
            "truncation_deficit": last["inelastic_diss"] - last["source_trunc"],
            "theta_min": last["theta_min"],
            "positivity_worst_ratio": ratio,
            "uniform_bound_slack": slack,
            "invariant_violations": list(self.invariant_violations),
            "verdicts": {name: bool(ok) for name, ok in verdicts.items()},
            "passed": all(verdicts.values()),
        }

    def write_summary_json(self, path, **blocks) -> dict:
        """Write ``summary()``, with ``blocks`` added as keys, to ``path`` as JSON and return it."""
        summary = {**self.summary(), **blocks}
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return summary


# The benchmark's tracer (perfbench/tracing.py) wraps the ledger's methods
# under this name; delete the alias once it names BalanceLedger.
LedgerBase = BalanceLedger


def format_summary(s: dict) -> str:
    """Human-readable form of a ledger ``summary()``."""
    lines = [f"run summary @ t={s['t_final']:g} ({s['steps']} steps)"]
    for name, ok in s["verdicts"].items():
        lines.append(f"  [{'pass' if ok else 'FAIL'}] {name}")
    lines += [
        f"  energy residual      = {s['energy_residual']:.6g} (tol {s['energy_residual_tol']:.3g})",
        f"  entropy residual     = {s['entropy_residual']:.6g}",
        f"  dissipation margin   = {s['dissipation_margin_min']:.6g} (tol −{s['dissipation_margin_tol']:.3g})",
        f"  entropic dissipation = {s['entropic_dissipation']:.6g}",
        f"  clamp deficit        = {s['truncation_deficit']:.6g}",
        f"  theta min            = {s['theta_min']:.6g}"
        f" (worst positivity ratio {s['positivity_worst_ratio']:.4f})",
    ]
    for v in s["invariant_violations"]:
        lines.append(f"  ! {v}")
    return "\n".join(lines)
