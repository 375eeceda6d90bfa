"""Balance-law bookkeeping: energy, entropy, total dissipation, positivity.

Per accepted step the ledger accumulates every integral entering the three
identities the scheme shadows:

  energy       E(t) = ½∫|u_t|² + ½∫ℂ⁻¹T:T + ∫θ changes only through the
               applied work and the clamp deficit of the dissipation source;
  entropy      ∫(ln θ + div u) gains the entropic source e^{−τ}·clamp(G:T)
               plus the gradient term ∫|∇ ln θ|²;
  dissipation  the combined inequality whose nonnegative margin equals the
               discarded entropic dissipation ∫∫G:T/θ up to O(dt).

τ = ln θ is the nodal-log interpolant, so ∫|∇τ|² is exactly τᵀKτ.  All
accumulated dissipation terms are monotone; violations are collected, not
raised, so adversarial runs can be inspected.

``LedgerBase`` owns the one accumulation path, shared by the Galerkin
``BalanceLedger`` and the finite-difference oracle's ``FDLedger``: it opens
the ledger with every ``ACCUMULATORS`` entry at zero, adds each step's
increments, and integrates the θ floor.  A ledger subclass only computes a
row's instantaneous integrals and the step's increments.  The energy
functional (``energy_terms``, ``total_energy``) is defined here, once.
"""

from __future__ import annotations

import json
import numpy as np
from dataclasses import dataclass
from typing import Optional

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

# First-order scheme constant, calibrated once on the shipped smooth coupled
# scenario (observed energy residual / dt ≈ 0.054 at t = 0.5) and frozen with
# a ~4x safety factor.  Tolerances below scale as max(1e-10, C_SCHEME·dt).
C_SCHEME = 0.25


def scheme_tolerance(dt: float, scale: float = 1.0) -> float:
    return max(1e-10, C_SCHEME * dt * scale)


@dataclass
class Verdict:
    passed: bool
    value: float
    tol: float
    detail: str = ""

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.detail} (value={self.value:.6g}, tol={self.tol:.3g})"


def _fmt(x: float) -> str:
    return repr(float(x))


def _energy(row: dict) -> float:
    """E = kinetic + elastic + thermal, summed in that order."""
    return row["kinetic"] + row["elastic"] + row["thermal"]


def stress_quadratic_form(sys: GalerkinSystem, C: ElasticityTensor,
                          coeffs: np.ndarray) -> np.ndarray:
    """Cellwise vol·(ℂ⁻¹T̂):T̂; zero padding restricts ℂ⁻¹ to a partial cell."""
    blocks = sys.stress_blocks(coeffs)
    cinv = C.inverse_apply_mandel(blocks, sys.mesh.dim)
    return np.einsum("ec,ec->e", cinv, blocks) * sys.mesh.cell_volume


def energy_terms(sys: GalerkinSystem, C: ElasticityTensor, state) -> dict:
    """Kinetic ½‖u_t‖², elastic ½∫ℂ⁻¹T:T and thermal ∫θ energy of a solver state."""
    return {
        "kinetic": 0.5 * float(state.v @ (sys.M_u @ state.v)),
        "elastic": 0.5 * float(stress_quadratic_form(sys, C, state.stress).sum()),
        "thermal": sys.integrate_nodal(state.theta),
    }


def total_energy(sys: GalerkinSystem, C: ElasticityTensor, state) -> float:
    """½‖u_t‖² + ½∫ℂ⁻¹T:T + ∫θ."""
    return _energy(energy_terms(sys, C, state))


class LedgerBase:
    """Row bookkeeping and residual formulas shared by both solvers."""

    def __init__(self, dt: float):
        self.dt = dt
        self.rows = []
        self.invariant_violations = []
        self._theta0_min = None
        self._div_integral = 0.0    # trapezoid ∫‖div u_t‖_∞ over the steps so far
        self._prev_div_sup = 0.0

    # -- accumulation -------------------------------------------------------

    def _start(self, row: dict, div_sup: float) -> dict:
        """Record the initial ``row``: accumulators at zero, θ floor = min θ₀."""
        self._theta0_min = row["theta_min"]
        self._prev_div_sup = div_sup
        row.update(dict.fromkeys(ACCUMULATORS, 0.0), div_sup=div_sup,
                   theta_floor=self._theta0_min)
        return self.record_row(row)

    def _advance(self, row: dict, increments: dict, div_sup: float) -> dict:
        """Record ``row`` one step on: each accumulator grows by its increment,
        and the floor min θ₀·exp(−∫‖div u_t‖_∞) takes the step's trapezoid."""
        prev = self.rows[-1]
        for key in ACCUMULATORS:
            row[key] = prev[key] + increments[key]
        self._div_integral += 0.5 * self.dt * (self._prev_div_sup + div_sup)
        self._prev_div_sup = div_sup
        row["div_sup"] = div_sup
        row["theta_floor"] = self._theta0_min * float(np.exp(-self._div_integral))
        return self.record_row(row)

    # -- row access ---------------------------------------------------------

    def row_at(self, t: float) -> dict:
        for row in self.rows:
            if abs(row["t"] - t) <= 1e-12 * max(1.0, abs(t)):
                return row
        raise KeyError(f"no ledger row at t={t!r}; ledger covers "
                       f"[{self.rows[0]['t'] if self.rows else '-'}, "
                       f"{self.rows[-1]['t'] if self.rows else '-'}] "
                       f"in {len(self.rows)} rows (missing steps?)")

    def final_row(self) -> dict:
        if not self.rows:
            raise ValueError("empty ledger")
        return self.rows[-1]

    # -- derived quantities ---------------------------------------------------

    def _residuals_for(self, row: dict) -> dict:
        first = self.rows[0]
        energy_residual = abs((_energy(row) - _energy(first))
                              - (row["work"] + row["source_trunc"] - row["inelastic_diss"]))
        lhs = (row["thermal"] - row["entropy"]) + row["kinetic"] + row["elastic"] \
            + row["grad_tau_diss"]
        rhs = row["work"] + (first["thermal"] - first["entropy"]) \
            + first["kinetic"] + first["elastic"]
        margin = rhs - lhs
        return {"energy_residual": energy_residual, "dissipation_margin": margin}

    def record_row(self, row: dict) -> dict:
        if self.rows:
            prev = self.rows[-1]
            for key in MONOTONE_ACCUMULATORS:
                if row[key] < prev[key] - 1e-12 * max(1.0, abs(prev[key])):
                    self.invariant_violations.append(
                        f"t={row['t']:g}: accumulator {key} decreased "
                        f"({prev[key]:.6g} -> {row[key]:.6g})")
        row.update(self._residuals_for(row) if self.rows else
                   {"energy_residual": 0.0, "dissipation_margin": 0.0})
        denom = row["theta_floor"]
        row["positivity_ratio"] = row["theta_min"] / denom if denom > 0 else np.inf
        self.rows.append(row)
        return row

    # -- residuals and verdicts -------------------------------------------------

    def energy_residual(self, t: float) -> float:
        """|ΔE − work − (clamped source − full dissipation)| at time t."""
        return self.row_at(t)["energy_residual"]

    def truncation_deficit(self, t: float) -> float:
        """∫∫G:T − ∫∫clamp(G:T) ≥ 0; zero while the clamp is inactive."""
        row = self.row_at(t)
        return row["inelastic_diss"] - row["source_trunc"]

    def entropy_residual(self, t: float) -> float:
        """Defect of the integrated entropy identity at time t."""
        row = self.row_at(t)
        first = self.rows[0]
        if row["theta_min"] <= 0.0 or first["theta_min"] <= 0.0:
            raise ValueError("entropy residual undefined: nonpositive temperature")
        lhs = (row["entropy"] + row["div_u_int"]) - (first["entropy"] + first["div_u_int"])
        return abs(lhs - row["entropic_src_trunc"] - row["grad_tau_diss"])

    def dissipation_inequality_check(self, t: Optional[float] = None) -> Verdict:
        """Margin of the combined energy/entropy inequality; must be ≥ −tol."""
        rows = self.rows if t is None else [self.row_at(t)]
        tol = scheme_tolerance(self.dt)
        worst = min(r["dissipation_margin"] for r in rows)
        return Verdict(worst >= -tol, worst, tol,
                       "dissipation margin (min over logged times)" if t is None
                       else f"dissipation margin at t={t:g}")

    def positivity_bound_check(self) -> Verdict:
        """worst θ_min(t) / (min θ₀ · exp(−∫‖div u_t‖_∞)) over the run."""
        if not self.rows:
            raise ValueError("empty state history")
        worst = min(r["positivity_ratio"] for r in self.rows)
        return Verdict(worst >= 0.95, worst, 0.95,
                       "temperature vs exponential lower bound (worst ratio)")

    def uniform_bound_check(self) -> Verdict:
        """E(t) ≤ E(0) + work(t) + tol at every logged time."""
        e0 = _energy(self.rows[0])
        tol = scheme_tolerance(self.dt, scale=max(1.0, e0))
        worst = np.inf
        for r in self.rows:
            worst = min(worst, e0 + r["work"] + tol - _energy(r))
        return Verdict(worst >= 0.0, worst, tol, "uniform energy bound slack (min)")

    # -- serialization ----------------------------------------------------------

    def to_csv(self, path=None) -> str:
        lines = [",".join(LEDGER_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(_fmt(row[c]) for c in LEDGER_COLUMNS))
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def summary(self) -> dict:
        last = self.final_row()
        diss = self.dissipation_inequality_check()
        pos = self.positivity_bound_check()
        bound = self.uniform_bound_check()
        energy_tol = scheme_tolerance(self.dt, scale=max(1.0, _energy(self.rows[0])))
        energy_ok = last["energy_residual"] <= energy_tol
        return {
            "t_final": last["t"],
            "steps": len(self.rows) - 1,
            "energy_residual": last["energy_residual"],
            "energy_residual_tol": energy_tol,
            "entropy_residual": self.entropy_residual(last["t"]),
            "dissipation_margin_min": diss.value,
            "dissipation_margin_tol": diss.tol,
            "entropic_dissipation": last["entropic_diss"],
            "truncation_deficit": last["inelastic_diss"] - last["source_trunc"],
            "theta_min": last["theta_min"],
            "positivity_worst_ratio": pos.value,
            "uniform_bound_slack": bound.value,
            "invariant_violations": list(self.invariant_violations),
            "verdicts": {
                "energy_balance": bool(energy_ok),
                "dissipation_inequality": bool(diss.passed),
                "temperature_positivity": bool(pos.passed),
                "uniform_bound": bool(bound.passed),
                "accumulators_monotone": not self.invariant_violations,
            },
            "passed": bool(energy_ok and diss.passed and pos.passed and bound.passed
                           and not self.invariant_violations),
        }

    def summary_text(self) -> str:
        return format_summary(self.summary())

    def write_summary_json(self, path) -> dict:
        """Write ``summary()`` to ``path`` as JSON and return it."""
        summary = self.summary()
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return summary


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


class BalanceLedger(LedgerBase):
    """Ledger bound to a Galerkin system; fed by solver.run per step."""

    def __init__(self, sys: GalerkinSystem, elasticity: ElasticityTensor, dt: float):
        super().__init__(dt)
        self.sys = sys
        self.elasticity = elasticity

    def _base_row(self, state, tau: np.ndarray) -> dict:
        row = {"t": state.t, **energy_terms(self.sys, self.elasticity, state)}
        row["entropy"] = self.sys.integrate_nodal(tau)
        row["theta_min"] = float(state.theta.min())
        # ∫ div u over the box is a pure boundary term of a zero-boundary
        # field: identically zero, kept to mirror the entropy structure.
        row["div_u_int"] = float(np.ones(self.sys.n_temp) @ (self.sys.D @ state.u))
        return row

    def record_initial(self, state) -> dict:
        tau = np.log(state.theta)
        row = self._base_row(state, tau)
        self._remember_centers(state, tau)
        return self._start(row, self.sys.divergence_sup(state.v))

    def record_step(self, state, result) -> dict:
        """Accumulate one accepted step; ``result`` is a solver.StepResult."""
        dt = self.dt
        vol = self.sys.mesh.cell_volume
        tau = np.log(state.theta)
        row = self._base_row(state, tau)

        # Source accumulators re-use exactly what the final heat solve
        # received, so the clamp deficit vanishes identically whenever the
        # clamp is inactive and the energy residual measures scheme error only.
        # Entropic weights use the same lagged (start-of-step) temperature as
        # the source itself: 1/θ for the full dissipation, e^{−τ} with the
        # nodal-log interpolant for the clamped entropy source.
        src_raw = result.heat.source_raw
        src_trunc = result.heat.source_trunc
        increments = {
            "grad_tau_diss": dt * float(tau @ (self.sys.K_theta @ tau)),
            "inelastic_diss": dt * vol * float(src_raw.sum()),
            "source_trunc": dt * vol * float(src_trunc.sum()),
            "entropic_diss": dt * vol * float(np.sum(src_raw / self._theta_centers_prev)),
            "entropic_src_trunc": dt * vol * float(
                np.sum(np.exp(-self._tau_centers_prev) * src_trunc)),
            "work": dt * float(result.f_load @ state.v),
        }
        self._remember_centers(state, tau)
        return self._advance(row, increments, result.div_sup)

    def _remember_centers(self, state, tau: np.ndarray):
        self._theta_centers_prev = self.sys.cell_center_values(state.theta)
        self._tau_centers_prev = self.sys.cell_center_values(tau)
