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
"""

from __future__ import annotations

import json
import numpy as np
from dataclasses import dataclass
from typing import Optional

from .constitutive import ElasticityTensor, TruncationLevel
from .discretization import GalerkinSystem

LEDGER_COLUMNS = (
    "t", "kinetic", "elastic", "thermal", "entropy", "grad_tau_diss",
    "inelastic_diss", "entropic_diss", "work", "source_trunc",
    "energy_residual", "dissipation_margin", "theta_min", "positivity_ratio",
)

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


class LedgerBase:
    """Row bookkeeping and residual formulas shared by both solvers."""

    def __init__(self, dt: float):
        self.dt = dt
        self.rows = []
        self.invariant_violations = []

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
        e = row["kinetic"] + row["elastic"] + row["thermal"]
        e0 = first["kinetic"] + first["elastic"] + first["thermal"]
        energy_residual = abs((e - e0) - (row["work"] + row["source_trunc"]
                                          - row["inelastic_diss"]))
        lhs = (row["thermal"] - row["entropy"]) + row["kinetic"] + row["elastic"] \
            + row["grad_tau_diss"]
        rhs = row["work"] + (first["thermal"] - first["entropy"]) \
            + first["kinetic"] + first["elastic"]
        margin = rhs - lhs
        return {"energy_residual": energy_residual, "dissipation_margin": margin}

    def record_row(self, row: dict) -> dict:
        if self.rows:
            prev = self.rows[-1]
            for key in ("grad_tau_diss", "inelastic_diss", "entropic_diss",
                        "source_trunc", "entropic_src_trunc"):
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
        return self._residuals_for(self.row_at(t))["energy_residual"]

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
        first = self.rows[0]
        e0 = first["kinetic"] + first["elastic"] + first["thermal"]
        tol = scheme_tolerance(self.dt, scale=max(1.0, e0))
        worst = np.inf
        for r in self.rows:
            e = r["kinetic"] + r["elastic"] + r["thermal"]
            worst = min(worst, e0 + r["work"] + tol - e)
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
        energy_tol = scheme_tolerance(
            self.dt, scale=max(1.0, self.rows[0]["kinetic"]
                               + self.rows[0]["elastic"] + self.rows[0]["thermal"]))
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

    def __init__(self, sys: GalerkinSystem, elasticity: ElasticityTensor,
                 truncation: TruncationLevel, dt: float):
        super().__init__(dt)
        self.sys = sys
        self.elasticity = elasticity
        self.truncation = truncation
        self._theta0_min = None
        self._div_integral = 0.0
        self._prev_div_sup = 0.0

    # -- instantaneous integrals -------------------------------------------------

    def kinetic(self, state) -> float:
        return 0.5 * float(state.v @ (self.sys.M_u @ state.v))

    def elastic(self, state) -> float:
        from .solver import stress_quadratic_form
        return 0.5 * float(stress_quadratic_form(self.sys, self.elasticity,
                                                 state.stress).sum())

    def thermal(self, state) -> float:
        return self.sys.integrate_nodal(state.theta)

    def entropy(self, state) -> float:
        return self.sys.integrate_nodal(np.log(state.theta))

    def grad_tau_sq(self, state) -> float:
        tau = np.log(state.theta)
        return float(tau @ (self.sys.K_theta @ tau))

    def div_u_integral(self, state) -> float:
        # ∫ div u over the box is a pure boundary term of a zero-boundary
        # field: identically zero, kept to mirror the entropy structure.
        return float(np.ones(self.sys.n_temp) @ (self.sys.D @ state.u))

    def _base_row(self, state) -> dict:
        return {
            "t": state.t,
            "kinetic": self.kinetic(state),
            "elastic": self.elastic(state),
            "thermal": self.thermal(state),
            "entropy": self.entropy(state),
            "theta_min": float(state.theta.min()),
            "div_u_int": self.div_u_integral(state),
        }

    def record_initial(self, state) -> dict:
        row = self._base_row(state)
        self._theta0_min = row["theta_min"]
        self._prev_div_sup = self.sys.divergence_sup(state.v)
        row.update(grad_tau_diss=0.0, inelastic_diss=0.0, entropic_diss=0.0,
                   work=0.0, source_trunc=0.0, entropic_src_trunc=0.0,
                   div_sup=self._prev_div_sup, theta_floor=self._theta0_min)
        self._remember_centers(state)
        return self.record_row(row)

    def record_step(self, state, result) -> dict:
        """Accumulate one accepted step; ``result`` is a solver.StepResult."""
        prev = self.rows[-1]
        dt = self.dt
        vol = self.sys.mesh.cell_volume

        row = self._base_row(state)
        tau = np.log(state.theta)
        row["grad_tau_diss"] = prev["grad_tau_diss"] + dt * float(tau @ (self.sys.K_theta @ tau))

        # Source accumulators re-use exactly what the final heat solve
        # received, so the clamp deficit vanishes identically whenever the
        # clamp is inactive and the energy residual measures scheme error only.
        src_raw = result.heat.source_raw
        src_trunc = result.heat.source_trunc
        row["inelastic_diss"] = prev["inelastic_diss"] + dt * vol * float(src_raw.sum())
        row["source_trunc"] = prev["source_trunc"] + dt * vol * float(src_trunc.sum())

        # Entropic weights use the same lagged (start-of-step) temperature as
        # the source itself: 1/θ for the full dissipation, e^{−τ} with the
        # nodal-log interpolant for the clamped entropy source.
        row["entropic_diss"] = prev["entropic_diss"] + dt * vol * float(
            np.sum(src_raw / self._theta_centers_prev))
        row["entropic_src_trunc"] = prev["entropic_src_trunc"] + dt * vol * float(
            np.sum(np.exp(-self._tau_centers_prev) * src_trunc))

        row["work"] = prev["work"] + dt * float(result.f_load @ state.v)

        self._div_integral += 0.5 * dt * (self._prev_div_sup + result.div_sup)
        self._prev_div_sup = result.div_sup
        row["div_sup"] = result.div_sup
        row["theta_floor"] = self._theta0_min * float(np.exp(-self._div_integral))

        self._remember_centers(state)
        return self.record_row(row)

    def _remember_centers(self, state):
        self._theta_centers_prev = self.sys.cell_center_values(state.theta)
        self._tau_centers_prev = self.sys.cell_center_values(np.log(state.theta))
