"""Time stepping for the coupled displacement / stress / temperature system.

One step advances, inside a Picard loop that mirrors the fixed-point
construction of the continuous problem:

  1. implicit heat solve for θ, with the advection coefficient div(u_t) and
     the clamped dissipation source frozen at the current mechanical iterate,
     by conjugate gradients preconditioned with the exact inverse of
     M_θ + dt·K_θ (one SuperLU factor per run in 1D, per-axis fast
     diagonalization in 2D/3D, see ``GalerkinSystem``),
  2. momentum update for the velocity with that θ,
  3. implicit update for the stress with the new strain rate, in closed form,

iterated until the successive-iterate residual drops below ``picard_tol``.
Every solve of the loop starts from the best iterate in hand: from the
second step on, the loop starts from the linear predictor 2·xₙ − xₙ₋₁ of
(u_t, stress, θ); each heat CG starts from the current θ iterate, and the
``mroz_saturating`` Newton from the current stress iterate.  What the heat
solves take from θ_old alone is computed once per step (``heat_constants``).
The scheme is first order in time.  For a monotone flow rule the stress
update is solvable for every dt; only heat positivity or Picard divergence
can reject a step.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

from .constitutive import ElasticityTensor, FlowRule, TruncationLevel, truncate, verify_admissibility
from .diagnostics import BalanceLedger, total_energy
from .discretization import GalerkinSystem, pcg, project_displacement, project_stress


class StepFailureError(RuntimeError):
    """A time step could not be completed."""


class PositivityError(StepFailureError):
    """Temperature lost strict positivity.

    For admissible flow rules the discrete scheme inherits the maximum
    principle bound θ(t) ≥ min θ₀ · exp(−∫‖div u_t‖_∞); tripping this error
    indicates too large a step or an inadmissible rule, never silent data.
    """


class PicardConvergenceError(StepFailureError):
    """The outer fixed-point loop did not reach tolerance."""

    def __init__(self, message, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)


@dataclass
class SimState:
    """Coefficient vectors of (u, u_t, stress, θ) at one time instant."""

    t: float
    u: np.ndarray
    v: np.ndarray
    stress: np.ndarray
    theta: np.ndarray

    def freeze(self) -> "SimState":
        for arr in (self.u, self.v, self.stress, self.theta):
            arr.setflags(write=False)
        return self


@dataclass
class SolverConfig:
    """Time grid, material laws, data samplers and iteration controls.

    Samplers: ``u0``, ``u1`` map points (m,d) -> (m,d); ``stress0`` maps
    points -> symmetric matrices (m,d,d); ``theta0`` maps points -> (m,)
    and must be strictly positive; ``forcing`` maps (t, points) -> (m,d).
    ``truncation`` is a TruncationLevel, or "auto" to pick a height of
    10 · (initial total energy) / |Ω| that stays inactive in benign runs.
    """

    dt: float
    t_end: float
    elasticity: ElasticityTensor = field(default_factory=lambda: ElasticityTensor(0.0, 0.5))
    flow_rule: FlowRule = field(default_factory=FlowRule.linear)
    truncation: Union[TruncationLevel, str] = "auto"
    picard_tol: float = 1e-10
    picard_max_iters: int = 50
    forcing: Optional[Callable] = None
    u0: Optional[Callable] = None
    u1: Optional[Callable] = None
    stress0: Optional[Callable] = None
    theta0: Callable = None
    check_flow_rule: bool = True
    admissibility_samples: int = 2000
    admissibility_seed: int = 0

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.t_end >= self.dt:
            raise ValueError(f"t_end must be at least one step, got {self.t_end} < dt={self.dt}")
        if not self.picard_tol > 0.0:
            raise ValueError("picard_tol must be positive")
        if self.picard_max_iters < 1:
            raise ValueError("picard_max_iters must be >= 1")
        if self.theta0 is None:
            raise ValueError("theta0 sampler is required")
        if isinstance(self.truncation, str) and self.truncation != "auto":
            raise ValueError(f"truncation must be a TruncationLevel or 'auto', got {self.truncation!r}")


def divergence_of(sys: GalerkinSystem, v: np.ndarray) -> np.ndarray:
    """div u_t at the Gauss points of every cell, shape (n_cells, n_gauss)."""
    return sys.divergence_corners(v) @ sys._gauss_N.T


@dataclass
class HeatResult:
    theta: np.ndarray
    source_raw: np.ndarray      # cellwise G(θ_old, T):T before clamping
    source_trunc: np.ndarray    # cellwise clamped source fed to the solve
    cg_iters: int               # preconditioned CG iterations
    fallback: bool              # CG gave up and a direct solve ran instead


@dataclass
class StepResult:
    state: SimState
    iterations: int
    residual_history: list
    div_sup: float
    heat: HeatResult
    f_load: np.ndarray
    stress_inner_iters: int
    heat_cg_iters: int          # summed over the step's Picard iterations
    heat_fallbacks: int


def initialize(sys: GalerkinSystem, cfg: SolverConfig) -> SimState:
    """Project the initial data onto the discrete spaces.

    Displacement, velocity and stress are L² projections; the temperature
    is interpolated at the nodes and must be strictly positive there.
    """
    u = project_displacement(sys, cfg.u0).values if cfg.u0 is not None else np.zeros(sys.n_disp)
    v = project_displacement(sys, cfg.u1).values if cfg.u1 is not None else np.zeros(sys.n_disp)
    stress = project_stress(sys, cfg.stress0).values if cfg.stress0 is not None \
        else np.zeros(sys.k_stress)
    theta = np.asarray(cfg.theta0(sys.mesh.nodes), dtype=float)
    if theta.shape != (sys.n_temp,):
        raise ValueError(f"theta0 sampler returned shape {theta.shape}, expected ({sys.n_temp},)")
    if not np.all(theta > 0.0):
        raise ValueError(f"initial temperature must be strictly positive everywhere, "
                         f"min = {theta.min():g}")
    return SimState(0.0, u, v, stress, theta)


def resolve_truncation(sys: GalerkinSystem, cfg: SolverConfig,
                       state: SimState) -> TruncationLevel:
    if isinstance(cfg.truncation, TruncationLevel):
        return cfg.truncation
    e0 = total_energy(sys, cfg.elasticity, state)
    return TruncationLevel(10.0 * e0 / sys.mesh.volume)


def momentum_substep(sys: GalerkinSystem, state: SimState, theta: np.ndarray,
                     stress: np.ndarray, f_load: np.ndarray, dt: float) -> np.ndarray:
    """Exact linear solve of M_u (v_new − v_old)/dt = −Sᵀ·T + Dᵀ·θ + load."""
    rhs = -(sys.S_T @ stress) + sys.D_T @ theta + f_load
    return state.v + dt * sys.solve_mass_u(rhs)


# Newton stops once a step moves g by less than this share of g; convergence
# is quadratic, so the error left is of the order of its square.
_FACTOR_RTOL = 1e-8
_FACTOR_MAX_ITERS = 100


def _saturating_factor(kappa: np.ndarray, r2: np.ndarray, dtc: np.ndarray,
                       g_start: np.ndarray):
    """Per-cell root g of g·(1 + |T(g)|) = κ, the ``mroz_saturating`` factor.

    |T(g)|² = Σ_k r2_k/(1 + g·dtc_k)² over the eigenspaces k, so the left side
    strictly increases in g, with its root in [κ/(1 + |R|), κ].  Bracketed
    Newton from ``g_start`` clipped to that bracket, bisecting when a step
    leaves the bracket.
    """
    lo = kappa / (1.0 + np.sqrt(r2.sum(axis=1)))
    hi = kappa.copy()
    g = np.minimum(np.maximum(g_start, lo), hi)
    for iters in range(1, _FACTOR_MAX_ITERS + 1):
        u = 1.0 / (1.0 + g[:, None] * dtc)
        w = r2 * u * u
        norm = np.sqrt(w.sum(axis=1))
        f = g + g * norm - kappa
        below = f < 0.0
        np.copyto(lo, g, where=below)
        np.copyto(hi, g, where=~below)
        # d(g·|T|)/dg = Σ r2·u³/|T|, which is at most |T| and 0 where T vanishes.
        slope = 1.0 + (w * u).sum(axis=1) / np.maximum(norm, 1e-300)
        g_new = g - f / slope
        np.copyto(g_new, 0.5 * (lo + hi), where=(g_new < lo) | (g_new > hi))
        done = (abs(g_new - g) <= _FACTOR_RTOL * g_new).all()
        g = g_new
        if done:
            return g, iters
    raise StepFailureError(f"saturating flow factor did not converge in "
                           f"{_FACTOR_MAX_ITERS} Newton iterations")


def stress_substep(sys: GalerkinSystem, C: ElasticityTensor, G: FlowRule,
                   theta_cells: np.ndarray, stress_old: np.ndarray,
                   strain_rate: np.ndarray, dt: float,
                   stress_start: Optional[np.ndarray] = None):
    """Implicit stress update ℂ⁻¹(T_new − T_old)/dt + G(θ, T_new) = ε(u_t), per cell.

    Every rule is radial, G = g·T, so on a cell's components P this reads
    (I + dt·g·ℂ_P)·T_new = R := T_old + dt·ℂ_P·ε.  Split R = a·n + D along the
    eigenspaces of ℂ_P; then T_new = a·n/(1 + dt·g·c_vol) + D/(1 + dt·g·c_dev).
    The ``mroz_saturating`` g = κ(θ)/(1 + |T_new|) is found by Newton from
    κ(θ)/(1 + |T_start|), where ``stress_start`` (default T_old) is the best
    guess of T_new in hand; inside the Picard loop it is the previous
    iterate.  Returns (coefficients, Newton iterations or 1).  Raises
    StepFailureError if 1 + dt·g·c ≤ 0 (an anti-monotone g < 0), where no
    solution exists.
    """
    n, c = sys.stress_spectrum(C)
    old = sys.stress_blocks(stress_old)
    rate = sys.stress_blocks(strain_rate)
    # ℂ_P·ε = c_dev·ε + (c_vol − c_dev)·(n·ε)·n; absent components stay 0.
    R = old + dt * (c[:, 1:] * rate + ((c[:, 0] - c[:, 1]) * (rate * n).sum(axis=1))[:, None] * n)
    a = (R * n).sum(axis=1)
    D = R - a[:, None] * n
    kappa = np.asarray(G.kappa(theta_cells), dtype=float)
    if G.kind == "mroz_saturating":
        r2 = np.empty_like(c)
        r2[:, 0] = a * a
        r2[:, 1] = (D * D).sum(axis=1)
        start = old if stress_start is None else sys.stress_blocks(stress_start)
        g, iters = _saturating_factor(kappa, r2, dt * c,
                                      kappa / (1.0 + np.sqrt((start * start).sum(axis=1))))
    else:
        g, iters = kappa, 1
    den = 1.0 + dt * g[:, None] * c
    if not den.min() > 0.0:
        e = int(np.argmin(den.min(axis=1)))
        raise StepFailureError(f"stress update has no solution in cell {e}: 1 + dt·g·c = "
                               f"{den[e].min():.3g} <= 0 for anti-monotone factor g = {g[e]:.3g}")
    T = (a / den[:, 0])[:, None] * n + D / den[:, 1:]
    return sys.stress_coeffs(T), iters


@dataclass
class HeatConstants:
    """What every heat solve of one step takes from θ_old alone."""

    theta_cells: np.ndarray     # θ_old at the cell centres, where the source is evaluated
    mass_old: np.ndarray        # M_θ·θ_old


def heat_constants(sys: GalerkinSystem, state: SimState) -> HeatConstants:
    """Check θ_old > 0 and compute the step's ``HeatConstants``."""
    if not np.all(state.theta > 0.0):
        raise PositivityError(f"start-of-step temperature not positive "
                              f"(min = {state.theta.min():g})")
    return HeatConstants(sys.cell_center_values(state.theta), sys.M_theta @ state.theta)


def heat_substep(sys: GalerkinSystem, state: SimState, div_v, G: FlowRule,
                 truncation: TruncationLevel, dt: float,
                 stress: Optional[np.ndarray] = None,
                 theta_start: Optional[np.ndarray] = None,
                 constants: Optional[HeatConstants] = None) -> HeatResult:
    """Implicit Euler heat solve with clamped dissipation source.

    (M + dt·K + dt·A_adv(div u_t))·θ_new = M·θ_old + dt·∫clamp(G(θ_old,T):T)φ

    The source is evaluated at cell midpoints from the start-of-step
    temperature and the supplied stress iterate; homogeneous Neumann data is
    built into the space (no constrained rows).  ``div_v`` is div u_t at the
    Gauss points, as ``divergence_of`` returns it, or None or a scalar for a
    constant div u_t.  The system is solved by CG, preconditioned with
    ``sys.heat_inverse(dt)``, the memoized exact inverse of M + dt·K
    (SuperLU in 1D, per-axis in 2D/3D): with δ = dt·‖div u_t‖_∞ < 1, exact
    2-point Gauss and M + dt·K ≥ M put the preconditioned spectrum in
    [1 − δ, 1 + δ].  CG starts from ``theta_start``, by default θ_old;
    inside the Picard loop it is the current θ iterate.  ``constants`` are
    the step's ``heat_constants(sys, state)``, computed here when not given.
    Should CG stall anyway, a direct solve runs and ``fallback`` is set.
    Raises PositivityError if any dof of the solution is nonpositive.
    """
    if constants is None:
        constants = heat_constants(sys, state)
    stress = state.stress if stress is None else stress
    if div_v is None or np.isscalar(div_v):
        div_v = np.full((sys.mesh.n_cells, sys._gauss_N.shape[0]), float(div_v or 0.0))

    src_raw = _cell_dissipation(sys, G, constants.theta_cells, stress)
    src = np.asarray(truncate(truncation, src_raw), dtype=float)

    A = sys.heat_matrix(dt, div_v)
    rhs = constants.mass_old + dt * sys.heat_source_vector(src)
    theta_new, cg_iters = pcg(A, rhs, state.theta if theta_start is None else theta_start,
                              sys.heat_inverse(dt))
    fallback = theta_new is None
    if fallback:
        try:
            theta_new = spla.spsolve(A.tocsc(), rhs)
        except RuntimeError as exc:
            raise StepFailureError(f"heat solve failed: {exc}") from exc
    if not np.all(np.isfinite(theta_new)):
        raise StepFailureError("heat solve produced non-finite values")
    if theta_new.min() <= 0.0:
        stiffness = dt * max(1.0 / h ** 2 for h in sys.mesh.spacing)
        raise PositivityError(
            f"temperature solve lost positivity (min dof = {theta_new.min():.6g}); "
            f"the maximum-principle lower bound min(θ₀)·exp(−∫‖div u_t‖_∞) requires "
            f"a nonnegative source and a resolvable step — reduce dt or check the flow rule; "
            f"dt·max(1/h²) = {stiffness:.3g}, so rounding in dt·K_θ is about "
            f"{np.finfo(float).eps * stiffness:.2g} of M_θ")
    return HeatResult(theta_new, src_raw, src, cg_iters, fallback)


def _cell_dissipation(sys: GalerkinSystem, G: FlowRule, theta_cells: np.ndarray,
                      stress: np.ndarray) -> np.ndarray:
    """Midpoint values of G(θ,T):T per cell (zero where no stress dofs live)."""
    blocks = sys.stress_blocks(stress)
    return np.einsum("ec,ec->e", G.eval_mandel(theta_cells, blocks, sys.mesh.dim), blocks)


def _field_residual(new: np.ndarray, prev: np.ndarray) -> float:
    # Relative with a unit floor so roundoff on (near-)zero fields counts as
    # converged instead of bouncing the loop on noise.
    diff = float(np.abs(new - prev).max(initial=0.0))
    scale = max(float(np.abs(new).max(initial=0.0)), 1.0)
    return diff / scale


def step(sys: GalerkinSystem, cfg: SolverConfig, state: SimState,
         previous: Optional[SimState] = None) -> StepResult:
    """One Picard-coupled implicit step of size dt.

    The (u, stress) iterate is frozen, the heat equation solved for θ, then
    the momentum and stress updates run with that θ; repeat until the
    successive-iterate residual (max over θ, u_t, stress, relative) is below
    ``picard_tol``.  Finally u advances with the converged velocity.

    The loop starts from ``state``, or, given the state ``previous`` one dt
    earlier, from the linear predictor 2·state − previous of (u_t, stress, θ).
    The start moves only where the loop begins, not its fixed point.
    """
    if isinstance(cfg.truncation, str):
        raise ValueError("step needs a resolved TruncationLevel; use run() or "
                         "resolve_truncation() for 'auto'")
    dt = cfg.dt
    t_new = state.t + dt
    f_load = sys.load_vector(cfg.forcing, t_new) if cfg.forcing is not None \
        else np.zeros(sys.n_disp)
    constants = heat_constants(sys, state)

    if previous is None:
        v_i, T_i, th_i = state.v, state.stress, state.theta
    else:
        v_i, T_i, th_i = (2.0 * state.v - previous.v, 2.0 * state.stress - previous.stress,
                          2.0 * state.theta - previous.theta)
    history = []
    heat = None
    inner_total = cg_total = fallbacks = 0
    for _ in range(1, cfg.picard_max_iters + 1):
        div = divergence_of(sys, v_i)
        heat = heat_substep(sys, state, div, cfg.flow_rule, cfg.truncation, dt, stress=T_i,
                            theta_start=th_i, constants=constants)
        cg_total += heat.cg_iters
        fallbacks += heat.fallback
        th_new = heat.theta
        v_new = momentum_substep(sys, state, th_new, T_i, f_load, dt)
        strain_rate = sys.B @ v_new
        T_new, inner = stress_substep(
            sys, cfg.elasticity, cfg.flow_rule, sys.cell_center_values(th_new),
            state.stress, strain_rate, dt, stress_start=T_i)
        inner_total += inner
        res = max(_field_residual(th_new, th_i),
                  _field_residual(v_new, v_i),
                  _field_residual(T_new, T_i))
        history.append(res)
        v_i, T_i, th_i = v_new, T_new, th_new
        if res < cfg.picard_tol:
            break
    else:
        raise PicardConvergenceError(
            f"Picard loop did not reach tol={cfg.picard_tol:g} in "
            f"{cfg.picard_max_iters} iterations at t={t_new:g}; "
            f"residual history: {['%.3e' % r for r in history]}", history)

    u_new = state.u + dt * v_i
    new_state = SimState(t_new, u_new, v_i, T_i, th_i).freeze()
    return StepResult(new_state, len(history), history,
                      sys.divergence_sup(v_i), heat, f_load, inner_total,
                      cg_total, fallbacks)


@dataclass
class RunResult:
    state: SimState
    ledger: BalanceLedger
    n_steps: int
    step_infos: list


def run(sys: GalerkinSystem, cfg: SolverConfig, observers: Sequence[Callable] = (),
        collect_infos: bool = True) -> RunResult:
    """March to t_end, recording balances and invoking observers per step.

    Observers are called as ``observer(step_index, t, state, row)`` with a
    read-only state snapshot and the ledger row dict; they must not mutate.
    Step errors propagate annotated with the failing time.
    """
    if cfg.check_flow_rule:
        report = verify_admissibility(cfg.flow_rule, cfg.admissibility_samples,
                                      cfg.admissibility_seed)
        if not report.passed:
            raise ValueError(f"flow rule failed admissibility checks:\n{report}")

    state = initialize(sys, cfg).freeze()
    trunc = resolve_truncation(sys, cfg, state)
    cfg = replace(cfg, truncation=trunc)

    n_steps = max(1, int(round(cfg.t_end / cfg.dt)))
    ledger = BalanceLedger(sys, cfg.elasticity, cfg.dt)
    ledger.record_initial(state)

    infos = []
    previous = None
    for i in range(1, n_steps + 1):
        try:
            result = step(sys, cfg, state, previous)
        except PicardConvergenceError as exc:
            raise PicardConvergenceError(
                f"step {i} (t={state.t + cfg.dt:g}) failed: {exc}",
                exc.residual_history) from exc
        except StepFailureError as exc:
            raise type(exc)(f"step {i} (t={state.t + cfg.dt:g}) failed: {exc}") \
                from exc
        previous, state = state, result.state
        row = ledger.record_step(state, result)
        if collect_infos:
            infos.append(result)
        for obs in observers:
            obs(i, state.t, state, dict(row))
    return RunResult(state, ledger, n_steps, infos)
