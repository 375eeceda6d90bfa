"""Time stepping for the coupled displacement / stress / temperature system.

One step advances, inside a Picard loop that mirrors the fixed-point
construction of the continuous problem:

  1. implicit heat solve for θ, with the advection coefficient div(u_t) and
     the clamped dissipation source frozen at the current mechanical iterate:
     in 1D one direct tridiagonal solve (LAPACK ``gtsv``), in 2D/3D
     conjugate gradients on the unassembled heat operator, preconditioned
     with the exact inverse of M_θ + dt·K_θ by per-axis fast
     diagonalization (see ``GalerkinSystem``),
  2. momentum update for the velocity with that θ,
  3. implicit update for the stress with the new strain rate, in closed form,

iterated until the successive-iterate residual drops below ``picard_tol``.
Every solve of the loop starts from the best iterate in hand.  The loop
starts from the order-k extrapolation Σⱼ₌₀..ₖ ∇ʲxₙ of the accepted states
x = (u_t, stress, θ), read off a table of backward differences that ``run``
keeps (``StartHistory``); k is chosen per step, as the predictors of implicit
ODE codes are, from the error each order would have made on the step just
taken.  Each heat CG starts from the current θ iterate, and the 2D/3D
``mroz_saturating`` Newton from the current stress iterate; in 1D that
flow factor is the root of a quadratic, in closed form.  What every
Picard iteration of a step shares is computed once per step
(``step_constants``): the heat solve's M_θ·θ_old and κ(θ_old), and the stress
update's split of T_old along the eigenspaces of ℂ.  The start-of-step
state enters the loop there and in ``momentum_substep``, which reads its
velocity; each substep takes its inputs from ``step`` and has no default.
The scheme is first order in time.  For a monotone flow rule the stress
update is solvable for every dt; only heat positivity or Picard divergence
can reject a step.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

from .constitutive import ElasticityTensor, FlowRule, TruncationLevel, truncate, verify_admissibility
from .diagnostics import BalanceLedger, total_energy
from .discretization import GalerkinSystem, pcg, project_displacement, project_stress
from .expressions import ExpressionError


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


# Random flow-rule samples that ``run`` checks for admissibility before stepping.
_ADMISSIBILITY_SAMPLES = 2000


def check_time(dt: float, t_end: float, picard_tol: float, picard_max_iters: int) -> None:
    """Reject a time grid or Picard controls that cannot run."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not t_end >= dt:
        raise ValueError(f"t_end must be at least one step, got {t_end} < dt={dt}")
    if abs(t_end - round(t_end / dt) * dt) > 1e-9 * t_end:
        raise ValueError(f"t_end must be a whole number of steps, got t_end/dt = {t_end / dt:.6g}")
    if not picard_tol > 0.0:
        raise ValueError("picard_tol must be positive")
    if picard_max_iters < 1:
        raise ValueError("picard_max_iters must be >= 1")


@dataclass
class SolverConfig:
    """Time grid, material laws, data samplers and iteration controls.

    Samplers: ``u0``, ``u1`` map points (m,d) -> (m,d); ``stress0`` maps
    points -> symmetric matrices (m,d,d); ``theta0`` maps points -> (m,)
    and must be strictly positive; ``forcing`` maps (t, points) -> (m,d).
    ``truncation`` is a TruncationLevel, or "auto" to pick a height of
    10 · (initial total energy) / |Ω| that stays inactive in benign runs.
    ``run`` checks ``flow_rule`` for admissibility before every run; there
    is no switch to skip that check.
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

    def __post_init__(self):
        check_time(self.dt, self.t_end, self.picard_tol, self.picard_max_iters)
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
    cg_iters: int               # preconditioned CG iterations (0 in 1D: direct solve)
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
    is interpolated at the nodes and must be strictly positive there; all must be finite.
    """
    u = project_displacement(sys, cfg.u0) if cfg.u0 is not None else np.zeros(sys.n_disp)
    v = project_displacement(sys, cfg.u1) if cfg.u1 is not None else np.zeros(sys.n_disp)
    stress = project_stress(sys, cfg.stress0) if cfg.stress0 is not None \
        else np.zeros(sys.k_stress)
    theta = np.asarray(cfg.theta0(sys.mesh.nodes), dtype=float)
    if theta.shape != (sys.n_temp,):
        raise ValueError(f"theta0 sampler returned shape {theta.shape}, expected ({sys.n_temp},)")
    for name, values in (("u0", u), ("u1", v), ("stress0", stress), ("theta0", theta)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"initial data {name} is not finite: "
                             f"{np.count_nonzero(~np.isfinite(values))} of {values.size} "
                             f"coefficients are inf or nan")
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
    """Exact linear solve of M_u (v_new − v_old)/dt = Dᵀ·θ + load − vol·Bᵀ·T."""
    rhs = sys.D_T @ theta + f_load - sys.mesh.cell_volume * (sys.B_T @ stress)
    return state.v + dt * sys.solve_mass_u(rhs)


# Newton stops once a step moves g by less than this share of g; convergence
# is quadratic, so the error left is of the order of its square.
_FACTOR_RTOL = 1e-8
_FACTOR_MAX_ITERS = 100


def _saturating_factor(kappa: np.ndarray, r2, dtc, g_start: np.ndarray):
    """Per-cell root g of g·(1 + |T(g)|) = κ, the 2D/3D ``mroz_saturating`` factor.

    |T(g)|² = Σ_k r2_k/(1 + g·dtc_k)² over the eigenspaces k = 0, 1, so the
    left side strictly increases in g, with its root in [κ/(1 + |R|), κ].
    ``r2`` holds a per-cell array and ``dtc`` a number per eigenspace.
    Bracketed Newton from ``g_start`` clipped to that bracket, bisecting when
    a step leaves the bracket.  1D, where r2_1 = 0, takes ``_saturating_root``.
    """
    (r0, r1), (c0, c1) = r2, dtc
    lo = kappa / (1.0 + np.sqrt(r0 + r1))
    hi = kappa.copy()
    g = np.minimum(np.maximum(g_start, lo), hi)
    for iters in range(1, _FACTOR_MAX_ITERS + 1):
        u0 = 1.0 / (1.0 + g * c0)
        u1 = 1.0 / (1.0 + g * c1)
        w0 = r0 * u0 * u0
        w1 = r1 * u1 * u1
        norm = np.sqrt(w0 + w1)
        f = g + g * norm - kappa
        below = f < 0.0
        np.copyto(lo, g, where=below)
        np.copyto(hi, g, where=~below)
        # d(g·|T|)/dg = Σ r2·u³/|T|, which is at most |T| and 0 where T vanishes.
        slope = 1.0 + (w0 * u0 + w1 * u1) / np.maximum(norm, 1e-300)
        g_new = g - f / slope
        np.copyto(g_new, 0.5 * (lo + hi), where=(g_new < lo) | (g_new > hi))
        done = (abs(g_new - g) <= _FACTOR_RTOL * g_new).all()
        g = g_new
        if done:
            return g, iters
    raise StepFailureError(f"saturating flow factor did not converge in "
                           f"{_FACTOR_MAX_ITERS} Newton iterations")


def _saturating_root(kappa: np.ndarray, norm: np.ndarray, dtc: float) -> np.ndarray:
    """Per-cell root g ≥ 0 of g·(1 + |T(g)|) = κ in 1D, where |T(g)| = |a|/(1 + g·dtc).

    That is the quadratic dtc·g² + b·g − κ = 0 with b = 1 + |a| − κ·dtc and
    ``norm`` = |a|.  Its root is taken without cancellation: 2κ/(b + √Δ) where
    b > 0 and (√Δ − b)/(2·dtc) elsewhere, each divided only where it applies.
    √Δ = hypot(b, 2√(dtc·κ)), so b² does not overflow.
    """
    b = 1.0 + norm - kappa * dtc
    root = np.hypot(b, 2.0 * np.sqrt(dtc * kappa))
    pos = b > 0.0
    g = np.divide(2.0 * kappa, b + root, out=np.empty_like(b), where=pos)
    return np.divide(root - b, 2.0 * dtc, out=g, where=~pos)


def _require_solvable(g: np.ndarray, den: np.ndarray) -> None:
    """Raise StepFailureError unless every 1 + dt·g·c in ``den`` is > 0.

    ``den`` holds one value per cell and eigenspace, or one per cell in 1D.
    """
    if not den.min() > 0.0:
        worst = den.reshape(g.size, -1).min(axis=1)
        e = int(np.argmin(worst))
        raise StepFailureError(f"stress update has no solution in cell {e}: 1 + dt·g·c = "
                               f"{worst[e]:.3g} <= 0 for anti-monotone factor g = {g[e]:.3g}")


@dataclass
class StepConstants:
    """What every Picard iteration of one step takes from the start-of-step state alone."""

    mass_old: np.ndarray    # M_θ·θ_old
    kappa_old: np.ndarray   # κ(θ_old) at the cell centres, where the source is evaluated
    n: np.ndarray           # (s,) unit vector of ℂ's volumetric eigenspace
    a_old: np.ndarray       # per cell a = T_old·n
    D_old: np.ndarray       # per cell T_old − a·n
    dtc: np.ndarray         # (2,) dt·c, ℂ's eigenvalues (volumetric, deviatoric)


def step_constants(sys: GalerkinSystem, state: SimState, G: FlowRule,
                   C: ElasticityTensor, dt: float) -> StepConstants:
    """Check θ_old > 0 and compute the step's ``StepConstants``."""
    if not state.theta.min() > 0.0:
        raise PositivityError(f"start-of-step temperature not positive "
                              f"(min = {state.theta.min():g})")
    kappa = np.asarray(G.kappa(sys.cell_center_values(state.theta)), dtype=float)
    n, c = C.spectrum(sys.mesh.dim)
    blocks = sys.stress_blocks(state.stress)
    a = np.einsum("ec,c->e", blocks, n)
    return StepConstants(sys.M_theta @ state.theta, kappa, n, a, blocks - a[:, None] * n, dt * c)


def stress_substep(sys: GalerkinSystem, G: FlowRule,
                   theta_mid: np.ndarray, strain_rate: np.ndarray,
                   stress_start: np.ndarray, constants: StepConstants):
    """Implicit stress update ℂ⁻¹(T_new − T_old)/dt + G(θ, T_new) = ε(u_t), per cell.

    Every rule is radial, G = g·T, so in each cell this reads
    (I + dt·g·ℂ)·T_new = R := T_old + dt·ℂ·ε.  Split R = a·n + D along the
    eigenspaces of ℂ; then T_new = a·n/(1 + dt·g·c_vol) + D/(1 + dt·g·c_dev).
    ℂ acts on each eigenspace by its eigenvalue, so the split of R is that
    of T_old, from the step's ``constants``, plus dt·c times that of ε.
    In 1D the stress has one component, R = a and D = 0, and the
    ``mroz_saturating`` g = κ(θ)/(1 + |T_new|) is a quadratic's root in
    closed form (``_saturating_root``).  In 2D/3D that g is found by Newton
    from κ(θ)/(1 + |T_start|), where ``stress_start`` is the best guess of
    T_new in hand: inside the Picard loop, the previous iterate.  Returns
    (coefficients, Newton iterations or 1).  Raises StepFailureError if
    1 + dt·g·c ≤ 0 (an anti-monotone g < 0), where no solution exists.
    """
    n, dtc = constants.n, constants.dtc
    kappa = np.asarray(G.kappa(theta_mid), dtype=float)
    if n.size == 1:
        a = constants.a_old + dtc[0] * strain_rate
        g = _saturating_root(kappa, np.abs(a), dtc[0]) if G.kind == "mroz_saturating" else kappa
        den = 1.0 + g * dtc[0]
        _require_solvable(g, den)
        return a / den, 1
    rate = sys.stress_blocks(strain_rate)
    a_rate = np.einsum("ec,c->e", rate, n)
    a = constants.a_old + dtc[0] * a_rate
    D = constants.D_old + dtc[1] * (rate - a_rate[:, None] * n)
    if G.kind == "mroz_saturating":
        start = sys.stress_blocks(stress_start)
        g, iters = _saturating_factor(
            kappa, (a * a, np.einsum("ec,ec->e", D, D)), dtc,
            G.factor(kappa, np.sqrt(np.einsum("ec,ec->e", start, start))))
    else:
        g, iters = kappa, 1
    den = 1.0 + g[:, None] * dtc
    _require_solvable(g, den)
    T = (a / den[:, 0])[:, None] * n + D / den[:, 1:]
    return sys.stress_coeffs(T), iters


def heat_substep(sys: GalerkinSystem, div_v: np.ndarray, G: FlowRule,
                 truncation: TruncationLevel, dt: float, stress: np.ndarray,
                 theta_start: np.ndarray, constants: StepConstants) -> HeatResult:
    """Implicit Euler heat solve with clamped dissipation source.

    (M + dt·K + dt·A_adv(div u_t))·θ_new = M·θ_old + dt·∫clamp(G(θ_old,T):T)φ

    The source is evaluated at cell midpoints from the stress iterate
    ``stress``, as g·|T|² with g the radial factor of the step's κ(θ_old);
    M·θ_old and κ(θ_old) are the step's ``constants``.  Homogeneous Neumann
    data is built into the space (no constrained rows).  ``div_v`` is div u_t
    at the Gauss points, as ``divergence_of`` returns it.

    In 1D the matrix is tridiagonal (``sys.heat_bands``) and is solved
    directly by LAPACK ``gtsv``, Gaussian elimination with partial pivoting,
    for any δ = dt·‖div u_t‖_∞; ``theta_start`` is unused and the result
    reports 0 CG iterations.  In 2D/3D the system is solved by CG on
    ``sys.heat_operator``, which applies the matrix cell by cell without
    assembling it, preconditioned with ``sys.heat_inverse(dt)``, the exact
    per-axis inverse of M + dt·K: with δ < 1, exact 2-point Gauss and
    M + dt·K ≥ M put the preconditioned spectrum in [1 − δ, 1 + δ].  CG
    starts from ``theta_start``, inside the Picard loop the current θ
    iterate.  Should CG stall, the matrix is assembled (``sys.heat_matrix``),
    a direct solve runs and ``fallback`` is set.  Raises StepFailureError if
    the matrix is singular, and PositivityError if any dof of the solution is
    nonpositive.
    """
    blocks = sys.stress_blocks(stress)

    # G(θ_old, T):T = g·|T|² per cell.
    norm2 = np.einsum("ec,ec->e", blocks, blocks)
    src_raw = G.factor(constants.kappa_old, np.sqrt(norm2)) * norm2
    src = np.asarray(truncate(truncation, src_raw), dtype=float)

    rhs = constants.mass_old + dt * sys.heat_source_vector(src)
    if sys.mesh.dim == 1:
        *_, theta_new, info = lapack.dgtsv(*sys.heat_bands(dt, div_v), rhs)
        if info > 0:
            raise StepFailureError(f"heat solve failed: pivot {info} of the tridiagonal "
                                   f"heat matrix is exactly zero")
        cg_iters, fallback = 0, False
    else:
        theta_new, cg_iters = pcg(sys.heat_operator(dt, div_v), rhs, theta_start,
                                  sys.heat_inverse(dt))
        fallback = theta_new is None
        if fallback:
            try:
                theta_new = spla.spsolve(sys.heat_matrix(dt, div_v).tocsc(), rhs)
            except RuntimeError as exc:
                raise StepFailureError(f"heat solve failed: {exc}") from exc
    low = theta_new.min()
    if not (low > 0.0 and theta_new.max() < np.inf):  # false on a NaN too
        if not np.all(np.isfinite(theta_new)):
            raise StepFailureError("heat solve produced non-finite values")
        stiffness = dt * max(1.0 / h ** 2 for h in sys.mesh.spacing)
        raise PositivityError(
            f"temperature solve lost positivity (min dof = {low:.6g}); "
            f"the maximum-principle lower bound min(θ₀)·exp(−∫‖div u_t‖_∞) requires "
            f"a nonnegative source and a resolvable step — reduce dt or check the flow rule; "
            f"dt·max(1/h²) = {stiffness:.3g}, so rounding in dt·K_θ is about "
            f"{np.finfo(float).eps * stiffness:.2g} of M_θ")
    return HeatResult(theta_new, src_raw, src, cg_iters, fallback)


def step(sys: GalerkinSystem, cfg: SolverConfig, state: SimState,
         start: Optional[tuple] = None) -> StepResult:
    """One Picard-coupled implicit step of size dt.

    The (u, stress) iterate is frozen, the heat equation solved for θ, then
    the momentum and stress updates run with that θ; repeat until the
    successive-iterate residual (max over θ, u_t, stress, relative) is below
    ``picard_tol``.  Finally u advances with the converged velocity.

    The loop starts from ``start``, a (u_t, stress, θ) triple, by default
    ``state``'s own; ``run`` passes ``StartHistory.start()``.  The start moves
    only where the loop begins, not its fixed point.
    """
    if isinstance(cfg.truncation, str):
        raise ValueError("step needs a resolved TruncationLevel; use run() or "
                         "resolve_truncation() for 'auto'")
    dt = cfg.dt
    t_new = state.t + dt
    if cfg.forcing is None:
        f_load = np.zeros(sys.n_disp)
    else:
        # An inf or nan in the forcing is reported by the check below, not as a
        # floating-point warning from the quadrature's matrix product.
        with np.errstate(invalid="ignore", over="ignore"):
            f_load = sys.load_vector(cfg.forcing, t_new)
        if not np.isfinite(f_load).all():
            raise StepFailureError(f"forcing f is not finite: "
                                   f"{np.count_nonzero(~np.isfinite(f_load))} of {f_load.size} "
                                   f"load coefficients are inf or nan")
    constants = step_constants(sys, state, cfg.flow_rule, cfg.elasticity, dt)

    v_i, T_i, th_i = (state.v, state.stress, state.theta) if start is None else start
    # The fields' first entries in x = (u_t, stress, θ), and the iterate as x.
    fields = np.array([0, v_i.size, v_i.size + T_i.size])
    x_i = np.concatenate((v_i, T_i, th_i))
    history = []
    heat = None
    inner_total = cg_total = fallbacks = 0
    for _ in range(1, cfg.picard_max_iters + 1):
        div = divergence_of(sys, v_i)
        heat = heat_substep(sys, div, cfg.flow_rule, cfg.truncation, dt, T_i, th_i, constants)
        cg_total += heat.cg_iters
        fallbacks += heat.fallback
        th_new = heat.theta
        v_new = momentum_substep(sys, state, th_new, T_i, f_load, dt)
        strain_rate = sys.B @ v_new
        T_new, inner = stress_substep(sys, cfg.flow_rule, sys.cell_center_values(th_new),
                                      strain_rate, T_i, constants)
        inner_total += inner
        # Per field max|new − prev| / max(max|new|, 1): the unit floor lets
        # roundoff on (near-)zero fields count as converged.
        x_new = np.concatenate((v_new, T_new, th_new))
        res = float((np.maximum.reduceat(np.abs(x_new - x_i), fields)
                     / np.maximum(np.maximum.reduceat(np.abs(x_new), fields), 1.0)).max())
        history.append(res)
        v_i, T_i, th_i, x_i = v_new, T_new, th_new, x_new
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


# Highest order of the Picard start.  Seed-0 heat_2d takes 98, 73 and 76
# Picard iterations with caps of 6, 8 and 10.
MAX_START_ORDER = 8


class StartHistory:
    """Backward differences of the accepted states, and the order of the next start.

    Row j of ``rows`` is ∇ʲxₙ, j = 0 … MAX_START_ORDER + 1, of the concatenated
    x = (u_t, stress, θ) of the last accepted state xₙ; fewer rows exist while
    fewer states have been pushed.  ``push`` updates them in place by
    ∇ʲ⁺¹xₙ₊₁ = ∇ʲxₙ₊₁ − ∇ʲxₙ, exactly as ``np.diff`` of the stored states would.

    The order-k start is Σⱼ₌₀..ₖ ∇ʲxₙ (k = 0, 1, 2: xₙ, 2xₙ − xₙ₋₁ and
    3(xₙ − xₙ₋₁) + xₙ₋₂).  Made one step earlier, it would have missed xₙ by
    exactly ∇ᵏ⁺¹xₙ, so the candidate order is the k with the least
    max|∇ᵏ⁺¹xₙ|.  The order rises by at most one per step, and only while the
    last step took at most two Picard iterations or no more than the step
    before; otherwise it falls back to at most 2, since a slowly contracting
    Picard mode left in the accepted states is amplified by high orders.
    """

    def __init__(self, state: SimState):
        self._splits = (state.v.size, state.v.size + state.stress.size)
        self._table = np.zeros((MAX_START_ORDER + 2, self._splits[1] + state.theta.size))
        self._index = list(range(MAX_START_ORDER + 2))  # table row of ∇ʲxₙ, free rows last
        self._count = 0
        self._iterations = 0
        self.order = 0
        self.push(state, 0)

    @property
    def rows(self) -> list:
        return [self._table[i] for i in self._index[:self._count]]

    def push(self, state: SimState, iterations: int) -> None:
        """Take the accepted ``state``, reached in ``iterations`` Picard iterations."""
        # The last row is free, or holds the top difference, which no new row needs.
        new = self._index.pop()
        np.concatenate((state.v, state.stress, state.theta), out=self._table[new])
        depth = min(self._count, MAX_START_ORDER + 1)
        for j in range(depth):
            old = self._index[j]
            np.subtract(self._table[new], self._table[old], out=self._table[old])
            self._index[j], new = new, old
        self._index.insert(depth, new)
        self._count = depth + 1

        # max|∇ᵏ⁺¹xₙ| for k = 0 … count − 2, from two reductions over the table.
        peak = np.maximum(self._table.max(axis=1), -self._table.min(axis=1))
        errors = peak[self._index[1:self._count]]
        candidate = int(np.argmin(errors)) if errors.size else 0
        self.order = min(candidate, self.order + 1)
        if iterations > max(2, self._iterations):
            self.order = min(self.order, 2)
        self._iterations = iterations

    def start(self) -> tuple:
        """The order-``order`` start, as the (u_t, stress, θ) triple ``step`` takes."""
        x = self._table[self._index[0]].copy()
        for i in self._index[1:self.order + 1]:
            x += self._table[i]
        a, b = self._splits
        return x[:a], x[a:b], x[b:]


@dataclass
class SolverStats:
    """Integer counts of what the solver did in a run; no timings, so deterministic."""

    picard_iters: int = 0
    picard_iters_max: int = 0
    steps_by_picard_iters: list = field(default_factory=list)  # entry i: steps that took i
    steps_by_start_order: list = field(default_factory=lambda: [0] * (MAX_START_ORDER + 1))
    heat_cg_iters: int = 0
    heat_fallbacks: int = 0
    stress_newton_iters: int = 0

    def record(self, result: StepResult, order: int) -> None:
        """Count one step, started from the order-``order`` extrapolation."""
        n = result.iterations
        self.picard_iters += n
        self.picard_iters_max = max(self.picard_iters_max, n)
        self.steps_by_picard_iters += [0] * (n + 1 - len(self.steps_by_picard_iters))
        self.steps_by_picard_iters[n] += 1
        self.steps_by_start_order[order] += 1
        self.heat_cg_iters += result.heat_cg_iters
        self.heat_fallbacks += result.heat_fallbacks
        self.stress_newton_iters += result.stress_inner_iters


@dataclass
class RunResult:
    state: SimState
    ledger: BalanceLedger
    n_steps: int
    stats: SolverStats


def run(sys: GalerkinSystem, cfg: SolverConfig, observers: Sequence[Callable] = ()) -> RunResult:
    """March to t_end, recording balances and invoking observers per step.

    First the flow rule must pass ``verify_admissibility`` on
    ``_ADMISSIBILITY_SAMPLES`` samples of seed 0, or ValueError is raised
    before any step.  Observers are called as ``observer(step_index, t,
    state, result)`` with a read-only state snapshot and the step's
    ``StepResult``; they must not mutate.  The ledger's rows are complete once
    ``run`` returns.  Step errors, and errors of an expression evaluated in a
    step, propagate annotated with the failing step and time.  Per-step
    results are not kept: ``stats`` holds their counts.
    """
    report = verify_admissibility(cfg.flow_rule, _ADMISSIBILITY_SAMPLES)
    if not report.passed:
        raise ValueError(f"flow rule failed admissibility checks:\n{report}")

    state = initialize(sys, cfg).freeze()
    trunc = resolve_truncation(sys, cfg, state)
    cfg = replace(cfg, truncation=trunc)

    n_steps = round(cfg.t_end / cfg.dt)
    ledger = BalanceLedger(sys, cfg.elasticity, cfg.dt, n_steps)
    ledger.record_initial(state)

    stats = SolverStats()
    history = StartHistory(state)
    for i in range(1, n_steps + 1):
        order = history.order
        try:
            result = step(sys, cfg, state, history.start())
        except (StepFailureError, ExpressionError) as exc:
            exc.args = (f"step {i} (t={state.t + cfg.dt:g}) failed: {exc}",)
            raise
        state = result.state
        history.push(state, result.iterations)
        stats.record(result, order)
        ledger.record_step(state, result)
        for obs in observers:
            obs(i, state.t, state, result)
    return RunResult(state, ledger, n_steps, stats)
