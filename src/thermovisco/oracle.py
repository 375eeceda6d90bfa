"""Independent 1D finite-difference reference solver.

Scalar reduction of the coupled system on an interval:

    u_tt − (T − θ)_x = f
    T_t = C·(v_x − G(θ, T))
    θ_t − θ_xx + θ·v_x = G(θ, T)·T

with u = 0 at both ends and zero θ-flux via ghost nodes.  Centered
differences in space; symplectic Euler for (u, v); explicit stress update;
implicit tridiagonal θ solve.  No clamping of the dissipation source.

This module shares no spatial-discretization or time-stepping code with the
Galerkin solver, so disagreement between the two localizes bugs.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, replace
from scipy.linalg import solve_banded
from typing import Callable, Sequence

from .diagnostics import LedgerBase


class OracleError(RuntimeError):
    pass


@dataclass
class FDGrid:
    """Nodal scalar fields on a uniform interval grid (N nodes, h spacing)."""

    N: int
    h: float
    dt: float
    t: float
    u: np.ndarray
    v: np.ndarray
    T: np.ndarray
    theta: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.h * np.arange(self.N)

    @property
    def length(self) -> float:
        return self.h * (self.N - 1)

    def copy(self) -> "FDGrid":
        return replace(self, u=self.u.copy(), v=self.v.copy(),
                       T=self.T.copy(), theta=self.theta.copy())


def make_grid(N: int, length: float, dt: float, u0=None, u1=None, T0=None,
              theta0=None) -> FDGrid:
    """Initialize nodal fields from scalar samplers of x (arrays in/out)."""
    if N < 3:
        raise ValueError(f"need N >= 3 nodes, got {N}")
    h = length / (N - 1)
    x = h * np.arange(N)

    def sample(f, default):
        if f is None:
            return np.full(N, default)
        return np.asarray(f(x), dtype=float)

    u = sample(u0, 0.0)
    v = sample(u1, 0.0)
    u[0] = u[-1] = 0.0
    v[0] = v[-1] = 0.0
    T = sample(T0, 0.0)
    theta = sample(theta0, 1.0)
    if not np.all(theta > 0.0):
        raise ValueError(f"initial temperature must be positive, min = {theta.min():g}")
    return FDGrid(N, h, dt, 0.0, u, v, T, theta)


def _gradient(f: np.ndarray, h: float) -> np.ndarray:
    """Centered interior, second-order one-sided at the ends."""
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return g


def check_cfl(grid: FDGrid, C_scalar: float) -> None:
    wave_speed = max(1.0, np.sqrt(max(C_scalar, 0.0)))
    if grid.dt > grid.h / wave_speed + 1e-15:
        raise OracleError(
            f"time step violates the wave restriction dt <= h/max(1,sqrt(C)): "
            f"dt={grid.dt:g}, h={grid.h:g}, C={C_scalar:g}")


def fd_step(grid: FDGrid, C_scalar: float, G_scalar: Callable, f_sampler=None,
            mode: str = "full") -> FDGrid:
    """One explicit/implicit splitting step; returns a new grid.

    ``G_scalar`` maps (theta array, T array) -> rate array.  ``mode`` is
    "full", "heat_only" (mechanics frozen at zero) or "mechanics_only"
    (temperature frozen; pure thermo-free elasticity for wave tests).
    """
    if mode not in ("full", "heat_only", "mechanics_only"):
        raise ValueError(f"unknown mode {mode!r}")
    check_cfl(grid, C_scalar)
    h, dt = grid.h, grid.dt
    t_new = grid.t + dt
    g = grid.copy()

    G_old = np.asarray(G_scalar(grid.theta, grid.T), dtype=float)

    if mode != "heat_only":
        total = grid.T - grid.theta if mode == "full" else grid.T
        force = (total[2:] - total[:-2]) / (2.0 * h)
        if f_sampler is not None:
            force = force + np.asarray(f_sampler(t_new, grid.x[1:-1]), dtype=float)
        g.v[1:-1] = grid.v[1:-1] + dt * force
        g.v[0] = g.v[-1] = 0.0
        g.u = grid.u + dt * g.v
        vx = _gradient(g.v, h)
        g.T = grid.T + dt * C_scalar * (vx - G_old)
    else:
        vx = np.zeros(grid.N)

    if mode != "mechanics_only":
        src = G_old * grid.T
        # tridiagonal [I + dt(−Δ_h + diag(vx))] with Neumann ghost closure
        lam = dt / h ** 2
        main = 1.0 + 2.0 * lam + dt * vx
        lower = np.full(grid.N - 1, -lam)
        upper = np.full(grid.N - 1, -lam)
        upper[0] = -2.0 * lam     # ghost θ_{-1} = θ_1
        lower[-1] = -2.0 * lam    # ghost θ_{N} = θ_{N-2}
        ab = np.zeros((3, grid.N))
        ab[0, 1:] = upper
        ab[1, :] = main
        ab[2, :-1] = lower
        rhs = grid.theta + dt * src
        theta_new = solve_banded((1, 1), ab, rhs)
        if not np.all(np.isfinite(theta_new)):
            raise OracleError("temperature solve produced non-finite values")
        if theta_new.min() <= 0.0:
            raise OracleError(f"temperature lost positivity at t={t_new:g} "
                              f"(min = {theta_new.min():.6g})")
        g.theta = theta_new

    g.t = t_new
    return g


class FDLedger(LedgerBase):
    """Same row schema as the Galerkin ledger, integrated by trapezoid."""

    def __init__(self, dt: float, C_scalar: float):
        super().__init__(dt)
        self.C = C_scalar

    def _base_row(self, grid: FDGrid, tau: np.ndarray) -> dict:
        x = grid.x
        return {
            "t": grid.t,
            "kinetic": 0.5 * float(np.trapezoid(grid.v ** 2, x)),
            "elastic": 0.5 * float(np.trapezoid(grid.T ** 2 / self.C, x)),
            "thermal": float(np.trapezoid(grid.theta, x)),
            "entropy": float(np.trapezoid(tau, x)),
            "theta_min": float(grid.theta.min()),
            "div_u_int": float(np.trapezoid(_gradient(grid.u, grid.h), x)),
        }

    @staticmethod
    def _div_sup(grid: FDGrid) -> float:
        return float(np.abs(_gradient(grid.v, grid.h)).max())

    def record_initial(self, grid: FDGrid) -> dict:
        return self._start(self._base_row(grid, np.log(grid.theta)), self._div_sup(grid))

    def record_step(self, grid: FDGrid, G_scalar: Callable, f_sampler=None) -> dict:
        dt = self.dt
        x = grid.x
        tau = np.log(grid.theta)
        src = np.asarray(G_scalar(grid.theta, grid.T), dtype=float) * grid.T
        inc = dt * float(np.trapezoid(src, x))
        ent = dt * float(np.trapezoid(src / grid.theta, x))
        work = 0.0
        if f_sampler is not None:
            fv = np.asarray(f_sampler(grid.t, x), dtype=float)
            work = dt * float(np.trapezoid(fv * grid.v, x))
        increments = {
            "grad_tau_diss": dt * float(np.trapezoid(_gradient(tau, grid.h) ** 2, x)),
            "inelastic_diss": inc,
            "source_trunc": inc,            # oracle never clamps
            "entropic_diss": ent,
            "entropic_src_trunc": ent,
            "work": work,
        }
        return self._advance(self._base_row(grid, tau), increments, self._div_sup(grid))


def fd_run(grid: FDGrid, C_scalar: float, G_scalar: Callable, t_end: float,
           f_sampler=None, mode: str = "full",
           observers: Sequence[Callable] = ()):
    """Iterate fd_step to t_end; returns (final grid, ledger)."""
    ledger = FDLedger(grid.dt, C_scalar)
    ledger.record_initial(grid)
    n_steps = max(1, int(round(t_end / grid.dt)))
    for i in range(1, n_steps + 1):
        grid = fd_step(grid, C_scalar, G_scalar, f_sampler, mode=mode)
        row = ledger.record_step(grid, G_scalar, f_sampler)
        for obs in observers:
            obs(i, grid.t, grid, dict(row))
    return grid, ledger
