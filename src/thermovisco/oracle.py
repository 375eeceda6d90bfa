"""Independent 1D finite-difference reference solver.

Scalar reduction of the coupled system on an interval:

    u_tt − (T − θ)_x = f
    T_t = C·(v_x − G(θ, T))
    θ_t − θ_xx + θ·v_x = G(θ, T)·T

with u = 0 at both ends and zero θ-flux via ghost nodes.  Centered
differences in space; symplectic Euler for (u, v); explicit stress update;
implicit tridiagonal θ solve.  No clamping of the dissipation source.

This module imports nothing from the package: it shares no discretization,
time-stepping or bookkeeping code with the Galerkin solver, so disagreement
between the two localizes bugs.  It is a field reference only; the balance
ledger is the Galerkin solver's.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, replace
from scipy.linalg import solve_banded
from typing import Callable


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


def fd_run(grid: FDGrid, C_scalar: float, G_scalar: Callable, t_end: float,
           f_sampler=None, mode: str = "full"):
    """Iterate fd_step to t_end; returns (final grid, number of steps)."""
    n_steps = max(1, int(round(t_end / grid.dt)))
    for _ in range(n_steps):
        grid = fd_step(grid, C_scalar, G_scalar, f_sampler, mode=mode)
    return grid, n_steps
