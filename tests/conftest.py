import numpy as np
import pytest

from thermovisco import ElasticityTensor, FlowRule, build_mesh, build_spaces, solver
from thermovisco.solver import (SimState, SolverConfig, heat_substep, run, step_constants,
                                stress_substep)


def run_recording_steps(sys, cfg):
    """``solver.run``, and the StepResult of every step it took, in order.

    ``solver.step`` is wrapped at its module global for the length of the run.
    """
    steps = []
    step = solver.step

    def recorded(*args, **kwargs):
        steps.append(step(*args, **kwargs))
        return steps[-1]

    solver.step = recorded
    try:
        return run(sys, cfg), steps
    finally:
        solver.step = step


def heat_solve(sys, state, div, rule, truncation, dt, stress=None, theta_start=None):
    """``heat_substep`` with the inputs a step from ``state`` hands it: that
    step's ``step_constants``, and ``stress`` and ``theta_start``, by default
    ``state``'s own.  ``div`` is div u_t at the Gauss points, or one number
    for all of them."""
    if np.isscalar(div):
        div = np.full((sys.mesh.n_cells, sys._gauss_N.shape[0]), float(div))
    constants = step_constants(sys, state, rule, ElasticityTensor(0.0, 0.5), dt)
    return heat_substep(sys, div, rule, truncation, dt,
                        state.stress if stress is None else stress,
                        state.theta if theta_start is None else theta_start, constants)


def stress_solve(sys, C, rule, theta_cells, stress_old, strain_rate, dt, stress_start=None):
    """``stress_substep`` with the inputs a step from the stress ``stress_old``
    hands it: that step's ``step_constants``, and ``stress_start``, by default
    ``stress_old``."""
    state = SimState(0.0, np.zeros(sys.n_disp), np.zeros(sys.n_disp), stress_old,
                     np.ones(sys.n_temp))
    return stress_substep(sys, rule, theta_cells, strain_rate,
                          stress_old if stress_start is None else stress_start,
                          step_constants(sys, state, rule, C, dt))


def assembled_advection(sys, div):
    """A_adv(div) as a CSR matrix: the per-cell blocks Σ_g (w·div)_g·N_gp·N_gq,
    from ``advection_matrix``'s Gauss weights, summed into the nodes by ``_scatter``."""
    N = sys._gauss_N
    return sys._scatter(np.einsum("eg,gp,gq->epq", sys.advection_matrix(div), N, N))


def make_smooth_problem(cells=100, dt=1e-3, t_end=0.5, kappa0=1.0, with_forcing=True):
    """The shipped smooth coupled 1D scenario (C = λ + 2μ = 1)."""
    mesh = build_mesh(1, [1.0], [cells])
    sys = build_spaces(mesh)
    cfg = SolverConfig(
        dt=dt,
        t_end=t_end,
        elasticity=ElasticityTensor(0.0, 0.5),
        flow_rule=FlowRule.mroz_saturating(kappa0),
        u0=lambda pts: (0.1 * np.sin(np.pi * pts[:, 0]))[:, None],
        stress0=lambda pts: (0.3 * np.cos(np.pi * pts[:, 0]))[:, None, None],
        theta0=lambda pts: 1.0 + 0.2 * np.cos(np.pi * pts[:, 0]),
        forcing=(lambda t, pts: (0.05 * np.cos(2 * t) * np.sin(np.pi * pts[:, 0]))[:, None])
        if with_forcing else None,
    )
    return sys, cfg


def make_zero_problem(cells=16, dt=1e-3, t_end=0.1):
    mesh = build_mesh(1, [1.0], [cells])
    sys = build_spaces(mesh)
    cfg = SolverConfig(dt=dt, t_end=t_end,
                       elasticity=ElasticityTensor(0.0, 0.5),
                       flow_rule=FlowRule.linear(0.5),
                       theta0=lambda pts: np.ones(pts.shape[0]))
    return sys, cfg


@pytest.fixture(scope="session")
def smooth_run():
    sys, cfg = make_smooth_problem()
    return sys, cfg, run(sys, cfg)


@pytest.fixture(scope="session")
def smooth_run_half_dt():
    sys, cfg = make_smooth_problem(dt=5e-4)
    return sys, cfg, run(sys, cfg)


@pytest.fixture(scope="session")
def zero_run():
    sys, cfg = make_zero_problem()
    return sys, cfg, run(sys, cfg)
