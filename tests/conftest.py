import numpy as np
import pytest

from thermovisco import ElasticityTensor, FlowRule, build_mesh, build_spaces, solver
from thermovisco.solver import SolverConfig, run


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


def assembled_advection(sys, div):
    """A_adv(div) as a CSR matrix: the per-cell blocks Σ_g (w·div)_g·N_gp·N_gq,
    from ``advection_matrix``'s Gauss weights, summed into the nodes by ``_scatter``."""
    N = sys._gauss_N
    return sys._scatter(np.einsum("eg,gp,gq->epq", sys.advection_matrix(div), N, N))


def make_smooth_problem(cells=100, dt=1e-3, t_end=0.5, kappa0=1.0, with_forcing=True):
    """The shipped smooth coupled 1D scenario (C = λ + 2μ = 1)."""
    mesh = build_mesh(1, [1.0], [cells])
    sys = build_spaces(mesh, mesh.interior_nodes.size, mesh.n_cells)
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
    sys = build_spaces(mesh, mesh.interior_nodes.size, mesh.n_cells)
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
