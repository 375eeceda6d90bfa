import numpy as np
import pytest

from thermovisco import FlowRule
from thermovisco.oracle import OracleError, fd_run, fd_step, make_grid


def no_flow(theta, T):
    return 0.0 * np.asarray(T)


class TestGrid:
    def test_spacing_invariant(self):
        g = make_grid(11, 2.0, 1e-3)
        assert g.h * (g.N - 1) == pytest.approx(2.0)
        assert g.x[0] == 0.0 and g.x[-1] == pytest.approx(2.0)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            make_grid(2, 1.0, 1e-3)

    def test_nonpositive_theta0(self):
        with pytest.raises(ValueError):
            make_grid(11, 1.0, 1e-3, theta0=lambda x: x - 0.5)


class TestFdStep:
    def test_zero_data_persists(self):
        g = make_grid(21, 1.0, 1e-3)
        for _ in range(10):
            g = fd_step(g, 1.0, FlowRule.linear(0.5).scalar_eval)
        assert np.abs(g.u).max() < 1e-15
        assert np.abs(g.T).max() < 1e-15
        assert np.abs(g.theta - 1.0).max() < 1e-14

    def test_cfl_violation(self):
        g = make_grid(11, 1.0, 0.2)
        with pytest.raises(OracleError, match="wave restriction"):
            fd_step(g, 4.0, no_flow)

    def test_positivity_loss_detected(self):
        # expansion stronger than the implicit solve can keep positive
        g = make_grid(21, 1.0, 0.04)
        g.v[:] = 0.0
        g.u[:] = 0.0
        # inject a velocity profile with strongly negative divergence
        g.v = -40.0 * (g.x - 0.5)
        g.v[0] = g.v[-1] = 0.0
        with pytest.raises(OracleError, match="positivity"):
            fd_step(g, 1.0, no_flow)

    def test_unknown_mode_rejected(self):
        g = make_grid(11, 1.0, 1e-3)
        with pytest.raises(ValueError):
            fd_step(g, 1.0, no_flow, mode="wrong")


class TestManufactured:
    def test_standing_wave(self):
        # u(x,t) = A sin(πx) cos(πct), c² = C; compare at the half period
        N, A, C = 201, 0.1, 1.0
        h = 1.0 / (N - 1)
        g = make_grid(N, 1.0, h / 2,
                      u0=lambda x: A * np.sin(np.pi * x),
                      T0=lambda x: C * A * np.pi * np.cos(np.pi * x),
                      theta0=lambda x: np.ones_like(x))
        gf, _ = fd_run(g, C, no_flow, t_end=1.0, mode="mechanics_only")
        exact = A * np.sin(np.pi * gf.x) * np.cos(np.pi * 1.0)
        rel = np.sqrt(np.trapezoid((gf.u - exact) ** 2, gf.x)
                      / np.trapezoid(exact ** 2, gf.x))
        assert rel < 1e-2

    def test_wave_second_order(self):
        def err(N):
            A, C = 0.1, 1.0
            h = 1.0 / (N - 1)
            g = make_grid(N, 1.0, h / 2,
                          u0=lambda x: A * np.sin(np.pi * x),
                          T0=lambda x: C * A * np.pi * np.cos(np.pi * x),
                          theta0=lambda x: np.ones_like(x))
            gf, _ = fd_run(g, C, no_flow, t_end=1.0, mode="mechanics_only")
            exact = A * np.sin(np.pi * gf.x) * np.cos(np.pi)
            return np.sqrt(np.trapezoid((gf.u - exact) ** 2, gf.x)
                           / np.trapezoid(exact ** 2, gf.x))
        assert 3.0 <= err(101) / err(201) <= 5.0

    def test_neumann_heat_mode(self):
        # θ(x,t) = 1 + ½ e^{−π²t} cos(πx)
        N, t_end = 201, 0.1
        g = make_grid(N, 1.0, 5e-5, theta0=lambda x: 1 + 0.5 * np.cos(np.pi * x))
        gf, _ = fd_run(g, 1.0, no_flow, t_end, mode="heat_only")
        exact = 1 + 0.5 * np.exp(-np.pi ** 2 * t_end) * np.cos(np.pi * gf.x)
        rel = np.sqrt(np.trapezoid((gf.theta - exact) ** 2, gf.x)
                      / np.trapezoid(exact ** 2, gf.x))
        assert rel < 1e-3


class TestFdRun:
    def test_matches_step_composition(self):
        rule = FlowRule.mroz_saturating(1.0)
        g0 = make_grid(31, 1.0, 1e-3,
                       u0=lambda x: 0.05 * np.sin(np.pi * x),
                       T0=lambda x: 0.2 * np.cos(np.pi * x),
                       theta0=lambda x: 1 + 0.1 * np.cos(np.pi * x))
        manual = g0.copy()
        for _ in range(3):
            manual = fd_step(manual, 1.0, rule.scalar_eval)
        final, n_steps = fd_run(g0, 1.0, rule.scalar_eval, t_end=3e-3)
        assert n_steps == 3
        assert final.t == pytest.approx(manual.t)
        for a, b in ((final.u, manual.u), (final.v, manual.v),
                     (final.T, manual.T), (final.theta, manual.theta)):
            assert np.array_equal(a, b)


def test_oracle_imports_nothing_from_the_package():
    import ast
    from pathlib import Path
    import thermovisco.oracle as oracle
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import from {node.module!r}"
            assert node.module.split(".")[0] != "thermovisco", node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] != "thermovisco", alias.name
