import importlib.util
from pathlib import Path
from sys import modules

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from dataclasses import replace

from thermovisco import ElasticityTensor, FlowRule, TruncationLevel, build_mesh, build_spaces
from thermovisco.constitutive import truncate
from thermovisco import solver
from thermovisco.config import build_problem, load_config, shipped_config_path
from thermovisco.solver import (
    MAX_START_ORDER,
    PicardConvergenceError,
    PositivityError,
    SimState,
    SolverConfig,
    StartHistory,
    StepFailureError,
    _saturating_factor,
    divergence_of,
    step_constants,
    heat_substep,
    initialize,
    momentum_substep,
    resolve_truncation,
    run,
    step,
    stress_substep,
)
from thermovisco.diagnostics import total_energy

from conftest import (assembled_advection, heat_solve, make_smooth_problem, make_zero_problem,
                      run_recording_steps, stress_solve)

C_HALF = ElasticityTensor(0.0, 0.5)  # identity action on symmetric matrices
# Case ids of dim 1, 2, 3; "full": the stress space holds every component of every cell.
FULL_DIM_IDS = ["full-1", "full-2", "full-3"]
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def small_system(cells=8):
    mesh = build_mesh(1, [1.0], [cells])
    return build_spaces(mesh)


def quiet_state(sys, theta=1.0):
    return SimState(0.0, np.zeros(sys.n_disp), np.zeros(sys.n_disp),
                    np.zeros(sys.k_stress), np.full(sys.n_temp, theta))


class TestInitialize:
    def test_zero_data(self):
        sys, cfg = make_zero_problem()
        state = initialize(sys, cfg)
        assert np.allclose(state.u, 0) and np.allclose(state.v, 0)
        assert np.allclose(state.stress, 0)
        assert np.allclose(state.theta, 1.0)
        assert state.t == 0.0

    def test_initial_displacement_is_projection(self):
        # reuse the hand-solved x(1-x) coefficients (45/224, 29/112, 45/224)
        mesh = build_mesh(1, [1.0], [4])
        sys = build_spaces(mesh)
        cfg = SolverConfig(dt=1e-3, t_end=1e-3, elasticity=C_HALF,
                           flow_rule=FlowRule.linear(1.0),
                           u0=lambda pts: (pts[:, 0] * (1 - pts[:, 0]))[:, None],
                           theta0=lambda pts: np.ones(pts.shape[0]))
        state = initialize(sys, cfg)
        assert np.allclose(state.u, [45 / 224, 29 / 112, 45 / 224], atol=1e-13)

    def test_rejects_nonpositive_theta0(self):
        sys = small_system()
        cfg = SolverConfig(dt=1e-3, t_end=1e-3, elasticity=C_HALF,
                           flow_rule=FlowRule.linear(1.0),
                           theta0=lambda pts: pts[:, 0] - 0.5)
        with pytest.raises(ValueError, match="strictly positive"):
            initialize(sys, cfg)


class TestMomentum:
    def test_constant_theta_exerts_no_force(self):
        sys = small_system()
        state = quiet_state(sys)
        v0 = np.random.default_rng(0).standard_normal(sys.n_disp)
        state = SimState(0.0, state.u, v0, state.stress, 3.0 * np.ones(sys.n_temp))
        v1 = momentum_substep(sys, state, state.theta, np.zeros(sys.k_stress),
                              np.zeros(sys.n_disp), dt=0.1)
        assert np.allclose(v1, v0, atol=1e-13)

    def test_constant_force_single_solve_oracle(self):
        sys = small_system()
        state = quiet_state(sys)
        dt = 0.05
        load = sys.load_vector(lambda t, pts: np.ones((pts.shape[0], 1)), 0.0)
        v1 = momentum_substep(sys, state, state.theta * 0, np.zeros(sys.k_stress), load, dt)
        oracle = dt * np.linalg.solve(sys.M_u.toarray(), load)
        assert np.allclose(v1, oracle, atol=1e-13)

    def test_linearity_in_sources(self):
        sys = small_system()
        rng = np.random.default_rng(1)
        stress = rng.standard_normal(sys.k_stress)
        theta_dev = rng.standard_normal(sys.n_temp)
        load = rng.standard_normal(sys.n_disp)
        state = quiet_state(sys)
        dv1 = momentum_substep(sys, state, theta_dev, stress, load, 0.01)
        dv2 = momentum_substep(sys, state, 2 * theta_dev, 2 * stress, 2 * load, 0.01)
        assert np.allclose(dv2, 2 * dv1, atol=1e-12)


class TestStress:
    def test_pure_elasticity(self):
        # G = 0: T_new = T_old + dt·C·strain_rate
        sys = small_system()
        C = ElasticityTensor(0.0, 0.7)
        rng = np.random.default_rng(2)
        T_old = rng.standard_normal(sys.k_stress)
        E = rng.standard_normal(sys.k_stress)
        dt = 0.02
        T_new, iters = stress_solve(sys, C, FlowRule.linear(0.0),
                                    np.ones(sys.mesh.n_cells), T_old, E, dt)
        assert np.allclose(T_new, T_old + dt * 1.4 * E, atol=1e-12)

    def test_scalar_relaxation_closed_form(self):
        # linear G, κ=1, C = id, strain rate 0: T_new = T_old / (1 + dt)
        sys = small_system()
        T_old = np.full(sys.k_stress, 0.8)
        dt = 0.1
        T_new, _ = stress_solve(sys, C_HALF, FlowRule.linear(1.0),
                                np.ones(sys.mesh.n_cells), T_old,
                                np.zeros(sys.k_stress), dt)
        assert np.allclose(T_new, 0.8 / (1 + dt), atol=1e-12)

    def test_equilibrium_is_fixed_point(self):
        # strain rate == G(θ, T_old) keeps the stress unchanged
        sys = small_system()
        rule = FlowRule.mroz_saturating(1.0)
        T_old = np.full(sys.k_stress, 0.5)
        theta = np.full(sys.mesh.n_cells, 1.3)
        E = rule.eval_mandel(theta, T_old[:, None])[:, 0]
        T_new, iters = stress_solve(sys, C_HALF, rule, theta, T_old, E, 0.05)
        assert np.allclose(T_new, T_old, atol=1e-12)
        assert iters <= 2

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("last_cell", ["full", "one_short", "one_component"])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("rule", [FlowRule.linear(20.0), FlowRule.mroz_saturating(20.0),
                                      FlowRule.temperature_weighted(20.0)],
                             ids=lambda r: r.kind)
    def test_matches_dense_per_cell_solve(self, dim, last_cell, lam, rule):
        # (ℂ⁻¹ + dt·g·I)t = ℂ⁻¹t_old + dt·e per cell, g at the solution;
        # dt·g·c reaches 25, far outside any damped fixed-point contraction.
        # The last cell's t_old and e lack their last component (one_short) or
        # keep only the first (one_component); ℂ couples the diagonal
        # components, so the solution there still has every component.  A cell
        # with no data at all (one_short in 1d) must stay exactly zero.
        mesh = build_mesh(dim, [1.0] * dim, [2] * dim)
        s = dim * (dim + 1) // 2
        k = mesh.n_cells * s
        sys = build_spaces(mesh)
        C = ElasticityTensor(lam, 1.0)
        rng = np.random.default_rng(dim)
        T_old, E = rng.standard_normal(k), 5.0 * rng.standard_normal(k)
        kept = {"full": s, "one_short": s - 1, "one_component": 1}[last_cell]
        T_old[k - s + kept:] = E[k - s + kept:] = 0.0
        theta = rng.uniform(0.5, 2.0, mesh.n_cells)
        dt = 0.25
        T_new, _ = stress_solve(sys, C, rule, theta, T_old, E, dt)

        A = C.inverse_mandel_matrix(dim)
        for e in range(mesh.n_cells):
            dofs = e * s + np.arange(s)  # stress dofs are (cell, component), cell-major
            t = T_new[dofs]
            if not T_old[dofs].any() and not E[dofs].any():
                assert not t.any()
                continue
            G = rule.eval_mandel(theta[e:e + 1], t[None, :])[0]
            g = G @ t / (t @ t)  # radial: G = g·T
            dense = np.linalg.solve(A + dt * g * np.eye(s), A @ T_old[dofs] + dt * E[dofs])
            assert np.abs(t - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("kappa0", [900.0, 5000.0, 1e4])
    def test_stiff_flow_rule_completes_step(self, kappa0):
        # dt·2μ·κ₀ from 0.9 to 10: a damped fixed-point map does not contract here
        sys, cfg = make_smooth_problem(dt=1e-3, t_end=1e-3, kappa0=kappa0)
        state = initialize(sys, cfg)
        cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))
        result = step(sys, cfg, state)
        assert np.all(np.isfinite(result.state.stress))
        assert np.abs(result.state.stress).max() < np.abs(state.stress).max()

    def test_anti_monotone_without_solution_raises(self):
        # g = −1, c = 1, dt = 2: 1 + dt·g·c = −1, so no stress solves the step
        sys = small_system()
        bad = FlowRule("custom", c_growth=1.0, fn=lambda theta: -1.0)
        with pytest.raises(StepFailureError, match=r"1 \+ dt·g·c"):
            stress_solve(sys, C_HALF, bad, np.ones(sys.mesh.n_cells),
                         np.full(sys.k_stress, 1.0), np.zeros(sys.k_stress), dt=2.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_warm_start_matches_cold_start(self, dim):
        # Newton from the solution perturbed by 20% ends where Newton from T_old does.
        mesh = build_mesh(dim, [1.0] * dim, [3] * dim)
        sys = build_spaces(mesh)
        k = sys.k_stress
        rule = FlowRule.mroz_saturating(20.0)
        C = ElasticityTensor(1.0, 1.0)
        rng = np.random.default_rng(dim)
        T_old, E = rng.standard_normal(k), 5.0 * rng.standard_normal(k)
        theta = rng.uniform(0.5, 2.0, mesh.n_cells)
        cold, cold_iters = stress_solve(sys, C, rule, theta, T_old, E, 0.25)
        start = cold * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, k))
        warm, warm_iters = stress_solve(sys, C, rule, theta, T_old, E, 0.25,
                                        stress_start=start)
        assert np.abs(warm - cold).max() <= 1e-12 * np.abs(cold).max()
        assert warm_iters <= cold_iters
        same, _ = stress_solve(sys, C, rule, theta, T_old, E, 0.25, stress_start=T_old)
        assert np.array_equal(same, cold)

    @pytest.mark.parametrize("dim", [1, 2, 3], ids=FULL_DIM_IDS)
    @pytest.mark.parametrize("rule", [FlowRule.linear(20.0), FlowRule.mroz_saturating(20.0),
                                      FlowRule.temperature_weighted(20.0)],
                             ids=lambda r: r.kind)
    def test_split_update_matches_the_split_of_R(self, dim, rule):
        # Adding dt·c times the split of ε to the split of T_old is the split of
        # R = T_old + dt·ℂ·ε, to rounding.
        mesh = build_mesh(dim, [1.0] * dim, [3] * dim)
        sys = build_spaces(mesh)
        k = sys.k_stress
        C, dt = ElasticityTensor(1.0, 0.7), 0.25
        rng = np.random.default_rng(dim)
        T_old, E = rng.standard_normal(k), 5.0 * rng.standard_normal(k)
        theta = rng.uniform(0.5, 2.0, mesh.n_cells)

        n, c = C.spectrum(dim)
        old, rate = sys.stress_blocks(T_old), sys.stress_blocks(E)
        R = old + dt * (c[1] * rate
                        + ((c[0] - c[1]) * np.einsum("ec,c->e", rate, n))[:, None] * n)
        a = np.einsum("ec,c->e", R, n)
        D = R - a[:, None] * n
        kappa = rule.kappa(theta)
        g = kappa
        if rule.kind == "mroz_saturating":
            g, _ = _saturating_factor(kappa, (a * a, np.einsum("ec,ec->e", D, D)),
                                      (dt * c[0], dt * c[1]),
                                      kappa / (1.0 + np.sqrt(np.einsum("ec,ec->e", old, old))))
        den = 1.0 + dt * g[:, None] * c
        ref = sys.stress_coeffs((a / den[:, 0])[:, None] * n + D / den[:, 1:])

        state = SimState(0.0, np.zeros(sys.n_disp), np.zeros(sys.n_disp), T_old,
                         np.ones(sys.n_temp))
        T_new, _ = stress_substep(sys, rule, theta, E, T_old,
                                  step_constants(sys, state, rule, C, dt))
        assert np.abs(T_new - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("outside", [-1.0, 0.0, 1e6])
    def test_saturating_start_is_clipped_to_bracket(self, outside):
        # A start outside [κ/(1 + |R|), κ] runs exactly as one at the nearer end.
        rng = np.random.default_rng(3)
        kappa = rng.uniform(1.0, 20.0, 50)
        r2 = rng.uniform(0.0, 4.0, (50, 2))
        dtc = rng.uniform(0.1, 5.0, (50, 2))
        lo, hi = kappa / (1.0 + np.sqrt(r2.sum(axis=1))), kappa
        g, iters = _saturating_factor(kappa, r2.T, dtc.T, outside * kappa)
        g_end, iters_end = _saturating_factor(kappa, r2.T, dtc.T, hi if outside > 1.0 else lo)
        assert np.array_equal(g, g_end) and iters == iters_end


def random_heat_case(cells, delta, dt, signed=True, seed=0, stress_free=False):
    """A heat substep input with a random per-Gauss-point div at dt·‖div‖∞ = delta.

    Every axis has the spacing 1/cells[0]; ``stress_free`` zeroes the random
    stress, and with it the heat source.  Returns the system, the state and
    the Gauss-point divergence.
    """
    dim = len(cells)
    mesh = build_mesh(dim, [c / cells[0] for c in cells], cells)
    sys = build_spaces(mesh)
    rng = np.random.default_rng(seed)
    theta = 1.0 + 0.3 * rng.random(sys.n_temp)
    stress = rng.standard_normal(sys.k_stress)
    state = SimState(0.0, np.zeros(sys.n_disp), np.zeros(sys.n_disp),
                     np.zeros(sys.k_stress) if stress_free else stress, theta)
    div = rng.uniform(-1.0 if signed else 0.0, 1.0, (mesh.n_cells, sys._gauss_ref.shape[0]))
    div *= delta / dt / np.abs(div).max()
    return sys, state, div


def swirl_problem(dim=2):
    """A tiny run on 4^dim cells whose initial velocity makes div u_t nonzero."""
    mesh = build_mesh(dim, [1.0] * dim, [4] * dim)
    sys = build_spaces(mesh)
    swirl = lambda pts: np.stack([np.prod(np.sin(np.pi * pts), axis=1)] * dim, axis=1)
    cfg = SolverConfig(dt=1e-3, t_end=5e-3, elasticity=C_HALF,
                       flow_rule=FlowRule.linear(1.0), u1=swirl,
                       theta0=lambda pts: 1.0 + 0.2 * pts[:, 0])
    return sys, cfg


def contents(value):
    """``value`` as comparable plain data: every attribute, with arrays as their bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if sp.issparse(value):
        return (value.format, value.shape,
                *(contents(getattr(value, a)) for a in ("data", "indices", "indptr")))
    if isinstance(value, (list, tuple)):
        return tuple(contents(v) for v in value)
    if isinstance(value, dict):
        return {k: contents(v) for k, v in value.items()}
    if hasattr(value, "__dict__"):
        return type(value).__name__, contents(vars(value))
    return value


def direct_heat_solve(sys, state, div, out, dt):
    A = sys.heat_matrix(dt, div)
    rhs = sys.M_theta @ state.theta + dt * sys.heat_source_vector(out.source_trunc)
    return spla.spsolve(A.tocsc(), rhs)


class TestHeat:
    def test_constant_theta_preserved(self):
        sys = small_system()
        state = quiet_state(sys, theta=2.5)
        out = heat_solve(sys, state, 0.0, FlowRule.linear(1.0),
                         TruncationLevel(1.0), dt=0.01)
        assert np.allclose(out.theta, 2.5, atol=1e-13)

    def test_total_heat_conserved_without_sources(self):
        sys = small_system(cells=20)
        theta = 1.0 + 0.5 * np.cos(np.pi * sys.mesh.nodes[:, 0])
        state = SimState(0.0, np.zeros(sys.n_disp), np.zeros(sys.n_disp),
                         np.zeros(sys.k_stress), theta)
        out = heat_solve(sys, state, 0.0, FlowRule.linear(1.0),
                         TruncationLevel(1.0), dt=0.01)
        assert sys.integrate_nodal(out.theta) == pytest.approx(
            sys.integrate_nodal(theta), abs=1e-13)

    def test_cosine_decay_matches_fd_oracle(self):
        # matched-resolution comparison of the pure-diffusion mode
        from thermovisco.oracle import make_grid, fd_run
        cells, dt, t_end = 50, 1e-4, 0.02
        mesh = build_mesh(1, [1.0], [cells])
        sys = build_spaces(mesh)
        theta = 1.0 + 0.5 * np.cos(np.pi * mesh.nodes[:, 0])
        state = SimState(0.0, np.zeros(sys.n_disp), np.zeros(sys.n_disp),
                         np.zeros(sys.k_stress), theta)
        mins = [theta.min()]
        for _ in range(int(round(t_end / dt))):
            out = heat_solve(sys, state, 0.0, FlowRule.linear(1.0),
                             TruncationLevel(1.0), dt)
            state = SimState(state.t + dt, state.u, state.v, state.stress, out.theta)
            mins.append(out.theta.min())
        grid = make_grid(cells + 1, 1.0, dt,
                         theta0=lambda x: 1.0 + 0.5 * np.cos(np.pi * x))
        gf, _ = fd_run(grid, 1.0, lambda th, T: 0.0 * T, t_end, mode="heat_only")
        x = gf.x
        rel = np.sqrt(np.trapezoid((state.theta - gf.theta) ** 2, x)
                      / np.trapezoid(gf.theta ** 2, x))
        assert rel < 1e-3
        # the cosine mode decays monotonically toward the mean
        assert all(b >= a - 1e-13 for a, b in zip(mins, mins[1:]))

    def test_truncation_clamps_assembled_source(self):
        # pointwise source 7 with clamp height 5 must enter the rhs as 5
        sys = small_system()
        state = quiet_state(sys)
        T = np.full(sys.k_stress, np.sqrt(7.0))  # linear κ=1: G:T = |T|² = 7
        out = heat_solve(sys, state, 0.0, FlowRule.linear(1.0),
                         TruncationLevel(5.0), dt=0.01, stress=T)
        assert np.allclose(out.source_raw, 7.0, atol=1e-12)
        assert np.allclose(out.source_trunc, 5.0, atol=1e-12)

    @pytest.mark.parametrize("cells", [(9,), (5, 7), (4, 3, 5)],
                             ids=["1d-full", "2d-full", "3d-full"])
    @pytest.mark.parametrize("rule", [
        FlowRule.linear(2.0), FlowRule.mroz_saturating(2.0), FlowRule.temperature_weighted(2.0),
        FlowRule("custom", c_growth=1.0, fn=lambda theta: 1.0 / (1.0 + theta ** 2))],
        ids=lambda r: r.kind)
    def test_source_is_g_times_the_squared_norm(self, cells, rule):
        # g·|T|² from the step's κ(θ_old) is G(θ_old, T):T to rounding.
        dt = 0.01
        sys, state, div = random_heat_case(cells, 0.0, dt)
        stress = 3.0 * np.random.default_rng(2).standard_normal(sys.k_stress)
        out = heat_solve(sys, state, div, rule, TruncationLevel(1e6), dt, stress=stress)
        blocks = sys.stress_blocks(stress)
        ref = np.einsum("ec,ec->e", rule.eval_mandel(sys.cell_center_values(state.theta),
                                                     blocks), blocks)
        assert np.all(np.abs(out.source_raw - ref) <= 1e-14 * np.abs(ref))

    @pytest.mark.parametrize("value, error", [
        (np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"), (0.0, "positivity")])
    @pytest.mark.parametrize("cells", [(9,), (5, 7)], ids=["1d-gtsv", "2d-pcg"])
    def test_bad_solution_fails_the_step(self, monkeypatch, cells, value, error):
        # One bad dof in an otherwise positive solution: a NaN or an infinity is a
        # failed solve, and a zero dof lost positivity.
        def bad(b):
            x = np.ones_like(b)
            x[3] = value
            return x
        if len(cells) == 1:
            monkeypatch.setattr(solver.lapack, "dgtsv", lambda dl, d, du, b: (dl, d, du, bad(b), 0))
        else:
            monkeypatch.setattr(solver, "pcg", lambda apply, b, x0, precond: (bad(b), 1))
        sys, state, div = random_heat_case(cells, 0.5, 0.01)
        with pytest.raises(StepFailureError) as err:
            heat_solve(sys, state, div, FlowRule.linear(1.0), TruncationLevel(10.0), 0.01)
        if error == "non-finite":
            assert type(err.value) is StepFailureError
            assert str(err.value) == "heat solve produced non-finite values"
        else:
            assert type(err.value) is PositivityError
            assert "min dof = 0" in str(err.value)

    def test_positivity_error_raised(self):
        # violent expansion at huge dt drives θ through zero
        sys = small_system()
        state = quiet_state(sys)
        with pytest.raises(PositivityError):
            heat_solve(sys, state, -2.0, FlowRule.linear(1.0),
                       TruncationLevel(1.0), dt=1.0)

    @pytest.mark.parametrize("stress_free", [False, True])
    @pytest.mark.parametrize("n_cells, dt, delta, signed", [
        *((9, 0.01, delta, signed) for delta in (0.0, 0.5, 0.9) for signed in (True, False)),
        (200, 1e-4, 20.0, False),
        (50, 0.1, 20.0, True),
    ])
    def test_direct_1d_solve_matches_spsolve(self, n_cells, dt, delta, signed, stress_free):
        # The tridiagonal solve pivots, so it needs no bound on dt·‖div‖∞ = delta;
        # the last two cases are diffusion-dominated enough to keep θ positive.
        # A stress-free state has no heat source: the solve is the operator alone.
        sys, state, div = random_heat_case((n_cells,), delta, dt, signed=signed,
                                           stress_free=stress_free)
        out = heat_solve(sys, state, div, FlowRule.linear(1.0), TruncationLevel(10.0), dt)
        assert out.cg_iters == 0 and not out.fallback
        ref = direct_heat_solve(sys, state, div, out, dt)
        assert np.abs(out.theta - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_singular_1d_heat_matrix_fails_the_step(self, monkeypatch):
        # All-zero bands give gtsv a zero pivot at once.
        sys = small_system()
        zero = lambda dt, div: (np.zeros(sys.n_temp - 1), np.zeros(sys.n_temp),
                                np.zeros(sys.n_temp - 1))
        monkeypatch.setattr(sys, "heat_bands", zero)
        with pytest.raises(StepFailureError, match="heat solve failed"):
            heat_solve(sys, quiet_state(sys), 0.0, FlowRule.linear(1.0),
                       TruncationLevel(1.0), dt=0.01)

    @pytest.mark.parametrize("delta", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("stress_free", [False, True])
    @pytest.mark.parametrize("cells", [(5, 7), (4, 3, 5)], ids=["cells1", "cells2"])
    def test_pcg_matches_direct_solve(self, cells, stress_free, delta):
        # dt·‖div‖∞ < 1 bounds the preconditioned spectrum in [1 − δ, 1 + δ].
        dt = 0.01
        sys, state, div = random_heat_case(cells, delta, dt, stress_free=stress_free)
        out = heat_solve(sys, state, div, FlowRule.linear(1.0), TruncationLevel(10.0), dt)
        assert not out.fallback
        # Without advection the preconditioner is the exact inverse: one step.
        assert out.cg_iters == 1 if delta == 0.0 else out.cg_iters >= 1
        ref = direct_heat_solve(sys, state, div, out, dt)
        assert np.abs(out.theta - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("cells", [(9,), (5, 7), (4, 3, 5)])
    def test_warm_start_matches_cold_start(self, cells):
        # CG from a perturbed guess reaches the θ_old start's answer; the stress
        # split in the step's constants plays no part in the heat solve.
        dt = 0.01
        sys, state, div = random_heat_case(cells, 0.5, dt)
        args = (sys, state, div, FlowRule.linear(1.0), TruncationLevel(10.0), dt)
        cold = heat_solve(*args)
        guess = state.theta + 0.1 * np.random.default_rng(1).standard_normal(sys.n_temp)
        warm = heat_solve(*args, theta_start=guess)
        assert not warm.fallback
        assert np.abs(warm.theta - cold.theta).max() <= 1e-12 * np.abs(cold.theta).max()
        other = step_constants(sys, state, FlowRule.linear(1.0), ElasticityTensor(1.0, 0.7), 0.5)
        hoisted = heat_substep(sys, div, FlowRule.linear(1.0), TruncationLevel(10.0), dt,
                               state.stress, state.theta, other)
        assert np.array_equal(hoisted.theta, cold.theta)

    @pytest.mark.parametrize("cells", [(200, 2), (200, 2, 2)], ids=["cells1", "cells2"])
    def test_fallback_runs_and_is_counted(self, cells):
        # dt·‖div‖∞ = 20 spreads the preconditioned spectrum over [1, 21]; 200
        # cells along x leave far more mass-dominated modes than the CG cap.
        # div ≥ 0 (pure cooling) and strong diffusion, dt/h² = 4, keep θ positive.
        dt = 1e-4
        sys, state, div = random_heat_case(cells, 20.0, dt, signed=False)
        out = heat_solve(sys, state, div, FlowRule.linear(1.0), TruncationLevel(10.0), dt)
        assert out.fallback
        ref = direct_heat_solve(sys, state, div, out, dt)
        assert np.array_equal(out.theta, ref)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_no_factorization_in_2d_3d(self, monkeypatch, dim):
        # No sparse factor is ever made: 1D solves are tridiagonal LAPACK calls,
        # and both 2D/3D inverses are per-axis.
        calls = {"splu": 0, "spsolve": 0, "factorized": 0}

        def counted(name):
            original = getattr(spla, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(spla, name, counted(name))
        result, steps = run_recording_steps(*swirl_problem(dim))
        assert result.n_steps == 5
        assert calls == {"splu": 0, "spsolve": 0, "factorized": 0}
        for info in steps:
            assert info.heat_fallbacks == 0
            assert info.heat_cg_iters == 0 if dim == 1 else info.heat_cg_iters >= info.iterations


class TestStep:
    def test_counts_heat_fallbacks(self, monkeypatch):
        # A CG that gives up at once makes every heat solve of the swirl run fall
        # back; a warm-started CG would converge within any small iteration cap.
        monkeypatch.setattr(solver, "pcg", lambda *args: (None, 1))
        sys, cfg = swirl_problem()
        state = initialize(sys, cfg)
        cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))
        result = step(sys, cfg, state)
        assert result.heat.fallback
        assert result.heat_fallbacks == result.iterations > 1
        assert result.heat_cg_iters == result.iterations

    def test_takes_kappa_of_the_old_theta_once_per_step(self, monkeypatch):
        # The heat source's κ(θ_old) is a step constant; each stress update
        # takes κ of its own new θ.
        sys, cfg = swirl_problem()
        cfg = replace(cfg, flow_rule=FlowRule.temperature_weighted(1.0))
        state = initialize(sys, cfg)
        cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))
        calls = []
        kappa = FlowRule.kappa
        monkeypatch.setattr(FlowRule, "kappa",
                            lambda self, theta: calls.append(np.copy(theta)) or kappa(self, theta))
        result = step(sys, cfg, state)
        old = sys.cell_center_values(state.theta)
        assert result.iterations > 1
        assert len(calls) == 1 + result.iterations
        assert sum(np.array_equal(c, old) for c in calls) == 1

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_reports_the_new_theta_at_the_cell_centres(self, dim):
        # The ledger books the next step's entropic weights from these values.
        sys, cfg = swirl_problem(dim)
        state = initialize(sys, cfg)
        cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))
        result = step(sys, cfg, state)
        assert np.array_equal(result.theta_cells, sys.cell_center_values(result.state.theta))

    @pytest.mark.parametrize("problem", ["smooth_1d", "swirl_2d"])
    def test_predictor_start_reaches_same_state(self, problem):
        # After ten steps the start order is above 2.  From xₙ (no start), from
        # every order up to the chosen one, the loop stops within tolerance of
        # one fixed point, and no order up to 2 takes more iterations than a
        # lower one nor the chosen order more than order 2.
        if problem == "smooth_1d":
            sys, cfg = make_smooth_problem(dt=1e-3, t_end=1.0)
        else:
            sys, cfg = swirl_problem()
        state = initialize(sys, cfg)
        cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))
        history = StartHistory(state)
        for _ in range(10):
            result = step(sys, cfg, state, history.start())
            state = result.state
            history.push(state, result.iterations)
        chosen = history.order
        assert chosen >= 3
        cold = step(sys, cfg, state)
        warm = {}
        for k in range(chosen + 1):
            history.order = k
            warm[k] = step(sys, cfg, state, history.start())
        assert warm[chosen].iterations <= warm[2].iterations <= warm[1].iterations \
            <= warm[0].iterations == cold.iterations
        assert warm[chosen].iterations < cold.iterations
        for result in warm.values():
            for name in ("v", "stress", "theta"):
                a, b = getattr(result.state, name), getattr(cold.state, name)
                assert np.abs(a - b).max() <= 10 * cfg.picard_tol * max(np.abs(b).max(), 1.0)
        plain = step(sys, cfg, state, None)
        assert plain.iterations == cold.iterations
        for name in ("u", "v", "stress", "theta"):
            assert np.array_equal(getattr(plain.state, name), getattr(cold.state, name))
            assert np.array_equal(getattr(warm[0].state, name), getattr(cold.state, name))

    def test_loop_starts_from_the_predictor(self, monkeypatch):
        # The first heat solve sees the given start's u_t (through div u_t),
        # stress and θ, and without a start those of the state.
        class FirstHeatSolve(Exception):
            pass

        def capture(sys_, div, G, truncation, dt, stress, theta_start, constants):
            raise FirstHeatSolve(div, stress, theta_start)

        sys, cfg = swirl_problem()
        cfg = replace(cfg, truncation=TruncationLevel(1.0))
        rng = np.random.default_rng(4)
        state, start = (
            SimState(0.0, np.zeros(sys.n_disp), rng.standard_normal(sys.n_disp),
                     rng.standard_normal(sys.k_stress), 1.0 + rng.random(sys.n_temp))
            for _ in range(2))
        monkeypatch.setattr(solver, "heat_substep", capture)
        for given, seen_state in (((), state), (((start.v, start.stress, start.theta),), start)):
            with pytest.raises(FirstHeatSolve) as seen:
                step(sys, cfg, state, *given)
            div, stress, theta = seen.value.args
            assert np.array_equal(div, divergence_of(sys, seen_state.v))
            assert np.array_equal(stress, seen_state.stress)
            assert np.array_equal(theta, seen_state.theta)

    def test_nonpositive_start_temperature_fails_the_step(self):
        # A state with one zero θ dof is rejected before any Picard iteration.
        sys, cfg = make_zero_problem()
        state = initialize(sys, cfg)
        cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))
        theta = state.theta.copy()
        theta[7] = 0.0
        with pytest.raises(PositivityError, match=r"start-of-step temperature not positive "
                                                  r"\(min = 0\)"):
            step(sys, cfg, replace(state, theta=theta))

    def test_zero_data_fixed_point_in_one_iteration(self):
        sys, cfg = make_zero_problem()
        state = initialize(sys, cfg)
        cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))
        result = step(sys, cfg, state)
        assert result.iterations == 1
        assert result.state.t == pytest.approx(cfg.dt)
        assert np.abs(result.state.u).max() < 1e-12
        assert np.abs(result.state.v).max() < 1e-12
        assert np.abs(result.state.stress).max() < 1e-12
        assert np.abs(result.state.theta - 1).max() < 1e-12

    def test_decoupled_step_matches_manual_chain(self):
        # κ₀ = 0, f = 0, v₀ = 0, θ₀ constant: the first Picard sweep equals
        # the manual heat → momentum → stress chain; later sweeps only add
        # O(dt²)-in-θ (resp. O(dt³)-in-v) corrections through the advection.
        mesh = build_mesh(1, [1.0], [32])
        sys = build_spaces(mesh)
        dt = 1e-3
        cfg = SolverConfig(dt=dt, t_end=dt, elasticity=C_HALF,
                           flow_rule=FlowRule.linear(0.0),
                           stress0=lambda pts: (0.3 * np.cos(np.pi * pts[:, 0]))[:, None, None],
                           theta0=lambda pts: np.ones(pts.shape[0]))
        state = initialize(sys, cfg)
        cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))

        constants = step_constants(sys, state, cfg.flow_rule, cfg.elasticity, dt)
        heat = heat_substep(sys, divergence_of(sys, state.v), cfg.flow_rule,
                            cfg.truncation, dt, state.stress, state.theta, constants)
        v1 = momentum_substep(sys, state, heat.theta, state.stress,
                              np.zeros(sys.n_disp), dt)
        T1, _ = stress_substep(sys, cfg.flow_rule,
                               sys.cell_center_values(heat.theta), sys.B @ v1,
                               state.stress, constants)
        result = step(sys, cfg, state)
        assert result.iterations <= 5
        assert np.abs(result.state.theta - heat.theta).max() < 10 * dt ** 2
        assert np.abs(result.state.v - v1).max() < 100 * dt ** 3
        assert np.abs(result.state.stress - T1).max() < 1e-9

    def test_converged_state_satisfies_all_equations(self):
        # order-insensitivity at convergence: the accepted state solves the
        # three discrete equations simultaneously, not just in sweep order
        sys, cfg = make_smooth_problem(cells=50, dt=1e-3, t_end=1.0)
        state = initialize(sys, cfg)
        cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))
        for _ in range(3):
            old = state
            result = step(sys, cfg, state)
            state = result.state
        dt = cfg.dt

        mom = sys.M_u @ (state.v - old.v) / dt + sys.mesh.cell_volume * sys.B.T @ state.stress \
            - sys.D.T @ state.theta - result.f_load
        assert np.abs(mom).max() < 1e-8

        th_c = sys.cell_center_values(state.theta)
        cinv_rate = ((state.stress - old.stress)[:, None]
                     @ cfg.elasticity.inverse_mandel_matrix(1))[:, 0] / dt
        g = cfg.flow_rule.eval_mandel(th_c, state.stress[:, None])[:, 0]
        assert np.abs(cinv_rate + g - sys.B @ state.v).max() < 1e-8

        div = divergence_of(sys, state.v)
        A = sys.M_theta + dt * sys.K_theta + dt * assembled_advection(sys, div)
        src = truncate(cfg.truncation,
                       cfg.flow_rule.eval_mandel(sys.cell_center_values(old.theta),
                                                 state.stress[:, None])[:, 0] * state.stress)
        heat_res = A @ state.theta - sys.M_theta @ old.theta - dt * sys.heat_source_vector(src)
        assert np.abs(heat_res).max() < 1e-8

    def test_picard_nonconvergence_reports_history(self):
        sys, cfg = make_smooth_problem(cells=20, dt=1e-3, t_end=1e-3)
        cfg = replace(cfg, picard_max_iters=1)
        state = initialize(sys, cfg)
        cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))
        with pytest.raises(PicardConvergenceError) as err:
            step(sys, cfg, state)
        assert len(err.value.residual_history) == 1

    def test_dt_halving_first_order_self_convergence(self):
        results = {}
        for dt in (2e-3, 1e-3, 5e-4):
            sys, cfg = make_smooth_problem(cells=40, dt=dt, t_end=0.2)
            results[dt] = run(sys, cfg).state

        def dist(a, b):
            return max(np.abs(a.u - b.u).max(), np.abs(a.stress - b.stress).max(),
                       np.abs(a.theta - b.theta).max())

        d12 = dist(results[2e-3], results[1e-3])
        d23 = dist(results[1e-3], results[5e-4])
        assert 1.6 <= d12 / d23 <= 2.4


def random_states(sys, count, seed):
    rng = np.random.default_rng(seed)
    return [SimState(0.01 * n, np.zeros(sys.n_disp), rng.standard_normal(sys.n_disp),
                     rng.standard_normal(sys.k_stress), 1.0 + rng.random(sys.n_temp))
            for n in range(count)]


def concatenated(state):
    return np.concatenate((state.v, state.stress, state.theta))


def sin400_problem():
    """``smooth_coupled`` with a forcing too rough for high start orders."""
    sys, cfg = make_smooth_problem(t_end=0.08)
    return sys, replace(cfg, forcing=lambda t, pts: (0.5 * np.sin(400 * t)
                                                     * np.sin(np.pi * pts[:, 0]))[:, None])


def spy_on_run(monkeypatch, sys, cfg):
    """Run, recording per step the start order, the accepted state before the
    step, what its first heat solve saw, and the step's Picard iterations."""
    steps = []
    real_step, real_heat, real_start = solver.step, solver.heat_substep, StartHistory.start

    def start(self):
        steps.append({"order": self.order})
        return real_start(self)

    def spy_step(sys_, cfg_, state, start=None):
        steps[-1]["before"] = state
        result = real_step(sys_, cfg_, state, start)
        steps[-1]["iterations"] = result.iterations
        return result

    def spy_heat(sys_, div, G, truncation, dt, stress, theta_start, constants):
        if "seen" not in steps[-1]:
            steps[-1]["seen"] = (div, stress, theta_start)
        return real_heat(sys_, div, G, truncation, dt, stress, theta_start, constants)

    monkeypatch.setattr(StartHistory, "start", start)
    monkeypatch.setattr(solver, "step", spy_step)
    monkeypatch.setattr(solver, "heat_substep", spy_heat)
    return run(sys, cfg), steps


class TestStartHistory:
    def test_rows_are_np_diff_of_the_accepted_states(self):
        sys = small_system()
        states = random_states(sys, MAX_START_ORDER + 5, seed=7)
        history = StartHistory(states[0])
        for n in range(1, len(states) + 1):
            if n > 1:
                history.push(states[n - 1], 3)
            stored = np.array([concatenated(s) for s in states[:n]])
            assert len(history.rows) == min(n, MAX_START_ORDER + 2)
            for j, row in enumerate(history.rows):
                assert np.array_equal(row, np.diff(stored, n=j, axis=0)[-1])

    def test_low_orders_are_the_classic_starts(self):
        sys = small_system()
        before, previous, state = random_states(sys, 3, seed=8)
        history = StartHistory(before)
        history.push(previous, 3)
        history.push(state, 3)
        x, x1, x2 = (concatenated(s) for s in (state, previous, before))
        for order, expected in ((0, x), (1, 2.0 * x - x1), (2, 3.0 * (x - x1) + x2)):
            history.order = order
            np.testing.assert_allclose(np.concatenate(history.start()), expected,
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("problem", ["smooth_1d", "swirl_2d"])
    def test_first_heat_solve_sees_the_chosen_order(self, monkeypatch, problem):
        # Σⱼ₌₀..ₖ ∇ʲxₙ, with ∇ʲxₙ from np.diff of the accepted states.
        if problem == "smooth_1d":
            sys, cfg = make_smooth_problem(t_end=0.03)
        else:
            sys, cfg = swirl_problem()
            cfg = replace(cfg, t_end=0.02)
        result, steps = spy_on_run(monkeypatch, sys, cfg)
        stored = []
        for info in steps:
            stored.append(concatenated(info["before"]))
            k = info["order"]
            start = sum(np.diff(np.array(stored), n=j, axis=0)[-1] for j in range(k + 1))
            v, stress, theta = np.split(start, np.cumsum([sys.n_disp, sys.k_stress]))
            div, seen_stress, seen_theta = info["seen"]
            assert np.array_equal(div, divergence_of(sys, v))
            assert np.array_equal(seen_stress, stress)
            assert np.array_equal(seen_theta, theta)
        assert max(info["order"] for info in steps) >= 3
        assert result.stats.steps_by_start_order == np.bincount(
            [info["order"] for info in steps], minlength=MAX_START_ORDER + 1).tolist()

    @pytest.mark.parametrize("problem", ["smooth_1d", "sin400_1d"])
    def test_order_rises_by_one_and_falls_back_after_a_dearer_step(self, monkeypatch, problem):
        sys, cfg = make_smooth_problem(t_end=0.08) if problem == "smooth_1d" else sin400_problem()
        _, steps = spy_on_run(monkeypatch, sys, cfg)
        orders = [info["order"] for info in steps]
        iterations = [info["iterations"] for info in steps]
        assert orders[0] == 0
        fallbacks = 0
        for n in range(1, len(steps)):
            assert orders[n] <= orders[n - 1] + 1
            if n >= 2 and iterations[n - 1] > max(iterations[n - 2], 2):
                assert orders[n] <= 2
                fallbacks += 1
        assert max(orders) >= 3
        if problem == "sin400_1d":
            assert fallbacks > 0

    def test_order_follows_the_least_error_one_step_at_a_time(self):
        # ∇ᵏ⁺¹xₙ is the miss of the order-k start made one step earlier.  For
        # xₙ = 2ⁿ it shrinks with k, so the order climbs by one per step to the
        # cap; a dearer step than the one before sends it back to 2.  For
        # n plus a wobble ±1e-3 the least miss is at k = 1.
        sys = small_system(2)
        ones = SimState(0.0, *(np.ones(n) for n in (sys.n_disp, sys.n_disp, sys.k_stress,
                                                    sys.n_temp)))

        def at(x):
            return SimState(0.0, ones.u, x * ones.v, x * ones.stress, x * ones.theta)

        history = StartHistory(at(1.0))
        orders = []
        for n in range(1, 14):
            history.push(at(2.0 ** n), 1)
            orders.append(history.order)
        assert orders == [0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 8, 8]
        history.push(at(2.0 ** 14), 2)
        assert history.order == 8
        history.push(at(2.0 ** 15), 4)
        assert history.order == 2
        history.push(at(2.0 ** 16), 4)
        assert history.order == 3

        history = StartHistory(at(1.0))
        for n in range(1, 14):
            history.push(at(n + 1e-3 * (-1) ** n), 1)
        assert history.order == 1


def load_bench_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclass looks its own module up by name.
    monkeypatch.setitem(modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestPicardBudgets:
    """Seed-0 Picard iteration budgets: the guard that the start stays good."""

    @pytest.mark.parametrize("name, budget", [("coupled_1d", 560), ("heat_2d", 80),
                                              ("box_3d", 58)])
    def test_bench_workload_picard_budget(self, monkeypatch, tmp_path, name, budget):
        workloads = load_bench_workloads(monkeypatch)
        path = workloads.write_config(workloads.WORKLOADS[name], 0, tmp_path / "w.cfg",
                                      tmp_path / "out")
        result = run(*build_problem(load_config(path)))
        assert result.stats.picard_iters <= budget
        assert result.stats.heat_fallbacks == 0

    def test_coupled_scenario_near_the_stress_lag_limit(self):
        # dt·√12·c/h = 0.87: the slowly contracting stress-lag mode sits in the
        # accepted states, and the order rule must keep it from growing.  The
        # quadratic start took 728 Picard iterations; allow 25% more.
        rc = replace(load_config(shipped_config_path("smooth_coupled.cfg")), dt=2.5e-3)
        result = run(*build_problem(rc))
        assert result.n_steps == 200
        assert all(result.ledger.summary()["verdicts"].values())
        assert result.stats.picard_iters <= 910


class TestRun:
    def test_exact_step_count_and_time(self):
        sys, cfg = make_zero_problem(dt=0.01, t_end=0.03)
        result = run(sys, cfg)
        assert result.n_steps == 3
        assert result.state.t == pytest.approx(0.03, abs=1e-12)

    def test_zero_run_final_equals_initial(self, zero_run):
        sys, cfg, result = zero_run
        assert np.abs(result.state.u).max() < 1e-12
        assert np.abs(result.state.theta - 1.0).max() < 1e-12

    def test_observers_receive_readonly_state(self):
        sys, cfg = make_zero_problem(dt=0.01, t_end=0.02)
        seen = []

        def observer(i, t, state, result):
            seen.append((i, t, result.state.t))
            assert result.iterations >= 1
            with pytest.raises((ValueError, RuntimeError)):
                state.theta[0] = -1.0

        run(sys, cfg, observers=[observer])
        assert [s[0] for s in seen] == [1, 2]
        assert all(t == t_result for _, t, t_result in seen)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_leaves_the_system_untouched(self, dim):
        # ℂ's spectrum is a material constant: no run stores anything on the mesh's spaces.
        sys, cfg = make_smooth_problem(cells=20, t_end=5e-3) if dim == 1 else swirl_problem(3)
        before = contents(vars(sys))
        run(sys, cfg)
        after = contents(vars(sys))
        assert after.keys() == before.keys()
        assert [key for key in before if after[key] != before[key]] == []

    def test_no_switches_to_skip_the_gate_or_keep_step_results(self):
        sys, cfg = make_zero_problem()
        with pytest.raises(TypeError):
            SolverConfig(dt=cfg.dt, t_end=cfg.t_end, theta0=cfg.theta0, check_flow_rule=False)
        with pytest.raises(TypeError):
            run(sys, cfg, collect_infos=False)

    def test_admissibility_gate_rejects_bad_rule(self):
        sys, cfg = make_zero_problem()
        bad = FlowRule("custom", c_growth=1.0, fn=lambda theta: -1.0)
        cfg = replace(cfg, flow_rule=bad)
        with pytest.raises(ValueError, match="admissibility"):
            run(sys, cfg)

    def test_picard_residuals_monotone_tail(self):
        # Cold steps (no extrapolated start) of the smooth scenario: each takes
        # enough Picard iterations to leave a residual tail to compare.
        sys, cfg = make_smooth_problem()
        state = initialize(sys, cfg)
        cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))
        for _ in range(10):
            result = step(sys, cfg, state)
            state = result.state
            assert result.iterations >= 3
            tail = result.residual_history[-3:]
            assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))

    def test_shipped_coupled_scenario_picard_count(self):
        # 4 Picard iterations per step from xₙ, about 2.2 from the quadratic
        # start and about 1.04 from the variable-order one.
        result = run(*build_problem(load_config(shipped_config_path("smooth_coupled.cfg"))))
        assert result.n_steps == 500
        assert result.stats.picard_iters <= 600
        assert result.stats.heat_fallbacks == 0

    def test_divergence_sup_logged(self):
        _, steps = run_recording_steps(*make_smooth_problem())
        assert all(np.isfinite(info.div_sup) for info in steps)

    def test_near_conservation_when_decoupled(self):
        # G ≡ 0, f ≡ 0, θ₀ constant: elastic + kinetic energy drifts by
        # less than O(dt) per unit time under the implicit coupling.
        mesh = build_mesh(1, [1.0], [50])
        sys = build_spaces(mesh)
        dt, t_end = 5e-4, 0.5
        cfg = SolverConfig(dt=dt, t_end=t_end, elasticity=C_HALF,
                           flow_rule=FlowRule.linear(0.0),
                           u0=lambda pts: (0.1 * np.sin(np.pi * pts[:, 0]))[:, None],
                           stress0=lambda pts: (0.1 * np.pi * np.cos(np.pi * pts[:, 0]))[:, None, None],
                           theta0=lambda pts: np.full(pts.shape[0], 1e-4))
        result = run(sys, cfg)
        rows = result.ledger.rows
        e0 = rows[0]["kinetic"] + rows[0]["elastic"]
        drift = max(abs(r["kinetic"] + r["elastic"] - e0) for r in rows)
        assert drift <= 20.0 * dt * t_end * e0

    def test_total_energy_helper_matches_ledger(self, smooth_run):
        sys, cfg, result = smooth_run
        last = result.ledger.rows[-1]
        e = total_energy(sys, cfg.elasticity, result.state)
        assert e == pytest.approx(last["kinetic"] + last["elastic"] + last["thermal"],
                                  rel=1e-12)


class TestThreeDimensions:
    def test_small_3d_run_passes_diagnostics(self):
        mesh = build_mesh(3, [1.0, 1.0, 1.0], [3, 3, 3])
        sys = build_spaces(mesh)
        cfg = SolverConfig(dt=2e-3, t_end=0.01,
                           elasticity=ElasticityTensor(1.0, 1.0),
                           flow_rule=FlowRule.linear(0.5),
                           stress0=lambda pts: 0.1 * np.cos(np.pi * pts[:, 0])[:, None, None]
                           * np.eye(3)[None, :, :],
                           theta0=lambda pts: 1.0 + 0.1 * np.cos(np.pi * pts[:, 0]))
        result = run(sys, cfg)
        assert result.ledger.summary()["passed"]
        assert result.state.theta.min() > 0.0


class TestTruncationResolution:
    def test_auto_height_formula(self):
        sys, cfg = make_zero_problem()
        state = initialize(sys, cfg)
        level = resolve_truncation(sys, cfg, state)
        # zero mechanics, θ ≡ 1 on the unit interval: E₀ = 1, |Ω| = 1
        assert level.n == pytest.approx(10.0)

    def test_explicit_level_preserved(self):
        sys, cfg = make_zero_problem()
        cfg = replace(cfg, truncation=TruncationLevel(2.5))
        state = initialize(sys, cfg)
        assert resolve_truncation(sys, cfg, state).n == 2.5

    def test_step_requires_resolved_truncation(self):
        sys, cfg = make_zero_problem()
        state = initialize(sys, cfg)
        with pytest.raises(ValueError, match="resolved TruncationLevel"):
            step(sys, cfg, state)
