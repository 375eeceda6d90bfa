import numpy as np
import pytest
import scipy.sparse.linalg as spla
from dataclasses import replace

from thermovisco import ElasticityTensor, FlowRule, TruncationLevel, build_mesh, build_spaces
from thermovisco.constitutive import truncate
from thermovisco import solver
from thermovisco.config import build_problem, load_config, shipped_config_path
from thermovisco.discretization import max_levels
from thermovisco.solver import (
    PicardConvergenceError,
    PositivityError,
    SimState,
    SolverConfig,
    StepFailureError,
    _saturating_factor,
    divergence_of,
    heat_constants,
    heat_substep,
    initialize,
    momentum_substep,
    resolve_truncation,
    run,
    step,
    stress_substep,
)
from thermovisco.diagnostics import total_energy

from conftest import make_smooth_problem, make_zero_problem

C_HALF = ElasticityTensor(0.0, 0.5)  # identity action on symmetric matrices


def small_system(cells=8):
    mesh = build_mesh(1, [1.0], [cells])
    return build_spaces(mesh, mesh.interior_nodes.size, mesh.n_cells)


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
        sys = build_spaces(mesh, 3, 4)
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
        T_new, iters = stress_substep(sys, C, FlowRule.linear(0.0),
                                      np.ones(sys.mesh.n_cells), T_old, E, dt)
        assert np.allclose(T_new, T_old + dt * 1.4 * E, atol=1e-12)

    def test_scalar_relaxation_closed_form(self):
        # linear G, κ=1, C = id, strain rate 0: T_new = T_old / (1 + dt)
        sys = small_system()
        T_old = np.full(sys.k_stress, 0.8)
        dt = 0.1
        T_new, _ = stress_substep(sys, C_HALF, FlowRule.linear(1.0),
                                  np.ones(sys.mesh.n_cells), T_old,
                                  np.zeros(sys.k_stress), dt)
        assert np.allclose(T_new, 0.8 / (1 + dt), atol=1e-12)

    def test_equilibrium_is_fixed_point(self):
        # strain rate == G(θ, T_old) keeps the stress unchanged
        sys = small_system()
        rule = FlowRule.mroz_saturating(1.0)
        T_old = np.full(sys.k_stress, 0.5)
        theta = np.full(sys.mesh.n_cells, 1.3)
        E = rule.eval_mandel(theta, T_old[:, None], 1)[:, 0]
        T_new, iters = stress_substep(sys, C_HALF, rule, theta, T_old, E, 0.05)
        assert np.allclose(T_new, T_old, atol=1e-12)
        assert iters <= 2

    def test_partial_last_cell(self):
        # k not a multiple of the component count still updates consistently
        mesh = build_mesh(2, [1.0, 1.0], [2, 2])
        sys = build_spaces(mesh, mesh.interior_nodes.size * 2, 5)  # 1 full cell + 2 comps
        C = ElasticityTensor(1.0, 1.0)
        T_old = np.array([0.4, -0.2, 0.1, 0.3, 0.2])
        T_new, _ = stress_substep(sys, C, FlowRule.linear(2.0),
                                  np.ones(4), T_old, np.zeros(5), 0.01)
        # every component relaxes toward zero, none blows up
        assert np.all(np.abs(T_new) < np.abs(T_old) + 1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("last_cell", ["full", "one_short", "one_component"])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("rule", [FlowRule.linear(20.0), FlowRule.mroz_saturating(20.0),
                                      FlowRule.temperature_weighted(20.0)],
                             ids=lambda r: r.kind)
    def test_matches_dense_per_cell_solve(self, dim, last_cell, lam, rule):
        # (ℂ_P⁻¹ + dt·g·I)t = ℂ_P⁻¹t_old + dt·e per cell, g at the solution;
        # dt·g·c reaches 25, far outside any damped fixed-point contraction.
        # A last cell with fewer diagonal components than dim has ℂ_P ≠ ℂ[P, P].
        mesh = build_mesh(dim, [1.0] * dim, [2] * dim)
        s = dim * (dim + 1) // 2
        short = {"full": 0, "one_short": 1, "one_component": s - 1}[last_cell]
        k = mesh.n_cells * s - short
        sys = build_spaces(mesh, mesh.interior_nodes.size * dim, k)
        C = ElasticityTensor(lam, 1.0)
        rng = np.random.default_rng(dim)
        T_old, E = rng.standard_normal(k), 5.0 * rng.standard_normal(k)
        theta = rng.uniform(0.5, 2.0, mesh.n_cells)
        dt = 0.25
        T_new, _ = stress_substep(sys, C, rule, theta, T_old, E, dt)

        cinv = C.inverse_mandel_matrix(dim)
        for e in range(mesh.n_cells):
            dofs = np.flatnonzero(sys.stress_cell == e)
            if dofs.size == 0:
                continue
            P = sys.stress_comp[dofs]
            t = T_new[dofs]
            G = rule.eval_mandel(theta[e:e + 1], np.pad(t, (0, s - t.size))[None, :], dim)[0]
            g = G[:t.size] @ t / (t @ t)  # radial: G = g·T
            A = cinv[np.ix_(P, P)]
            dense = np.linalg.solve(A + dt * g * np.eye(P.size), A @ T_old[dofs] + dt * E[dofs])
            assert np.abs(t - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("kappa0", [900.0, 5000.0, 1e4])
    def test_stiff_flow_rule_completes_step(self, kappa0):
        # dt·2μ·κ₀ from 0.9 to 10: a damped fixed-point map does not contract here
        sys, cfg = make_smooth_problem(dt=1e-3, t_end=1e-3, kappa0=kappa0)
        cfg = replace(cfg, check_flow_rule=False)
        state = initialize(sys, cfg)
        cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))
        result = step(sys, cfg, state)
        assert np.all(np.isfinite(result.state.stress))
        assert np.abs(result.state.stress).max() < np.abs(state.stress).max()

    def test_anti_monotone_without_solution_raises(self):
        # g = −1, c = 1, dt = 2: 1 + dt·g·c = −1, so no stress solves the step
        sys = small_system()
        bad = FlowRule.custom(lambda theta: -1.0, c_growth=1.0)
        with pytest.raises(StepFailureError, match=r"1 \+ dt·g·c"):
            stress_substep(sys, C_HALF, bad, np.ones(sys.mesh.n_cells),
                           np.full(sys.k_stress, 1.0), np.zeros(sys.k_stress), dt=2.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_warm_start_matches_cold_start(self, dim):
        # Newton from the solution perturbed by 20% ends where Newton from T_old does.
        mesh = build_mesh(dim, [1.0] * dim, [3] * dim)
        n_disp, k = max_levels(dim, mesh.cells)
        sys = build_spaces(mesh, n_disp, k)
        rule = FlowRule.mroz_saturating(20.0)
        C = ElasticityTensor(1.0, 1.0)
        rng = np.random.default_rng(dim)
        T_old, E = rng.standard_normal(k), 5.0 * rng.standard_normal(k)
        theta = rng.uniform(0.5, 2.0, mesh.n_cells)
        cold, cold_iters = stress_substep(sys, C, rule, theta, T_old, E, 0.25)
        start = cold * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, k))
        warm, warm_iters = stress_substep(sys, C, rule, theta, T_old, E, 0.25,
                                          stress_start=start)
        assert np.abs(warm - cold).max() <= 1e-12 * np.abs(cold).max()
        assert warm_iters <= cold_iters
        same, _ = stress_substep(sys, C, rule, theta, T_old, E, 0.25, stress_start=T_old)
        assert np.array_equal(same, cold)

    @pytest.mark.parametrize("outside", [-1.0, 0.0, 1e6])
    def test_saturating_start_is_clipped_to_bracket(self, outside):
        # A start outside [κ/(1 + |R|), κ] runs exactly as one at the nearer end.
        rng = np.random.default_rng(3)
        kappa = rng.uniform(1.0, 20.0, 50)
        r2 = rng.uniform(0.0, 4.0, (50, 2))
        dtc = rng.uniform(0.1, 5.0, (50, 2))
        lo, hi = kappa / (1.0 + np.sqrt(r2.sum(axis=1))), kappa
        g, iters = _saturating_factor(kappa, r2, dtc, outside * kappa)
        g_end, iters_end = _saturating_factor(kappa, r2, dtc, hi if outside > 1.0 else lo)
        assert np.array_equal(g, g_end) and iters == iters_end


def random_heat_case(cells, partial, delta, dt, signed=True, seed=0):
    """A heat substep input with a random per-Gauss-point div at dt·‖div‖∞ = delta.

    Every axis has the spacing 1/cells[0]; ``partial`` drops the
    last displacement dof and the last two stress components.  Returns the
    system, the state and the Gauss-point divergence.
    """
    dim = len(cells)
    mesh = build_mesh(dim, [c / cells[0] for c in cells], cells)
    n_disp, k_stress = max_levels(dim, mesh.cells)
    if partial:
        n_disp, k_stress = n_disp - 1, k_stress - 2
    sys = build_spaces(mesh, n_disp, k_stress)
    rng = np.random.default_rng(seed)
    theta = 1.0 + 0.3 * rng.random(sys.n_temp)
    state = SimState(0.0, np.zeros(sys.n_disp), np.zeros(sys.n_disp),
                     rng.standard_normal(sys.k_stress), theta)
    div = rng.uniform(-1.0 if signed else 0.0, 1.0, (mesh.n_cells, sys._gauss_ref.shape[0]))
    div *= delta / dt / np.abs(div).max()
    return sys, state, div


def swirl_problem(dim=2):
    """A tiny run on 4^dim cells whose initial velocity makes div u_t nonzero."""
    mesh = build_mesh(dim, [1.0] * dim, [4] * dim)
    sys = build_spaces(mesh, *max_levels(dim, mesh.cells))
    swirl = lambda pts: np.stack([np.prod(np.sin(np.pi * pts), axis=1)] * dim, axis=1)
    cfg = SolverConfig(dt=1e-3, t_end=5e-3, elasticity=C_HALF,
                       flow_rule=FlowRule.linear(1.0), u1=swirl,
                       theta0=lambda pts: 1.0 + 0.2 * pts[:, 0])
    return sys, cfg


def direct_heat_solve(sys, state, div, out, dt):
    A = sys.heat_matrix(dt, div)
    rhs = sys.M_theta @ state.theta + dt * sys.heat_source_vector(out.source_trunc)
    return spla.spsolve(A.tocsc(), rhs)


class TestHeat:
    def test_constant_theta_preserved(self):
        sys = small_system()
        state = quiet_state(sys, theta=2.5)
        out = heat_substep(sys, state, None, FlowRule.linear(1.0),
                           TruncationLevel(1.0), dt=0.01)
        assert np.allclose(out.theta, 2.5, atol=1e-13)

    def test_total_heat_conserved_without_sources(self):
        sys = small_system(cells=20)
        theta = 1.0 + 0.5 * np.cos(np.pi * sys.mesh.nodes[:, 0])
        state = SimState(0.0, np.zeros(sys.n_disp), np.zeros(sys.n_disp),
                         np.zeros(sys.k_stress), theta)
        out = heat_substep(sys, state, None, FlowRule.linear(1.0),
                           TruncationLevel(1.0), dt=0.01)
        assert sys.integrate_nodal(out.theta) == pytest.approx(
            sys.integrate_nodal(theta), abs=1e-13)

    def test_cosine_decay_matches_fd_oracle(self):
        # matched-resolution comparison of the pure-diffusion mode
        from thermovisco.oracle import make_grid, fd_run
        cells, dt, t_end = 50, 1e-4, 0.02
        mesh = build_mesh(1, [1.0], [cells])
        sys = build_spaces(mesh, mesh.interior_nodes.size, mesh.n_cells)
        theta = 1.0 + 0.5 * np.cos(np.pi * mesh.nodes[:, 0])
        state = SimState(0.0, np.zeros(sys.n_disp), np.zeros(sys.n_disp),
                         np.zeros(sys.k_stress), theta)
        mins = [theta.min()]
        for _ in range(int(round(t_end / dt))):
            out = heat_substep(sys, state, None, FlowRule.linear(1.0),
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
        out = heat_substep(sys, state, None, FlowRule.linear(1.0),
                           TruncationLevel(5.0), dt=0.01, stress=T)
        assert np.allclose(out.source_raw, 7.0, atol=1e-12)
        assert np.allclose(out.source_trunc, 5.0, atol=1e-12)

    def test_positivity_error_raised(self):
        # violent expansion at huge dt drives θ through zero
        sys = small_system()
        state = quiet_state(sys)
        with pytest.raises(PositivityError):
            heat_substep(sys, state, -2.0, FlowRule.linear(1.0),
                         TruncationLevel(1.0), dt=1.0)

    @pytest.mark.parametrize("delta", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("partial", [False, True])
    @pytest.mark.parametrize("cells", [(9,), (5, 7), (4, 3, 5)])
    def test_pcg_matches_direct_solve(self, cells, partial, delta):
        # dt·‖div‖∞ < 1 bounds the preconditioned spectrum in [1 − δ, 1 + δ].
        dt = 0.01
        sys, state, div = random_heat_case(cells, partial, delta, dt)
        out = heat_substep(sys, state, div, FlowRule.linear(1.0), TruncationLevel(10.0), dt)
        assert not out.fallback
        # Without advection the preconditioner is the exact inverse: one step.
        assert out.cg_iters == 1 if delta == 0.0 else out.cg_iters >= 1
        ref = direct_heat_solve(sys, state, div, out, dt)
        assert np.abs(out.theta - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("cells", [(9,), (5, 7), (4, 3, 5)])
    def test_warm_start_matches_cold_start(self, cells):
        # CG from a perturbed guess reaches the θ_old start's answer; the step's
        # constants passed in change nothing.
        dt = 0.01
        sys, state, div = random_heat_case(cells, False, 0.5, dt)
        args = (sys, state, div, FlowRule.linear(1.0), TruncationLevel(10.0), dt)
        cold = heat_substep(*args)
        guess = state.theta + 0.1 * np.random.default_rng(1).standard_normal(sys.n_temp)
        warm = heat_substep(*args, theta_start=guess)
        assert not warm.fallback
        assert np.abs(warm.theta - cold.theta).max() <= 1e-12 * np.abs(cold.theta).max()
        hoisted = heat_substep(*args, constants=heat_constants(sys, state))
        assert np.array_equal(hoisted.theta, cold.theta)

    @pytest.mark.parametrize("cells", [(200,), (200, 2), (200, 2, 2)])
    def test_fallback_runs_and_is_counted(self, cells):
        # dt·‖div‖∞ = 20 spreads the preconditioned spectrum over [1, 21]; 200
        # cells along x leave far more mass-dominated modes than the CG cap.
        # div ≥ 0 (pure cooling) and strong diffusion, dt/h² = 4, keep θ positive.
        dt = 1e-4
        sys, state, div = random_heat_case(cells, False, 20.0, dt, signed=False)
        out = heat_substep(sys, state, div, FlowRule.linear(1.0), TruncationLevel(10.0), dt)
        assert out.fallback
        ref = direct_heat_solve(sys, state, div, out, dt)
        assert np.array_equal(out.theta, ref)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_no_factorization_in_2d_3d(self, monkeypatch, dim):
        # Both inverses are per-axis in 2D/3D: no sparse factor is ever made.
        calls = {"splu": 0, "spsolve": 0, "factorized": 0}

        def counted(name):
            original = getattr(spla, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(spla, name, counted(name))
        result = run(*swirl_problem(dim))
        assert result.n_steps == 5
        assert calls == {"splu": 0, "spsolve": 0, "factorized": 0}
        assert all(info.heat_cg_iters >= info.iterations and info.heat_fallbacks == 0
                   for info in result.step_infos)


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

    @pytest.mark.parametrize("problem", ["smooth_1d", "swirl_2d"])
    def test_predictor_start_reaches_same_state(self, problem):
        # From the predictor 2·xₙ − xₙ₋₁ or from xₙ, the loop stops within
        # tolerance of one fixed point; with no previous state the start is xₙ.
        if problem == "smooth_1d":
            sys, cfg = make_smooth_problem(dt=1e-3, t_end=1.0)
        else:
            sys, cfg = swirl_problem()
        state = initialize(sys, cfg)
        cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))
        previous, state = state, step(sys, cfg, state).state
        cold = step(sys, cfg, state)
        warm = step(sys, cfg, state, previous)
        assert warm.iterations <= cold.iterations
        for name in ("v", "stress", "theta"):
            a, b = getattr(warm.state, name), getattr(cold.state, name)
            assert np.abs(a - b).max() <= 10 * cfg.picard_tol * max(np.abs(b).max(), 1.0)
        plain = step(sys, cfg, state, None)
        assert plain.iterations == cold.iterations
        for name in ("u", "v", "stress", "theta"):
            assert np.array_equal(getattr(plain.state, name), getattr(cold.state, name))

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
        sys = build_spaces(mesh, mesh.interior_nodes.size, mesh.n_cells)
        dt = 1e-3
        cfg = SolverConfig(dt=dt, t_end=dt, elasticity=C_HALF,
                           flow_rule=FlowRule.linear(0.0),
                           stress0=lambda pts: (0.3 * np.cos(np.pi * pts[:, 0]))[:, None, None],
                           theta0=lambda pts: np.ones(pts.shape[0]),
                           check_flow_rule=False)
        state = initialize(sys, cfg)
        cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))

        heat = heat_substep(sys, state, divergence_of(sys, state.v), cfg.flow_rule,
                            cfg.truncation, dt, stress=state.stress)
        v1 = momentum_substep(sys, state, heat.theta, state.stress,
                              np.zeros(sys.n_disp), dt)
        T1, _ = stress_substep(sys, cfg.elasticity, cfg.flow_rule,
                               sys.cell_center_values(heat.theta), state.stress,
                               sys.B @ v1, dt)
        result = step(sys, cfg, state)
        assert result.iterations <= 5
        assert np.abs(result.state.theta - heat.theta).max() < 10 * dt ** 2
        assert np.abs(result.state.v - v1).max() < 100 * dt ** 3
        assert np.abs(result.state.stress - T1).max() < 1e-9

    def test_converged_state_satisfies_all_equations(self):
        # order-insensitivity at convergence: the accepted state solves the
        # three discrete equations simultaneously, not just in sweep order
        sys, cfg = make_smooth_problem(cells=50, dt=1e-3, t_end=1.0)
        cfg = replace(cfg, check_flow_rule=False)
        state = initialize(sys, cfg)
        cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))
        for _ in range(3):
            old = state
            result = step(sys, cfg, state)
            state = result.state
        dt = cfg.dt

        mom = sys.M_u @ (state.v - old.v) / dt + sys.S.T @ state.stress \
            - sys.D.T @ state.theta - result.f_load
        assert np.abs(mom).max() < 1e-8

        th_c = sys.cell_center_values(state.theta)
        cinv_rate = cfg.elasticity.inverse_apply_mandel(
            (state.stress - old.stress)[:, None], 1)[:, 0] / dt
        g = cfg.flow_rule.eval_mandel(th_c, state.stress[:, None], 1)[:, 0]
        assert np.abs(cinv_rate + g - sys.B @ state.v).max() < 1e-8

        div = divergence_of(sys, state.v)
        A = sys.M_theta + dt * sys.K_theta + dt * sys.advection_matrix(div)
        src = truncate(cfg.truncation,
                       cfg.flow_rule.eval_mandel(sys.cell_center_values(old.theta),
                                                 state.stress[:, None], 1)[:, 0] * state.stress)
        heat_res = A @ state.theta - sys.M_theta @ old.theta - dt * sys.heat_source_vector(src)
        assert np.abs(heat_res).max() < 1e-8

    def test_picard_nonconvergence_reports_history(self):
        sys, cfg = make_smooth_problem(cells=20, dt=1e-3, t_end=1e-3)
        cfg = replace(cfg, picard_max_iters=1, check_flow_rule=False)
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

        def observer(i, t, state, row):
            seen.append((i, t, row["t"]))
            with pytest.raises((ValueError, RuntimeError)):
                state.theta[0] = -1.0

        run(sys, cfg, observers=[observer])
        assert [s[0] for s in seen] == [1, 2]

    def test_admissibility_gate_rejects_bad_rule(self):
        sys, cfg = make_zero_problem()
        bad = FlowRule.custom(lambda theta: -1.0, c_growth=1.0)
        cfg = replace(cfg, flow_rule=bad)
        with pytest.raises(ValueError, match="admissibility"):
            run(sys, cfg)

    def test_picard_residuals_monotone_tail(self, smooth_run):
        _, _, result = smooth_run
        for info in result.step_infos:
            tail = info.residual_history[-3:]
            assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))

    def test_shipped_coupled_scenario_picard_count(self):
        # 4 Picard iterations per step from xₙ; about 3 from the predictor.
        result = run(*build_problem(load_config(shipped_config_path("smooth_coupled.cfg"))))
        assert result.n_steps == 500
        assert sum(info.iterations for info in result.step_infos) <= 1550
        assert sum(info.heat_fallbacks for info in result.step_infos) == 0

    def test_divergence_sup_logged(self, smooth_run):
        _, _, result = smooth_run
        assert all(np.isfinite(info.div_sup) for info in result.step_infos)

    def test_near_conservation_when_decoupled(self):
        # G ≡ 0, f ≡ 0, θ₀ constant: elastic + kinetic energy drifts by
        # less than O(dt) per unit time under the implicit coupling.
        mesh = build_mesh(1, [1.0], [50])
        sys = build_spaces(mesh, mesh.interior_nodes.size, mesh.n_cells)
        dt, t_end = 5e-4, 0.5
        cfg = SolverConfig(dt=dt, t_end=t_end, elasticity=C_HALF,
                           flow_rule=FlowRule.linear(0.0),
                           u0=lambda pts: (0.1 * np.sin(np.pi * pts[:, 0]))[:, None],
                           stress0=lambda pts: (0.1 * np.pi * np.cos(np.pi * pts[:, 0]))[:, None, None],
                           theta0=lambda pts: np.full(pts.shape[0], 1e-4),
                           check_flow_rule=False)
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
        sys = build_spaces(mesh, mesh.interior_nodes.size * 3, mesh.n_cells * 6)
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
