import numpy as np
import pytest

from thermovisco import ElasticityTensor, FlowRule, TruncationLevel, build_mesh, build_spaces
from thermovisco.diagnostics import ACCUMULATORS, C_SCHEME, LEDGER_COLUMNS, scheme_tolerance
from thermovisco.oracle import fd_run, make_grid
from thermovisco.solver import SimState, SolverConfig, heat_substep, run

from conftest import make_smooth_problem


class TestZeroScenario:
    def test_all_residuals_machine_zero(self, zero_run):
        _, _, result = zero_run
        led = result.ledger
        assert len(led.rows) == 101
        for row in led.rows:
            assert row["energy_residual"] <= 1e-12
            assert abs(row["dissipation_margin"]) <= 1e-12
        assert led.entropy_residual(result.state.t) <= 1e-12
        assert led.rows[-1]["entropic_diss"] <= 1e-12
        assert led.rows[-1]["grad_tau_diss"] <= 1e-12

    def test_margin_zero_at_equality(self, zero_run):
        _, _, result = zero_run
        verdict = result.ledger.dissipation_inequality_check()
        assert verdict.passed and abs(verdict.value) <= 1e-12


class TestEnergyBalance:
    def test_residual_small_and_first_order(self, smooth_run, smooth_run_half_dt):
        _, cfg, result = smooth_run
        _, _, half = smooth_run_half_dt
        led = result.ledger
        e0 = led.rows[0]["kinetic"] + led.rows[0]["elastic"] + led.rows[0]["thermal"]
        res_full = led.energy_residual(result.state.t)
        res_half = half.ledger.energy_residual(half.state.t)
        assert res_full <= 5e-3 * e0
        assert 1.6 <= res_full / res_half <= 2.4

    def test_residual_two_ways_agree(self, smooth_run):
        # recompute the instantaneous terms from the final state directly
        sys, cfg, result = smooth_run
        from thermovisco.diagnostics import stress_quadratic_form
        led = result.ledger
        last = led.rows[-1]
        state = result.state
        kinetic = 0.5 * float(state.v @ (sys.M_u @ state.v))
        elastic = 0.5 * float(stress_quadratic_form(sys, cfg.elasticity, state.stress).sum())
        thermal = sys.integrate_nodal(state.theta)
        first = led.rows[0]
        e0 = first["kinetic"] + first["elastic"] + first["thermal"]
        recomputed = abs((kinetic + elastic + thermal - e0)
                         - (last["work"] + last["source_trunc"] - last["inelastic_diss"]))
        assert recomputed == pytest.approx(last["energy_residual"], abs=1e-12)

    def test_missing_time_reports_gap(self, smooth_run):
        _, _, result = smooth_run
        with pytest.raises(KeyError, match="no ledger row"):
            result.ledger.energy_residual(0.12345)


@pytest.fixture(scope="module")
def clamped_run():
    mesh = build_mesh(1, [1.0], [40])
    sys = build_spaces(mesh, mesh.interior_nodes.size, mesh.n_cells)
    cfg = SolverConfig(dt=1e-3, t_end=0.05,
                       elasticity=ElasticityTensor(0.0, 0.5),
                       flow_rule=FlowRule.linear(1.0),
                       truncation=TruncationLevel(0.05),
                       stress0=lambda pts: (0.5 + 0.3 * np.cos(np.pi * pts[:, 0]))[:, None, None],
                       theta0=lambda pts: np.ones(pts.shape[0]))
    return sys, cfg, run(sys, cfg)


class TestTruncationSemantics:
    def test_truncated_accumulator_strictly_smaller(self, clamped_run):
        _, _, result = clamped_run
        last = result.ledger.rows[-1]
        assert last["source_trunc"] < last["inelastic_diss"]
        assert result.ledger.truncation_deficit(result.state.t) > 0.0

    def test_source_values_within_clamp(self, clamped_run):
        _, cfg, result = clamped_run
        n = cfg.truncation.n
        for info in result.step_infos:
            assert info.heat.source_trunc.min() >= 0.0
            assert info.heat.source_trunc.max() <= n + 1e-15
            assert info.heat.source_raw.max() > n  # the clamp is genuinely active

    def test_margin_still_nonnegative(self, clamped_run):
        _, _, result = clamped_run
        assert result.ledger.dissipation_inequality_check().passed

    def test_inactive_clamp_gives_identical_accumulators(self, smooth_run):
        _, _, result = smooth_run
        last = result.ledger.rows[-1]
        assert last["source_trunc"] == pytest.approx(last["inelastic_diss"], abs=1e-15)


class TestEntropyLedger:
    def test_pure_diffusion_jensen_gap(self):
        # ∫ln θ(t) − ∫ln θ(0) realizes the accumulated ∫∫|∇ln θ|²
        mesh = build_mesh(1, [1.0], [50])
        sys = build_spaces(mesh, mesh.interior_nodes.size, mesh.n_cells)
        dt, t_end = 1e-4, 0.05
        theta = 1.0 + 0.5 * np.cos(np.pi * mesh.nodes[:, 0])
        state = SimState(0.0, np.zeros(sys.n_disp), np.zeros(sys.n_disp),
                         np.zeros(sys.k_stress), theta)
        s0 = sys.integrate_nodal(np.log(theta))
        grad_acc = 0.0
        for _ in range(int(round(t_end / dt))):
            out = heat_substep(sys, state, None, FlowRule.linear(1.0),
                               TruncationLevel(1.0), dt)
            state = SimState(state.t + dt, state.u, state.v, state.stress, out.theta)
            tau = np.log(state.theta)
            grad_acc += dt * float(tau @ (sys.K_theta @ tau))
        ds = sys.integrate_nodal(np.log(state.theta)) - s0
        assert grad_acc > 0.0
        assert abs(ds - grad_acc) <= 0.01 * grad_acc

    def test_entropy_residual_first_order(self, smooth_run):
        _, cfg, result = smooth_run
        res = result.ledger.entropy_residual(result.state.t)
        assert res <= scheme_tolerance(cfg.dt)

    def test_inelastic_production_strictly_positive(self, smooth_run):
        _, _, result = smooth_run
        last = result.ledger.rows[-1]
        assert last["entropic_diss"] > 0.0
        assert last["entropic_src_trunc"] > 0.0
        assert last["grad_tau_diss"] > 0.0

    def test_accumulators_nonnegative_and_monotone(self, smooth_run):
        _, _, result = smooth_run
        led = result.ledger
        assert not led.invariant_violations
        for key in ("grad_tau_diss", "inelastic_diss", "entropic_diss", "source_trunc"):
            vals = [r[key] for r in led.rows]
            assert vals[0] == 0.0
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


class TestDissipationInequality:
    def test_margin_nonnegative_on_smooth(self, smooth_run):
        _, cfg, result = smooth_run
        verdict = result.ledger.dissipation_inequality_check()
        assert verdict.passed
        assert verdict.value >= -max(1e-10, C_SCHEME * cfg.dt)

    def test_margin_tracks_entropic_dissipation(self, smooth_run):
        _, _, result = smooth_run
        last = result.ledger.rows[-1]
        assert last["dissipation_margin"] == pytest.approx(last["entropic_diss"], rel=0.10)

    def test_adversarial_rule_fails_verdict(self):
        mesh = build_mesh(1, [1.0], [20])
        sys = build_spaces(mesh, mesh.interior_nodes.size, mesh.n_cells)
        bad = FlowRule.custom(lambda theta: -1.0, c_growth=1.0)
        cfg = SolverConfig(dt=1e-3, t_end=0.05,
                           elasticity=ElasticityTensor(0.0, 0.5),
                           flow_rule=bad, check_flow_rule=False,
                           stress0=lambda pts: (0.3 * np.cos(np.pi * pts[:, 0]))[:, None, None],
                           theta0=lambda pts: np.ones(pts.shape[0]))
        result = run(sys, cfg)
        verdict = result.ledger.dissipation_inequality_check()
        assert not verdict.passed
        assert verdict.value < 0.0
        assert result.ledger.invariant_violations  # anti-dissipation is flagged
        assert not result.ledger.summary()["passed"]


class TestPositivityBound:
    def test_no_motion_keeps_minimum(self):
        # div u_t = 0 and nonnegative source: θ_min can only rise
        mesh = build_mesh(1, [1.0], [30])
        sys = build_spaces(mesh, mesh.interior_nodes.size, mesh.n_cells)
        cfg = SolverConfig(dt=1e-3, t_end=0.05,
                           elasticity=ElasticityTensor(0.0, 0.5),
                           flow_rule=FlowRule.linear(1.0),
                           theta0=lambda pts: 1.0 + 0.5 * np.cos(np.pi * pts[:, 0]))
        result = run(sys, cfg)
        verdict = result.ledger.positivity_bound_check()
        assert verdict.passed
        assert verdict.value >= 1.0

    def test_smooth_scenario_ratio(self, smooth_run):
        _, _, result = smooth_run
        assert result.ledger.positivity_bound_check().value >= 0.95

    def test_synthetic_exponential_decay(self):
        # spatially constant contraction rate 1: θ(t) = e^{−t} exactly
        mesh = build_mesh(1, [1.0], [50])
        sys = build_spaces(mesh, mesh.interior_nodes.size, mesh.n_cells)
        dt, t_end = 0.01, 1.0
        state = SimState(0.0, np.zeros(sys.n_disp), np.zeros(sys.n_disp),
                         np.zeros(sys.k_stress), np.ones(sys.n_temp))
        worst = 0.0
        while state.t < t_end - dt / 2:
            out = heat_substep(sys, state, 1.0, FlowRule.linear(1.0),
                               TruncationLevel(5.0), dt)
            state = SimState(state.t + dt, state.u, state.v, state.stress, out.theta)
            rel = abs(state.theta.min() - np.exp(-state.t)) / np.exp(-state.t)
            worst = max(worst, rel)
        assert worst <= 0.02

    def test_empty_history_rejected(self):
        from thermovisco.diagnostics import LedgerBase
        with pytest.raises(ValueError):
            LedgerBase(1e-3).positivity_bound_check()


class TestUniformBound:
    def test_smooth_scenario(self, smooth_run):
        _, _, result = smooth_run
        assert result.ledger.uniform_bound_check().passed


@pytest.fixture(scope="module")
def both_ledgers():
    """Five steps of the smooth 1D scenario by the Galerkin solver and the oracle."""
    dt, t_end = 1e-3, 5e-3
    sys, cfg = make_smooth_problem(dt=dt, t_end=t_end)
    grid = make_grid(sys.n_temp, 1.0, dt,
                     u0=lambda x: 0.1 * np.sin(np.pi * x),
                     T0=lambda x: 0.3 * np.cos(np.pi * x),
                     theta0=lambda x: 1.0 + 0.2 * np.cos(np.pi * x))
    _, fd = fd_run(grid, 1.0, FlowRule.mroz_saturating(1.0).scalar_eval, t_end,
                   f_sampler=lambda t, x: 0.05 * np.cos(2 * t) * np.sin(np.pi * x))
    return run(sys, cfg).ledger, fd


class TestSharedLedgerPath:
    def test_same_row_keys(self, both_ledgers):
        galerkin, fd = both_ledgers
        assert len(galerkin.rows) == len(fd.rows) == 6
        for a, b in zip(galerkin.rows, fd.rows):
            assert set(a) == set(b)

    def test_accumulators_start_at_zero(self, both_ledgers):
        for ledger in both_ledgers:
            assert {key: ledger.rows[0][key] for key in ACCUMULATORS} == \
                dict.fromkeys(ACCUMULATORS, 0.0)

    def test_theta_floor_is_trapezoid_of_div_sup(self, both_ledgers):
        for ledger in both_ledgers:
            rows = ledger.rows
            sup = np.array([r["div_sup"] for r in rows])
            assert sup[1:].min() > 0.0
            integral = np.cumsum(np.r_[0.0, 0.5 * ledger.dt * (sup[:-1] + sup[1:])])
            floor = rows[0]["theta_min"] * np.exp(-integral)
            assert np.allclose([r["theta_floor"] for r in rows], floor, rtol=1e-14, atol=0.0)


class TestSerialization:
    def test_csv_schema(self, zero_run, tmp_path):
        _, _, result = zero_run
        text = result.ledger.to_csv(tmp_path / "ledger.csv")
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(LEDGER_COLUMNS)
        assert len(lines) == 1 + 101
        assert (tmp_path / "ledger.csv").read_text() == text

    def test_csv_deterministic_across_runs(self):
        def one():
            sys, cfg = make_smooth_problem(cells=30, dt=1e-3, t_end=0.02)
            return run(sys, cfg).ledger.to_csv()
        assert one() == one()

    def test_summary_structure(self, smooth_run):
        _, _, result = smooth_run
        s = result.ledger.summary()
        assert s["passed"]
        assert set(s["verdicts"]) == {"energy_balance", "dissipation_inequality",
                                      "temperature_positivity", "uniform_bound",
                                      "accumulators_monotone"}
        text = result.ledger.summary_text()
        assert "[pass]" in text and "FAIL" not in text
