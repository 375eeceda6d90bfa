import re
import numpy as np
import pytest
from dataclasses import replace
from pathlib import Path

from thermovisco import (ElasticityTensor, FlowRule, TruncationLevel, build_mesh, build_spaces,
                         diagnostics, solver, verify_admissibility)
from thermovisco.config import build_problem, load_config, shipped_config_path
from thermovisco.diagnostics import (ACCUMULATORS, BLOCK_BYTES, C_SCHEME, LEDGER_COLUMNS,
                                     BalanceLedger, energy_terms, entropy_residual,
                                     format_summary, scheme_tolerance)
from thermovisco.solver import SimState, SolverConfig, initialize, run

from conftest import heat_solve, make_smooth_problem, run_recording_steps


class TestZeroScenario:
    def test_all_residuals_machine_zero(self, zero_run):
        _, _, result = zero_run
        led = result.ledger
        assert len(led.rows) == 101
        for row in led.rows:
            assert row["energy_residual"] <= 1e-12
            assert abs(row["dissipation_margin"]) <= 1e-12
        assert led.summary()["entropy_residual"] <= 1e-12
        assert led.rows[-1]["entropic_diss"] <= 1e-12
        assert led.rows[-1]["grad_tau_diss"] <= 1e-12

    def test_margin_zero_at_equality(self, zero_run):
        _, _, result = zero_run
        s = result.ledger.summary()
        assert s["verdicts"]["dissipation_inequality"]
        assert abs(s["dissipation_margin_min"]) <= 1e-12


class TestEnergyBalance:
    def test_residual_small_and_first_order(self, smooth_run, smooth_run_half_dt):
        _, cfg, result = smooth_run
        _, _, half = smooth_run_half_dt
        led = result.ledger
        e0 = led.rows[0]["kinetic"] + led.rows[0]["elastic"] + led.rows[0]["thermal"]
        res_full = led.summary()["energy_residual"]
        res_half = half.ledger.summary()["energy_residual"]
        assert res_full <= 5e-3 * e0
        assert 1.6 <= res_full / res_half <= 2.4

    def test_residual_two_ways_agree(self, smooth_run):
        # recompute the instantaneous terms from the final state directly
        sys, cfg, result = smooth_run
        from thermovisco.diagnostics import stress_quadratic_form
        led = result.ledger
        last = led.rows[-1]
        state = result.state
        kinetic = 0.5 * float(state.v @ sys.apply_mass_u(state.v))
        elastic = 0.5 * float(stress_quadratic_form(sys, cfg.elasticity, state.stress).sum())
        thermal = sys.integrate_nodal(state.theta)
        first = led.rows[0]
        e0 = first["kinetic"] + first["elastic"] + first["thermal"]
        recomputed = abs((kinetic + elastic + thermal - e0)
                         - (last["work"] + last["source_trunc"] - last["inelastic_diss"]))
        assert recomputed == pytest.approx(last["energy_residual"], abs=1e-12)


@pytest.fixture(scope="module")
def clamped_run():
    mesh = build_mesh(1, [1.0], [40])
    sys = build_spaces(mesh)
    cfg = SolverConfig(dt=1e-3, t_end=0.05,
                       elasticity=ElasticityTensor(0.0, 0.5),
                       flow_rule=FlowRule.linear(1.0),
                       truncation=TruncationLevel(0.05),
                       stress0=lambda pts: (0.5 + 0.3 * np.cos(np.pi * pts[:, 0]))[:, None, None],
                       theta0=lambda pts: np.ones(pts.shape[0]))
    return (sys, cfg, *run_recording_steps(sys, cfg))


class TestTruncationSemantics:
    def test_truncated_accumulator_strictly_smaller(self, clamped_run):
        _, _, result, _ = clamped_run
        last = result.ledger.rows[-1]
        assert last["source_trunc"] < last["inelastic_diss"]
        assert result.ledger.summary()["truncation_deficit"] > 0.0

    def test_source_values_within_clamp(self, clamped_run):
        _, cfg, _, steps = clamped_run
        n = cfg.truncation.n
        for info in steps:
            assert info.heat.source_trunc.min() >= 0.0
            assert info.heat.source_trunc.max() <= n + 1e-15
            assert info.heat.source_raw.max() > n  # the clamp is genuinely active

    def test_margin_still_nonnegative(self, clamped_run):
        _, _, result, _ = clamped_run
        assert result.ledger.summary()["verdicts"]["dissipation_inequality"]

    def test_inactive_clamp_gives_identical_accumulators(self, smooth_run):
        _, _, result = smooth_run
        last = result.ledger.rows[-1]
        assert last["source_trunc"] == pytest.approx(last["inelastic_diss"], abs=1e-15)


class TestEntropyLedger:
    def test_pure_diffusion_jensen_gap(self):
        # ∫ln θ(t) − ∫ln θ(0) realizes the accumulated ∫∫|∇ln θ|²
        mesh = build_mesh(1, [1.0], [50])
        sys = build_spaces(mesh)
        dt, t_end = 1e-4, 0.05
        theta = 1.0 + 0.5 * np.cos(np.pi * mesh.nodes[:, 0])
        state = SimState(0.0, np.zeros(sys.n_disp), np.zeros(sys.n_disp),
                         np.zeros(sys.k_stress), theta)
        s0 = sys.integrate_nodal(np.log(theta))
        grad_acc = 0.0
        for _ in range(int(round(t_end / dt))):
            out = heat_solve(sys, state, 0.0, FlowRule.linear(1.0),
                             TruncationLevel(1.0), dt)
            state = SimState(state.t + dt, state.u, state.v, state.stress, out.theta)
            tau = np.log(state.theta)
            grad_acc += dt * float(tau @ (sys.K_theta @ tau))
        ds = sys.integrate_nodal(np.log(state.theta)) - s0
        assert grad_acc > 0.0
        assert abs(ds - grad_acc) <= 0.01 * grad_acc

    def test_entropy_residual_first_order(self, smooth_run):
        _, cfg, result = smooth_run
        res = result.ledger.summary()["entropy_residual"]
        assert res <= scheme_tolerance(cfg.dt)

    def test_entropy_residual_needs_positive_temperature(self, smooth_run):
        _, _, result = smooth_run
        first, last = result.ledger.rows[0], result.ledger.rows[-1]
        assert entropy_residual(first, last) == result.ledger.summary()["entropy_residual"]
        with pytest.raises(ValueError, match="nonpositive temperature"):
            entropy_residual(first, {**last, "theta_min": 0.0})

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
        s = result.ledger.summary()
        assert s["verdicts"]["dissipation_inequality"]
        assert s["dissipation_margin_min"] >= -max(1e-10, C_SCHEME * cfg.dt)

    def test_margin_tracks_entropic_dissipation(self, smooth_run):
        _, _, result = smooth_run
        last = result.ledger.rows[-1]
        assert last["dissipation_margin"] == pytest.approx(last["entropic_diss"], rel=0.10)

    def test_adversarial_rule_fails_verdict(self, monkeypatch):
        # The admissibility gate would stop this rule before the ledger sees it.
        monkeypatch.setattr(solver, "verify_admissibility",
                            lambda rule, samples: verify_admissibility(FlowRule.linear(), samples))
        mesh = build_mesh(1, [1.0], [20])
        sys = build_spaces(mesh)
        bad = FlowRule("custom", c_growth=1.0, fn=lambda theta: -1.0)
        cfg = SolverConfig(dt=1e-3, t_end=0.05,
                           elasticity=ElasticityTensor(0.0, 0.5),
                           flow_rule=bad,
                           stress0=lambda pts: (0.3 * np.cos(np.pi * pts[:, 0]))[:, None, None],
                           theta0=lambda pts: np.ones(pts.shape[0]))
        result = run(sys, cfg)
        s = result.ledger.summary()
        assert not s["verdicts"]["dissipation_inequality"]
        assert s["dissipation_margin_min"] < 0.0
        assert result.ledger.invariant_violations  # anti-dissipation is flagged
        assert not s["passed"]


class TestPositivityBound:
    def test_no_motion_keeps_minimum(self):
        # div u_t = 0 and nonnegative source: θ_min can only rise
        mesh = build_mesh(1, [1.0], [30])
        sys = build_spaces(mesh)
        cfg = SolverConfig(dt=1e-3, t_end=0.05,
                           elasticity=ElasticityTensor(0.0, 0.5),
                           flow_rule=FlowRule.linear(1.0),
                           theta0=lambda pts: 1.0 + 0.5 * np.cos(np.pi * pts[:, 0]))
        result = run(sys, cfg)
        s = result.ledger.summary()
        assert s["verdicts"]["temperature_positivity"]
        assert s["positivity_worst_ratio"] >= 1.0

    def test_smooth_scenario_ratio(self, smooth_run):
        _, _, result = smooth_run
        assert result.ledger.summary()["positivity_worst_ratio"] >= 0.95

    def test_synthetic_exponential_decay(self):
        # spatially constant contraction rate 1: θ(t) = e^{−t} exactly
        mesh = build_mesh(1, [1.0], [50])
        sys = build_spaces(mesh)
        dt, t_end = 0.01, 1.0
        state = SimState(0.0, np.zeros(sys.n_disp), np.zeros(sys.n_disp),
                         np.zeros(sys.k_stress), np.ones(sys.n_temp))
        worst = 0.0
        while state.t < t_end - dt / 2:
            out = heat_solve(sys, state, 1.0, FlowRule.linear(1.0),
                             TruncationLevel(5.0), dt)
            state = SimState(state.t + dt, state.u, state.v, state.stress, out.theta)
            rel = abs(state.theta.min() - np.exp(-state.t)) / np.exp(-state.t)
            worst = max(worst, rel)
        assert worst <= 0.02

    def test_empty_history_rejected(self):
        sys = build_spaces(build_mesh(1, [1.0], [8]))
        with pytest.raises(ValueError):
            BalanceLedger(sys, ElasticityTensor(0.0, 0.5), 1e-3, 5).summary()


class TestUniformBound:
    def test_smooth_scenario(self, smooth_run):
        _, _, result = smooth_run
        assert result.ledger.summary()["verdicts"]["uniform_bound"]


class TestSharedLedgerPath:
    """The ledger's accumulation path: accumulators opened at zero, the θ floor."""

    def test_accumulators_start_at_zero(self, smooth_run):
        ledger = smooth_run[2].ledger
        assert {key: ledger.rows[0][key] for key in ACCUMULATORS} == \
            dict.fromkeys(ACCUMULATORS, 0.0)

    def test_theta_floor_is_trapezoid_of_div_sup(self, smooth_run):
        ledger = smooth_run[2].ledger
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
        text = format_summary(result.ledger.summary())
        assert "[pass]" in text and "FAIL" not in text

    def test_readme_lists_every_verdict(self, zero_run):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Summary and verdicts\n")[1].split("\n## ")[0]
        listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
        assert listed == list(zero_run[2].ledger.summary()["verdicts"])


@pytest.fixture(scope="module")
def blocked_run():
    """``smooth_coupled.cfg`` run for three and a half blocks of the ledger:
    it crosses three block boundaries and ends mid-block."""
    rc = load_config(shipped_config_path("smooth_coupled.cfg"))
    sys, cfg = build_problem(rc)
    block = len(BalanceLedger(sys, cfg.elasticity, cfg.dt, 1)._block)
    n_steps = 3 * block + block // 2
    sys, cfg = build_problem(replace(rc, t_end=n_steps * rc.dt))
    return (sys, cfg, n_steps, block, *run_recording_steps(sys, cfg))


class TestBatchedLedger:
    def test_rows_equal_the_per_state_formulas(self, blocked_run):
        sys, cfg, n_steps, block, result, steps = blocked_run
        assert n_steps > 3 * block and n_steps % block
        rows = result.ledger.rows
        assert len(rows) == len(steps) + 1 == n_steps + 1
        dt, vol = cfg.dt, sys.mesh.cell_volume
        states = [initialize(sys, cfg)] + [info.state for info in steps]
        expected = {key: [] for key in ("t", "kinetic", "elastic", "thermal", "entropy",
                                        "theta_min", *ACCUMULATORS)}
        for i, state in enumerate(states):
            tau = np.log(state.theta)
            instant = {"t": state.t, "entropy": sys.integrate_nodal(tau),
                       "theta_min": state.theta.min(),
                       **energy_terms(sys, cfg.elasticity, state.v, state.stress, state.theta)}
            if i == 0:
                increments = dict.fromkeys(ACCUMULATORS, 0.0)
            else:
                info, before = steps[i - 1], states[i - 1].theta
                raw, trunc = info.heat.source_raw, info.heat.source_trunc
                increments = {
                    "grad_tau_diss": dt * (tau @ (sys.K_theta @ tau)),
                    "inelastic_diss": dt * vol * raw.sum(),
                    "source_trunc": dt * vol * trunc.sum(),
                    "entropic_diss": dt * vol * (raw @ (1.0 / sys.cell_center_values(before))),
                    "entropic_src_trunc": dt * vol * (trunc @ np.exp(
                        -sys.cell_center_values(np.log(before)))),
                    "work": dt * (info.f_load @ state.v),
                }
            for key, value in {**instant, **increments}.items():
                expected[key].append(value)
        for key in ACCUMULATORS:
            expected[key] = np.cumsum(expected[key])
        for key, values in expected.items():
            values = np.asarray(values)
            np.testing.assert_allclose([row[key] for row in rows], values, rtol=1e-13,
                                       atol=1e-13 * np.abs(values).max(), err_msg=key)

    def test_the_shipped_scenario_passes_across_blocks(self, blocked_run):
        _, _, _, _, result, _ = blocked_run
        summary = result.ledger.summary()
        assert summary["passed"] and not summary["invariant_violations"]

    @pytest.mark.parametrize("name, t_end", [("smooth_coupled.cfg", 0.05),
                                             ("smooth_2d.cfg", 0.02)])
    def test_rows_do_not_depend_on_the_block_size(self, monkeypatch, name, t_end):
        # 1 byte holds one step per block, 3·8·700 three 1D steps; both against the default.
        rc = load_config(shipped_config_path(name))
        sys, cfg = build_problem(replace(rc, t_end=t_end))
        expected = run(sys, cfg).ledger.to_csv()
        for budget in (1, 3 * 8 * 700):
            monkeypatch.setattr(diagnostics, "BLOCK_BYTES", budget)
            assert run(sys, cfg).ledger.to_csv() == expected, budget

    @pytest.mark.parametrize("dim, cells, steps_at_least", [(1, 100, 100), (3, 16, 1)])
    def test_a_block_stays_within_the_byte_budget(self, dim, cells, steps_at_least):
        mesh = build_mesh(dim, [1.0] * dim, [cells] * dim)
        sys = build_spaces(mesh)
        ledger = BalanceLedger(sys, ElasticityTensor(1.0, 1.0), 1e-3, 1000)
        per_step = 2 + 2 * sys.n_disp + sys.k_stress + sys.n_temp + 2 * mesh.n_cells
        assert ledger._block.shape[1] == per_step
        assert len(ledger._block) >= steps_at_least
        assert ledger._block.nbytes <= BLOCK_BYTES

