"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` (verdict lines print live).
"""

import time

import numpy as np
import pytest

from thermovisco import ElasticityTensor, FlowRule, verify_admissibility
from thermovisco.cli import main as cli_main
from thermovisco.config import build_problem, load_config, shipped_config_path
from thermovisco.diagnostics import C_SCHEME, entropy_residual
from thermovisco.discretization import (
    build_mesh,
    build_spaces,
    eval_displacement,
    eval_stress,
    eval_temperature,
)
from thermovisco.oracle import fd_run, make_grid
from thermovisco.solver import SimState, SolverConfig, run

from conftest import heat_solve, run_recording_steps

SHIPPED = ("zero.cfg", "smooth_coupled.cfg", "smooth_2d.cfg")


@pytest.fixture(scope="module")
def shipped_runs():
    out = {}
    for name in SHIPPED:
        sys_, cfg = build_problem(load_config(shipped_config_path(name)))
        out[name] = (sys_, cfg, *run_recording_steps(sys_, cfg))
    return out


@pytest.fixture
def announce(capsys, request):
    def _announce(ok, detail):
        with capsys.disabled():
            label = request.node.name.replace("test_", "")
            print(f"  [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return _announce


def smooth_problem(cells, dt, t_end=0.5):
    """The smooth coupled scenario rebuilt at a chosen resolution."""
    rc = load_config(shipped_config_path("smooth_coupled.cfg"))
    from dataclasses import replace
    return build_problem(replace(rc, cells=(cells,), dt=dt))


def fd_matching_smooth(N, dt):
    rule = FlowRule.mroz_saturating(1.0)
    grid = make_grid(N, 1.0, dt,
                     u0=lambda x: 0.1 * np.sin(np.pi * x),
                     T0=lambda x: 0.3 * np.cos(np.pi * x),
                     theta0=lambda x: 1.0 + 0.2 * np.cos(np.pi * x))
    return fd_run(grid, 1.0, rule.scalar_eval, t_end=0.5,
                  f_sampler=lambda t, x: 0.05 * np.cos(2 * t) * np.sin(np.pi * x))


def rel_l2(a, b, x):
    num = np.sqrt(np.trapezoid((a - b) ** 2, x))
    den = np.sqrt(np.trapezoid(b ** 2, x))
    return num / max(den, 1e-300)


def test_criterion_01_constitutive_admissibility(announce):
    t0 = time.perf_counter()
    worst_mono, worst_diss = np.inf, np.inf
    for rule in (FlowRule.linear(1.0), FlowRule.mroz_saturating(1.0),
                 FlowRule.temperature_weighted(1.0)):
        rep = verify_admissibility(rule, sample_count=10_000, rng_seed=7)
        assert rep.worst_monotonicity >= -1e-12
        assert rep.empirical_growth <= rep.declared_growth * (1 + 1e-9)
        assert rep.max_at_zero <= 1e-14
        assert rep.worst_dissipation >= -1e-12
        worst_mono = min(worst_mono, rep.worst_monotonicity)
        worst_diss = min(worst_diss, rep.worst_dissipation)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(True, f"3 rules x 10^4 samples, worst monotonicity {worst_mono:.1e}, "
                   f"worst dissipation {worst_diss:.1e}, {elapsed:.2f}s")


def test_criterion_02_zero_data_fixed_point(announce):
    t0 = time.perf_counter()
    sys_, cfg = build_problem(load_config(shipped_config_path("zero.cfg")))
    result = run(sys_, cfg)
    elapsed = time.perf_counter() - t0
    led = result.ledger
    assert result.n_steps == 100
    worst = 0.0
    for row in led.rows:
        worst = max(worst, row["energy_residual"], abs(row["dissipation_margin"]),
                    entropy_residual(led.rows[0], row))
    assert worst <= 1e-12
    assert np.abs(result.state.u).max() <= 1e-12
    assert np.abs(result.state.theta - 1.0).max() <= 1e-12
    assert elapsed < 1.0
    announce(True, f"100 steps, worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_energy_balance_first_order(announce):
    t0 = time.perf_counter()
    sys_, cfg = smooth_problem(100, 1e-3)
    full = run(sys_, cfg)
    sys2, cfg2 = smooth_problem(100, 5e-4)
    half = run(sys2, cfg2)
    elapsed = time.perf_counter() - t0

    led = full.ledger
    first = led.rows[0]
    e0 = first["kinetic"] + first["elastic"] + first["thermal"]
    summary = led.summary()
    res = summary["energy_residual"]
    res_half = half.ledger.summary()["energy_residual"]
    ratio = res / res_half
    assert summary["truncation_deficit"] == 0.0  # clamp inactive
    assert res <= 5e-3 * e0
    assert 1.6 <= ratio <= 2.4
    assert elapsed < 30.0
    announce(True, f"residual {res:.2e} <= {5e-3 * e0:.2e}, dt-halving ratio "
                   f"{ratio:.2f}, {elapsed:.1f}s")


def test_criterion_04_dissipation_inequality(shipped_runs, announce):
    details = []
    for name, (sys_, cfg, result, steps) in shipped_runs.items():
        margin = result.ledger.summary()["dissipation_margin_min"]
        tol = max(1e-10, C_SCHEME * cfg.dt)
        assert margin >= -tol, f"{name}: margin {margin}"
        details.append(f"{name} margin>= {margin:.2e}")
        # accepted steps show a monotone fixed-point residual tail
        for info in steps:
            tail = info.residual_history[-3:]
            assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))
    _, _, smooth, _ = shipped_runs["smooth_coupled.cfg"]
    last = smooth.ledger.rows[-1]
    gap = abs(last["dissipation_margin"] - last["entropic_diss"]) / last["entropic_diss"]
    assert gap <= 0.10
    announce(True, "; ".join(details) + f"; margin vs entropic gap {gap:.1%}")


def test_criterion_05_temperature_positivity(shipped_runs, announce):
    ratios = {}
    for name, (sys_, cfg, result, _) in shipped_runs.items():
        ratio = result.ledger.summary()["positivity_worst_ratio"]
        assert ratio >= 0.95, f"{name}: ratio {ratio}"
        ratios[name] = ratio

    # spatially constant contraction (rate 1, no source): θ_min tracks e^{−t}
    mesh = build_mesh(1, [1.0], [50])
    sys_ = build_spaces(mesh)
    from thermovisco.constitutive import TruncationLevel
    dt = 0.01
    state = SimState(0.0, np.zeros(sys_.n_disp), np.zeros(sys_.n_disp),
                     np.zeros(sys_.k_stress), np.ones(sys_.n_temp))
    worst = 0.0
    while state.t < 1.0 - dt / 2:
        out = heat_solve(sys_, state, 1.0, FlowRule.linear(1.0),
                         TruncationLevel(5.0), dt)
        state = SimState(state.t + dt, state.u, state.v, state.stress, out.theta)
        worst = max(worst, abs(state.theta.min() - np.exp(-state.t)) / np.exp(-state.t))
    assert worst <= 0.02
    announce(True, f"worst ratios {({k: round(v, 3) for k, v in ratios.items()})}, "
                   f"synthetic e^-t error {worst:.1%}")


def test_criterion_06_oracle_equivalence(announce):
    t0 = time.perf_counter()

    def compare(cells, dt):
        sys_, cfg = smooth_problem(cells, dt)
        galerkin = run(sys_, cfg)
        grid, _ = fd_matching_smooth(cells + 1, dt)
        x = grid.x
        u_g = eval_displacement(sys_, galerkin.state.u, x[:, None])[:, 0]
        th_g = eval_temperature(sys_, galerkin.state.theta, x[:, None])
        mid = 0.5 * (x[:-1] + x[1:])
        T_g = eval_stress(sys_, galerkin.state.stress, mid[:, None])[:, 0]
        T_f = 0.5 * (grid.T[:-1] + grid.T[1:])
        return {"u": rel_l2(u_g, grid.u, x), "stress": rel_l2(T_g, T_f, mid),
                "theta": rel_l2(th_g, grid.theta, x)}

    coarse = compare(100, 1e-3)
    fine = compare(200, 5e-4)
    elapsed = time.perf_counter() - t0
    for key in ("u", "stress", "theta"):
        assert coarse[key] < 0.05, f"{key}: {coarse[key]}"
        assert fine[key] < coarse[key]
    assert elapsed < 60.0
    announce(True, f"rel diffs u/T/theta = {coarse['u']:.2%}/{coarse['stress']:.2%}/"
                   f"{coarse['theta']:.2%}, all decreasing, {elapsed:.1f}s")


def test_criterion_07_manufactured_solutions(announce):
    # reference solver, heat mode: θ = 1 + ½ e^{−π²t} cos(πx), N = 201
    t_end = 0.1
    grid = make_grid(201, 1.0, 5e-5, theta0=lambda x: 1 + 0.5 * np.cos(np.pi * x))
    gf, _ = fd_run(grid, 1.0, lambda th, T: 0.0 * T, t_end, mode="heat_only")
    exact = 1 + 0.5 * np.exp(-np.pi ** 2 * t_end) * np.cos(np.pi * gf.x)
    fd_heat = rel_l2(gf.theta, exact, gf.x)
    assert fd_heat < 1e-3

    # Galerkin heat solve at the same resolution (200 cells = 201 nodes)
    mesh = build_mesh(1, [1.0], [200])
    sys_ = build_spaces(mesh)
    from thermovisco.constitutive import TruncationLevel
    dt = 5e-5
    state = SimState(0.0, np.zeros(sys_.n_disp), np.zeros(sys_.n_disp),
                     np.zeros(sys_.k_stress),
                     1 + 0.5 * np.cos(np.pi * mesh.nodes[:, 0]))
    for _ in range(int(round(t_end / dt))):
        out = heat_solve(sys_, state, 0.0, FlowRule.linear(1.0),
                         TruncationLevel(1.0), dt)
        state = SimState(state.t + dt, state.u, state.v, state.stress, out.theta)
    x = mesh.nodes[:, 0]
    g_heat = rel_l2(state.theta, 1 + 0.5 * np.exp(-np.pi ** 2 * t_end) * np.cos(np.pi * x), x)
    assert g_heat < 1e-3

    # standing elastic wave u = A sin(πx) cos(πct) at the half period
    A, C = 0.1, 1.0
    h = 1.0 / 200
    grid = make_grid(201, 1.0, h / 2,
                     u0=lambda x: A * np.sin(np.pi * x),
                     T0=lambda x: C * A * np.pi * np.cos(np.pi * x),
                     theta0=lambda x: np.ones_like(x))
    gw, _ = fd_run(grid, C, lambda th, T: 0.0 * T, 1.0, mode="mechanics_only")
    fd_wave = rel_l2(gw.u, A * np.sin(np.pi * gw.x) * np.cos(np.pi), gw.x)
    assert fd_wave < 1e-2

    # Galerkin wave: κ₀ = 0 and a tiny constant temperature so the thermal
    # force stays negligible relative to the elastic response
    mesh = build_mesh(1, [1.0], [200])
    sys_ = build_spaces(mesh)
    cfg = SolverConfig(dt=5e-4, t_end=1.0,
                       elasticity=ElasticityTensor(0.0, 0.5),
                       flow_rule=FlowRule.linear(0.0),
                       u0=lambda pts: (A * np.sin(np.pi * pts[:, 0]))[:, None],
                       stress0=lambda pts: (C * A * np.pi * np.cos(np.pi * pts[:, 0]))[:, None, None],
                       theta0=lambda pts: np.full(pts.shape[0], 1e-4))
    result = run(sys_, cfg)
    xs = np.linspace(0, 1, 401)
    u_g = eval_displacement(sys_, result.state.u, xs[:, None])[:, 0]
    g_wave = rel_l2(u_g, A * np.sin(np.pi * xs) * np.cos(np.pi), xs)
    assert g_wave < 1e-2

    announce(True, f"heat: fd {fd_heat:.1e} / galerkin {g_heat:.1e} (tol 1e-3); "
                   f"wave: fd {fd_wave:.1e} / galerkin {g_wave:.1e} (tol 1e-2)")


def test_criterion_08_truncation_semantics(announce):
    from thermovisco.constitutive import TruncationLevel
    mesh = build_mesh(1, [1.0], [40])
    sys_ = build_spaces(mesh)
    height = 0.05
    cfg = SolverConfig(dt=1e-3, t_end=0.05, elasticity=ElasticityTensor(0.0, 0.5),
                       flow_rule=FlowRule.linear(1.0),
                       truncation=TruncationLevel(height),
                       stress0=lambda pts: (0.5 + 0.3 * np.cos(np.pi * pts[:, 0]))[:, None, None],
                       theta0=lambda pts: np.ones(pts.shape[0]))
    result, steps = run_recording_steps(sys_, cfg)
    last = result.ledger.rows[-1]
    assert max(i.heat.source_raw.max() for i in steps) > height
    assert last["source_trunc"] < last["inelastic_diss"]
    lo = min(i.heat.source_trunc.min() for i in steps)
    hi = max(i.heat.source_trunc.max() for i in steps)
    assert lo >= 0.0 and hi <= height + 1e-15
    announce(True, f"clamped accumulator {last['source_trunc']:.3e} < full "
                   f"{last['inelastic_diss']:.3e}; sources in [{lo:.3g}, {hi:.3g}]")


def test_criterion_09_refinement_study(announce, capsys):
    code = cli_main(["convergence", str(shipped_config_path("smooth_coupled.cfg")),
                     "--levels",
                     "25:4e-3;50:2e-3;100:1e-3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "monotonically decreasing: True" in out
    announce(True, "three nested levels, pairwise differences decrease")


def test_criterion_10_determinism(tmp_path, monkeypatch, announce):
    payloads = []
    for tag in ("a", "b"):
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / tag))
        assert cli_main(["run", str(shipped_config_path("smooth_coupled.cfg"))]) == 0
        payloads.append((tmp_path / tag / "ledger.csv").read_bytes())
    assert payloads[0] == payloads[1]
    announce(True, f"two runs, byte-identical ledgers ({len(payloads[0])} bytes)")
