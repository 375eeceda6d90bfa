import json
import numpy as np
import pytest

from thermovisco.cli import main, write_snapshot, SNAPSHOT_SCHEMA
from thermovisco.config import (
    ConfigError,
    PRESETS,
    build_problem,
    load_config,
    make_flow_rule,
    shipped_config_path,
)
from thermovisco.expressions import ExpressionError, compile_expression, vector_sampler


def write_cfg(tmp_path, body, name="case.cfg"):
    p = tmp_path / name
    p.write_text(body)
    return p


MINIMAL = """
[mesh]
dim = 1
extents = 1.0
cells = 8

[material]
mu = 0.5
flow_rule = linear
kappa0 = 0.5

[time]
dt = 1e-3
t_end = 5e-3

[data]
preset = zero
"""


class TestExpressions:
    def test_basic_evaluation(self):
        f = compile_expression("1 + 0.5*cos(pi*x)")
        pts = np.array([[0.0], [1.0]])
        assert np.allclose(f(pts), [1.5, 0.5])

    def test_time_dependent(self):
        f = vector_sampler(["sin(pi*x)*cos(2*t)"], with_time=True)
        pts = np.array([[0.5]])
        assert f(0.0, pts)[0, 0] == pytest.approx(1.0)
        assert f(np.pi / 4, pts)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_unknown_names(self):
        with pytest.raises(ExpressionError):
            compile_expression("__import__('os')")
        with pytest.raises(ExpressionError):
            compile_expression("q + 1")
        with pytest.raises(ExpressionError):
            compile_expression("t * x")  # t only allowed for forcing

    def test_rejects_calls_outside_whitelist(self):
        with pytest.raises(ExpressionError):
            compile_expression("open('x')")


class TestConfigParsing:
    def test_minimal_round_trip(self, tmp_path):
        rc = load_config(write_cfg(tmp_path, MINIMAL))
        assert rc.dim == 1 and rc.cells == (8,)
        assert rc.n_disp_level == 7 and rc.k_stress_level == 8
        # no [output] section: every output key takes its default
        assert (rc.output_dir, rc.snapshot_stride, rc.ledger_filename, rc.seed) == \
            ("out", 0, "ledger.csv", 0)
        sys, cfg = build_problem(rc)
        assert sys.n_disp == 7
        assert cfg.theta0 is not None

    def test_negative_dt_field_message(self, tmp_path):
        bad = MINIMAL.replace("dt = 1e-3", "dt = -1e-3")
        with pytest.raises(ConfigError, match=r"\[time\] dt"):
            load_config(write_cfg(tmp_path, bad))

    def test_missing_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[time\]"):
            load_config(write_cfg(tmp_path, "[mesh]\ndim = 1\nextents = 1\ncells = 4\n"
                                            "[material]\nmu = 0.5\n[data]\npreset = zero\n"))

    def test_unknown_preset(self, tmp_path):
        bad = MINIMAL.replace("preset = zero", "preset = nonsense")
        with pytest.raises(ConfigError, match="preset"):
            load_config(write_cfg(tmp_path, bad))

    def test_bad_moduli(self, tmp_path):
        bad = MINIMAL.replace("mu = 0.5", "mu = -0.5")
        with pytest.raises(ConfigError, match="moduli"):
            load_config(write_cfg(tmp_path, bad))

    def test_level_out_of_range(self, tmp_path):
        bad = MINIMAL + "\n[spaces]\nn_disp_level = 99\n"
        with pytest.raises(ConfigError, match="n_disp_level"):
            load_config(write_cfg(tmp_path, bad))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.cfg")

    def test_shipped_configs_parse(self):
        for name in ("zero.cfg", "smooth_coupled.cfg", "smooth_2d.cfg"):
            rc = load_config(shipped_config_path(name))
            build_problem(rc)

    def test_presets_compile(self):
        assert set(PRESETS) >= {"zero", "smooth_coupled", "smooth_2d"}

    def test_flow_rule_kinds(self, tmp_path):
        for kind in ("linear", "mroz_saturating", "temperature_weighted"):
            rc = load_config(write_cfg(tmp_path, MINIMAL.replace(
                "flow_rule = linear", f"flow_rule = {kind}")))
            assert make_flow_rule(rc).kind == kind


class TestCmdRun:
    def test_zero_config_exit_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / "out"))
        assert main(["run", str(shipped_config_path("zero.cfg"))]) == 0
        out = capsys.readouterr().out
        assert "[pass]" in out and "FAIL" not in out
        ledger = (tmp_path / "out" / "ledger.csv").read_text().strip().split("\n")
        assert len(ledger) == 1 + 101
        # constant trajectory: state columns frozen, residual columns at zero
        cols = ledger[0].split(",")
        rows = [dict(zip(cols, map(float, r.split(",")))) for r in ledger[1:]]
        for key in ("kinetic", "elastic", "thermal", "entropy", "theta_min"):
            vals = [r[key] for r in rows]
            assert max(vals) - min(vals) <= 1e-13
        assert all(r["energy_residual"] <= 1e-12 for r in rows)
        assert all(abs(r["dissipation_margin"]) <= 1e-12 for r in rows)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["passed"]

    def test_malformed_config_exit_two(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, MINIMAL.replace("dt = 1e-3", "dt = -1"))
        assert main(["run", str(bad)]) == 2
        assert "[time] dt" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("mesh", "extents", "inf"),
        ("material", "lambda", "nan"),
        ("material", "mu", "inf"),
        ("material", "kappa0", "nan"),
        ("material", "kappa_min", "nan"),
        ("time", "dt", "nan"),
        ("time", "t_end", "nan"),
        ("time", "picard_tol", "nan"),
        ("time", "truncation", "inf"),
    ])
    def test_non_finite_number_exit_two(self, tmp_path, capsys, section, key, value):
        lines = [ln for ln in MINIMAL.split("\n") if not ln.startswith(f"{key} =")]
        body = "\n".join(lines).replace(f"[{section}]", f"[{section}]\n{key} = {value}")
        assert main(["run", str(write_cfg(tmp_path, body))]) == 2
        assert f"[{section}] {key}" in capsys.readouterr().err

    def test_runtime_failure_exit_one(self, tmp_path, monkeypatch, capsys):
        # picard_max_iters = 1 cannot converge on a coupled scenario
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / "out"))
        body = MINIMAL.replace("preset = zero",
                               "u0 = 0.1*sin(pi*x)\ntheta0 = 1 + 0.2*cos(pi*x)")
        body = body.replace("[time]", "[time]\npicard_max_iters = 1")
        cfg = write_cfg(tmp_path, body)
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "residual history" in err and "t=" in err

    @pytest.mark.parametrize("dim, cells", [(1, 16), (2, 4), (3, 3)])
    def test_tiny_extents_report_stiffness_ratio(self, tmp_path, monkeypatch, capsys,
                                                 dim, cells):
        # dt/h² ≈ 1e14–1e15 leaves M_θ + dt·K_θ dominated by rounding; the
        # positivity error names that ratio beside its usual advice.
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / "out"))
        body = shipped_config_path("zero.cfg").read_text()
        body = body.replace("dim = 1", f"dim = {dim}")
        body = body.replace("extents = 1.0", "extents = " + ", ".join(["1e-8"] * dim))
        body = body.replace("cells = 16", "cells = " + ", ".join([str(cells)] * dim))
        assert main(["run", str(write_cfg(tmp_path, body))]) == 1
        err = capsys.readouterr().err
        ratio = 1e-3 * (cells / 1e-8) ** 2
        assert "lost positivity" in err and "reduce dt" in err
        assert f"dt·max(1/h²) = {ratio:.3g}" in err

    def test_snapshot_stride(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / "snap"))
        body = MINIMAL + "\n[output]\nsnapshot_stride = 2\n"
        assert main(["run", str(write_cfg(tmp_path, body))]) == 0
        snaps = sorted(p.name for p in (tmp_path / "snap").glob("snapshot_0*.txt"))
        assert snaps == ["snapshot_000002.txt", "snapshot_000004.txt"]
        text = (tmp_path / "snap" / "snapshot_final.txt").read_text()
        assert text.startswith(f"# schema: {SNAPSHOT_SCHEMA}")
        assert "[nodes]" in text and "[cells]" in text


class TestCmdCheckConstitutive:
    def test_linear_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL)
        assert main(["check-constitutive", str(cfg), "--samples", "2000"]) == 0
        assert "overall: pass" in capsys.readouterr().out

    def test_mroz_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL.replace("flow_rule = linear",
                                                  "flow_rule = mroz_saturating"))
        assert main(["check-constitutive", str(cfg), "--samples", "2000"]) == 0

    def test_anti_monotone_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL.replace("flow_rule = linear",
                                                  "flow_rule = anti_monotone"))
        assert main(["check-constitutive", str(cfg), "--samples", "500"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestCmdConvergence:
    SMOOTH = MINIMAL.replace("preset = zero",
                             "u0 = 0.1*sin(pi*x)\nstress0 = 0.3*cos(pi*x)\n"
                             "theta0 = 1 + 0.2*cos(pi*x)").replace(
                                 "t_end = 5e-3", "t_end = 0.1")

    def test_three_nested_levels_decrease(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.SMOOTH)
        code = main(["convergence", str(cfg),
                     "--levels", "10:full:full:4e-3;20:full:full:2e-3;40:full:full:1e-3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "monotonically decreasing: True" in out

    def test_identical_levels_zero_difference(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.SMOOTH)
        code = main(["convergence", str(cfg),
                     "--levels", "10:full:full:2e-3;10:full:full:2e-3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.0000e+00" in out

    def test_fine_to_coarse_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.SMOOTH)
        code = main(["convergence", str(cfg),
                     "--levels", "40:full:full:1e-3;20:full:full:2e-3"])
        assert code == 2
        assert "coarse to fine" in capsys.readouterr().err

    def test_single_level_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SMOOTH)
        assert main(["convergence", str(cfg), "--levels", "10:full:full:1e-3"]) == 2


class TestDeterminism:
    def test_identical_runs_byte_identical_ledgers(self, tmp_path, monkeypatch):
        outs = []
        for d in ("a", "b"):
            monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / d))
            assert main(["run", str(shipped_config_path("zero.cfg"))]) == 0
            outs.append((tmp_path / d / "ledger.csv").read_bytes())
        assert outs[0] == outs[1]


class TestSnapshotWriter:
    def test_snapshot_contains_all_fields(self, tmp_path):
        from conftest import make_smooth_problem
        from thermovisco.solver import run
        sys, cfg = make_smooth_problem(cells=10, dt=1e-3, t_end=2e-3)
        result = run(sys, cfg)
        path = tmp_path / "snap.txt"
        write_snapshot(path, sys, result.state)
        lines = path.read_text().split("\n")
        node_rows = [l for l in lines if l and not l.startswith(("#", "["))]
        assert len(node_rows) == sys.mesh.n_nodes + sys.mesh.n_cells

    @pytest.mark.parametrize("dim, cells", [(1, [5]), (2, [3, 4]), (3, [2, 3, 2])])
    def test_matches_row_by_row_formatting(self, tmp_path, dim, cells):
        from thermovisco import build_mesh, build_spaces
        from thermovisco.solver import SimState
        mesh = build_mesh(dim, [1.0, 2.0, 0.5][:dim], cells)
        s = dim * (dim + 1) // 2
        # The last stress cell misses a component (in 1D, its only one).
        sys = build_spaces(mesh, mesh.interior_nodes.size * dim, mesh.n_cells * s - 1)
        rng = np.random.default_rng(dim)
        state = SimState(0.1 * dim, rng.standard_normal(sys.n_disp),
                         rng.standard_normal(sys.n_disp) * 1e-7,
                         rng.standard_normal(sys.k_stress) * 1e5,
                         rng.uniform(0.5, 2.0, sys.n_temp))
        path = tmp_path / "snap.txt"
        write_snapshot(path, sys, state)

        # The writer's format, one value at a time.
        axes = "xyz"[:dim]
        nodal_u = sys.nodal_displacement(state.u)
        nodal_v = sys.nodal_displacement(state.v)
        stress_full = sys.stress_blocks(state.stress)
        lines = [f"# schema: {SNAPSHOT_SCHEMA}", f"# t: {state.t!r}",
                 f"# dim: {dim}  cells: {','.join(map(str, cells))}",
                 "[nodes] " + " ".join([*axes, *(f"u_{a}" for a in axes),
                                        *(f"v_{a}" for a in axes), "theta"])]
        for i in range(mesh.n_nodes):
            vals = [*mesh.nodes[i], *nodal_u[i], *nodal_v[i], state.theta[i]]
            lines.append(" ".join(repr(float(v)) for v in vals))
        lines.append("[cells] " + " ".join([*(f"c_{a}" for a in axes),
                                            *(f"stress_{k}" for k in range(s))]))
        for e in range(mesh.n_cells):
            vals = [*mesh.cell_centers[e], *stress_full[e]]
            lines.append(" ".join(repr(float(v)) for v in vals))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
