import importlib.util
import json
import sys
import time
import weakref
import numpy as np
import pytest
from dataclasses import replace
from pathlib import Path

from thermovisco import FlowRule, cli, solver, verify_admissibility
from thermovisco.cli import main, STATE_SCHEMA
from thermovisco.config import (
    ConfigError,
    build_problem,
    check,
    load_config,
    make_flow_rule,
    shipped_config_path,
)
from thermovisco.expressions import _CONSTS, _FUNCS, ExpressionError, compile_expression, vector_sampler

from conftest import run_recording_steps


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
theta0 = 1.0
"""


# 1/h² overflows on this mesh, so setting up its 2D per-axis inverses fails.
FINE_2D = MINIMAL.replace("dim = 1", "dim = 2").replace(
    "extents = 1.0", "extents = 1e-160, 1.0").replace("cells = 8", "cells = 4, 4")


SMOOTH_1D = """
[mesh]
dim = 1
extents = 1.0
cells = 20

[material]
mu = 0.5
flow_rule = mroz_saturating
kappa0 = 1.0

[time]
dt = 1e-3
t_end = 0.05

[data]
u0 = 0.1*sin(pi*x)
stress0 = 0.3*cos(pi*x)
theta0 = 1.0 + 0.2*cos(pi*x)
f = 0.05*cos(2*t)*sin(pi*x)

[output]
directory = {outdir}
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

    def test_integer_arithmetic_overflows_at_once(self):
        # On Python ints 9**9**6 is computed exactly, and the expression is 1.0.
        start = time.perf_counter()
        with pytest.raises(ExpressionError) as info:
            compile_expression("1.0 + 0*9**9**6")(np.array([[0.5]]))
        assert time.perf_counter() - start < 0.5
        # Not the C library's errno tuple, "(34, 'Numerical result out of range')".
        assert str(info.value) == \
            "evaluating '1.0 + 0*9**9**6' failed: a value overflows the float range"

    def test_unary_minus(self):
        f = compile_expression("1.0 - -0.5*x")
        assert np.allclose(f(np.array([[0.0], [1.0]])), [1.0, 1.5])

    @pytest.mark.parametrize("src, message", [
        ("1 if x else 2", "IfExp"),
        ("sin(x=1)", "keyword"),
        ("'1'", "not a number"),
        ("x.real", "Attribute"),
        ("1" + "0" * 400 + "*x", "int too large"),
        ("x // 2", "operator FloorDiv not allowed"),
        ("~x", "unary Invert not allowed"),
        ("not x", "unary Not not allowed"),
    ], ids=["if", "keyword", "string", "attribute", "int-beyond-float", "floor-division",
            "invert", "not"])
    def test_rejects_syntax_outside_grammar(self, src, message):
        with pytest.raises(ExpressionError, match=message):
            compile_expression(src)


def old_evaluate(src, pts, t=None):
    """The evaluator as it was: every coordinate bound, the result broadcast and copied."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    env = {**_FUNCS, **_CONSTS, "x": pts[:, 0],
           "y": pts[:, 1] if pts.shape[1] > 1 else np.zeros(pts.shape[0]),
           "z": pts[:, 2] if pts.shape[1] > 2 else np.zeros(pts.shape[0])}
    if t is not None:
        env["t"] = t
    out = eval(compile(src, "<expr>", "eval"), {"__builtins__": {}}, env)
    return np.broadcast_to(np.asarray(out, dtype=float), (pts.shape[0],)).copy()


class TestLeanExpressions:
    @pytest.mark.parametrize("src, dim, t", [
        ("x", 1, None), ("0.5", 1, None), ("y", 1, None), ("sin(pi*x)*t", 1, 0.3),
        ("exp(-x*y) + z**2", 3, None)])
    def test_bitwise_equal_to_the_old_evaluator(self, src, dim, t):
        pts = np.random.default_rng(dim).random((11, dim))
        f = compile_expression(src, with_time=t is not None)
        out = f(pts) if t is None else f(t, pts)
        ref = old_evaluate(src, pts, t)
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    def test_vector_field_bitwise_equal_to_the_old_stack(self):
        components = ["x*y", "cos(2*t)*z", "1"]
        pts = np.random.default_rng(3).random((9, 3))
        out = vector_sampler(components, with_time=True)(0.7, pts)
        ref = np.stack([old_evaluate(c, pts, 0.7) for c in components], axis=1)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("src", ["x", "0.5", "y", "sin(pi*x)"])
    def test_keeps_no_reference_to_the_points(self, src):
        f = compile_expression(src)
        pts = np.linspace(0.0, 1.0, 5)[:, None]
        count = sys.getrefcount(pts)
        out = f(pts)
        assert sys.getrefcount(pts) == count and not np.shares_memory(out, pts)
        gone = weakref.ref(pts)
        del pts
        assert gone() is None
        out[0] = -1.0  # the result is the caller's own array


class TestConfigParsing:
    def test_minimal_round_trip(self, tmp_path):
        rc = load_config(write_cfg(tmp_path, MINIMAL))
        assert rc.dim == 1 and rc.cells == (8,)
        # no [output] section: every output key takes its default
        assert (rc.output_dir, rc.snapshot_stride, rc.ledger_filename) == \
            ("out", 0, "ledger.csv")
        sys, cfg = build_problem(rc)
        assert sys.n_disp == 7 and sys.k_stress == 8
        assert cfg.theta0 is not None

    def test_negative_dt_field_message(self, tmp_path):
        bad = MINIMAL.replace("dt = 1e-3", "dt = -1e-3")
        with pytest.raises(ConfigError, match=r"\[time\] dt"):
            load_config(write_cfg(tmp_path, bad))

    def test_missing_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[time\]"):
            load_config(write_cfg(tmp_path, "[mesh]\ndim = 1\nextents = 1\ncells = 4\n"
                                            "[material]\nmu = 0.5\n[data]\ntheta0 = 1.0\n"))

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

    @pytest.mark.parametrize("name", ["nope.cfg", "../../x", "a\0b", "/abs/path.cfg"])
    def test_missing_file_exit_two(self, capsys, name):
        assert main(["run", name]) == 2
        assert "config file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["", "."])
    def test_directory_is_not_a_config_file(self, capsys, monkeypatch, tmp_path, name):
        # "" is the current directory, and "." also names the shipped config directory.
        monkeypatch.chdir(tmp_path)
        assert main(["run", name]) == 2
        assert "config file not found" in capsys.readouterr().err

    def test_shipped_configs_parse(self):
        for name in ("zero.cfg", "smooth_coupled.cfg", "smooth_2d.cfg", "smooth_3d.cfg"):
            rc = load_config(shipped_config_path(name))
            build_problem(rc)

    def test_bad_dim_rejected_before_data(self, tmp_path):
        # [data] sizes its components by dim, so dim must be checked first.
        bad = MINIMAL.replace("dim = 1", "dim = 4").replace(
            "theta0 = 1.0", "stress0 = " + "; ".join(["0"] * 10) + "\ntheta0 = 1")
        with pytest.raises(ConfigError, match=r"\[mesh\] dim"):
            load_config(write_cfg(tmp_path, bad))

    def test_check_repeats_cells(self, tmp_path):
        rc = load_config(write_cfg(tmp_path, MINIMAL))
        rc = check(replace(rc, dim=2, extents=(2.0,), cells=(4,)))
        assert rc.extents == (2.0, 2.0) and rc.cells == (4, 4)

    @pytest.mark.parametrize("data, message", [
        ("u0 = 0; 0\ntheta0 = 1", "u0: need 1 components, got 2"),
        ("f = 0; 0; 0\ntheta0 = 1", "f: need 1 components, got 3"),
        ("stress0 = 0; 0\ntheta0 = 1", "stress0: need 1 components, got 2"),
        ("u0 = 0", "theta0: required"),
        ("theta0 = 1 + log(x)", "bad expression"),
        # A % is literal: no interpolation error, but the grammar has no modulo.
        ("theta0 = 1.0 + 0*(x % 2)", "bad expression: operator Mod not allowed"),
    ], ids=["u0-components", "f-components", "stress0-components", "no-theta0",
            "bad-expression", "percent"])
    def test_bad_data_exit_two(self, tmp_path, capsys, data, message):
        body = MINIMAL.replace("theta0 = 1.0", data)
        assert main(["run", str(write_cfg(tmp_path, body))]) == 2
        assert f"[data] {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("dim, data, name, allowed", [
        (1, "theta0 = 1.0 + 0.2*cos(pi*y)", "y", "['x']"),
        (1, "u0 = 0.1*sin(pi*z)\ntheta0 = 1", "z", "['x']"),
        (2, "f = 0; z\ntheta0 = 1", "z", "['t', 'x', 'y']"),
    ], ids=["1d-theta0-y", "1d-u0-z", "2d-f-z"])
    def test_coordinate_the_mesh_lacks_exit_two(self, tmp_path, capsys, dim, data, name,
                                                allowed):
        body = MINIMAL.replace("dim = 1", f"dim = {dim}").replace("theta0 = 1.0", data)
        assert main(["run", str(write_cfg(tmp_path, body))]) == 2
        assert capsys.readouterr().err == (f"config error: [data] bad expression: unknown "
                                           f"name {name!r} (allowed: {allowed})\n")

    def test_stress0_components_named_like_u0(self, tmp_path, capsys):
        body = MINIMAL.replace("dim = 1", "dim = 2").replace(
            "theta0 = 1.0", "stress0 = 0.3*cos(pi*x)\ntheta0 = 1")
        assert main(["run", str(write_cfg(tmp_path, body))]) == 2
        assert capsys.readouterr().err == \
            "config error: [data] stress0: need 3 components, got 1\n"

    @pytest.mark.parametrize("section, line, message", [
        ("time", "t_end = 5e-4", "t_end must be at least one step, got 0.0005 < dt=0.001"),
        ("time", "picard_tol = 0", "picard_tol must be positive"),
        ("time", "picard_max_iters = 0", "picard_max_iters must be >= 1"),
        ("mesh", "cells = 4, 4, 4", "cells must have 1 entries, got 3"),
    ], ids=["t_end-below-dt", "picard_tol-zero", "picard_max_iters-zero", "cells-entries"])
    def test_value_out_of_range_exit_two(self, tmp_path, capsys, section, line, message):
        key = line.split(" = ")[0]
        lines = [ln for ln in MINIMAL.split("\n") if not ln.startswith(f"{key} =")]
        body = "\n".join(lines).replace(f"[{section}]", f"[{section}]\n{line}")
        assert main(["run", str(write_cfg(tmp_path, body))]) == 2
        assert capsys.readouterr().err == f"config error: [{section}] {message}\n"

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[mesh\] dim: missing required field"):
            load_config(write_cfg(tmp_path, MINIMAL.replace("dim = 1\n", "")))

    def test_unknown_flow_rule_exit_two(self, tmp_path, capsys):
        body = MINIMAL.replace("flow_rule = linear", "flow_rule = plastic")
        assert main(["run", str(write_cfg(tmp_path, body))]) == 2
        assert "[material] flow_rule: unknown kind 'plastic'" in capsys.readouterr().err

    def test_unreadable_config_exit_two(self, tmp_path, capsys):
        body = MINIMAL + "\n[mesh]\ndim = 2\n"
        assert main(["run", str(write_cfg(tmp_path, body))]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_negative_snapshot_stride_exit_two(self, tmp_path, capsys):
        body = MINIMAL + "\n[output]\nsnapshot_stride = -3\n"
        assert main(["run", str(write_cfg(tmp_path, body))]) == 2
        assert "[output] snapshot_stride must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("t_end", ["0.0015", "0.0025"])
    def test_t_end_between_steps_exit_two(self, tmp_path, capsys, t_end):
        # round(t_end/dt) steps would end past (0.0015) or short of (0.0025) t_end.
        body = shipped_config_path("smooth_coupled.cfg").read_text().replace(
            "t_end = 0.5", f"t_end = {t_end}")
        assert main(["run", str(write_cfg(tmp_path, body))]) == 2
        assert "[time] t_end must be a whole number of steps" in capsys.readouterr().err

    def test_misspelt_key_exit_two(self, tmp_path, monkeypatch, capsys):
        # Without the check this runs with the default picard_tol of 1e-10.
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / "out"))
        body = shipped_config_path("smooth_coupled.cfg").read_text().replace(
            "picard_tol = 1e-10", "picard_tolerance = 1e-3")
        assert main(["run", str(write_cfg(tmp_path, body))]) == 2
        assert capsys.readouterr().err == "config error: [time] picard_tolerance: unknown key\n"

    @pytest.mark.parametrize("body, message", [
        (MINIMAL + "\n[output]\nseed = 3\n", "[output] seed: unknown key"),
        (MINIMAL + "g = 1\n", "[data] g: unknown key"),
        (MINIMAL + "\n[solver]\n", "[solver]: unknown section"),
        ("[DEFAULT]\ndt = 1e-3\n" + MINIMAL, "[DEFAULT] dt: unknown key"),
        (MINIMAL.replace("theta0 = 1.0", "preset = zero"), "[data] preset: unknown key"),
        (MINIMAL + "\n[spaces]\nn_disp_level = 5\n",
         "[spaces] n_disp_level: partial Galerkin levels were removed, only 'full' is accepted, "
         "got '5'"),
    ], ids=["key", "data-key", "section", "default-section", "data-preset", "partial-level"])
    def test_unknown_key_or_section_exit_two(self, tmp_path, capsys, body, message):
        assert main(["run", str(write_cfg(tmp_path, body))]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_shipped_and_benchmark_configs_have_known_keys(self, tmp_path, monkeypatch):
        # A key renamed in the program fails here, not first in the benchmark.
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # @dataclass looks it up
        spec.loader.exec_module(workloads)
        paths = sorted(shipped_config_path("zero.cfg").parent.glob("*.cfg"))
        paths += [workloads.write_config(w, seed, tmp_path / f"{w.name}_{seed}.cfg", tmp_path)
                  for w in workloads.WORKLOADS.values() for seed in (0, 1)]
        assert len(paths) == 4 + 2 * 3
        for path in paths:
            load_config(path)

    def test_flow_rule_kinds(self, tmp_path):
        for kind in ("linear", "mroz_saturating", "temperature_weighted"):
            rc = load_config(write_cfg(tmp_path, MINIMAL.replace(
                "flow_rule = linear", f"flow_rule = {kind}")))
            assert make_flow_rule(rc).kind == kind


# Data whose evaluation raises on Python scalars or is complex: at t = 0, or
# (the forcing) at step 2, where t - 0.002 is exactly zero, and the error then
# names the step.  Each case is (config lines, the step's prefix).
RAISING_EXPRESSIONS = [("theta0 = 1/0", ""), ("theta0 = 1 + (-1)**0.5", ""),
                       ("theta0 = 1 + (-1)**0.5*x", ""), ("theta0 = 1 + 10.0**400", ""),
                       ("theta0 = 1\nf = 1/(t - 0.002)", "step 2 (t=0.002) failed: ")]
RAISING_IDS = ["zero-division", "complex", "complex-array", "overflow", "forcing-at-step-2"]


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

    def test_smooth_3d_config_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / "out"))
        assert main(["run", "smooth_3d.cfg"]) == 0
        assert "FAIL" not in capsys.readouterr().out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["passed"] and summary["steps"] == 50

    def test_summary_reports_solver_stats(self, tmp_path):
        # The counts of an in-process run with every step's result recorded, and
        # byte-identical from run to run.
        body = SMOOTH_1D.replace("{outdir}", str(tmp_path / "out"))
        path = write_cfg(tmp_path, body)
        assert main(["run", str(path)]) == 0
        first = (tmp_path / "out" / "summary.json").read_text()
        stats = json.loads(first)["solver_stats"]
        _, infos = run_recording_steps(*build_problem(load_config(path)))
        iterations = [info.iterations for info in infos]
        assert stats == {
            "picard_iters": sum(iterations),
            "picard_iters_max": max(iterations),
            "steps_by_picard_iters": np.bincount(iterations).tolist(),
            "steps_by_start_order": stats["steps_by_start_order"],
            "heat_cg_iters": 0,
            "heat_fallbacks": 0,
            "stress_newton_iters": sum(info.stress_inner_iters for info in infos),
        }
        orders = stats["steps_by_start_order"]
        assert len(orders) == solver.MAX_START_ORDER + 1 and sum(orders) == len(infos) == 50
        assert orders[0] >= 1 and sum(orders[3:]) > 0
        # In 1D the flow factor is a closed-form root: one count per stress update.
        assert stats["stress_newton_iters"] == stats["picard_iters"]
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "summary.json").read_text() == first

    def test_summary_reports_2d_heat_solves(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / "out"))
        path = write_cfg(tmp_path, SMOOTH_1D.replace("dim = 1", "dim = 2").replace(
            "cells = 20", "cells = 6").replace("t_end = 0.05", "t_end = 0.01").replace(
            "u0 = 0.1*sin(pi*x)", "u0 = 0.1*sin(pi*x)*sin(pi*y)").replace(
            "stress0 = 0.3*cos(pi*x)", "stress0 = 0.3*cos(pi*x); 0; 0"))
        assert main(["run", str(path)]) == 0
        stats = json.loads((tmp_path / "out" / "summary.json").read_text())["solver_stats"]
        assert stats["heat_cg_iters"] >= stats["picard_iters"] > 0
        assert stats["heat_fallbacks"] == 0
        # The 2D mroz_saturating factor is found by Newton, which takes more than
        # one iteration on some updates.
        assert stats["stress_newton_iters"] > stats["picard_iters"]

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
        body = MINIMAL.replace("theta0 = 1.0",
                               "u0 = 0.1*sin(pi*x)\ntheta0 = 1 + 0.2*cos(pi*x)")
        body = body.replace("[time]", "[time]\npicard_max_iters = 1")
        cfg = write_cfg(tmp_path, body)
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "residual history" in err and "t=" in err
        assert err.count("residual history") == 1

    @pytest.mark.parametrize("data, step", RAISING_EXPRESSIONS, ids=RAISING_IDS)
    def test_expression_that_raises_exit_one(self, tmp_path, monkeypatch, capsys, data, step):
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / "out"))
        assert main(["run", str(write_cfg(tmp_path, MINIMAL.replace("theta0 = 1.0", data)))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {step}evaluating {data.split(' = ')[-1]!r} failed: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("data, field, bad", [
        ("theta0 = 1/x", "theta0", "1 of 9"),
        ("theta0 = 1e308*10", "theta0", "9 of 9"),
        ("u0 = 1e308*10*x\ntheta0 = 1", "u0", "7 of 7"),
        ("u0 = sqrt(x - 0.5)\ntheta0 = 1", "u0", "7 of 7"),
        ("u1 = 1e308*10\ntheta0 = 1", "u1", "7 of 7"),
        ("stress0 = 1e308*10\ntheta0 = 1", "stress0", "8 of 8"),
    ], ids=["theta0-inf-at-0", "theta0-inf", "u0-inf", "u0-nan", "u1-inf", "stress0-inf"])
    def test_non_finite_initial_data_exit_one(self, tmp_path, monkeypatch, capsys,
                                              data, field, bad):
        # Python float products overflow to inf silently, so a config can hold inf;
        # array inf and nan reach the named check without a numpy warning.
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / "out"))
        assert main(["run", str(write_cfg(tmp_path, MINIMAL.replace("theta0 = 1.0", data)))]) == 1
        assert capsys.readouterr().err == (f"error: initial data {field} is not finite: "
                                           f"{bad} coefficients are inf or nan\n")
        assert not (tmp_path / "out" / "ledger.csv").exists()

    @pytest.mark.parametrize("dim, cells, f, bad", [(1, 8, "1e200*1e200*x", "7 of 7"),
                                                    (1, 8, "1/(x - x)", "7 of 7"),
                                                    (2, 4, "1e200*1e200*x; 0", "9 of 18")],
                             ids=["1d", "1d-divide-by-zero", "2d"])
    def test_non_finite_forcing_exit_one(self, tmp_path, monkeypatch, capsys, dim, cells, f,
                                         bad):
        # The product is inf: the step names the forcing, not the heat solve it would break.
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / "out"))
        body = MINIMAL.replace("dim = 1", f"dim = {dim}").replace("cells = 8", f"cells = {cells}")
        body = body.replace("theta0 = 1.0", f"theta0 = 1.0\nf = {f}")
        assert main(["run", str(write_cfg(tmp_path, body))]) == 1
        assert capsys.readouterr().err == (f"error: step 1 (t=0.001) failed: forcing f is not "
                                           f"finite: {bad} load coefficients are inf or nan\n")

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

    def test_failed_setup_exit_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / "out"))
        assert main(["run", str(write_cfg(tmp_path, FINE_2D))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_singular_heat_matrix_exit_one(self, tmp_path, monkeypatch, capsys):
        # On 1e-150-wide cells CG gives up and the assembled heat matrix of the
        # direct fallback is exactly singular: one error line names it, with no
        # scipy warning before it.
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / "out"))
        body = shipped_config_path("zero.cfg").read_text().replace("dim = 1", "dim = 2")
        body = body.replace("extents = 1.0", "extents = 1e-150, 1.0")
        body = body.replace("cells = 16", "cells = 4, 4")
        assert main(["run", str(write_cfg(tmp_path, body))]) == 1
        err = capsys.readouterr().err
        assert err == ("error: step 1 (t=0.001) failed: heat solve failed: the assembled "
                       "heat matrix M_θ + dt·K_θ + dt·A_adv is exactly singular\n")
        assert "Warning" not in err

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_unusable_output_dir_exit_one(self, tmp_path, monkeypatch, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(out))
        monkeypatch.setattr(cli, "solver_run", lambda *a, **k: pytest.fail("solve started"))
        assert main(["run", str(shipped_config_path("zero.cfg"))]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot use output directory {out}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["ledger.csv", "summary.json"])
    def test_unwritable_output_file_exit_one(self, tmp_path, monkeypatch, capsys, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(out))
        assert main(["run", str(shipped_config_path("zero.cfg"))]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot use output directory {out}: " in err and name in err

    def test_percent_in_output_directory(self, tmp_path, monkeypatch):
        # Values are literal: "100%" is the directory's name, not an interpolation error.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("THERMOVISCO_OUTDIR", raising=False)
        body = MINIMAL + "\n[output]\ndirectory = out/100%\n"
        assert main(["run", str(write_cfg(tmp_path, body))]) == 0
        assert (tmp_path / "out" / "100%" / "ledger.csv").is_file()

    def test_snapshot_stride(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / "snap"))
        body = MINIMAL + "\n[output]\nsnapshot_stride = 2\n"
        assert main(["run", str(write_cfg(tmp_path, body))]) == 0
        snaps = sorted(p.name for p in (tmp_path / "snap").glob("snapshot_0*"))
        assert snaps == ["snapshot_000002.npz", "snapshot_000004.npz"]
        with np.load(tmp_path / "snap" / "snapshot_final.npz", allow_pickle=False) as final:
            assert final["schema"].item() == STATE_SCHEMA and final["t"].item() == 5e-3

    @pytest.mark.parametrize("name", ["summary.json", "snapshot_final.npz", "snapshot_000002.npz",
                                      "sub/ledger.csv"])
    def test_ledger_name_of_another_output_exit_two(self, tmp_path, monkeypatch, capsys, name):
        out = tmp_path / "out"
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(out))
        monkeypatch.setattr(cli, "solver_run", lambda *a, **k: pytest.fail("solve started"))
        body = MINIMAL + f"\n[output]\nledger = {name}\n"
        assert main(["run", str(write_cfg(tmp_path, body))]) == 2
        assert f"[output] ledger must be a file name other than summary.json and snapshot_*, " \
            f"got {name!r}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["run", "check-constitutive"])
@pytest.mark.parametrize("material", [
    "flow_rule = temperature_weighted\nkappa0 = 1\nkappa_min = 2",
    "flow_rule = temperature_weighted\nkappa0 = 1\nkappa_min = -1",
    "flow_rule = anti_monotone\nkappa0 = -1",
    "flow_rule = linear\nkappa0 = 1\nkappa_min = 7",
    "flow_rule = mroz_saturating\nkappa_min = -3",
    # Values are literal, so this is not μ's value but a number that does not parse.
    "flow_rule = linear\nkappa0 = %(mu)s",
], ids=["kappa_min=2", "kappa_min=-1", "anti_monotone-kappa0=-1", "linear-kappa_min=7",
        "mroz_saturating-kappa_min=-3", "kappa0=%(mu)s"])
def test_bad_flow_rule_exit_two(tmp_path, capsys, command, material):
    body = MINIMAL.replace("flow_rule = linear\nkappa0 = 0.5", material)
    assert main([command, str(write_cfg(tmp_path, body))]) == 2
    assert "[material]" in capsys.readouterr().err


class TestCmdCheckConstitutive:
    def test_linear_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL)
        assert main(["check-constitutive", str(cfg), "--samples", "2000"]) == 0
        assert "overall: pass" in capsys.readouterr().out

    def test_mroz_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL.replace("flow_rule = linear",
                                                  "flow_rule = mroz_saturating"))
        assert main(["check-constitutive", str(cfg), "--samples", "2000"]) == 0

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_non_positive_samples_exit_two(self, capsys, samples):
        with pytest.raises(SystemExit) as exit_:
            main(["check-constitutive", "smooth_coupled.cfg", "--samples", samples])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"--samples: must be >= 1, got {samples}" in err and "usage:" in err

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_exit_two(self, capsys, seed):
        with pytest.raises(SystemExit) as exit_:
            main(["check-constitutive", "smooth_coupled.cfg", "--seed", seed])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"--seed: must be >= 0, got {seed}" in err and "usage:" in err

    def test_anti_monotone_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL.replace("flow_rule = linear",
                                                  "flow_rule = anti_monotone"))
        assert main(["check-constitutive", str(cfg), "--samples", "500"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestCmdConvergence:
    SMOOTH = MINIMAL.replace("theta0 = 1.0",
                             "u0 = 0.1*sin(pi*x)\nstress0 = 0.3*cos(pi*x)\n"
                             "theta0 = 1 + 0.2*cos(pi*x)").replace(
                                 "t_end = 5e-3", "t_end = 0.1")

    def test_three_nested_levels_decrease(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.SMOOTH)
        code = main(["convergence", str(cfg),
                     "--levels", "10:4e-3;20:2e-3;40:1e-3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "monotonically decreasing: True" in out

    def test_identical_levels_zero_difference(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.SMOOTH)
        code = main(["convergence", str(cfg),
                     "--levels", "10:2e-3;10:2e-3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.0000e+00" in out

    def test_fine_to_coarse_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.SMOOTH)
        code = main(["convergence", str(cfg),
                     "--levels", "40:1e-3;20:2e-3"])
        assert code == 2
        assert "coarse to fine" in capsys.readouterr().err

    @pytest.mark.parametrize("level, section", [
        ("25:0", "[time] dt"),
        ("25:3e-3", "[time] t_end must be a whole number of steps"),
        ("1:4e-3", "[mesh]"),
        ("25:full:full:4e-3", "level '25:full:full:4e-3': expected cells:dt"),
    ])
    def test_out_of_range_level_exit_two(self, tmp_path, capsys, level, section):
        cfg = write_cfg(tmp_path, self.SMOOTH)
        assert main(["convergence", str(cfg), "--levels", f"{level};50:2e-3"]) == 2
        assert section in capsys.readouterr().err

    def test_failing_level_exit_one(self, capsys):
        # dt = 1e-2 keeps positivity on 25 cells and loses it on 50.
        assert main(["convergence", "smooth_coupled.cfg",
                     "--levels", "25:1e-2;50:1e-2"]) == 1
        err = capsys.readouterr().err
        assert "error: level 1 (50 cells, dt=0.01) failed: step 1" in err
        assert "lost positivity" in err

    def test_level_failing_its_verdicts_exit_one(self, tmp_path, monkeypatch, capsys):
        # The admissibility gate would stop this rule before the ledger sees it.
        monkeypatch.setattr(solver, "verify_admissibility",
                            lambda rule, samples: verify_admissibility(FlowRule.linear(), samples))
        body = self.SMOOTH.replace("flow_rule = linear", "flow_rule = anti_monotone")
        assert main(["convergence", str(write_cfg(tmp_path, body)),
                     "--levels", "10:2e-3;20:1e-3"]) == 1
        out = capsys.readouterr().out
        assert "monotonically decreasing: True" in out
        for level in (0, 1):
            assert f"level {level}: " in out
            assert out.split(f"level {level}: ")[1].split("\n")[0].endswith(
                "verdicts: FAIL dissipation_inequality, accumulators_monotone")

    @pytest.mark.parametrize("dim, levels", [
        (2, "4:2e-3;8:1e-3"),
        (3, "2:2e-3;4:1e-3"),
    ])
    def test_multi_dimensional_levels(self, tmp_path, capsys, dim, levels):
        body = self.SMOOTH.replace("dim = 1", f"dim = {dim}").replace(
            "t_end = 0.1", "t_end = 4e-3").replace("u0 = 0.1*sin(pi*x)",
                                                   "u0 = 0.1*sin(pi*x)*sin(pi*y)")
        body = body.replace("stress0 = 0.3*cos(pi*x)\n", "")
        assert main(["convergence", str(write_cfg(tmp_path, body)), "--levels", levels]) == 0
        pair = capsys.readouterr().out.splitlines()[1].split()
        assert pair[0] == "0->" and pair[1] == "1"
        assert all(0.0 < float(d) < 1.0 for d in pair[2:])

    @pytest.mark.parametrize("data, step", RAISING_EXPRESSIONS, ids=RAISING_IDS)
    def test_expression_that_raises_exit_one(self, tmp_path, capsys, data, step):
        cfg = write_cfg(tmp_path, MINIMAL.replace("theta0 = 1.0", data))
        assert main(["convergence", str(cfg), "--levels", "4:1e-3;8:1e-3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: level 0 (4 cells, dt=0.001) failed: {step}evaluating ")
        assert err.count("\n") == 1

    def test_failed_level_setup_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FINE_2D)
        assert main(["convergence", str(cfg), "--levels", "4:1e-3;8:1e-3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: level 0 (4x4 cells, dt=0.001) failed: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_single_level_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SMOOTH)
        assert main(["convergence", str(cfg), "--levels", "10:1e-3"]) == 2


class TestDeterminism:
    def test_identical_runs_byte_identical_ledgers(self, tmp_path, monkeypatch):
        outs = []
        for d in ("a", "b"):
            monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / d))
            assert main(["run", str(shipped_config_path("zero.cfg"))]) == 0
            outs.append((tmp_path / d / "ledger.csv").read_bytes())
        assert outs[0] == outs[1]


SMOOTH_2D_STRIDE_2 = (shipped_config_path("smooth_2d.cfg").read_text()
                     .replace("cells = 12, 12", "cells = 6, 6")
                     .replace("t_end = 0.05", "t_end = 6e-3")
                     + "snapshot_stride = 2\n")


def record_observed_states(monkeypatch):
    """The states ``cmd_run``'s observers see, by step index."""
    seen, real_run = {}, cli.solver_run

    def recording_run(sys_, cfg, observers=()):
        return real_run(sys_, cfg, observers=[
            *observers, lambda i, t, state, result: seen.setdefault(i, state)])
    monkeypatch.setattr(cli, "solver_run", recording_run)
    return seen


def assert_exact_state_file(path, sys_, state):
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}   # an object array would raise here
    assert set(arrays) == {"schema", "dim", "cells", "t", "u", "v", "stress", "theta"}
    assert arrays["schema"].item() == STATE_SCHEMA
    assert arrays["dim"].item() == sys_.mesh.dim
    assert arrays["cells"].tolist() == list(sys_.mesh.cells)
    for key in ("t", "u", "v", "stress", "theta"):
        expected = np.asarray(getattr(state, key))
        assert arrays[key].dtype == expected.dtype and arrays[key].shape == expected.shape, key
        assert arrays[key].tobytes() == expected.tobytes(), key


class TestBackgroundSnapshots:
    """In-run snapshots (``snapshot_stride``): exact ``.npz`` states, written
    before the solve goes on."""

    def run(self, tmp_path, monkeypatch, name, body=SMOOTH_2D_STRIDE_2):
        out = tmp_path / name
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(out))
        return main(["run", str(write_cfg(tmp_path, body))]), out

    @pytest.mark.parametrize("dim, cells", [(1, 8), (2, 4), (3, 3)])
    def test_npz_holds_the_observed_state_exactly(self, tmp_path, monkeypatch, dim, cells):
        body = MINIMAL.replace("dim = 1", f"dim = {dim}").replace(
            "cells = 8", f"cells = {cells}").replace(
            "theta0 = 1.0", "u0 = 0.1*sin(pi*x)\ntheta0 = 1 + 0.2*cos(pi*x)")
        seen = record_observed_states(monkeypatch)
        code, out = self.run(tmp_path, monkeypatch, "out",
                             body + "\n[output]\nsnapshot_stride = 2\n")
        assert code == 0
        assert sorted(p.name for p in out.glob("snapshot_0*")) == \
            ["snapshot_000002.npz", "snapshot_000004.npz"]
        sys_, _ = build_problem(load_config(tmp_path / "case.cfg"))
        for i in (2, 4):
            assert np.any(seen[i].stress != 0.0)
            assert_exact_state_file(out / f"snapshot_{i:06d}.npz", sys_, seen[i])

    @pytest.mark.parametrize("stride, snaps", [
        (2, ["snapshot_000002.npz", "snapshot_000004.npz", "snapshot_000006.npz"]),
        (4, ["snapshot_000004.npz"]),
    ], ids=["stride-divides", "stride-does-not-divide"])
    def test_final_snapshot(self, tmp_path, monkeypatch, stride, snaps):
        calls, real_write = [], cli.write_snapshot

        def counted_write(path, *args):
            calls.append(Path(path).name)
            real_write(path, *args)
        monkeypatch.setattr(cli, "write_snapshot", counted_write)
        body = SMOOTH_2D_STRIDE_2.replace("snapshot_stride = 2", f"snapshot_stride = {stride}")
        code, out = self.run(tmp_path, monkeypatch, "out", body)
        assert code == 0
        assert sorted(p.name for p in out.glob("snapshot_0*")) == snaps
        # Every snapshot goes through write_snapshot, the final one last.
        assert calls == [*snaps, "snapshot_final.npz"]
        with np.load(out / "snapshot_final.npz", allow_pickle=False) as final:
            assert final["schema"].item() == STATE_SCHEMA and final["t"].item() == 6e-3

    def test_step_failure_leaves_complete_snapshot(self, tmp_path, monkeypatch, capsys):
        real_step, calls = solver.step, []

        def step(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise solver.StepFailureError("injected")
            return real_step(*args, **kwargs)
        monkeypatch.setattr(solver, "step", step)
        seen = record_observed_states(monkeypatch)
        code, out = self.run(tmp_path, monkeypatch, "out")
        assert code == 1
        assert "step 3 (t=0.003) failed: injected" in capsys.readouterr().err
        assert [p.name for p in out.glob("snapshot_*")] == ["snapshot_000002.npz"]
        sys_, _ = build_problem(load_config(tmp_path / "case.cfg"))
        assert_exact_state_file(out / "snapshot_000002.npz", sys_, seen[2])

    def test_snapshot_in_the_way_exit_one(self, tmp_path, monkeypatch, capsys):
        blocked = tmp_path / "out" / "snapshot_000002.npz"
        blocked.mkdir(parents=True)
        code, _ = self.run(tmp_path, monkeypatch, "out")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: writing {blocked} failed: [Errno 21] Is a directory")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestFinalSnapshot:
    """``snapshot_final.npz``: the state ``run`` returns, exact to the bit."""

    @pytest.mark.parametrize("dim, cells", [(1, 8), (2, 4), (3, 3)], ids=["1d", "2d", "3d"])
    def test_holds_the_final_state_exactly(self, tmp_path, monkeypatch, dim, cells):
        body = MINIMAL.replace("dim = 1", f"dim = {dim}").replace(
            "cells = 8", f"cells = {cells}").replace(
            "theta0 = 1.0", "u0 = 0.1*sin(pi*x)\ntheta0 = 1 + 0.2*cos(pi*x)")
        results, real_run = [], cli.solver_run

        def recording_run(*args, **kwargs):
            results.append(real_run(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(cli, "solver_run", recording_run)
        out = tmp_path / "out"
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(out))
        assert main(["run", str(write_cfg(tmp_path, body))]) == 0
        assert sorted(p.name for p in out.iterdir()) == \
            ["ledger.csv", "snapshot_final.npz", "summary.json"]
        sys_, _ = build_problem(load_config(tmp_path / "case.cfg"))
        assert np.any(results[0].state.stress != 0.0)
        assert_exact_state_file(out / "snapshot_final.npz", sys_, results[0].state)

    def test_writes_no_text_file(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(out))
        assert main(["run", str(write_cfg(tmp_path, SMOOTH_2D_STRIDE_2))]) == 0
        assert list(out.glob("*.txt")) == []
        assert sorted(p.name for p in out.iterdir()) == [
            "ledger.csv", "snapshot_000002.npz", "snapshot_000004.npz", "snapshot_000006.npz",
            "snapshot_final.npz", "summary.json"]

    def test_final_snapshot_in_the_way_exit_one(self, tmp_path, monkeypatch, capsys):
        blocked = tmp_path / "out" / "snapshot_final.npz"
        blocked.mkdir(parents=True)
        monkeypatch.setenv("THERMOVISCO_OUTDIR", str(tmp_path / "out"))
        assert main(["run", str(shipped_config_path("zero.cfg"))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: writing {blocked} failed: [Errno 21] Is a directory")
        assert err.count("\n") == 1 and "Traceback" not in err
