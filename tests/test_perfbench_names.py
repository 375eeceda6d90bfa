"""The traced benchmark (perfbench/tracing.py) wraps program functions by the
names it looks them up by; each of those names must exist where it looks,
and the calls it counts must keep counting the same work."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from thermovisco import ElasticityTensor, FlowRule, build_mesh, build_spaces
from thermovisco.discretization import GalerkinSystem, max_levels
from thermovisco.solver import SolverConfig, StepResult, initialize, resolve_truncation, step

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_resolves():
    tracing = load_tracing()
    for owner, attr, name in tracing.ENTRY_POINTS:
        assert callable(vars(owner).get(attr)), f"{name}: {owner.__name__}.{attr} is missing"


def test_step_result_reports_inner_iterations():
    assert "stress_inner_iters" in StepResult.__dataclass_fields__


def assert_one_advection_matrix_per_picard_iteration(monkeypatch, dim, cells):
    # discretization.advection_calls counts the heat systems assembled.
    mesh = build_mesh(dim, [1.0] * dim, [cells] * dim)
    sys = build_spaces(mesh, *max_levels(dim, mesh.cells))
    cfg = SolverConfig(
        dt=1e-2, t_end=1e-2, elasticity=ElasticityTensor(1.0, 1.0), flow_rule=FlowRule.linear(1.0),
        u1=lambda pts: np.sin(np.pi * pts) * np.sin(np.pi * pts[:, ::-1]),
        theta0=lambda pts: 1.0 + 0.1 * pts[:, 0])
    state = initialize(sys, cfg)
    cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))
    calls = []
    assemble = GalerkinSystem.advection_matrix
    monkeypatch.setattr(GalerkinSystem, "advection_matrix",
                        lambda self, div: calls.append(div) or assemble(self, div))
    result = step(sys, cfg, state)
    assert result.iterations > 1
    assert len(calls) == result.iterations


def test_one_advection_matrix_per_picard_iteration(monkeypatch):
    assert_one_advection_matrix_per_picard_iteration(monkeypatch, 2, 4)


@pytest.mark.parametrize("dim, cells", [(1, 8), (3, 3)])
def test_one_advection_matrix_per_picard_iteration_in(monkeypatch, dim, cells):
    assert_one_advection_matrix_per_picard_iteration(monkeypatch, dim, cells)
