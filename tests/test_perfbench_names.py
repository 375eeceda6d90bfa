"""The traced benchmark (perfbench/tracing.py) wraps program functions by the
names it looks them up by; each of those names must exist where it looks,
and the calls it counts must keep counting the same work."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from thermovisco import ElasticityTensor, FlowRule, build_mesh, build_spaces, diagnostics, solver
from thermovisco.discretization import GalerkinSystem
from thermovisco.solver import SolverConfig, StepResult, initialize, resolve_truncation, step

from conftest import make_smooth_problem

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


def test_record_step_span_holds_all_ledger_work(monkeypatch):
    # diagnostics.record_s is the time inside BalanceLedger.record_step: when
    # the run's last record_step returns, the ledger holds every row, and
    # writing it out computes no column again.
    sys, cfg = make_smooth_problem(cells=20, t_end=0.05)
    lengths = []
    record_step = diagnostics.BalanceLedger.record_step

    def recorded(self, state, result):
        record_step(self, state, result)
        lengths.append(len(self.rows))
    monkeypatch.setattr(diagnostics.BalanceLedger, "record_step", recorded)
    result = solver.run(sys, cfg)
    assert len(lengths) == result.n_steps and lengths[-1] == result.n_steps + 1

    def no_product(*args):
        raise AssertionError("the ledger's output recomputed a column")
    monkeypatch.setattr(GalerkinSystem, "cell_center_values", no_product)
    monkeypatch.setattr(sys, "M_u", None)
    monkeypatch.setattr(sys, "K_theta", None)
    assert result.ledger.to_csv().count("\n") == result.n_steps + 2
    assert result.ledger.summary()["steps"] == result.n_steps


def test_step_result_reports_inner_iterations():
    assert "stress_inner_iters" in StepResult.__dataclass_fields__


def step_counting_heat_systems(monkeypatch, dim, cells):
    """One step of a swirling run; returns it with the ``advection_matrix``
    and ``heat_matrix`` calls it made."""
    mesh = build_mesh(dim, [1.0] * dim, [cells] * dim)
    sys = build_spaces(mesh)
    cfg = SolverConfig(
        dt=1e-2, t_end=1e-2, elasticity=ElasticityTensor(1.0, 1.0), flow_rule=FlowRule.linear(1.0),
        u1=lambda pts: np.sin(np.pi * pts) * np.sin(np.pi * pts[:, ::-1]),
        theta0=lambda pts: 1.0 + 0.1 * pts[:, 0])
    state = initialize(sys, cfg)
    cfg = replace(cfg, truncation=resolve_truncation(sys, cfg, state))
    calls, builds = [], []
    assemble = GalerkinSystem.advection_matrix
    monkeypatch.setattr(GalerkinSystem, "advection_matrix",
                        lambda self, div: calls.append(div) or assemble(self, div))
    heat_matrix = GalerkinSystem.heat_matrix
    monkeypatch.setattr(GalerkinSystem, "heat_matrix",
                        lambda self, dt, div: builds.append(div) or heat_matrix(self, dt, div))
    return step(sys, cfg, state), calls, builds


def assert_one_advection_matrix_per_picard_iteration(monkeypatch, dim, cells):
    # discretization.advection_calls counts the heat systems formed, and no
    # step assembles a CSR heat matrix unless CG falls back to a direct solve.
    result, calls, builds = step_counting_heat_systems(monkeypatch, dim, cells)
    assert result.iterations > 1
    assert len(calls) == result.iterations
    assert result.heat_fallbacks == 0
    assert builds == []


def test_one_advection_matrix_per_picard_iteration(monkeypatch):
    assert_one_advection_matrix_per_picard_iteration(monkeypatch, 2, 4)


@pytest.mark.parametrize("dim, cells", [(1, 8), (3, 3)])
def test_one_advection_matrix_per_picard_iteration_in(monkeypatch, dim, cells):
    assert_one_advection_matrix_per_picard_iteration(monkeypatch, dim, cells)


@pytest.mark.parametrize("dim, cells", [(2, 4), (3, 3)])
def test_only_a_heat_fallback_assembles_the_heat_matrix(monkeypatch, dim, cells):
    monkeypatch.setattr(solver, "pcg", lambda *args: (None, 1))
    result, _, builds = step_counting_heat_systems(monkeypatch, dim, cells)
    assert result.iterations > 1
    assert len(builds) == result.heat_fallbacks == result.iterations
