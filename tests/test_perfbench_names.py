"""The traced benchmark (perfbench/tracing.py) wraps program functions by the
names it looks them up by; each of those names must exist where it looks."""

import importlib.util
from pathlib import Path

from thermovisco.solver import StepResult

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
