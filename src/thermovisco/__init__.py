"""Coupled thermo-visco-elastic simulator with balance-law diagnostics."""

from .constitutive import (
    ElasticityTensor,
    FlowRule,
    TruncationLevel,
    truncate,
    verify_admissibility,
)
from .discretization import (
    GalerkinSystem,
    Mesh,
    build_mesh,
    build_spaces,
    project_displacement,
    project_stress,
)
from .solver import SimState, SolverConfig, initialize, run, step

__all__ = [
    "ElasticityTensor",
    "FlowRule",
    "TruncationLevel",
    "truncate",
    "verify_admissibility",
    "GalerkinSystem",
    "Mesh",
    "build_mesh",
    "build_spaces",
    "project_displacement",
    "project_stress",
    "SimState",
    "SolverConfig",
    "initialize",
    "run",
    "step",
]

__version__ = "0.1.0"
