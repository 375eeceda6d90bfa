"""Seeded workload generator: each workload is a ``.cfg`` file written from a seed.

Seed 0 reproduces the data of the named scenario exactly; any other seed
scales the initial-data amplitudes (displacement, stress and the temperature
bump around its mean) by one factor drawn from [0.8, 1.2].  The forcing and
every solver setting are the same for all seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    template: str       # INI text with {a_*} amplitude fields and {outdir}
    amplitudes: dict    # seed-0 amplitude of each {a_*} field
    oracle: bool        # compare against the 1D finite-difference reference


COUPLED_1D = Workload(
    name="coupled_1d",
    # The shipped smooth_coupled.cfg with its data written out.
    template="""\
[mesh]
dim = 1
extents = 1.0
cells = 100

[spaces]
n_disp_level = full
k_stress_level = full

[material]
lambda = 0.0
mu = 0.5
flow_rule = mroz_saturating
kappa0 = 1.0

[time]
dt = 1e-3
t_end = 0.5
picard_tol = 1e-10
picard_max_iters = 50
truncation = auto

[data]
u0 = {a_u}*sin(pi*x)
stress0 = {a_s}*cos(pi*x)
theta0 = 1.0 + {a_th}*cos(pi*x)
f = 0.05*cos(2*t)*sin(pi*x)

[output]
directory = {outdir}
snapshot_stride = 0
ledger = ledger.csv
""",
    amplitudes={"a_u": 0.1, "a_s": 0.3, "a_th": 0.2},
    oracle=True,
)

HEAT_2D = Workload(
    name="heat_2d",
    # The smooth_2d preset refined to 48 x 48 cells, with periodic snapshots.
    template="""\
[mesh]
dim = 2
extents = 1.0, 1.0
cells = 48, 48

[spaces]
n_disp_level = full
k_stress_level = full

[material]
lambda = 1.0
mu = 1.0
flow_rule = temperature_weighted
kappa0 = 1.0

[time]
dt = 1e-3
t_end = 0.03

[data]
u0 = {a_u}*sin(pi*x)*sin(pi*y); {a_u}*sin(pi*x)*sin(pi*y)
stress0 = {a_s}*cos(pi*x); {a_s}*cos(pi*x); 0.0
theta0 = 1.0 + {a_th}*cos(pi*x)*cos(pi*y)

[output]
directory = {outdir}
snapshot_stride = 10
ledger = ledger.csv
""",
    amplitudes={"a_u": 0.05, "a_s": 0.2, "a_th": 0.1},
    oracle=False,
)

BOX_3D = Workload(
    name="box_3d",
    # Smooth trigonometric data on the unit cube.
    template="""\
[mesh]
dim = 3
extents = 1.0
cells = 10

[spaces]
n_disp_level = full
k_stress_level = full

[material]
lambda = 1.0
mu = 1.0
flow_rule = mroz_saturating
kappa0 = 1.0

[time]
dt = 1e-3
t_end = 0.03
picard_tol = 1e-10

[data]
u0 = {a_u}*sin(pi*x)*sin(pi*y)*sin(pi*z); {a_u}*sin(pi*x)*sin(pi*y)*sin(pi*z); {a_u}*sin(pi*x)*sin(pi*y)*sin(pi*z)
stress0 = {a_s}*cos(pi*x); {a_s}*cos(pi*y); {a_s}*cos(pi*z); 0.0; 0.0; 0.0
theta0 = 1.0 + {a_th}*cos(pi*x)*cos(pi*y)*cos(pi*z)

[output]
directory = {outdir}
snapshot_stride = 0
ledger = ledger.csv
""",
    amplitudes={"a_u": 0.05, "a_s": 0.2, "a_th": 0.1},
    oracle=False,
)

WORKLOADS = {w.name: w for w in (COUPLED_1D, HEAT_2D, BOX_3D)}


def amplitude_factor(seed: int) -> float:
    """1.0 for seed 0, otherwise a factor in [0.8, 1.2] fixed by the seed."""
    if seed == 0:
        return 1.0
    return 0.8 + 0.4 * random.Random(seed).random()


def amplitudes(workload: Workload, seed: int) -> dict:
    factor = amplitude_factor(seed)
    return {key: value * factor for key, value in workload.amplitudes.items()}


def write_config(workload: Workload, seed: int, path: Path, outdir: Path) -> Path:
    """Write the workload's config for ``seed`` to ``path``; outputs go to ``outdir``."""
    fields = {key: repr(value) for key, value in amplitudes(workload, seed).items()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(workload.template.format(outdir=outdir, **fields))
    return path
