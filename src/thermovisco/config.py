"""INI-style run configuration: parsing, validation and problem assembly.

A config has sections [mesh], [spaces], [material], [time], [data] and
[output]; see the shipped files under ``thermovisco/configs``.  The [data]
section either names a preset or gives component expressions over x, y, z
(and t for the forcing f).  Every numeric range is validated here so the
command line can report field-level messages before anything runs.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .constitutive import ElasticityTensor, FlowRule, TruncationLevel
from .discretization import build_mesh, build_spaces, max_levels
from .expressions import ExpressionError, compile_expression, tensor_sampler, vector_sampler
from .solver import SolverConfig


class ConfigError(ValueError):
    """Malformed or out-of-range configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    dim: int
    extents: tuple
    cells: tuple
    n_disp_level: int           # resolved count ("full" already expanded)
    k_stress_level: int
    lam: float
    mu: float
    flow_kind: str
    kappa0: float
    kappa_min: Optional[float]
    dt: float
    t_end: float
    picard_tol: float
    picard_max_iters: int
    truncation: object          # TruncationLevel or "auto"
    data: dict                  # sampler callables: u0, u1, stress0, theta0, forcing
    output_dir: str
    snapshot_stride: int
    ledger_filename: str
    seed: int


PRESETS = {
    "zero": {
        "theta0": "1.0",
    },
    "smooth_coupled": {
        "u0": "0.1*sin(pi*x)",
        "stress0": "0.3*cos(pi*x)",
        "theta0": "1.0 + 0.2*cos(pi*x)",
        "f": "0.05*cos(2*t)*sin(pi*x)",
    },
    "smooth_2d": {
        "u0": "0.05*sin(pi*x)*sin(pi*y); 0.05*sin(pi*x)*sin(pi*y)",
        "stress0": "0.2*cos(pi*x); 0.2*cos(pi*x); 0.0",
        "theta0": "1.0 + 0.1*cos(pi*x)*cos(pi*y)",
    },
}


def shipped_config_path(name: str) -> Path:
    """Path of a packaged .cfg file, e.g. shipped_config_path('zero.cfg')."""
    ref = resources.files("thermovisco") / "configs" / name
    with resources.as_file(ref) as p:
        return Path(p)


def _get(cp, section, key, cast, default=None, required=False):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] {key}: missing required field")
        return default
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}: {exc}") from exc


def _float(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _num_list(raw):
    return tuple(_float(v) for v in raw.replace("x", ",").split(","))


def _int_list(raw):
    return tuple(int(v) for v in raw.replace("x", ",").split(","))


def load_config(path) -> RunConfig:
    """Parse and validate an INI config file into a RunConfig."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in ("mesh", "material", "time", "data"):
        if not cp.has_section(section):
            raise ConfigError(f"missing section [{section}]")

    dim = _get(cp, "mesh", "dim", int, required=True)
    if dim not in (1, 2, 3):
        raise ConfigError(f"[mesh] dim: must be 1, 2 or 3, got {dim}")
    extents = _get(cp, "mesh", "extents", _num_list, required=True)
    cells = _get(cp, "mesh", "cells", _int_list, required=True)
    if len(extents) == 1:
        extents = extents * dim
    if len(cells) == 1:
        cells = cells * dim
    if len(extents) != dim or len(cells) != dim:
        raise ConfigError(f"[mesh] extents/cells must have {dim} entries")
    if any(L <= 0 for L in extents):
        raise ConfigError(f"[mesh] extents: must be positive, got {extents}")
    if any(c < 2 for c in cells):
        raise ConfigError(f"[mesh] cells: need at least 2 per axis, got {cells}")

    max_disp, max_stress = max_levels(dim, cells)

    def level(raw, maximum):
        if raw.strip().lower() == "full":
            return maximum
        return int(raw)

    n_disp = _get(cp, "spaces", "n_disp_level", lambda r: level(r, max_disp), default=max_disp)
    k_stress = _get(cp, "spaces", "k_stress_level", lambda r: level(r, max_stress),
                    default=max_stress)
    if not 1 <= n_disp <= max_disp:
        raise ConfigError(f"[spaces] n_disp_level: must be in [1, {max_disp}], got {n_disp}")
    if not 1 <= k_stress <= max_stress:
        raise ConfigError(f"[spaces] k_stress_level: must be in [1, {max_stress}], got {k_stress}")

    lam = _get(cp, "material", "lambda", _float, default=0.0)
    mu = _get(cp, "material", "mu", _float, required=True)
    if not (mu > 0 and 3 * lam + 2 * mu > 0):
        raise ConfigError(f"[material] moduli: need mu > 0 and 3*lambda + 2*mu > 0, "
                          f"got lambda={lam}, mu={mu}")
    flow_kind = _get(cp, "material", "flow_rule", str, default="linear").strip()
    known = ("linear", "mroz_saturating", "temperature_weighted", "anti_monotone")
    if flow_kind not in known:
        raise ConfigError(f"[material] flow_rule: unknown kind {flow_kind!r} "
                          f"(one of {known})")
    kappa0 = _get(cp, "material", "kappa0", _float, default=1.0)
    if kappa0 < 0:
        raise ConfigError(f"[material] kappa0: must be >= 0, got {kappa0}")
    kappa_min = _get(cp, "material", "kappa_min", _float, default=None)

    dt = _get(cp, "time", "dt", _float, required=True)
    if dt <= 0:
        raise ConfigError(f"[time] dt: must be positive, got {dt}")
    t_end = _get(cp, "time", "t_end", _float, required=True)
    if t_end < dt:
        raise ConfigError(f"[time] t_end: must be at least dt, got {t_end} < {dt}")
    picard_tol = _get(cp, "time", "picard_tol", _float, default=1e-10)
    if picard_tol <= 0:
        raise ConfigError(f"[time] picard_tol: must be positive, got {picard_tol}")
    picard_max = _get(cp, "time", "picard_max_iters", int, default=50)
    if picard_max < 1:
        raise ConfigError(f"[time] picard_max_iters: must be >= 1, got {picard_max}")
    trunc_raw = _get(cp, "time", "truncation", str, default="auto").strip()
    if trunc_raw.lower() == "auto":
        truncation = "auto"
    else:
        try:
            truncation = TruncationLevel(_float(trunc_raw))
        except ValueError as exc:
            raise ConfigError(f"[time] truncation: {exc}") from exc

    data = _parse_data(cp, dim)

    out_dir = _get(cp, "output", "directory", str, default="out")
    stride = _get(cp, "output", "snapshot_stride", int, default=0)
    ledger_name = _get(cp, "output", "ledger", str, default="ledger.csv")
    seed = _get(cp, "output", "seed", int, default=0)

    return RunConfig(dim, extents, cells, n_disp, k_stress, lam, mu, flow_kind,
                     kappa0, kappa_min, dt, t_end, picard_tol, picard_max,
                     truncation, data, out_dir, stride, ledger_name, seed)


def _parse_data(cp, dim) -> dict:
    fields = {}
    raw = dict(cp.items("data"))
    preset = raw.pop("preset", None)
    if preset is not None:
        preset = preset.strip()
        if preset not in PRESETS:
            raise ConfigError(f"[data] preset: unknown preset {preset!r} "
                              f"(one of {sorted(PRESETS)})")
        merged = dict(PRESETS[preset])
        merged.update(raw)  # explicit keys override the preset
        raw = merged

    def comps(value):
        return [c.strip() for c in value.split(";")]

    try:
        for key in ("u0", "u1"):
            if key in raw:
                c = comps(raw[key])
                if len(c) == 1:
                    c = c * dim
                if len(c) != dim:
                    raise ConfigError(f"[data] {key}: need {dim} components, got {len(c)}")
                fields[key] = vector_sampler(c)
        if "stress0" in raw:
            fields["stress0"] = tensor_sampler(comps(raw["stress0"]), dim)
        if "theta0" not in raw:
            raise ConfigError("[data] theta0: required (strictly positive expression)")
        fields["theta0"] = compile_expression(raw["theta0"])
        if "f" in raw:
            c = comps(raw["f"])
            if len(c) == 1:
                c = c * dim
            if len(c) != dim:
                raise ConfigError(f"[data] f: need {dim} components, got {len(c)}")
            fields["forcing"] = vector_sampler(c, with_time=True)
    except ExpressionError as exc:
        raise ConfigError(f"[data] bad expression: {exc}") from exc
    return fields


def make_flow_rule(rc: RunConfig) -> FlowRule:
    if rc.flow_kind == "linear":
        return FlowRule.linear(rc.kappa0)
    if rc.flow_kind == "mroz_saturating":
        return FlowRule.mroz_saturating(rc.kappa0)
    if rc.flow_kind == "temperature_weighted":
        return FlowRule.temperature_weighted(rc.kappa0, rc.kappa_min)
    if rc.flow_kind == "anti_monotone":
        # Deliberately inadmissible rule, kept so the admissibility gate and
        # the dissipation verdict can be demonstrated to fail from a config.
        k = rc.kappa0 if rc.kappa0 > 0 else 1.0
        return FlowRule.custom(lambda theta: -k, c_growth=k,
                               kind="anti_monotone")
    raise ConfigError(f"unknown flow rule kind {rc.flow_kind!r}")


def build_problem(rc: RunConfig, check_flow_rule: bool = True):
    """Materialize (GalerkinSystem, SolverConfig) from a parsed RunConfig."""
    mesh = build_mesh(rc.dim, rc.extents, rc.cells)
    sys = build_spaces(mesh, rc.n_disp_level, rc.k_stress_level)
    cfg = SolverConfig(
        dt=rc.dt,
        t_end=rc.t_end,
        elasticity=ElasticityTensor(rc.lam, rc.mu),
        flow_rule=make_flow_rule(rc),
        truncation=rc.truncation,
        picard_tol=rc.picard_tol,
        picard_max_iters=rc.picard_max_iters,
        forcing=rc.data.get("forcing"),
        u0=rc.data.get("u0"),
        u1=rc.data.get("u1"),
        stress0=rc.data.get("stress0"),
        theta0=rc.data["theta0"],
        check_flow_rule=check_flow_rule,
        admissibility_seed=rc.seed,
    )
    return sys, cfg
