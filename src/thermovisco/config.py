"""INI-style run configuration: parsing, checking and problem assembly.

A config has sections [mesh], [material], [time], [data] and [output];
see the shipped files under ``thermovisco/configs``.  The [data] section
gives component expressions over the mesh's coordinates (x; x, y; or x, y, z,
and t for the forcing f); theta0 is required.  Each mesh has one set of
discrete spaces, so an older config's [spaces] section is accepted only with
``n_disp_level`` and ``k_stress_level`` both ``full``.  This module only parses values.  Their
ranges are the rules of the objects that own them (``mesh_shape``,
``ElasticityTensor``, ``FlowRule``, ``check_time``);
``check`` runs them all and names the section of a rule that fails, so the
command line reports a config error before anything runs.  A section or key
that nothing reads, such as a misspelt one, is a config error too.
"""

from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional

from .constitutive import ElasticityTensor, FlowRule, TruncationLevel, sym_components
from .discretization import build_mesh, build_spaces, mesh_shape
from .expressions import ExpressionError, compile_expression, tensor_sampler, vector_sampler
from .solver import SolverConfig, check_time


class ConfigError(ValueError):
    """Malformed or out-of-range configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    dim: int
    extents: tuple
    cells: tuple
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


def shipped_config_path(name: str) -> Path:
    """Path of a packaged .cfg file, e.g. shipped_config_path('zero.cfg')."""
    ref = resources.files("thermovisco") / "configs" / name
    with resources.as_file(ref) as p:
        return Path(p)


class _ConfigFile(configparser.ConfigParser):
    """A parsed config that records each (section, key) read from it by ``_get``."""

    def __init__(self):
        # Every value is literal: no %-interpolation, so a % is just a character.
        super().__init__(inline_comment_prefixes=("#", ";"), interpolation=None)
        self.asked = set()

    def reject_unread(self):
        """Raise ConfigError naming a section or key that nothing read."""
        read_sections = {section for section, _ in self.asked}
        for section in self.sections():
            if section not in read_sections:
                raise ConfigError(f"[{section}]: unknown section")
            for key in self.options(section):
                if (section, key) not in self.asked:
                    raise ConfigError(f"[{section}] {key}: unknown key")


def _get(cp, section, key, cast, default=None, required=False):
    cp.asked.add((section, key))
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
    """Parse an INI config file into a RunConfig that has passed ``check``."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = _ConfigFile()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    # [DEFAULT] keys would show up in every section.
    for key in cp.defaults():
        raise ConfigError(f"[{cp.default_section}] {key}: unknown key")

    for section in ("mesh", "material", "time", "data"):
        if not cp.has_section(section):
            raise ConfigError(f"missing section [{section}]")

    dim = _get(cp, "mesh", "dim", int, required=True)
    extents = _get(cp, "mesh", "extents", _num_list, required=True)
    cells = _get(cp, "mesh", "cells", _int_list, required=True)
    for key in ("n_disp_level", "k_stress_level"):
        level = _get(cp, "spaces", key, str, default="full")
        if level.strip().lower() != "full":
            raise ConfigError(f"[spaces] {key}: partial Galerkin levels were removed, "
                              f"only 'full' is accepted, got {level!r}")

    lam = _get(cp, "material", "lambda", _float, default=0.0)
    mu = _get(cp, "material", "mu", _float, required=True)
    flow_kind = _get(cp, "material", "flow_rule", str, default="linear").strip()
    kappa0 = _get(cp, "material", "kappa0", _float, default=1.0)
    kappa_min = _get(cp, "material", "kappa_min", _float, default=None)

    dt = _get(cp, "time", "dt", _float, required=True)
    t_end = _get(cp, "time", "t_end", _float, required=True)
    picard_tol = _get(cp, "time", "picard_tol", _float, default=1e-10)
    picard_max = _get(cp, "time", "picard_max_iters", int, default=50)
    trunc_raw = _get(cp, "time", "truncation", str, default="auto").strip()
    if trunc_raw.lower() == "auto":
        truncation = "auto"
    else:
        try:
            truncation = TruncationLevel(_float(trunc_raw))
        except ValueError as exc:
            raise ConfigError(f"[time] truncation: {exc}") from exc

    out_dir = _get(cp, "output", "directory", str, default="out")
    stride = _get(cp, "output", "snapshot_stride", int, default=0)
    ledger_name = _get(cp, "output", "ledger", str, default="ledger.csv")

    rc = check(RunConfig(dim, extents, cells, lam, mu, flow_kind,
                         kappa0, kappa_min, dt, t_end, picard_tol, picard_max,
                         truncation, {}, out_dir, stride, ledger_name))
    texts = {key: _get(cp, "data", key, str) for key in ("u0", "u1", "stress0", "theta0", "f")}
    cp.reject_unread()
    # The data section is compiled last: its component counts need a checked dim.
    return replace(rc, data=_parse_data(texts, rc.dim))


@contextmanager
def _section(name):
    """Re-raise a rule's ValueError as a ConfigError naming the config section."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


def check(rc: RunConfig) -> RunConfig:
    """Run every range rule on ``rc``, each in the object that owns it.

    Returns ``rc`` with ``extents``/``cells`` at ``dim`` entries.  A failed
    rule raises ConfigError with the section it belongs to.
    """
    with _section("mesh"):
        extents, cells = mesh_shape(rc.dim, rc.extents, rc.cells)
    rc = replace(rc, extents=extents, cells=cells)
    with _section("material"):
        ElasticityTensor(rc.lam, rc.mu)
        make_flow_rule(rc)
    with _section("time"):
        check_time(rc.dt, rc.t_end, rc.picard_tol, rc.picard_max_iters)
    if rc.snapshot_stride < 0:
        raise ConfigError("[output] snapshot_stride must be >= 0")
    name = rc.ledger_filename
    if (Path(name).name != name or name in ("", "..", "summary.json")
            or name.startswith("snapshot_")):
        raise ConfigError(f"[output] ledger must be a file name other than summary.json and "
                          f"snapshot_*, got {name!r}")
    return rc


def _parse_data(texts, dim) -> dict:
    """Samplers of the [data] expression ``texts``, None where a key is absent."""
    fields = {}

    def comps(key, count, broadcast=False):
        parts = [part.strip() for part in texts[key].split(";")]
        if broadcast and len(parts) == 1:
            parts = parts * count
        if len(parts) != count:
            raise ConfigError(f"[data] {key}: need {count} components, got {len(parts)}")
        return parts

    try:
        for key in ("u0", "u1"):
            if texts[key] is not None:
                fields[key] = vector_sampler(comps(key, dim, broadcast=True), dim=dim)
        if texts["stress0"] is not None:
            fields["stress0"] = tensor_sampler(comps("stress0", sym_components(dim)), dim)
        if texts["theta0"] is None:
            raise ConfigError("[data] theta0: required (strictly positive expression)")
        fields["theta0"] = compile_expression(texts["theta0"], dim=dim)
        if texts["f"] is not None:
            fields["forcing"] = vector_sampler(comps("f", dim, broadcast=True), with_time=True, dim=dim)
    except ExpressionError as exc:
        raise ConfigError(f"[data] bad expression: {exc}") from exc
    return fields


def make_flow_rule(rc: RunConfig) -> FlowRule:
    if rc.flow_kind == "temperature_weighted":
        return FlowRule.temperature_weighted(rc.kappa0, rc.kappa_min)
    if rc.kappa_min is not None:
        raise ValueError(f"kappa_min: only temperature_weighted reads it, not {rc.flow_kind}")
    if rc.flow_kind == "linear":
        return FlowRule.linear(rc.kappa0)
    if rc.flow_kind == "mroz_saturating":
        return FlowRule.mroz_saturating(rc.kappa0)
    if rc.flow_kind == "anti_monotone":
        # Deliberately inadmissible rule, kept so the admissibility gate and
        # the dissipation verdict can be demonstrated to fail from a config.
        k = rc.kappa0 if rc.kappa0 > 0 else 1.0
        return FlowRule("anti_monotone", rc.kappa0, c_growth=k, fn=lambda theta: -k)
    raise ValueError(f"flow_rule: unknown kind {rc.flow_kind!r} (one of linear, "
                     f"mroz_saturating, temperature_weighted, anti_monotone)")


def build_problem(rc: RunConfig):
    """Materialize (GalerkinSystem, SolverConfig) from a parsed RunConfig."""
    mesh = build_mesh(rc.dim, rc.extents, rc.cells)
    sys = build_spaces(mesh)
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
    )
    return sys, cfg
