"""Isotropic elasticity, inelastic flow rules, and the clamp operator.

Stress and strain states are symmetric d×d matrices (d = 1, 2 or 3).
Internally they travel as Mandel component vectors: the d diagonal entries
first, then the off-diagonal entries scaled by √2, so that the plain
Euclidean dot product of two component vectors equals the Frobenius
product A:B of the matrices.  |A| below always means the Frobenius norm.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field
from typing import Callable, Optional

SQRT2 = np.sqrt(2.0)

# Off-diagonal index pairs per spatial dimension, in Mandel component order.
_OFFDIAG = {1: [], 2: [(0, 1)], 3: [(1, 2), (0, 2), (0, 1)]}


def sym_components(dim: int) -> int:
    """Number of independent components of a symmetric d×d matrix."""
    return dim * (dim + 1) // 2


def to_mandel(A: np.ndarray) -> np.ndarray:
    """Convert symmetric matrices (..., d, d) to Mandel vectors (..., s)."""
    dim = A.shape[-1]
    parts = [A[..., i, i] for i in range(dim)]
    parts += [SQRT2 * A[..., i, j] for (i, j) in _OFFDIAG[dim]]
    return np.stack(parts, axis=-1)


def mandel_identity(dim: int) -> np.ndarray:
    """Mandel vector of the d×d identity matrix."""
    m = np.zeros(sym_components(dim))
    m[:dim] = 1.0
    return m


@dataclass(frozen=True)
class ElasticityTensor:
    """Isotropic fourth-order tensor A ↦ λ·tr(A)·I + 2μ·A and its inverse.

    Positive definite on symmetric matrices iff μ > 0 and 3λ + 2μ > 0
    (the 3D condition; it implies definiteness in 1D and 2D as well).
    """

    lam: float
    mu: float

    def __post_init__(self):
        if not (self.mu > 0.0 and 3.0 * self.lam + 2.0 * self.mu > 0.0):
            raise ValueError(
                f"elasticity moduli must satisfy mu > 0 and 3*lambda + 2*mu > 0, "
                f"got lambda={self.lam}, mu={self.mu}"
            )

    def mandel_matrix(self, dim: int) -> np.ndarray:
        """Matrix of the tensor acting on Mandel vectors: λ m mᵀ + 2μ I."""
        m = mandel_identity(dim)
        return self.lam * np.outer(m, m) + 2.0 * self.mu * np.eye(m.size)

    def inverse_mandel_matrix(self, dim: int) -> np.ndarray:
        """Matrix of the closed-form inverse: (I − c m mᵀ) / (2μ), c = λ/(dλ + 2μ)."""
        m = mandel_identity(dim)
        c = self.lam / (dim * self.lam + 2.0 * self.mu)
        return (np.eye(m.size) - c * np.outer(m, m)) / (2.0 * self.mu)

    def spectrum(self, dim: int):
        """Eigenspaces of ℂ = λ m mᵀ + 2μ I on the Mandel space.

        Returns the unit vector n = m/√d of the volumetric eigenspace (s,) and
        the eigenvalues (2,): 2μ + dλ on span(m), then 2μ on its complement,
        the deviatoric part; 0 in 1D, where that is empty.
        """
        two_mu = 2.0 * self.mu
        unit = mandel_identity(dim) / np.sqrt(dim)
        return unit, np.array([two_mu + dim * self.lam, two_mu if dim > 1 else 0.0])


@dataclass(frozen=True)
class FlowRule:
    """Inelastic flow rate G(θ, T) with machine-checkable admissibility.

    Built-in kinds share the radial form G(θ, T) = g(θ, |T|)·T with a
    nonnegative scalar factor g, which makes them monotone in T, dissipative
    (G:T = g·|T|² ≥ 0) and of linear growth with constant c_growth:

      linear                g = κ₀
      mroz_saturating       g = κ₀ / (1 + |T|)      (bounded response)
      temperature_weighted  g = κ(θ) = clamp(κ₀/(1 + max(θ,0)), κ_min, κ₀)

    The temperature factor is clamped into [κ_min, κ₀] so the growth
    constant stays finite for every real θ.  Any other ``kind`` is a rule
    G(θ, T) = fn(θ)·T with a θ-only radial factor ``fn``, which maps an array
    of temperatures to g(θ) (an array of that shape or a scalar) and has
    declared growth bound ``c_growth``; it is monotone and dissipative iff
    g ≥ 0.  Run ``verify_admissibility`` on such a rule before use in the
    time stepper.
    """

    kind: str
    kappa0: float = 1.0
    kappa_min: float = 0.0
    c_growth: float = 1.0
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, compare=False)

    _BUILTIN = ("linear", "mroz_saturating", "temperature_weighted")

    def __post_init__(self):
        if self.kappa0 < 0.0:
            raise ValueError(f"rate coefficient kappa0 must be >= 0, got {self.kappa0}")
        if self.kind not in self._BUILTIN and self.fn is None:
            raise ValueError(f"custom flow rule kind {self.kind!r} needs an evaluation function")

    @classmethod
    def linear(cls, kappa0: float = 1.0) -> "FlowRule":
        return cls("linear", kappa0, kappa_min=kappa0, c_growth=kappa0)

    @classmethod
    def mroz_saturating(cls, kappa0: float = 1.0) -> "FlowRule":
        return cls("mroz_saturating", kappa0, kappa_min=kappa0, c_growth=kappa0)

    @classmethod
    def temperature_weighted(cls, kappa0: float = 1.0, kappa_min: Optional[float] = None) -> "FlowRule":
        if kappa_min is None:
            kappa_min = 1e-6 * kappa0
        if not 0.0 <= kappa_min <= kappa0:
            raise ValueError("need 0 <= kappa_min <= kappa0")
        return cls("temperature_weighted", kappa0, kappa_min=kappa_min, c_growth=kappa0)

    def kappa(self, theta):
        """Temperature factor κ(θ); defined for every real θ."""
        theta = np.asarray(theta, dtype=float)
        if self.fn is not None:
            return np.broadcast_to(np.asarray(self.fn(theta), dtype=float), theta.shape)
        if self.kind == "temperature_weighted":
            raw = self.kappa0 / (1.0 + np.maximum(theta, 0.0))
            return np.clip(raw, self.kappa_min, self.kappa0)
        return np.full_like(theta, self.kappa0)

    def factor(self, kappa, norm):
        """The radial factor g from the temperature factor κ(θ) and the norm |T|."""
        return kappa / (1.0 + norm) if self.kind == "mroz_saturating" else kappa

    def eval_mandel(self, theta: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Vectorized G on Mandel vectors: theta (n,), V (n, s) -> (n, s)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        V = np.atleast_2d(np.asarray(V, dtype=float))
        norm = np.sqrt(np.einsum("ec,ec->e", V, V))
        return self.factor(self.kappa(theta), norm)[:, None] * V

    def scalar_eval(self, theta, T):
        """1D reduction: scalar stress in, scalar rate out (arrays ok)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        T = np.atleast_1d(np.asarray(T, dtype=float))
        out = self.eval_mandel(theta, T[:, None])[:, 0]
        return out if out.size > 1 else float(out[0])


@dataclass(frozen=True)
class TruncationLevel:
    """Clamp height n > 0 for the operator r ↦ min{n, max{r, −n}}."""

    n: float

    def __post_init__(self):
        if not self.n > 0.0:
            raise ValueError(f"truncation height must be positive, got {self.n}")


def truncate(level: TruncationLevel, r):
    """min{n, max{r, −n}}: identity on [−n, n], clamped outside."""
    return np.minimum(np.maximum(r, -level.n), level.n)


@dataclass
class AdmissibilityReport:
    """Randomized check of the structural conditions on a flow rule."""

    kind: str
    samples: int
    seed: int
    worst_monotonicity: float       # min (G(θ,η1)−G(θ,η2)):(η1−η2)
    worst_dissipation: float        # min G(θ,η):η
    max_at_zero: float              # max |G(θ,0)|
    empirical_growth: float         # max |G(θ,η)| / (1+|η|)
    declared_growth: float          # recorded constant C_G of the rule
    tol: float

    @property
    def monotone_ok(self) -> bool:
        return self.worst_monotonicity >= -self.tol

    @property
    def dissipative_ok(self) -> bool:
        return self.worst_dissipation >= -self.tol

    @property
    def zero_ok(self) -> bool:
        return self.max_at_zero <= 1e-14

    @property
    def growth_ok(self) -> bool:
        return self.empirical_growth <= self.declared_growth * (1.0 + 1e-9) + 1e-14

    @property
    def passed(self) -> bool:
        return self.monotone_ok and self.dissipative_ok and self.zero_ok and self.growth_ok

    def __str__(self) -> str:
        def mark(ok):
            return "pass" if ok else "FAIL"

        lines = [
            f"flow rule admissibility ({self.kind}, {self.samples} samples, seed {self.seed})",
            f"  monotonicity   worst inner product = {self.worst_monotonicity: .3e}  [{mark(self.monotone_ok)}]",
            f"  dissipation    worst G:eta         = {self.worst_dissipation: .3e}  [{mark(self.dissipative_ok)}]",
            f"  zero response  max |G(theta,0)|    = {self.max_at_zero: .3e}  [{mark(self.zero_ok)}]",
            f"  growth         max |G|/(1+|eta|)   = {self.empirical_growth: .6g} "
            f"(declared {self.declared_growth:g})  [{mark(self.growth_ok)}]",
            f"  overall: {mark(self.passed)}",
        ]
        return "\n".join(lines)


def _random_symmetric(rng, count, dim=3):
    """Random symmetric matrices as Mandel vectors with log-spread magnitudes."""
    raw = rng.standard_normal((count, sym_components(dim)))
    unit = raw / np.maximum(np.linalg.norm(raw, axis=1), 1e-300)[:, None]
    mag = 10.0 ** rng.uniform(-3.0, 3.0, size=count)
    return unit * mag[:, None]


# Slack that the monotonicity and dissipation inner products may fall below 0.
ADMISSIBILITY_TOL = 1e-10


def verify_admissibility(G: FlowRule, sample_count: int = 10_000,
                         rng_seed: int = 0) -> AdmissibilityReport:
    """Randomized test of monotonicity, growth, dissipativity and G(θ,0)=0.

    Temperatures are drawn over a wide range including negative values;
    stress magnitudes span six decades so the empirical growth constant
    approaches its supremum.  Failures are report content, not exceptions.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    dim = 3
    thetas = np.concatenate([
        rng.normal(1.0, 2.0, size=(sample_count + 1) // 2),
        rng.uniform(-50.0, 50.0, size=sample_count // 2),
    ])[:sample_count]
    eta1 = _random_symmetric(rng, sample_count, dim)
    eta2 = _random_symmetric(rng, sample_count, dim)

    g1 = G.eval_mandel(thetas, eta1)
    g2 = G.eval_mandel(thetas, eta2)
    g0 = G.eval_mandel(thetas, np.zeros_like(eta1))

    mono = np.einsum("ij,ij->i", g1 - g2, eta1 - eta2)
    diss = np.einsum("ij,ij->i", g1, eta1)
    # |G| reaches κ₀·10³; a hypot reduction has no squares to overflow at large κ₀.
    growth = np.hypot.reduce(g1, axis=1) / (1.0 + np.linalg.norm(eta1, axis=1))

    return AdmissibilityReport(
        kind=G.kind,
        samples=sample_count,
        seed=rng_seed,
        worst_monotonicity=float(mono.min()),
        worst_dissipation=float(diss.min()),
        max_at_zero=float(np.linalg.norm(g0, axis=1).max()),
        empirical_growth=float(growth.max()),
        declared_growth=G.c_growth,
        tol=ADMISSIBILITY_TOL,
    )
