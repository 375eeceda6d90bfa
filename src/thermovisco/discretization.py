"""Box meshes, Galerkin spaces and the assembled coupling operators.

Displacement lives in the span of the first ``n_disp`` vector hat functions
on interior nodes (zero on the boundary), stress in the span of the first
``k_stress`` cellwise-constant Mandel components (an L²-orthogonal basis),
and temperature in the full multilinear nodal space with no boundary
conditions (pure Neumann).  All element integrals of basis-function
products use closed forms; sampler integrals use 2-point Gauss per axis.
"""

from __future__ import annotations

import math
import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from dataclasses import dataclass
from typing import Callable

from .constitutive import sym_components, to_mandel


@dataclass(frozen=True)
class Mesh:
    """Uniform tensor-product mesh of an interval / rectangle / box."""

    dim: int
    extents: tuple
    cells: tuple
    nodes: np.ndarray        # (n_nodes, dim)
    cell_nodes: np.ndarray   # (n_cells, 2**dim), corner order: x-bit fastest
    spacing: tuple

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cell_nodes.shape[0]

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        return float(np.prod(self.extents))

    @property
    def cell_centers(self) -> np.ndarray:
        return self.nodes[self.cell_nodes].mean(axis=1)

    @property
    def boundary_node_mask(self) -> np.ndarray:
        # Grid index of every node along each axis (z, y, x rows; x fastest):
        # a node is on the boundary where one of them is first or last.
        shape = np.array(self.cells[::-1]) + 1
        idx = np.indices(shape).reshape(self.dim, -1)
        return ((idx == 0) | (idx == shape[:, None] - 1)).any(axis=0)

    @property
    def interior_nodes(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_node_mask)


def _as_tuple(value, dim, name, cast):
    if np.isscalar(value):
        value = (value,) * dim
    value = tuple(cast(v) for v in value)
    if len(value) != dim:
        raise ValueError(f"{name} must have {dim} entries, got {len(value)}")
    return value


def build_mesh(dim: int, extents, cells) -> Mesh:
    """Uniform mesh with ``cells`` elements per axis on [0, extents]."""
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    extents = _as_tuple(extents, dim, "extents", float)
    cells = _as_tuple(cells, dim, "cells", int)
    if any(L <= 0.0 for L in extents):
        raise ValueError(f"extents must be positive, got {extents}")
    if any(m < 2 for m in cells):
        raise ValueError(f"need at least 2 cells per axis, got {cells}")

    npts = [m + 1 for m in cells]
    axes = [np.linspace(0.0, extents[a], npts[a]) for a in range(dim)]
    # Node id = i + nx*(j + ny*k): x index fastest.
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.reshape(-1, order="F") for g in grids], axis=-1)

    strides = np.cumprod([1] + npts[:-1])
    first = np.indices(cells[::-1]).reshape(dim, -1)[::-1].T @ strides  # cells x-fastest
    bits = (np.arange(2 ** dim)[:, None] >> np.arange(dim)) & 1
    cell_nodes = first[:, None] + bits @ strides

    spacing = tuple(extents[a] / cells[a] for a in range(dim))
    return Mesh(dim, extents, cells, nodes, cell_nodes, spacing)


@dataclass(frozen=True)
class FieldCoefficients:
    """Coefficient vector tagged with the space it expands."""

    space: str  # displacement | stress | temperature
    values: np.ndarray

    def __post_init__(self):
        if self.space not in ("displacement", "stress", "temperature"):
            raise ValueError(f"unknown space tag {self.space!r}")


# 1D closed-form element integrals on [0, h]:
#   _m1: ∫ n_p n_q,  _k1: ∫ n_p' n_q',  _g1: ∫ n_p n_q'
def _m1(h):
    return h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])


def _k1(h):
    return 1.0 / h * np.array([[1.0, -1.0], [-1.0, 1.0]])


_G1 = np.array([[-0.5, 0.5], [-0.5, 0.5]])


def _kron_axes(factors):
    """Kronecker product with axis 0 (x) as the fastest local index."""
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(f, out)
    return out


def _axis_matrix(elem, m):
    """Dense assembly of a 2x2 element matrix over the m cells of one axis."""
    out = np.zeros((m + 1, m + 1))
    e = np.arange(m)
    for p in (0, 1):
        for q in (0, 1):
            out[e + p, e + q] += elem[p, q]
    return out


def _tensor_apply(r, ax, ay, az):
    """(az ⊗ ay ⊗ ax)·r for r on an (nz, ny, nx) grid flattened x fastest."""
    g = r.reshape(-1, ax.shape[0]) @ ax.T
    g = ay @ g.reshape(az.shape[0], ay.shape[0], -1)
    return (az @ g.reshape(az.shape[0], -1)).reshape(-1)


# CG stops at this residual relative to the right-hand side; past the
# iteration cap, or on a non-positive curvature, it gives up and the caller
# solves directly.
_CG_RTOL = 1e-14
_CG_MAX_ITERS = 50


def pcg(A, b: np.ndarray, x0: np.ndarray, precond: Callable):
    """Solve A·x = b by CG from x0, preconditioned with ``precond(r)``.

    Returns (x, iterations), with x None if CG gave up.
    """
    x = x0.copy()
    r = b - A @ x
    stop = _CG_RTOL ** 2 * (b @ b)
    p, rz = np.zeros_like(b), 1.0
    for it in range(_CG_MAX_ITERS):
        if r @ r <= stop:
            return x, it
        z = precond(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
        Ap = A @ p
        pAp = p @ Ap
        if not pAp > 0.0:
            return None, it + 1
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
    return (x if r @ r <= stop else None), _CG_MAX_ITERS


def max_levels(dim: int, cells) -> tuple:
    """Largest (n_disp, k_stress) levels with ``cells`` elements per axis."""
    return math.prod(c - 1 for c in cells) * dim, math.prod(cells) * sym_components(dim)


class GalerkinSystem:
    """Assembled discrete spaces and coupling operators on one mesh.

    M_theta, K_theta and every ``advection_matrix`` share one CSR pattern, that
    of the node pairs sharing a cell, so ``heat_matrix`` sums ``.data`` vectors.
    Each node-block operator is one scatter of its per-cell blocks into that
    pattern; D and M_u reuse the scalar scatter per displacement component.

    ``heat_inverse(dt)`` applies the inverse of the fixed part
    M_theta + dt·K_theta, and ``solve_mass_u`` that of M_u.  In 1D both are
    SuperLU solves: a dense per-axis inverse costs about as much per apply at
    100 cells and 100 times more at 1000.  In 2D/3D both
    operators are Kronecker sums and products of per-axis 1D matrices and are
    inverted exactly one axis at a time, by the fast diagonalization method
    (Lynch, Rice & Thomas 1964): with K1ₐVₐ = M1ₐVₐΛₐ and VₐᵀM1ₐVₐ = I,
    (M_theta + dt·K_theta)⁻¹ = (⊗Vₐ)·diag(1/(1 + dt·Σλ))·(⊗Vₐ)ᵀ, and at the
    full level M_u⁻¹ = (⊗ₐ M1ₐ[int, int]⁻¹) ⊗ I_d.  A partial level's M_u is
    a principal submatrix, solved by ``pcg`` preconditioned with the
    full-level inverse restricted to the prefix.

    Every linear map the Picard loop applies is set up once here, so each
    iteration does one small dense product per map plus its scatter:
    ``advection_matrix`` multiplies the Gauss values of div u_t by a fixed
    (n_g, n_loc²) table of w_g·N_gp·N_gq, ``divergence_corners`` gathers the
    velocities of every cell through one precomputed dof map and multiplies
    them by a fixed table of shape-function gradients at the corners, and the
    momentum right-hand side reads the stored transposes S_T and D_T.

    Attributes
    ----------
    M_u : csr_matrix (n_disp, n_disp) — displacement mass matrix
    M_theta, K_theta : csr_matrix (n_temp, n_temp) — temperature mass/stiffness
    B : csr_matrix (k_stress, n_disp) — L² projection of ε(u) onto the
        stress basis (cellwise Mandel components of the cell-mean strain)
    D : csr_matrix (n_temp, n_disp) — divergence coupling ∫ N_i div φ_j
    S_T, D_T : csc_matrix — the transposes of S and D, views sharing their arrays
    stress_vol : (k_stress,) — L² norms² of the stress basis (cell volumes)

    Instances are immutable after construction, apart from the memos of
    ``stress_spectrum`` and ``heat_inverse`` (per dt: the LU factor in 1D,
    only the diagonal 1/(1 + dt·Σλ) in 2D/3D), and safe to share read-only.
    """

    def __init__(self, mesh: Mesh, n_disp: int, k_stress: int):
        dim = mesh.dim
        self.mesh = mesh
        self.s_comp = sym_components(dim)

        interior = mesh.interior_nodes
        max_disp, max_stress = max_levels(dim, mesh.cells)
        if not 1 <= n_disp <= max_disp:
            raise ValueError(f"n_disp level must be in [1, {max_disp}], got {n_disp}")
        if not 1 <= k_stress <= max_stress:
            raise ValueError(f"k_stress level must be in [1, {max_stress}], got {k_stress}")
        self.n_disp = n_disp
        self.k_stress = k_stress
        self.n_temp = mesh.n_nodes

        # Displacement dof a <-> (interior node, component), node-major order;
        # the basis for n is a prefix of the basis for any larger level.
        self.disp_node = np.repeat(interior, dim)[:n_disp]
        self.disp_comp = np.tile(np.arange(dim), interior.size)[:n_disp]
        dof_of = -np.ones((mesh.n_nodes, dim), dtype=np.int64)
        dof_of[self.disp_node, self.disp_comp] = np.arange(n_disp)
        # Dof of each (corner, component) of every cell, -1 where absent.
        self._cell_dofs = dof_of[mesh.cell_nodes].reshape(mesh.n_cells, -1)

        # Stress dof a <-> (cell, Mandel component), cell-major order.
        self.stress_cell = np.repeat(np.arange(mesh.n_cells), self.s_comp)[:k_stress]
        self.stress_comp = np.tile(np.arange(self.s_comp), mesh.n_cells)[:k_stress]
        self.stress_vol = np.full(k_stress, mesh.cell_volume)
        self._spectra = {}
        self._heat_inv = {}

        self._build_reference(dim)
        self._assemble(mesh, dim)
        if dim == 1:
            # Factor eagerly so instances stay immutable (and shareable) after
            # construction; a singular factorization means a broken basis.
            try:
                self._Mu_lu = spla.splu(self.M_u.tocsc())
            except RuntimeError as exc:
                raise ValueError(f"singular Gram matrix for displacement space: {exc}") from exc
        else:
            self._build_axis_inverses(mesh, dim)

    def _build_axis_inverses(self, mesh, dim):
        """Per-axis factors of the 2D/3D inverses; 2D gets a trivial z axis."""
        V, lam, mass_inv = [np.ones((1, 1))] * 3, [np.zeros(1)] * 3, [np.ones((1, 1))] * 3
        for a in range(dim):
            m1 = _axis_matrix(_m1(mesh.spacing[a]), mesh.cells[a])
            lam[a], V[a] = sla.eigh(_axis_matrix(_k1(mesh.spacing[a]), mesh.cells[a]), m1)
            # K1·1 = 0 exactly, but eigh only resolves the constant mode's
            # eigenvalue (the smallest) to about ε·λ_max, which swamps 1 on
            # tiny cells; pinning it keeps constants fixed under the inverse.
            lam[a][0] = 0.0
            mass_inv[a] = np.linalg.inv(m1[1:-1, 1:-1])
        self._heat_V = V
        self._heat_lam = (lam[2][:, None, None] + lam[1][:, None] + lam[0]).reshape(-1)
        mass_inv[0] = np.kron(mass_inv[0], np.eye(dim))  # components fastest
        self._mass_inv = mass_inv
        self._n_disp_full = max_levels(dim, mesh.cells)[0]

    # -- reference-cell data ------------------------------------------------

    def _build_reference(self, dim):
        mesh = self.mesh
        h = mesh.spacing
        n_loc = 2 ** dim

        self._m_elem = _kron_axes([_m1(h[a]) for a in range(dim)])
        k_elem = np.zeros((n_loc, n_loc))
        for a in range(dim):
            fac = [_k1(h[b]) if b == a else _m1(h[b]) for b in range(dim)]
            k_elem += _kron_axes(fac)
        self._k_elem = k_elem
        # ∫ N_p ∂N_q/∂x_c per axis c (exact; _G1 is h-independent).
        self._d_elem = [
            _kron_axes([_G1 if b == c else _m1(h[b]) for b in range(dim)]) for c in range(dim)
        ]
        self._grad_center = self._shape_gradients(np.full((1, dim), 0.5))[0]

        # 2-point Gauss per axis on the reference cell [0,1]^d.
        g1 = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
        pts = np.stack(np.meshgrid(*([g1] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
        self._gauss_ref = pts
        self._gauss_w = np.full(pts.shape[0], mesh.cell_volume / pts.shape[0])
        self._gauss_N = self._shape_values(pts)                   # (n_g, n_loc)
        self._adv_table = np.einsum("g,gp,gq->gpq", self._gauss_w, self._gauss_N,
                                    self._gauss_N).reshape(pts.shape[0], n_loc * n_loc)
        # ∂N_p/∂x_d at the local corners k (x-bit fastest), rows (p, d).
        corners = (np.arange(n_loc)[:, None] >> np.arange(dim)) & 1
        self._corner_table = self._shape_gradients(corners.astype(float)).transpose(
            1, 2, 0).reshape(n_loc * dim, n_loc)

        cn = mesh.cell_nodes
        self._gauss_xy = (mesh.nodes[cn[:, 0]][:, None, :]
                          + self._gauss_ref[None, :, :] * np.array(h))  # (n_cells, n_g, dim)
        # The node-pair pattern, and the slot in its .data of each entry of
        # the flattened per-cell (n_loc x n_loc) blocks.
        n = mesh.n_nodes
        keys, self._slot = np.unique((cn[:, :, None] * n + cn[:, None, :]).ravel(),
                                     return_inverse=True)
        pattern = sp.csr_matrix((np.zeros(keys.size), keys % n,
                                 np.searchsorted(keys // n, np.arange(n + 1))), shape=(n, n))
        self._indices, self._indptr = pattern.indices, pattern.indptr
        for arr in (self._indices, self._indptr):  # shared by every operator on it
            arr.setflags(write=False)

    def _shape_values(self, xi):
        dim = self.mesh.dim
        n_loc = 2 ** dim
        vals = np.ones((xi.shape[0], n_loc))
        for p in range(n_loc):
            for a in range(dim):
                t = xi[:, a]
                vals[:, p] *= t if (p >> a) & 1 else (1.0 - t)
        return vals

    def _shape_gradients(self, xi):
        """Physical gradients ∂N_p/∂x_a at reference points xi."""
        dim = self.mesh.dim
        h = self.mesh.spacing
        n_loc = 2 ** dim
        grads = np.zeros((xi.shape[0], n_loc, dim))
        for p in range(n_loc):
            for a in range(dim):
                g = np.ones(xi.shape[0])
                for b in range(dim):
                    t = xi[:, b]
                    if b == a:
                        g *= (1.0 if (p >> b) & 1 else -1.0) / h[b]
                    else:
                        g *= t if (p >> b) & 1 else (1.0 - t)
                grads[:, p, a] = g
        return grads

    # -- assembly -------------------------------------------------------------

    def _scatter(self, blocks) -> sp.csr_matrix:
        """Sum per-cell (n_loc, n_loc) blocks, or one block for every cell, into the pattern."""
        blocks = np.broadcast_to(blocks, (self.mesh.n_cells,) + np.shape(blocks)[-2:])
        data = np.bincount(self._slot, weights=blocks.ravel(), minlength=self._indices.size)
        return sp.csr_matrix((data, self._indices, self._indptr), shape=(self.n_temp, self.n_temp))

    def _assemble(self, mesh, dim):
        self.M_theta = self._scatter(self._m_elem)
        # Constants are the Neumann kernel: K @ 1 vanishes exactly in 1D and
        # to one or two ulp of the entry scale in 2D/3D (hx/hy ratios are not
        # exactly representable, so bitwise zero is unattainable there).
        self.K_theta = self._scatter(self._k_elem)

        # Included displacement dofs as (node, component) vector indices.
        vec = self.disp_node * dim + self.disp_comp
        # Displacement mass: the scalar mass once per component.
        self.M_u = sp.kron(self.M_theta, sp.eye(dim), format="csr")[vec][:, vec]

        # Divergence coupling D[i, (m, c)] = ∫ N_i ∂N_m/∂x_c: one scatter per
        # component c, interleaved into vector columns m·dim + c.
        n = self.n_temp
        data = np.stack([self._scatter(self._d_elem[c]).data for c in range(dim)], axis=1)
        cols = self._indices[:, None] * dim + np.arange(dim)
        self.D = sp.csr_matrix((data.ravel(), cols.ravel(), self._indptr * dim),
                               shape=(n, n * dim))[:, vec]

        # Strain projection B: Mandel components of the cell-mean of ε(N_p e_c)
        # = sym(e_c ⊗ ∇N_p(center)), one constant block per cell; zeros not stored.
        grad = np.eye(dim)[None, :, :, None] * self._grad_center[:, None, None, :]
        block = to_mandel(0.5 * (grad + grad.swapaxes(-1, -2)))  # (n_loc, dim, s)
        p, c, comp = np.nonzero(block)
        cells = np.arange(mesh.n_cells)[:, None]
        B = sp.csr_matrix((np.tile(block[p, c, comp], mesh.n_cells),
                           ((cells * self.s_comp + comp).ravel(),
                            (mesh.cell_nodes[:, p] * dim + c).ravel())),
                          shape=(mesh.n_cells * self.s_comp, n * dim))
        self.B = B[:self.k_stress][:, vec]
        # ∫ ψ_a : ε(φ_j) = vol * B[a, j] (midpoint is exact here).
        self.S = sp.diags(self.stress_vol) @ self.B
        self.S_T, self.D_T = self.S.T, self.D.T

    # -- solves and field plumbing ---------------------------------------------

    def stress_blocks(self, coeffs: np.ndarray) -> np.ndarray:
        """Stress coefficients as Mandel vectors (n_cells, s), zero where absent."""
        blocks = np.zeros((self.mesh.n_cells, self.s_comp))
        blocks.reshape(-1)[:self.k_stress] = coeffs  # dof a is flat entry a
        return blocks

    def stress_coeffs(self, blocks: np.ndarray) -> np.ndarray:
        """Inverse of ``stress_blocks``: the coefficients of the present components."""
        return blocks.reshape(-1)[:self.k_stress].copy()

    def stress_spectrum(self, C) -> tuple:
        """``C.restricted_spectrum`` per cell in the ``stress_blocks`` layout, memoized."""
        if C not in self._spectra:
            present = np.clip(self.k_stress - self.s_comp * np.arange(self.mesh.n_cells),
                              0, self.s_comp)
            spectrum = C.restricted_spectrum(present, self.mesh.dim)
            for arr in spectrum:  # shared by every caller
                arr.setflags(write=False)
            self._spectra[C] = spectrum
        return self._spectra[C]

    def solve_mass_u(self, rhs: np.ndarray) -> np.ndarray:
        """M_u⁻¹·rhs: by SuperLU in 1D, per axis at a full 2D/3D level, else by CG."""
        if self.mesh.dim == 1:
            return self._Mu_lu.solve(rhs)
        if self.n_disp == self._n_disp_full:
            return _tensor_apply(rhs, *self._mass_inv)
        x, _ = pcg(self.M_u, rhs, np.zeros_like(rhs), self._restricted_mass_inverse)
        return spla.spsolve(self.M_u.tocsc(), rhs) if x is None else x

    def _restricted_mass_inverse(self, r: np.ndarray) -> np.ndarray:
        """The full-level M_u⁻¹ applied to r padded with zeros, cut to the prefix."""
        full = np.zeros(self._n_disp_full)
        full[:self.n_disp] = r
        return _tensor_apply(full, *self._mass_inv)[:self.n_disp]

    def nodal_displacement(self, coeffs: np.ndarray) -> np.ndarray:
        """Expand coefficients to a full (n_nodes, dim) nodal array (zeros elsewhere)."""
        full = np.zeros((self.mesh.n_nodes, self.mesh.dim))
        full[self.disp_node, self.disp_comp] = coeffs
        return full

    def cell_center_values(self, nodal: np.ndarray) -> np.ndarray:
        """Q1 interpolant at cell centers = mean of the corner values."""
        return nodal[self.mesh.cell_nodes].mean(axis=1)

    def divergence_corners(self, v_coeffs: np.ndarray) -> np.ndarray:
        """div u_t at the corners of every cell, shape (n_cells, n_loc), x-bit fastest.

        ∂u_a/∂x_a of a multilinear u_a is constant in x_a and multilinear in
        the other coordinates, so div u_t is itself multilinear (Q1) on each
        cell, and these corner values determine it exactly: its value at a
        point is Σ_k N_k·corner_k, and its sup over the cell is the largest
        |corner_k|.
        """
        return np.append(v_coeffs, 0.0)[self._cell_dofs] @ self._corner_table

    def divergence_sup(self, v_coeffs: np.ndarray) -> float:
        """sup-norm of the piecewise-multilinear div u_t (attained at corners)."""
        return float(np.abs(self.divergence_corners(v_coeffs)).max())

    def advection_matrix(self, div_gauss: np.ndarray) -> sp.csr_matrix:
        """Assemble ∫ div(u_t) N_i N_j with 2-pt Gauss from per-cell values."""
        n_loc = self._gauss_N.shape[1]
        return self._scatter((div_gauss @ self._adv_table).reshape(-1, n_loc, n_loc))

    def heat_matrix(self, dt: float, div_gauss: np.ndarray) -> sp.csr_matrix:
        """M_θ + dt·K_θ + dt·A_adv(div_gauss), summed as data vectors on the shared pattern."""
        A = self.advection_matrix(div_gauss)
        A.data = self.M_theta.data + dt * self.K_theta.data + dt * A.data
        return A

    def heat_inverse(self, dt: float) -> Callable:
        """r ↦ (M_θ + dt·K_θ)⁻¹·r, memoized per dt and built at first use."""
        if dt not in self._heat_inv:
            if self.mesh.dim == 1:
                # The matrix is symmetric, so its CSR arrays read as CSC are the matrix.
                base = sp.csc_matrix((self.M_theta.data + dt * self.K_theta.data,
                                      self._indices, self._indptr), shape=self.M_theta.shape)
                self._heat_inv[dt] = spla.splu(base).solve
            else:
                d = 1.0 / (1.0 + dt * self._heat_lam)
                Vx, Vy, Vz = self._heat_V
                self._heat_inv[dt] = lambda r: _tensor_apply(
                    d * _tensor_apply(r, Vx.T, Vy.T, Vz.T), Vx, Vy, Vz)
        return self._heat_inv[dt]

    def heat_source_vector(self, cell_values: np.ndarray) -> np.ndarray:
        """∫ s φ_i for a cellwise-constant source, midpoint-consistent."""
        weights = cell_values * self.mesh.cell_volume / (2 ** self.mesh.dim)
        return np.bincount(self.mesh.cell_nodes.ravel(),
                           weights=np.repeat(weights, 2 ** self.mesh.dim), minlength=self.n_temp)

    def load_vector(self, f: Callable, t: float) -> np.ndarray:
        """∫ f(t)·φ_j with 2-pt Gauss per cell; f maps (t, pts) -> (m, dim)."""
        pts = self._gauss_xy.reshape(-1, self.mesh.dim)
        fv = np.asarray(f(t, pts), dtype=float).reshape(self.mesh.n_cells,
                                                        self._gauss_ref.shape[0],
                                                        self.mesh.dim)
        # contribution to dof (node p, comp c): Σ_g w_g f_c(x_g) N_p(x_g)
        contrib = np.einsum("g,egd,gp->epd", self._gauss_w, fv, self._gauss_N)
        mask = self._cell_dofs >= 0
        return np.bincount(self._cell_dofs[mask],
                           weights=contrib.reshape(mask.shape)[mask], minlength=self.n_disp)

    def integrate_nodal(self, nodal_values: np.ndarray) -> float:
        """∫ of the Q1 interpolant with the given nodal values."""
        return float((self.M_theta @ nodal_values).sum())

    def locate(self, pts: np.ndarray):
        """Cell index and reference coordinates of physical points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        dim = self.mesh.dim
        h = np.array(self.mesh.spacing)
        idx = np.floor(pts / h).astype(np.int64)
        idx = np.clip(idx, 0, np.array(self.mesh.cells) - 1)
        ref = pts / h - idx
        cell = idx[:, 0]
        if dim >= 2:
            cell = cell + self.mesh.cells[0] * idx[:, 1]
        if dim == 3:
            cell = cell + self.mesh.cells[0] * self.mesh.cells[1] * idx[:, 2]
        return cell, ref


def build_spaces(mesh: Mesh, n_disp_level: int, k_stress_level: int) -> GalerkinSystem:
    """Construct the discrete spaces and assemble all coupling matrices."""
    return GalerkinSystem(mesh, n_disp_level, k_stress_level)


def project_displacement(sys: GalerkinSystem, sampler: Callable) -> FieldCoefficients:
    """L² projection onto the displacement space.

    ``sampler`` maps points (m, dim) to vectors (m, dim) and should vanish
    on the boundary.  The residual is orthogonal to every basis function.
    """
    b = sys.load_vector(lambda t, pts: sampler(pts), 0.0)
    return FieldCoefficients("displacement", sys.solve_mass_u(b))


def project_stress(sys: GalerkinSystem, sampler: Callable) -> FieldCoefficients:
    """L² projection onto the stress space: cell means of Mandel components.

    ``sampler`` maps points (m, dim) to symmetric matrices (m, dim, dim).
    """
    pts = sys._gauss_xy.reshape(-1, sys.mesh.dim)
    mats = np.asarray(sampler(pts), dtype=float)
    mandel = to_mandel(mats).reshape(sys.mesh.n_cells, sys._gauss_ref.shape[0], sys.s_comp)
    means = np.einsum("g,egc->ec", sys._gauss_w, mandel) / sys.mesh.cell_volume
    return FieldCoefficients("stress", sys.stress_coeffs(means))


def strain(sys: GalerkinSystem, disp: FieldCoefficients) -> FieldCoefficients:
    """Symmetric gradient expanded in the stress basis (in 1D: u_x)."""
    if disp.space != "displacement":
        raise ValueError(f"strain expects displacement coefficients, got {disp.space!r}")
    return FieldCoefficients("stress", sys.B @ disp.values)


def eval_displacement(sys: GalerkinSystem, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate the displacement field at physical points, shape (m, dim)."""
    nodal = sys.nodal_displacement(coeffs)
    cell, ref = sys.locate(pts)
    N = sys._shape_values(ref)
    return np.einsum("mp,mpd->md", N, nodal[sys.mesh.cell_nodes[cell]])


def eval_temperature(sys: GalerkinSystem, theta: np.ndarray, pts: np.ndarray) -> np.ndarray:
    cell, ref = sys.locate(pts)
    N = sys._shape_values(ref)
    return np.einsum("mp,mp->m", N, theta[sys.mesh.cell_nodes[cell]])


def eval_stress(sys: GalerkinSystem, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate the piecewise-constant stress as Mandel vectors (m, s)."""
    cell, _ = sys.locate(pts)
    return sys.stress_blocks(coeffs)[cell]
