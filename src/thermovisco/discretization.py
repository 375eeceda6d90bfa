"""Box meshes, Galerkin spaces and the coupling operators, assembled or applied per cell.

Each mesh has one set of spaces.  Displacement lives in the span of every
vector hat function on the interior nodes (zero on the boundary), stress in
the span of every cellwise-constant Mandel component (an L²-orthogonal
basis), and temperature in the full multilinear nodal space with no boundary
conditions (pure Neumann).  All element integrals of basis-function
products use closed forms; sampler integrals use 2-point Gauss per axis.
"""

from __future__ import annotations

import numpy as np
from functools import cached_property
import scipy.linalg as sla
import scipy.sparse as sp
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

    @cached_property
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
        value = (value,)
    value = tuple(cast(v) for v in value)
    if len(value) == 1:
        value *= dim
    if len(value) != dim:
        raise ValueError(f"{name} must have {dim} entries, got {len(value)}")
    return value


def mesh_shape(dim: int, extents, cells) -> tuple:
    """Checked (extents, cells) of a ``dim``-D box, one entry repeated to ``dim``."""
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    extents = _as_tuple(extents, dim, "extents", float)
    cells = _as_tuple(cells, dim, "cells", int)
    if any(L <= 0.0 for L in extents):
        raise ValueError(f"extents must be positive, got {extents}")
    if any(m < 2 for m in cells):
        raise ValueError(f"need at least 2 cells per axis, got {cells}")
    return extents, cells


def build_mesh(dim: int, extents, cells) -> Mesh:
    """Uniform mesh with ``cells`` elements per axis on [0, extents]."""
    extents, cells = mesh_shape(dim, extents, cells)

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


def pcg(apply: Callable, b: np.ndarray, x0: np.ndarray, precond: Callable):
    """Solve A·x = b by CG from x0, with A given as ``apply(x)`` = A·x and
    preconditioned with ``precond(r)``.

    Returns (x, iterations), with x None if CG gave up.
    """
    x = x0.copy()
    r = b - apply(x)
    stop = _CG_RTOL ** 2 * (b @ b)
    p, rz = np.zeros_like(b), 1.0
    for it in range(_CG_MAX_ITERS):
        if r @ r <= stop:
            return x, it
        z = precond(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
        Ap = apply(p)
        pAp = p @ Ap
        if not pAp > 0.0:
            return None, it + 1
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
    return (x if r @ r <= stop else None), _CG_MAX_ITERS


class GalerkinSystem:
    """The discrete spaces of one mesh and their coupling operators.

    Every space is the whole space of the mesh: displacement has one dof per
    interior node and component (Q1, zero on the boundary), stress one per
    cell and Mandel component (P0), temperature one per node (Q1).

    Each node operator is one sparse product: ``_gather_T``, the map that
    sums cell corners into the nodes, times the per-cell blocks laid out one
    row per corner; D's blocks carry one column per displacement component,
    and M_u is M_theta once per component.  The heat matrix
    M_theta + dt·K_theta + dt·A_adv(div u_t) has one definition in every
    dimension, its per-cell blocks M_e + dt·K_e + dt·Nᵀ·diag(w·div)·N: in 1D
    ``heat_bands`` reads them as three bands, and in 2D/3D ``heat_operator``
    applies them cell by cell without assembling the matrix; ``heat_matrix``
    sums them into CSR only for the direct solve CG falls back to.

    In 1D every node-block operator is tridiagonal in node order: the caller
    solves the heat matrix directly from its bands, and M_u, on the interior
    nodes, is factored once here by LAPACK's symmetric positive
    definite tridiagonal ``dpttrf``.  In 2D/3D ``heat_inverse(dt)`` applies
    the inverse of the fixed part M_theta + dt·K_theta, a preconditioner for
    the heat matrix, and ``solve_mass_u`` that of M_u.  Both operators are
    Kronecker sums and products of per-axis 1D matrices and are inverted
    exactly one axis at a time, by the fast diagonalization method (Lynch,
    Rice & Thomas 1964):
    with K1ₐVₐ = M1ₐVₐΛₐ and VₐᵀM1ₐVₐ = I,
    (M_theta + dt·K_theta)⁻¹ = (⊗Vₐ)·diag(1/(1 + dt·Σλ))·(⊗Vₐ)ᵀ and
    M_u⁻¹ = (⊗ₐ M1ₐ[int, int]⁻¹) ⊗ I_d.

    Every map the Picard loop applies is set up once here, so an iteration
    builds no matrix: a fixed sparse gather takes nodal values to the corners
    of every cell and its stored transpose sums corner values back into the
    nodes (the ``heat_operator`` apply), a corner-mean map gives the cell
    centre values, and its transpose scaled by the cell volume the heat
    source vector.  ``advection_matrix`` only weights the Gauss values of
    div u_t by w_g, ``divergence_corners`` gathers the velocities of every
    cell through one precomputed dof map and multiplies them by a fixed table
    of shape-function gradients at the corners, ``load_vector`` takes a fixed
    table of w_g·N_gp, ``integrate_nodal`` a stored 1ᵀM_theta, and the
    momentum right-hand side reads the stored transposes B_T and D_T.

    Attributes
    ----------
    M_u : csr_matrix (n_disp, n_disp) — displacement mass matrix
    M_theta, K_theta : csr_matrix (n_temp, n_temp) — temperature mass/stiffness
    B : csr_matrix (k_stress, n_disp) — L² projection of ε(u) onto the
        stress basis (cellwise Mandel components of the cell-mean strain);
        the coupling ∫ ψ_a : ε(φ_j) is ``mesh.cell_volume``·B
    D : csr_matrix (n_temp, n_disp) — divergence coupling ∫ N_i div φ_j
    B_T, D_T : csc_matrix — the transposes of B and D, views sharing their arrays

    Instances are immutable after construction and safe to share read-only.
    """

    def __init__(self, mesh: Mesh):
        dim = mesh.dim
        self.mesh = mesh
        self.s_comp = sym_components(dim)

        interior = mesh.interior_nodes
        self.n_disp = interior.size * dim
        self.n_temp = mesh.n_nodes

        # Displacement dof a <-> (interior node, component), node-major order.
        self.disp_node = np.repeat(interior, dim)
        self.disp_comp = np.tile(np.arange(dim), interior.size)
        dof_of = -np.ones((mesh.n_nodes, dim), dtype=np.int64)
        dof_of[self.disp_node, self.disp_comp] = np.arange(self.n_disp)
        # Dof of each (corner, component) of every cell, -1 on the boundary.
        self._cell_dofs = dof_of[mesh.cell_nodes].reshape(mesh.n_cells, -1)

        # Stress dof a <-> (cell, Mandel component), cell-major order.
        self.k_stress = mesh.n_cells * self.s_comp
        self._stress_shape = (mesh.n_cells, self.s_comp)

        self._build_cell_maps(mesh)
        self._build_reference(dim)
        self._assemble(mesh, dim)
        if dim == 1:
            # Factor eagerly so instances stay immutable (and shareable) after
            # construction; a factor that is not positive definite means a
            # broken basis.  The wrapper wants one off-diagonal entry even
            # when M_u is 1x1.
            off = np.zeros(max(self.n_disp - 1, 1))
            off[:self.n_disp - 1] = self.M_u.diagonal(1)
            *self._Mu_factor, info = sla.lapack.dpttrf(self.M_u.diagonal(), off)
            if info > 0:
                raise ValueError(f"singular Gram matrix for displacement space: "
                                 f"leading minor {info} of M_u is not positive")
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

    # -- reference-cell data ------------------------------------------------

    def _build_reference(self, dim):
        mesh = self.mesh
        h = mesh.spacing
        n_loc = 2 ** dim
        # Corner p of a cell sits at the bits of p along each axis (x-bit fastest).
        self._bits = (np.arange(n_loc)[:, None] >> np.arange(dim)) & 1

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
        # N_gp·N_gq per Gauss point g: the advection weights times it are the
        # per-cell advection blocks.
        self._adv_table = np.einsum("gp,gq->gpq", self._gauss_N,
                                    self._gauss_N).reshape(pts.shape[0], n_loc * n_loc)
        self._load_table = (self._gauss_w[:, None] * self._gauss_N).T  # w_g·N_gp, (n_loc, n_g)
        # ∂N_p/∂x_d at the local corners k, rows (p, d).
        self._corner_table = self._shape_gradients(self._bits.astype(float)).transpose(
            1, 2, 0).reshape(n_loc * dim, n_loc)

        cn = mesh.cell_nodes
        self._gauss_xy = (mesh.nodes[cn[:, 0]][:, None, :]
                          + self._gauss_ref[None, :, :] * np.array(h))  # (n_cells, n_g, dim)

    def _build_cell_maps(self, mesh):
        """Fixed sparse maps between the nodes and the (cell, corner) slots.

        Slot e·n_loc + p is corner p of cell e.  ``_gather`` reads the nodal
        value of every slot, and ``_gather_T`` sums slot values into the
        nodes; ``_center_map`` averages the corners of every cell, and
        ``_source_map`` spreads vol/n_loc of a cell value to each corner.
        All are built directly in CSR, and ``_scatter`` assembles every node
        operator through ``_gather_T``.
        """
        n, n_loc = mesh.n_nodes, 2 ** mesh.dim
        # CSR's own index type, so that maps on the same indices share them.
        corners = mesh.cell_nodes.ravel().astype(np.int32)
        # Every node's slots, cells ascending: a node sums its cells in that order.
        slots = np.argsort(corners, kind="stable").astype(np.int32)
        by_node = np.concatenate(([0], np.cumsum(np.bincount(corners, minlength=n)))).astype(np.int32)
        ones = np.ones(corners.size)
        shape = (corners.size, n)
        self._gather = sp.csr_matrix((ones, corners, np.arange(corners.size + 1)), shape=shape)
        self._gather_T = sp.csr_matrix((ones, slots, by_node), shape=shape[::-1])
        self._center_map = sp.csr_matrix((ones / n_loc, corners, np.arange(0, corners.size + 1, n_loc)),
                                         shape=(mesh.n_cells, n))
        self._source_map = sp.csr_matrix((ones * (mesh.cell_volume / n_loc), slots // n_loc, by_node),
                                         shape=(n, mesh.n_cells))
        # 1ᵀM_θ = ∫N_i, the source vector of a unit source.
        self._integral_weights = self.heat_source_vector(np.ones(mesh.n_cells))
        # The flat (cell, corner, component) entries that hold a displacement
        # dof, and those dofs: where ``load_vector`` sums its cell integrals.
        self._load_slots = np.flatnonzero(self._cell_dofs.ravel() >= 0)
        self._load_dofs = self._cell_dofs.ravel()[self._load_slots]

    def _shape_factors(self, xi):
        """Per-axis factors ξ_a or 1 − ξ_a of every N_p at points xi, (m, n_loc, dim)."""
        return np.where(self._bits, xi[:, None, :], 1.0 - xi[:, None, :])

    def _shape_values(self, xi):
        return np.prod(self._shape_factors(xi), axis=-1)

    def _shape_gradients(self, xi):
        """Physical gradients ∂N_p/∂x_a at points xi: axis a's factor becomes ±1/h_a."""
        slopes = np.where(self._bits, 1.0, -1.0) / np.array(self.mesh.spacing)
        factors = np.where(np.eye(self.mesh.dim, dtype=bool), slopes[:, None, :],
                           self._shape_factors(xi)[:, :, None, :])
        return np.prod(factors, axis=-1)

    # -- assembly -------------------------------------------------------------

    def _scatter(self, blocks, k=1) -> sp.csr_matrix:
        """Sum per-cell blocks (n_loc, n_loc[, k]), or one block for every cell, into an
        (n_nodes, n_nodes·k) CSR, entry (p, q[, c]) of cell e at row ``cell_nodes[e, p]``
        and column ``cell_nodes[e, q]``·k + c: ``_gather_T`` sums into the nodes a
        per-slot CSR whose row (e, p) holds block row p of cell e."""
        cn = self.mesh.cell_nodes
        shape = cn.shape + (cn.shape[1], k)  # (cell, p, q, c)
        data = np.broadcast_to(np.reshape(blocks, (-1,) + shape[1:]), shape)
        # CSR's own index type, so that scipy keeps the columns rather than a copy.
        cols = np.broadcast_to((cn * k).astype(np.int32)[:, None, :, None]
                               + np.arange(k, dtype=np.int32), shape)
        indptr = np.arange(0, data.size + 1, shape[2] * k, dtype=np.int32)
        out = self._gather_T @ sp.csr_matrix((data.ravel(), cols.ravel(), indptr),
                                             shape=(cn.size, self.n_temp * k))
        out.sort_indices()  # so that a product with it sums every row in column order
        return out

    def _assemble(self, mesh, dim):
        self.M_theta = self._scatter(self._m_elem)
        # Constants are the Neumann kernel: K @ 1 vanishes exactly in 1D and
        # to one or two ulp of the entry scale in 2D/3D (hx/hy ratios are not
        # exactly representable, so bitwise zero is unattainable there).
        self.K_theta = self._scatter(self._k_elem)

        # Displacement dofs as (node, component) vector indices.
        vec = self.disp_node * dim + self.disp_comp
        # Displacement mass: the scalar mass once per component.
        self.M_u = sp.kron(self.M_theta, sp.eye(dim), format="csr")[vec][:, vec]

        # Divergence coupling D[i, (m, c)] = ∫ N_i ∂N_m/∂x_c, in vector columns m·dim + c.
        self.D = self._scatter(np.stack(self._d_elem, -1), dim)[:, vec]

        # Strain projection B: Mandel components of the cell-mean of ε(N_p e_c)
        # = sym(e_c ⊗ ∇N_p(center)), one constant block per cell; zeros not stored.
        grad = np.eye(dim)[None, :, :, None] * self._grad_center[:, None, None, :]
        block = to_mandel(0.5 * (grad + grad.swapaxes(-1, -2)))  # (n_loc, dim, s)
        p, c, comp = np.nonzero(block)
        cells = np.arange(mesh.n_cells)[:, None]
        B = sp.csr_matrix((np.tile(block[p, c, comp], mesh.n_cells),
                           ((cells * self.s_comp + comp).ravel(),
                            (mesh.cell_nodes[:, p] * dim + c).ravel())),
                          shape=(mesh.n_cells * self.s_comp, self.n_temp * dim))
        self.B = B[:, vec]
        self.B_T, self.D_T = self.B.T, self.D.T

    # -- solves and field plumbing ---------------------------------------------

    def stress_blocks(self, coeffs: np.ndarray) -> np.ndarray:
        """Stress coefficients as Mandel vectors (..., n_cells, s), a view keeping the
        leading axes of ``coeffs``: dof a is flat entry a of the last two axes."""
        return coeffs.reshape(coeffs.shape[:-1] + self._stress_shape)

    def stress_coeffs(self, blocks: np.ndarray) -> np.ndarray:
        """Inverse of ``stress_blocks``: a flat view of ``blocks``."""
        return blocks.reshape(-1)

    def solve_mass_u(self, rhs: np.ndarray) -> np.ndarray:
        """M_u⁻¹·rhs: from its tridiagonal factor in 1D, per axis in 2D/3D."""
        if self.mesh.dim == 1:
            return sla.lapack.dpttrs(*self._Mu_factor, rhs)[0]
        return _tensor_apply(rhs, *self._mass_inv)

    def nodal_displacement(self, coeffs: np.ndarray) -> np.ndarray:
        """Expand coefficients to a full (n_nodes, dim) nodal array (zeros elsewhere)."""
        full = np.zeros((self.mesh.n_nodes, self.mesh.dim))
        full[self.disp_node, self.disp_comp] = coeffs
        return full

    def cell_center_values(self, nodal: np.ndarray) -> np.ndarray:
        """Q1 interpolant at cell centers = mean of the corner values."""
        return self._center_map @ nodal

    def divergence_corners(self, v_coeffs: np.ndarray) -> np.ndarray:
        """div u_t at the corners of every cell, shape (n_cells, n_loc), x-bit fastest.

        ∂u_a/∂x_a of a multilinear u_a is constant in x_a and multilinear in
        the other coordinates, so div u_t is itself multilinear (Q1) on each
        cell, and these corner values determine it exactly: its value at a
        point is Σ_k N_k·corner_k, and its sup over the cell is the largest
        |corner_k|.
        """
        return np.concatenate((v_coeffs, [0.0]))[self._cell_dofs] @ self._corner_table

    def divergence_sup(self, v_coeffs: np.ndarray) -> float:
        """sup-norm of the piecewise-multilinear div u_t (attained at corners)."""
        return float(np.abs(self.divergence_corners(v_coeffs)).max())

    def advection_matrix(self, div_gauss: np.ndarray) -> np.ndarray:
        """A_adv(div u_t) = ∫ div(u_t) N_p N_q by 2-pt Gauss, as its Gauss weights.

        Returns w_g·div_g per cell, (n_cells, n_g): the cell block of A_adv is
        Nᵀ·diag(w·div)·N with N the (n_g, n_loc) ``_gauss_N``.
        """
        return div_gauss * self._gauss_w

    def heat_blocks(self, dt: float, div_gauss: np.ndarray) -> np.ndarray:
        """Per-cell blocks of M_θ + dt·K_θ + dt·A_adv(div_gauss), the heat matrix."""
        n_loc = self._gauss_N.shape[1]
        advection = (self.advection_matrix(div_gauss) @ self._adv_table).reshape(-1, n_loc, n_loc)
        return self._m_elem + dt * self._k_elem + dt * advection

    def heat_operator(self, dt: float, div_gauss: np.ndarray) -> Callable:
        """x ↦ ``heat_matrix(dt, div_gauss)``·x, applied without assembling the matrix.

        Each apply gathers x to the cell corners, applies the fixed block
        M_e + dt·K_e of every cell there, adds the advection taken through
        the Gauss points (N·x weighted by dt·w·div, then Nᵀ), and sums the
        corners back into the nodes.
        """
        fixed = self._m_elem + dt * self._k_elem
        weights = dt * self.advection_matrix(div_gauss)
        N = self._gauss_N

        def apply(x):
            corners = (self._gather @ x).reshape(weights.shape[0], -1)
            return self._gather_T @ (corners @ fixed + ((corners @ N.T) * weights) @ N).ravel()
        return apply

    def heat_matrix(self, dt: float, div_gauss: np.ndarray) -> sp.csr_matrix:
        """The ``heat_blocks`` summed into a CSR matrix, assembled anew per call."""
        return self._scatter(self.heat_blocks(dt, div_gauss))

    def heat_bands(self, dt: float, div_gauss: np.ndarray) -> tuple:
        """1D: the (lower, diagonal, upper) bands of the heat matrix.

        Cell e couples nodes e and e + 1 only, so the matrix is tridiagonal in
        node order, with the ``heat_blocks`` of the cells as its 2x2 pieces.
        """
        blocks = self.heat_blocks(dt, div_gauss).reshape(-1, 4)
        diag = np.concatenate((blocks[:, 0], [0.0]))
        diag[1:] += blocks[:, 3]
        return blocks[:, 2], diag, blocks[:, 1]

    def heat_inverse(self, dt: float) -> Callable:
        """2D/3D: r ↦ (M_θ + dt·K_θ)⁻¹·r, built anew per call (once per heat solve)."""
        d = 1.0 / (1.0 + dt * self._heat_lam)
        Vx, Vy, Vz = self._heat_V
        return lambda r: _tensor_apply(d * _tensor_apply(r, Vx.T, Vy.T, Vz.T), Vx, Vy, Vz)

    def heat_source_vector(self, cell_values: np.ndarray) -> np.ndarray:
        """∫ s φ_i for a cellwise-constant source, midpoint-consistent."""
        return self._source_map @ cell_values

    def load_vector(self, f: Callable, t: float) -> np.ndarray:
        """∫ f(t)·φ_j with 2-pt Gauss per cell; f maps (t, pts) -> (m, dim)."""
        pts = self._gauss_xy.reshape(-1, self.mesh.dim)
        fv = np.asarray(f(t, pts), dtype=float).reshape(self.mesh.n_cells,
                                                        self._gauss_ref.shape[0],
                                                        self.mesh.dim)
        # contribution to dof (node p, comp c): Σ_g w_g f_c(x_g) N_p(x_g)
        contrib = self._load_table @ fv
        return np.bincount(self._load_dofs, weights=contrib.ravel()[self._load_slots],
                           minlength=self.n_disp)

    def integrate_nodal(self, nodal_values: np.ndarray):
        """∫ of the Q1 interpolant with the given nodal values, per row if stacked by row."""
        return np.vecdot(nodal_values, self._integral_weights)

    def locate(self, pts: np.ndarray):
        """Cell index and reference coordinates of physical points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        h = np.array(self.mesh.spacing)
        idx = np.floor(pts / h).astype(np.int64)
        idx = np.clip(idx, 0, np.array(self.mesh.cells) - 1)
        ref = pts / h - idx
        cell = np.ravel_multi_index(idx.T, self.mesh.cells, order="F")  # x index fastest
        return cell, ref


def build_spaces(mesh: Mesh) -> GalerkinSystem:
    """Construct the discrete spaces of ``mesh`` and assemble all coupling matrices."""
    return GalerkinSystem(mesh)


def project_displacement(sys: GalerkinSystem, sampler: Callable) -> np.ndarray:
    """L² projection onto the displacement space.

    ``sampler`` maps points (m, dim) to vectors (m, dim) and should vanish
    on the boundary.  The residual is orthogonal to every basis function.
    """
    b = sys.load_vector(lambda t, pts: sampler(pts), 0.0)
    return sys.solve_mass_u(b)


def project_stress(sys: GalerkinSystem, sampler: Callable) -> np.ndarray:
    """L² projection onto the stress space: cell means of Mandel components.

    ``sampler`` maps points (m, dim) to symmetric matrices (m, dim, dim).
    """
    pts = sys._gauss_xy.reshape(-1, sys.mesh.dim)
    mats = np.asarray(sampler(pts), dtype=float)
    mandel = to_mandel(mats).reshape(sys.mesh.n_cells, sys._gauss_ref.shape[0], sys.s_comp)
    means = np.einsum("g,egc->ec", sys._gauss_w, mandel) / sys.mesh.cell_volume
    return sys.stress_coeffs(means)


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
