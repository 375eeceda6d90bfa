import itertools

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from thermovisco.constitutive import SQRT2, to_mandel
from thermovisco.discretization import (
    build_mesh,
    build_spaces,
    eval_displacement,
    eval_stress,
    eval_temperature,
    project_displacement,
    project_stress,
)
from thermovisco.solver import SimState, divergence_of

from conftest import assembled_advection


class TestBuildMesh:
    def test_1d_interval(self):
        m = build_mesh(1, [1.0], [4])
        assert m.n_nodes == 5
        assert np.allclose(m.nodes.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert m.spacing == (0.25,)

    def test_2d_grid_counts(self):
        m = build_mesh(2, [1.0, 2.0], [2, 4])
        assert m.n_nodes == 3 * 5
        assert m.n_cells == 8
        assert m.cell_volume == pytest.approx(0.5 * 0.5)

    def test_3d_counts(self):
        m = build_mesh(3, [1.0, 1.0, 1.0], [2, 2, 2])
        assert m.n_nodes == 27
        assert m.n_cells == 8
        assert m.interior_nodes.size == 1

    def test_cell_volumes_positive(self):
        m = build_mesh(2, [3.0, 0.5], [5, 2])
        assert m.cell_volume > 0.0

    def test_rejects_too_few_cells(self):
        with pytest.raises(ValueError):
            build_mesh(1, [1.0], [1])

    def test_rejects_bad_extent(self):
        with pytest.raises(ValueError):
            build_mesh(1, [0.0], [4])
        with pytest.raises(ValueError):
            build_mesh(2, [1.0, -2.0], [4, 4])

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            build_mesh(4, [1.0] * 4, [2] * 4)

    @pytest.mark.parametrize("extent", [1e-8, 1.0, 1e6])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_interior_nodes_at_any_scale(self, dim, extent):
        # The interior is the tensor product of each axis's inner indices,
        # x fastest, whatever the size of the box.
        cells = [4, 3, 5][:dim]
        m = build_mesh(dim, [extent * (a + 1) for a in range(dim)], cells)
        strides = np.cumprod([1] + [c + 1 for c in cells[:-1]])
        expect = (_grid([c - 1 for c in cells]) + 1) @ strides
        assert np.array_equal(m.interior_nodes, expect)
        assert build_spaces(m).n_disp == expect.size * dim


class TestBuildSpaces:
    def test_1d_mass_matrix_closed_form(self):
        # 4 cells, 3 interior hats: tridiagonal h/6 * (1, 4, 1), h = 0.25
        m = build_mesh(1, [1.0], [4])
        sys = build_spaces(m)
        h = 0.25
        expected = np.diag([4 * h / 6] * 3) + np.diag([h / 6] * 2, 1) + np.diag([h / 6] * 2, -1)
        assert np.allclose(sys.M_u.toarray(), expected, atol=1e-15)

    def test_neumann_kernel_exact_1d(self):
        m = build_mesh(1, [1.3], [7])
        sys = build_spaces(m)
        assert np.abs(sys.K_theta @ np.ones(sys.n_temp)).max() == 0.0

    def test_neumann_kernel_machine_zero_2d_3d(self):
        # hx/hy ratios are not exactly representable, so the kernel holds to
        # the ulp of the entry scale rather than bitwise.
        for dim, cells, ext in ((2, [3, 4], [1.0, 1.0]), (3, [2, 3, 2], [1.0, 2.0, 0.5])):
            m = build_mesh(dim, ext, cells)
            sys = build_spaces(m)
            entry_scale = max(1.0, np.abs(sys.K_theta.data).max())
            resid = np.abs(sys.K_theta @ np.ones(sys.n_temp)).max()
            assert resid <= 4 * np.finfo(float).eps * entry_scale

    def test_mass_matrices_positive_definite(self):
        m = build_mesh(2, [1.0, 1.0], [3, 3])
        sys = build_spaces(m)
        for M in (sys.M_u.toarray(), sys.M_theta.toarray()):
            eigs = np.linalg.eigvalsh(M)
            assert eigs.min() > 0.0

    def test_stiffness_positive_semidefinite(self):
        m = build_mesh(2, [1.0, 1.0], [3, 3])
        sys = build_spaces(m)
        eigs = np.linalg.eigvalsh(sys.K_theta.toarray())
        assert eigs.min() > -1e-12

    def test_heat_matrix_on_shared_pattern(self):
        m = build_mesh(3, [1.0, 2.0, 0.5], [3, 2, 2])
        sys = build_spaces(m)
        div = np.random.default_rng(2).standard_normal((m.n_cells, 8))
        dt = 0.3
        H = sys.heat_matrix(dt, div)
        advection = assembled_advection(sys, div)
        expected = sys.M_theta + dt * sys.K_theta + dt * advection
        for A in (H, sys.K_theta, advection):
            assert np.array_equal(A.indptr, sys.M_theta.indptr)
            assert np.array_equal(A.indices, sys.M_theta.indices)
        assert np.abs(H.toarray() - expected.toarray()).max() <= 1e-15

    def test_heat_bands_are_the_1d_heat_matrix(self):
        m = build_mesh(1, [1.3], [7])
        sys = build_spaces(m)
        div = np.random.default_rng(3).standard_normal((m.n_cells, 2))
        for dt in (0.3, 0.01, 0.3):  # a repeated dt gives the same bands
            lower, diag, upper = sys.heat_bands(dt, div)
            banded = np.diag(lower, -1) + np.diag(diag) + np.diag(upper, 1)
            assert np.abs(banded - sys.heat_matrix(dt, div).toarray()).max() <= 1e-15

    @pytest.mark.parametrize("dim, cells", [(2, [6, 5]), (3, [4, 3, 3])])
    def test_holds_no_table_per_cell_block_entry(self, dim, cells):
        # Node operators are summed through the (cell, corner) maps, so no
        # integer array with one entry per entry of every n_loc x n_loc cell
        # block outlives set-up.
        m = build_mesh(dim, [1.0] * dim, cells)
        sys = build_spaces(m)
        held = []
        for value in vars(sys).values():
            held += [value] if isinstance(value, np.ndarray) else [
                getattr(value, attr) for attr in ("indices", "indptr") if hasattr(value, attr)]
        sizes = [a.size for a in held if np.issubdtype(a.dtype, np.integer)]
        assert len(sizes) >= 10 and m.n_cells * 4 ** dim not in sizes

    def test_displacement_basis_vanishes_on_boundary(self):
        m = build_mesh(2, [1.0, 1.0], [4, 4])
        sys = build_spaces(m)
        assert not np.any(m.boundary_node_mask[sys.disp_node])


# (dim, extents, cells)
ORACLE_CASES = [
    (1, [1.3], [5]),
    (2, [1.0, 2.0], [2, 3]),
    (2, [1.0, 2.0], [3, 3]),
    (3, [1.0, 2.0, 0.5], [3, 3, 2]),
]


def _grid(shape):
    """Multi-indices of a grid, x index fastest."""
    return np.array([idx[::-1] for idx in itertools.product(*map(range, shape[::-1]))])


def _hats(extents, cells, pts, cell_of):
    """Tensor-product hat values (m, n_nodes) and gradients (m, n_nodes, dim)
    at points ``pts`` inside the cells ``cell_of``; on a cell face the
    gradient is the one-sided limit from inside that cell.  Cells and nodes
    are numbered x fastest, independently of the mesh's cell table."""
    h = np.array(extents) / np.array(cells)
    X = _grid([c + 1 for c in cells]) * h  # node coordinates
    mid = (_grid(list(cells))[cell_of] + 0.5) * h
    r = pts[:, None, :] - X[None]
    f = np.clip(1 - np.abs(r) / h, 0, None)
    side = mid[:, None, :] - X[None]  # same sign as r inside the cell
    df = np.where(np.abs(side) < h, -np.sign(side) / h, 0.0)
    vals = np.prod(f, axis=2)
    grads = np.stack([df[..., a] * np.prod(np.delete(f, a, axis=2), axis=2)
                      for a in range(len(cells))], axis=-1)
    return vals, grads


def _quadrature(dim, extents, cells):
    """4-point Gauss per axis on every cell, with tensor-product hats.

    Returns weights (q,), hat values (q, n_nodes), hat gradients
    (q, n_nodes, dim) and the cell of each point.
    """
    h = np.array(extents) / np.array(cells)
    xg, wg = np.polynomial.legendre.leggauss(4)
    local = _grid([4] * dim)
    ref, w_loc = (xg[local] + 1) / 2, np.prod(wg[local], axis=1) * np.prod(h) / 2 ** dim
    corners = _grid(list(cells))
    pts = ((corners[:, None, :] + ref[None]) * h).reshape(-1, dim)
    wts = np.tile(w_loc, len(corners))
    cell_of = np.repeat(np.arange(len(corners)), len(local))
    return (wts, *_hats(extents, cells, pts, cell_of), cell_of)


@pytest.fixture(scope="module")
def oracle_cases():
    cases = []
    for dim, extents, cells in ORACLE_CASES:
        system = build_spaces(build_mesh(dim, extents, cells))
        cases.append((system, _quadrature(dim, extents, cells)))
    return cases


def _random_velocity(system):
    return np.random.default_rng(system.n_disp).standard_normal(system.n_disp)


def _oracle_divergence(system, grads, v):
    """div of the velocity with coefficients v from the oracle's hat gradients."""
    return grads[:, system.disp_node, system.disp_comp] @ v


class TestAssemblyOracle:
    """Brute-force high-order quadrature oracle for every assembled operator,
    in 1D/2D/3D."""

    def test_temperature_matrices(self, oracle_cases):
        for system, (w, v, g, _) in oracle_cases:
            M = np.einsum("q,qi,qj->ij", w, v, v)
            K = np.einsum("q,qid,qjd->ij", w, g, g)
            assert np.allclose(M, system.M_theta.toarray(), atol=1e-13)
            assert np.allclose(K, system.K_theta.toarray(), atol=1e-12)

    def test_displacement_mass(self, oracle_cases):
        for system, (w, v, g, _) in oracle_cases:
            M = np.einsum("q,qi,qj->ij", w, v, v)
            node, comp = system.disp_node, system.disp_comp
            M_u = M[np.ix_(node, node)] * (comp[:, None] == comp[None, :])
            assert np.allclose(M_u, system.M_u.toarray(), atol=1e-13)

    def test_divergence_coupling(self, oracle_cases):
        for system, (w, v, g, _) in oracle_cases:
            D = np.einsum("q,qi,qj->ij", w, v, g[:, system.disp_node, system.disp_comp])
            assert np.allclose(D, system.D.toarray(), atol=1e-13)

    def test_advection(self, oracle_cases):
        # The integrand div(v)·N_i·N_j has degree <= 3 per axis, so 2-point
        # Gauss is exact and matches the 4-point oracle.
        for system, (w, v, g, _) in oracle_cases:
            vel = _random_velocity(system)
            A = np.einsum("q,q,qi,qj->ij", w, _oracle_divergence(system, g, vel), v, v)
            got = assembled_advection(system, divergence_of(system, vel)).toarray()
            assert np.allclose(A, got, rtol=0.0, atol=1e-13)

    def test_divergence_gauss(self, oracle_cases):
        # ∫ N_i div v has degree <= 2 per axis: 2-point Gauss of the Gauss
        # values against every hat is D @ v exactly.
        for system, _ in oracle_cases:
            mesh, vel = system.mesh, _random_velocity(system)
            pts = system._gauss_xy.reshape(-1, mesh.dim)
            cell_of = np.repeat(np.arange(mesh.n_cells), pts.shape[0] // mesh.n_cells)
            vals, grads = _hats(mesh.extents, mesh.cells, pts, cell_of)
            div = divergence_of(system, vel).ravel()
            assert np.allclose(div, _oracle_divergence(system, grads, vel), rtol=0.0, atol=1e-12)
            w = mesh.cell_volume / (pts.shape[0] // mesh.n_cells)
            assert np.allclose(w * div @ vals, system.D @ vel, rtol=0.0, atol=1e-13)

    def test_divergence_sup(self, oracle_cases):
        for system, _ in oracle_cases:
            mesh, vel = system.mesh, _random_velocity(system)
            h = np.array(mesh.spacing)
            bits = _grid([2] * mesh.dim)
            pts = ((_grid(list(mesh.cells))[:, None, :] + bits[None]) * h).reshape(-1, mesh.dim)
            cell_of = np.repeat(np.arange(mesh.n_cells), len(bits))
            _, grads = _hats(mesh.extents, mesh.cells, pts, cell_of)
            sup = np.abs(_oracle_divergence(system, grads, vel)).max()
            assert system.divergence_sup(vel) == pytest.approx(sup, rel=1e-14)

    def test_strain_projection(self, oracle_cases):
        for system, (w, v, g, cell_of) in oracle_cases:
            dim = system.mesh.dim
            # ∇(N_m e_c) = e_c ⊗ ∇N_m for every displacement dof j = (m, c)
            grad_u = np.zeros((w.size, system.n_disp, dim, dim))
            grad_u[:, np.arange(system.n_disp), system.disp_comp, :] = g[:, system.disp_node, :]
            eps = to_mandel(0.5 * (grad_u + grad_u.swapaxes(-1, -2)))  # (q, n_disp, s)
            means = np.zeros((system.mesh.n_cells,) + eps.shape[1:])
            np.add.at(means, cell_of, w[:, None, None] * eps)
            # Stress dofs are (cell, component), cell-major.
            B = means.transpose(0, 2, 1).reshape(-1, system.n_disp) / system.mesh.cell_volume
            assert np.allclose(B, system.B.toarray(), atol=1e-13)


def _relative_error(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


class TestInverses:
    """The heat (2D/3D, per axis) and displacement-mass (tridiagonal factor in
    1D, per axis in 2D/3D) inverses against a sparse direct solve."""

    @pytest.mark.parametrize("dt", [1e-4, 1e-3, 1e-1, 10.0])
    def test_heat_inverse(self, oracle_cases, dt):
        for system in [case for case, _ in oracle_cases if case.mesh.dim > 1]:
            r = np.random.default_rng(system.n_temp).standard_normal(system.n_temp)
            ref = spla.spsolve((system.M_theta + dt * system.K_theta).tocsc(), r)
            assert _relative_error(system.heat_inverse(dt)(r), ref) <= 1e-12

    @pytest.mark.parametrize("dim, cells", [(2, 4), (3, 3)])
    @pytest.mark.parametrize("extent", [1.0, 1e-8])
    def test_heat_inverse_keeps_constants(self, dim, cells, extent):
        # K_θ·1 = 0, so (M_θ + dt·K_θ)⁻¹·M_θ·1 = 1 however stiff dt·K_θ is.
        m = build_mesh(dim, [extent] * dim, [cells] * dim)
        system = build_spaces(m)
        ones = np.ones(system.n_temp)
        assert np.abs(system.heat_inverse(1e-3)(system.M_theta @ ones) - 1.0).max() <= 1e-12

    def test_mass_u_inverse(self, oracle_cases):
        for system, _ in oracle_cases:
            r = np.random.default_rng(system.n_disp).standard_normal(system.n_disp)
            ref = spla.spsolve(system.M_u.tocsc(), r)
            assert _relative_error(system.solve_mass_u(r), ref) <= 1e-12


# Case ids of the 1D/2D/3D meshes; "full": each runs on the full spaces of its mesh.
FULL_IDS = ["1d-full", "2d-full", "3d-full"]


class TestCellOperators:
    """The maps applied cell by cell against the assembled matrix and the
    indexed formulas they replace, in 1D/2D/3D on the full spaces of a mesh."""

    @pytest.mark.parametrize("signed", [True, False], ids=["signed", "nonnegative"])
    @pytest.mark.parametrize("cells", [(5, 7), (4, 3, 5)], ids=["2d-full", "3d-full"])
    def test_heat_operator_applies_the_heat_matrix(self, cells, signed):
        dim = len(cells)
        m = build_mesh(dim, [0.5 + 0.3 * a for a in range(dim)], cells)
        system = build_spaces(m)
        rng = np.random.default_rng(dim)
        div = rng.uniform(-1.0 if signed else 0.0, 1.0, (m.n_cells, system._gauss_N.shape[0]))
        for dt in (1e-3, 0.3):
            apply, H = system.heat_operator(dt, div / dt), system.heat_matrix(dt, div / dt)
            for _ in range(3):
                x = rng.standard_normal(system.n_temp)
                assert _relative_error(apply(x), H @ x) <= 1e-14

    @pytest.mark.parametrize("cells", [(7,), (5, 7), (4, 3, 5)], ids=FULL_IDS)
    def test_cell_maps_match_the_indexed_formulas(self, cells):
        dim = len(cells)
        m = build_mesh(dim, [0.5 + 0.3 * a for a in range(dim)], cells)
        system = build_spaces(m)
        rng = np.random.default_rng(dim)
        n_loc = 2 ** dim
        tol = 4 * np.finfo(float).eps

        nodal = rng.standard_normal(system.n_temp)
        mean = nodal[m.cell_nodes].mean(axis=1)
        assert _relative_error(system.cell_center_values(nodal), mean) <= tol

        cell_values = rng.standard_normal(m.n_cells)
        spread = np.repeat(cell_values * m.cell_volume / n_loc, n_loc)
        source = np.bincount(m.cell_nodes.ravel(), weights=spread, minlength=system.n_temp)
        assert _relative_error(system.heat_source_vector(cell_values), source) <= tol

        assert system.integrate_nodal(nodal) == pytest.approx(
            (system.M_theta @ nodal).sum(), rel=0.0, abs=tol * np.abs(nodal).sum() * m.volume)

        f = lambda t, pts: np.cos(t + pts * np.arange(1, dim + 1))
        fv = f(0.2, system._gauss_xy.reshape(-1, dim)).reshape(m.n_cells, -1, dim)
        contrib = np.einsum("g,egd,gp->epd", system._gauss_w, fv, system._gauss_N)
        present = system._cell_dofs >= 0
        load = np.bincount(system._cell_dofs[present], weights=contrib.reshape(present.shape)[present],
                           minlength=system.n_disp)
        assert _relative_error(system.load_vector(f, 0.2), load) <= tol


class TestStressLayout:
    """Stress coefficients against their per-cell Mandel blocks."""

    @pytest.mark.parametrize("cells", [(7,), (5, 7), (4, 3, 5)], ids=FULL_IDS)
    def test_blocks_round_trip_bitwise(self, cells):
        dim = len(cells)
        m = build_mesh(dim, [1.0] * dim, cells)
        system = build_spaces(m)
        coeffs = np.random.default_rng(dim).standard_normal(system.k_stress)
        back = system.stress_coeffs(system.stress_blocks(coeffs))
        assert back.shape == coeffs.shape and back.tobytes() == coeffs.tobytes()

    @pytest.mark.parametrize("cells", [(7,), (5, 7), (4, 3, 5)], ids=["1d", "2d", "3d"])
    def test_full_level_blocks_of_a_frozen_state_are_a_read_only_view(self, cells):
        dim = len(cells)
        m = build_mesh(dim, [1.0] * dim, cells)
        system = build_spaces(m)
        rng = np.random.default_rng(dim)
        state = SimState(0.0, np.zeros(system.n_disp), np.zeros(system.n_disp),
                         rng.standard_normal(system.k_stress), np.ones(system.n_temp)).freeze()
        blocks = system.stress_blocks(state.stress)
        assert blocks.shape == (m.n_cells, system.s_comp)
        assert np.shares_memory(blocks, state.stress)
        with pytest.raises(ValueError, match="read-only"):
            blocks[0, 0] = 1.0


class TestProjections:
    def test_idempotence(self):
        m = build_mesh(1, [1.0], [4])
        sys = build_spaces(m)
        c = np.array([0.3, -0.2, 0.5])
        p = project_displacement(sys, lambda pts: eval_displacement(sys, c, pts))
        assert np.abs(p - c).max() < 1e-12

    def test_quadratic_against_hand_solved_oracle(self):
        # u0 = x(1-x) on 4 cells, n = 3.  Expected coefficients from solving
        # the 3x3 hat mass system with a 6-point Gauss load (independent
        # oracle below): exactly (45/224, 29/112, 45/224).
        expected = np.array([45 / 224, 29 / 112, 45 / 224])

        h = 0.25
        xg, wg = np.polynomial.legendre.leggauss(6)

        def hat(i, x):
            return np.clip(1 - np.abs(x - (i + 1) * h) / h, 0, None)

        M = np.diag([4 * h / 6] * 3) + np.diag([h / 6] * 2, 1) + np.diag([h / 6] * 2, -1)
        b = np.zeros(3)
        for e in range(4):
            xm = (e + 0.5) * h + 0.5 * h * xg
            wm = 0.5 * h * wg
            for i in range(3):
                b[i] += np.sum(wm * xm * (1 - xm) * hat(i, xm))
        oracle = np.linalg.solve(M, b)
        assert np.allclose(oracle, expected, atol=1e-14)

        m = build_mesh(1, [1.0], [4])
        sys = build_spaces(m)
        p = project_displacement(sys, lambda pts: (pts[:, 0] * (1 - pts[:, 0]))[:, None])
        assert np.allclose(p, expected, atol=1e-13)

    def test_error_non_increasing_in_level(self):
        # A level is a mesh: each one halves the cells of the last.
        sampler = lambda pts: (pts[:, 0] * (1 - pts[:, 0]))[:, None]
        xs = np.linspace(0, 1, 400)[:, None]
        errs = []
        for cells in (2, 4, 8):
            sys = build_spaces(build_mesh(1, [1.0], [cells]))
            p = project_displacement(sys, sampler)
            diff = eval_displacement(sys, p, xs)[:, 0] - sampler(xs)[:, 0]
            errs.append(np.sqrt(np.mean(diff ** 2)))
        assert errs[0] >= errs[1] >= errs[2]

    def test_nested_reprojection_is_exact(self):
        # A field of the 2-cell space lies in the 4-cell space: re-projected
        # there it keeps its nodal values, and the new midpoints interpolate.
        coarse = build_spaces(build_mesh(1, [1.0], [2]))
        fine = build_spaces(build_mesh(1, [1.0], [4]))
        c = np.array([0.7])
        p = project_displacement(fine, lambda pts: eval_displacement(coarse, c, pts))
        assert np.allclose(p, [0.35, 0.7, 0.35], atol=1e-12)

    def test_stress_zero_field(self):
        m = build_mesh(1, [1.0], [2])
        sys = build_spaces(m)
        p = project_stress(sys, lambda pts: np.zeros((pts.shape[0], 1, 1)))
        assert np.allclose(p, 0.0)

    def test_stress_constant_exact(self):
        m = build_mesh(2, [1.0, 1.0], [2, 2])
        sys = build_spaces(m)
        A = np.array([[2.0, 0.5], [0.5, -1.0]])
        p = project_stress(sys, lambda pts: np.broadcast_to(A, (pts.shape[0], 2, 2)))
        back = eval_stress(sys, p, m.cell_centers)
        expect = np.array([2.0, -1.0, SQRT2 * 0.5])
        assert np.allclose(back, expect, atol=1e-13)

    def test_stress_linear_gives_cell_means(self):
        # T(x) = x on two cells of [0,1] -> means at 0.25 and 0.75
        m = build_mesh(1, [1.0], [2])
        sys = build_spaces(m)
        p = project_stress(sys, lambda pts: pts[:, 0][:, None, None])
        assert np.allclose(p, [0.25, 0.75], atol=1e-14)

    def test_singular_gram_reported(self, monkeypatch):
        # a broken basis surfaces as a ValueError at construction time
        def not_positive_definite(d, e):
            return d, e, 2

        monkeypatch.setattr("thermovisco.discretization.sla.lapack.dpttrf", not_positive_definite)
        with pytest.raises(ValueError, match="singular Gram"):
            build_spaces(build_mesh(1, [1.0], [4]))


class TestStrain:
    def test_zero(self):
        m = build_mesh(1, [1.0], [2])
        sys = build_spaces(m)
        st = sys.B @ np.zeros(1)
        assert np.allclose(st, 0.0)

    def test_single_hat_slopes(self):
        # hat at x=0.5 on 2 cells: slopes +2 then -2
        m = build_mesh(1, [1.0], [2])
        sys = build_spaces(m)
        st = sys.B @ np.array([1.0])
        assert np.allclose(st, [2.0, -2.0], atol=1e-14)

    def test_2d_linear_field(self):
        # u = (x, -y) projected then strained: central cell ~ diag(1, -1)
        m = build_mesh(2, [1.0, 1.0], [16, 16])
        sys = build_spaces(m)
        p = project_displacement(sys, lambda pts: np.stack([pts[:, 0], -pts[:, 1]], axis=1))
        st = (sys.B @ p).reshape(m.n_cells, 3)
        central = np.argmin(np.abs(m.cell_centers - 0.5).sum(axis=1))
        assert np.allclose(st[central], [1.0, -1.0, 0.0], atol=1e-2)

    def test_linearity(self):
        m = build_mesh(2, [1.0, 1.0], [3, 3])
        sys = build_spaces(m)
        rng = np.random.default_rng(0)
        c1 = rng.standard_normal(sys.n_disp)
        c2 = rng.standard_normal(sys.n_disp)
        lhs = sys.B @ (2.0 * c1 - 3.0 * c2)
        rhs = 2.0 * (sys.B @ c1) - 3.0 * (sys.B @ c2)
        assert np.allclose(lhs, rhs, atol=1e-14)


def _loop_shape_values(xi, dim):
    """N_p(xi) one corner and axis at a time: the reference for the array form."""
    vals = np.ones((xi.shape[0], 2 ** dim))
    for p in range(2 ** dim):
        for a in range(dim):
            vals[:, p] *= xi[:, a] if (p >> a) & 1 else (1.0 - xi[:, a])
    return vals


def _loop_shape_gradients(xi, h):
    dim = len(h)
    grads = np.zeros((xi.shape[0], 2 ** dim, dim))
    for p in range(2 ** dim):
        for a in range(dim):
            g = np.ones(xi.shape[0])
            for b in range(dim):
                if b == a:
                    g *= (1.0 if (p >> b) & 1 else -1.0) / h[b]
                else:
                    g *= xi[:, b] if (p >> b) & 1 else (1.0 - xi[:, b])
            grads[:, p, a] = g
    return grads


class TestShapeTables:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1.0, 1e-8])
    def test_bitwise_equal_to_loops(self, dim, scale):
        m = build_mesh(dim, [scale * (1.0 + 0.3 * a) for a in range(dim)], [2, 3, 2][:dim])
        sys = build_spaces(m)
        corners = (np.arange(2 ** dim)[:, None] >> np.arange(dim)) & 1
        xi = np.vstack([np.random.default_rng(dim).uniform(size=(20, dim)),
                        np.full((1, dim), 0.5), corners.astype(float)])
        assert np.array_equal(sys._shape_values(xi), _loop_shape_values(xi, dim))
        assert np.array_equal(sys._shape_gradients(xi), _loop_shape_gradients(xi, m.spacing))

    def test_locate_numbers_cells_x_fastest(self):
        m = build_mesh(3, [1.0, 2.0, 0.5], [3, 4, 2])
        sys = build_spaces(m)
        cell, ref = sys.locate(m.cell_centers)
        assert np.array_equal(cell, np.arange(m.n_cells))
        assert np.allclose(ref, 0.5)


class TestFieldEvaluation:
    def test_temperature_interpolation(self):
        m = build_mesh(2, [1.0, 1.0], [4, 4])
        sys = build_spaces(m)
        theta = 1.0 + m.nodes[:, 0] + 2 * m.nodes[:, 1]  # multilinear: exact
        pts = np.random.default_rng(1).uniform(0, 1, size=(50, 2))
        vals = eval_temperature(sys, theta, pts)
        assert np.allclose(vals, 1.0 + pts[:, 0] + 2 * pts[:, 1], atol=1e-13)
