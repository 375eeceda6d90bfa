import itertools

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from thermovisco.constitutive import SQRT2, to_mandel
from thermovisco.discretization import (
    FieldCoefficients,
    GalerkinSystem,
    build_mesh,
    build_spaces,
    eval_displacement,
    eval_stress,
    eval_temperature,
    max_levels,
    project_displacement,
    project_stress,
    strain,
)
from thermovisco.solver import divergence_of


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
        assert build_spaces(m, *max_levels(dim, cells)).n_disp == expect.size * dim


class TestBuildSpaces:
    def test_1d_mass_matrix_closed_form(self):
        # 4 cells, 3 interior hats: tridiagonal h/6 * (1, 4, 1), h = 0.25
        m = build_mesh(1, [1.0], [4])
        sys = build_spaces(m, 3, 4)
        h = 0.25
        expected = np.diag([4 * h / 6] * 3) + np.diag([h / 6] * 2, 1) + np.diag([h / 6] * 2, -1)
        assert np.allclose(sys.M_u.toarray(), expected, atol=1e-15)

    def test_neumann_kernel_exact_1d(self):
        m = build_mesh(1, [1.3], [7])
        sys = build_spaces(m, 1, 1)
        assert np.abs(sys.K_theta @ np.ones(sys.n_temp)).max() == 0.0

    def test_neumann_kernel_machine_zero_2d_3d(self):
        # hx/hy ratios are not exactly representable, so the kernel holds to
        # the ulp of the entry scale rather than bitwise.
        for dim, cells, ext in ((2, [3, 4], [1.0, 1.0]), (3, [2, 3, 2], [1.0, 2.0, 0.5])):
            m = build_mesh(dim, ext, cells)
            sys = build_spaces(m, 1, 1)
            entry_scale = max(1.0, np.abs(sys.K_theta.data).max())
            resid = np.abs(sys.K_theta @ np.ones(sys.n_temp)).max()
            assert resid <= 4 * np.finfo(float).eps * entry_scale

    def test_mass_matrices_positive_definite(self):
        m = build_mesh(2, [1.0, 1.0], [3, 3])
        sys = build_spaces(m, m.interior_nodes.size * 2, m.n_cells * 3)
        for M in (sys.M_u.toarray(), sys.M_theta.toarray()):
            eigs = np.linalg.eigvalsh(M)
            assert eigs.min() > 0.0

    def test_stiffness_positive_semidefinite(self):
        m = build_mesh(2, [1.0, 1.0], [3, 3])
        sys = build_spaces(m, 1, 1)
        eigs = np.linalg.eigvalsh(sys.K_theta.toarray())
        assert eigs.min() > -1e-12

    def test_nesting_prefix_property(self):
        m = build_mesh(1, [1.0], [5])
        s2 = build_spaces(m, 2, 3)
        s3 = build_spaces(m, 3, 5)
        assert np.array_equal(s2.disp_node, s3.disp_node[:2])
        assert np.allclose(s2.M_u.toarray(), s3.M_u.toarray()[:2, :2])

    def test_level_bounds_enforced(self):
        m = build_mesh(1, [1.0], [4])
        with pytest.raises(ValueError):
            build_spaces(m, 4, 2)   # only 3 interior hats
        with pytest.raises(ValueError):
            build_spaces(m, 3, 5)   # only 4 cells
        with pytest.raises(ValueError):
            build_spaces(m, 0, 1)

    def test_heat_matrix_on_shared_pattern(self):
        m = build_mesh(3, [1.0, 2.0, 0.5], [3, 2, 2])
        sys = build_spaces(m, 1, 1)
        div = np.random.default_rng(2).standard_normal((m.n_cells, 8))
        dt = 0.3
        H = sys.heat_matrix(dt, div)
        expected = sys.M_theta + dt * sys.K_theta + dt * sys.advection_matrix(div)
        for A in (H, sys.K_theta, sys.advection_matrix(div)):
            assert np.array_equal(A.indptr, sys.M_theta.indptr)
            assert np.array_equal(A.indices, sys.M_theta.indices)
        assert np.abs(H.toarray() - expected.toarray()).max() <= 1e-15

    def test_displacement_basis_vanishes_on_boundary(self):
        m = build_mesh(2, [1.0, 1.0], [4, 4])
        sys = build_spaces(m, m.interior_nodes.size * 2, 1)
        assert not np.any(m.boundary_node_mask[sys.disp_node])


# (dim, extents, cells, n_disp, k_stress); None is the full level.  The
# partial 2D/3D cases leave the last stress cell with only some components.
ORACLE_CASES = [
    (1, [1.3], [5], None, None),
    (1, [1.3], [5], 3, 4),
    (2, [1.0, 2.0], [2, 3], None, None),
    (2, [1.0, 2.0], [3, 3], 5, 9 * 3 - 2),
    (3, [1.0, 2.0, 0.5], [3, 3, 2], None, None),
    (3, [1.0, 2.0, 0.5], [3, 3, 2], 7, 18 * 6 - 4),
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
    for dim, extents, cells, n_disp, k_stress in ORACLE_CASES:
        m = build_mesh(dim, extents, cells)
        system = build_spaces(m, n_disp or m.interior_nodes.size * dim,
                              k_stress or m.n_cells * dim * (dim + 1) // 2)
        cases.append((system, _quadrature(dim, extents, cells)))
    return cases


def _random_velocity(system):
    return np.random.default_rng(system.n_disp).standard_normal(system.n_disp)


def _oracle_divergence(system, grads, v):
    """div of the velocity with coefficients v from the oracle's hat gradients."""
    return grads[:, system.disp_node, system.disp_comp] @ v


class TestAssemblyOracle:
    """Brute-force high-order quadrature oracle for every assembled operator,
    in 1D/2D/3D at full and partial levels."""

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
            got = system.advection_matrix(divergence_of(system, vel)).toarray()
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
            B = means[system.stress_cell, :, system.stress_comp] / system.mesh.cell_volume
            assert np.allclose(B, system.B.toarray(), atol=1e-13)


def _relative_error(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


class TestInverses:
    """The heat and displacement-mass inverses (SuperLU in 1D, per axis in
    2D/3D) against a sparse direct solve, at full and partial levels."""

    @pytest.mark.parametrize("dt", [1e-4, 1e-3, 1e-1, 10.0])
    def test_heat_inverse(self, oracle_cases, dt):
        for system, _ in oracle_cases:
            r = np.random.default_rng(system.n_temp).standard_normal(system.n_temp)
            ref = spla.spsolve((system.M_theta + dt * system.K_theta).tocsc(), r)
            assert _relative_error(system.heat_inverse(dt)(r), ref) <= 1e-12

    @pytest.mark.parametrize("dim, cells", [(2, 4), (3, 3)])
    @pytest.mark.parametrize("extent", [1.0, 1e-8])
    def test_heat_inverse_keeps_constants(self, dim, cells, extent):
        # K_θ·1 = 0, so (M_θ + dt·K_θ)⁻¹·M_θ·1 = 1 however stiff dt·K_θ is.
        m = build_mesh(dim, [extent] * dim, [cells] * dim)
        system = build_spaces(m, *max_levels(dim, m.cells))
        ones = np.ones(system.n_temp)
        assert np.abs(system.heat_inverse(1e-3)(system.M_theta @ ones) - 1.0).max() <= 1e-12

    def test_mass_u_inverse(self, oracle_cases):
        for system, _ in oracle_cases:
            r = np.random.default_rng(system.n_disp).standard_normal(system.n_disp)
            ref = spla.spsolve(system.M_u.tocsc(), r)
            assert _relative_error(system.solve_mass_u(r), ref) <= 1e-12

    @pytest.mark.parametrize("dim, cells, levels", [
        (2, [5, 9], [5, 21, 61, 63]),
        (2, [48, 48], [1472, 4415]),
        (3, [4, 3, 5], [5, 24, 68, 71]),
        (3, [10, 10, 10], [729, 1093, 2183]),
    ])
    def test_partial_levels_converge_without_fallback(self, monkeypatch, dim, cells, levels):
        # A partial level's M_u has no tensor form: CG preconditioned with the
        # full-level inverse restricted to the prefix takes a few iterations.
        def no_direct_solve(*args, **kwargs):
            raise AssertionError("partial-level M_u solve fell back to spsolve")

        applies = []
        restricted = GalerkinSystem._restricted_mass_inverse
        monkeypatch.setattr(spla, "spsolve", no_direct_solve)
        monkeypatch.setattr(GalerkinSystem, "_restricted_mass_inverse",
                            lambda self, r: applies.append(1) or restricted(self, r))
        m = build_mesh(dim, [c / cells[0] for c in cells], cells)
        for n in levels:
            system = build_spaces(m, n, 1)
            r = np.random.default_rng(n).standard_normal(n)
            applies.clear()
            x = system.solve_mass_u(r)
            assert 1 <= len(applies) <= 10
            assert np.abs(system.M_u @ x - r).max() <= 1e-13 * np.abs(r).max()


class TestProjections:
    def test_idempotence(self):
        m = build_mesh(1, [1.0], [4])
        sys = build_spaces(m, 3, 4)
        c = np.array([0.3, -0.2, 0.5])
        p = project_displacement(sys, lambda pts: eval_displacement(sys, c, pts))
        assert np.abs(p.values - c).max() < 1e-12

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
        sys = build_spaces(m, 3, 4)
        p = project_displacement(sys, lambda pts: (pts[:, 0] * (1 - pts[:, 0]))[:, None])
        assert np.allclose(p.values, expected, atol=1e-13)

    def test_error_non_increasing_in_level(self):
        m = build_mesh(1, [1.0], [8])
        sampler = lambda pts: (pts[:, 0] * (1 - pts[:, 0]))[:, None]
        xs = np.linspace(0, 1, 400)[:, None]
        errs = []
        for n in (2, 4, 7):
            sys = build_spaces(m, n, 1)
            p = project_displacement(sys, sampler)
            diff = eval_displacement(sys, p.values, xs)[:, 0] - sampler(xs)[:, 0]
            errs.append(np.sqrt(np.mean(diff ** 2)))
        assert errs[0] >= errs[1] >= errs[2]

    def test_nested_reprojection_preserves_prefix(self):
        # A field in the level-2 space re-projected at level 3 keeps its
        # first 2 coefficients and gains a zero.
        m = build_mesh(1, [1.0], [4])
        s2 = build_spaces(m, 2, 4)
        s3 = build_spaces(m, 3, 4)
        c = np.array([0.7, -0.4])
        p = project_displacement(s3, lambda pts: eval_displacement(s2, c, pts))
        assert np.allclose(p.values[:2], c, atol=1e-12)
        assert abs(p.values[2]) < 1e-12

    def test_stress_zero_field(self):
        m = build_mesh(1, [1.0], [2])
        sys = build_spaces(m, 1, 2)
        p = project_stress(sys, lambda pts: np.zeros((pts.shape[0], 1, 1)))
        assert np.allclose(p.values, 0.0)

    def test_stress_constant_exact(self):
        m = build_mesh(2, [1.0, 1.0], [2, 2])
        sys = build_spaces(m, 1, 12)
        A = np.array([[2.0, 0.5], [0.5, -1.0]])
        p = project_stress(sys, lambda pts: np.broadcast_to(A, (pts.shape[0], 2, 2)))
        back = eval_stress(sys, p.values, m.cell_centers)
        expect = np.array([2.0, -1.0, SQRT2 * 0.5])
        assert np.allclose(back, expect, atol=1e-13)

    def test_stress_linear_gives_cell_means(self):
        # T(x) = x on two cells of [0,1] -> means at 0.25 and 0.75
        m = build_mesh(1, [1.0], [2])
        sys = build_spaces(m, 1, 2)
        p = project_stress(sys, lambda pts: pts[:, 0][:, None, None])
        assert np.allclose(p.values, [0.25, 0.75], atol=1e-14)

    def test_singular_gram_reported(self, monkeypatch):
        # a broken basis surfaces as a ValueError at construction time
        def boom(*args, **kwargs):
            raise RuntimeError("factor is exactly singular")

        monkeypatch.setattr("thermovisco.discretization.spla.splu", boom)
        with pytest.raises(ValueError, match="singular Gram"):
            build_spaces(build_mesh(1, [1.0], [4]), 3, 4)


class TestStrain:
    def test_zero(self):
        m = build_mesh(1, [1.0], [2])
        sys = build_spaces(m, 1, 2)
        st = strain(sys, FieldCoefficients("displacement", np.zeros(1)))
        assert np.allclose(st.values, 0.0)

    def test_single_hat_slopes(self):
        # hat at x=0.5 on 2 cells: slopes +2 then -2
        m = build_mesh(1, [1.0], [2])
        sys = build_spaces(m, 1, 2)
        st = strain(sys, FieldCoefficients("displacement", np.array([1.0])))
        assert np.allclose(st.values, [2.0, -2.0], atol=1e-14)

    def test_2d_linear_field(self):
        # u = (x, -y) projected then strained: central cell ~ diag(1, -1)
        m = build_mesh(2, [1.0, 1.0], [16, 16])
        sys = build_spaces(m, m.interior_nodes.size * 2, m.n_cells * 3)
        p = project_displacement(sys, lambda pts: np.stack([pts[:, 0], -pts[:, 1]], axis=1))
        st = strain(sys, p).values.reshape(m.n_cells, 3)
        central = np.argmin(np.abs(m.cell_centers - 0.5).sum(axis=1))
        assert np.allclose(st[central], [1.0, -1.0, 0.0], atol=1e-2)

    def test_linearity(self):
        m = build_mesh(2, [1.0, 1.0], [3, 3])
        sys = build_spaces(m, m.interior_nodes.size * 2, m.n_cells * 3)
        rng = np.random.default_rng(0)
        c1 = rng.standard_normal(sys.n_disp)
        c2 = rng.standard_normal(sys.n_disp)
        lhs = strain(sys, FieldCoefficients("displacement", 2.0 * c1 - 3.0 * c2)).values
        rhs = 2.0 * strain(sys, FieldCoefficients("displacement", c1)).values \
            - 3.0 * strain(sys, FieldCoefficients("displacement", c2)).values
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_tag_mismatch_rejected(self):
        m = build_mesh(1, [1.0], [2])
        sys = build_spaces(m, 1, 2)
        with pytest.raises(ValueError):
            strain(sys, FieldCoefficients("stress", np.zeros(2)))


class TestFieldEvaluation:
    def test_temperature_interpolation(self):
        m = build_mesh(2, [1.0, 1.0], [4, 4])
        sys = build_spaces(m, 1, 1)
        theta = 1.0 + m.nodes[:, 0] + 2 * m.nodes[:, 1]  # multilinear: exact
        pts = np.random.default_rng(1).uniform(0, 1, size=(50, 2))
        vals = eval_temperature(sys, theta, pts)
        assert np.allclose(vals, 1.0 + pts[:, 0] + 2 * pts[:, 1], atol=1e-13)
