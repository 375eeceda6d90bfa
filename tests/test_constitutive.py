import numpy as np
import pytest

from thermovisco.constitutive import (
    ElasticityTensor,
    FlowRule,
    TruncationLevel,
    mandel_identity,
    to_mandel,
    truncate,
    verify_admissibility,
)

RNG = np.random.default_rng(42)


def random_symmetric(dim=3, scale=1.0):
    A = RNG.standard_normal((dim, dim)) * scale
    return 0.5 * (A + A.T)


def apply_full_tensor(lam, mu, A):
    """Direct contraction oracle: C_ijkl = λ δij δkl + μ (δik δjl + δil δjk)."""
    d = A.shape[0]
    I = np.eye(d)
    C = (lam * np.einsum("ij,kl->ijkl", I, I)
         + mu * (np.einsum("ik,jl->ijkl", I, I) + np.einsum("il,jk->ijkl", I, I)))
    return np.einsum("ijkl,kl->ij", C, A)


def matrix_of_mandel(v, dim):
    """The symmetric matrix of a Mandel vector, read from the documented layout:
    the diagonal, then √2 times the entries (1, 2), (0, 2), (0, 1) of those present."""
    offdiag = {1: [], 2: [(0, 1)], 3: [(1, 2), (0, 2), (0, 1)]}[dim]
    A = np.diag(v[:dim])
    for k, (i, j) in enumerate(offdiag):
        A[i, j] = A[j, i] = v[dim + k] / np.sqrt(2.0)
    return A


class TestMandel:
    def test_dot_product_matches_frobenius(self):
        for dim in (1, 2, 3):
            for _ in range(20):
                A, B = random_symmetric(dim), random_symmetric(dim)
                frob = float(np.sum(A * B))
                assert to_mandel(A) @ to_mandel(B) == pytest.approx(frob, abs=1e-14)

    def test_round_trip(self):
        for dim in (1, 2, 3):
            A = random_symmetric(dim)
            assert np.allclose(matrix_of_mandel(to_mandel(A), dim), A, atol=1e-15)

    def test_identity_vector(self):
        assert np.allclose(mandel_identity(3), [1, 1, 1, 0, 0, 0])


class TestElasticity:
    """ℂ and ℂ⁻¹ as runs use them: ``mandel_matrix`` and ``inverse_mandel_matrix``
    acting on Mandel vectors, checked against the full-tensor contraction."""

    def test_identity_input(self):
        C = ElasticityTensor(1.0, 1.0)
        assert np.allclose(C.mandel_matrix(3) @ to_mandel(np.eye(3)), to_mandel(5.0 * np.eye(3)))

    def test_zero_input(self):
        C = ElasticityTensor(2.0, 3.0)
        assert np.allclose(C.mandel_matrix(3) @ to_mandel(np.zeros((3, 3))), 0.0)

    def test_diag_example_against_contraction_oracle(self):
        # (λ=2, μ=3), A=diag(1,0,0) -> diag(8,2,2)
        C = ElasticityTensor(2.0, 3.0)
        A = np.diag([1.0, 0.0, 0.0])
        expected = apply_full_tensor(2.0, 3.0, A)
        assert np.allclose(expected, np.diag([8.0, 2.0, 2.0]))
        assert np.allclose(C.mandel_matrix(3) @ to_mandel(A), to_mandel(expected))

    def test_matches_contraction_oracle_random(self):
        C = ElasticityTensor(1.3, 0.7)
        for dim in (1, 2, 3):
            A = random_symmetric(dim)
            assert np.allclose(C.mandel_matrix(dim) @ to_mandel(A),
                               to_mandel(apply_full_tensor(1.3, 0.7, A)), atol=1e-13)

    def test_inverse_examples(self):
        C_inv = ElasticityTensor(1.0, 1.0).inverse_mandel_matrix(3)
        assert np.allclose(C_inv @ to_mandel(5.0 * np.eye(3)), to_mandel(np.eye(3)))
        got = ElasticityTensor(2.0, 3.0).inverse_mandel_matrix(3) @ to_mandel(
            np.diag([8.0, 2.0, 2.0]))
        assert np.allclose(got, to_mandel(np.diag([1.0, 0.0, 0.0])), atol=1e-14)

    def test_round_trip_random(self):
        C = ElasticityTensor(2.0, 3.0)
        for dim in (1, 2, 3):
            M, M_inv = C.mandel_matrix(dim), C.inverse_mandel_matrix(dim)
            for _ in range(10):
                v = to_mandel(random_symmetric(dim, scale=3.0))
                assert np.allclose(M_inv @ (M @ v), v, atol=1e-12)
                assert np.allclose(M @ (M_inv @ v), v, atol=1e-12)

    def test_tensor_symmetry(self):
        M = ElasticityTensor(1.7, 0.9).mandel_matrix(3)
        for _ in range(30):
            a, b = to_mandel(random_symmetric()), to_mandel(random_symmetric())
            assert (M @ a) @ b == pytest.approx(a @ (M @ b), abs=1e-12)

    def test_positive_definiteness(self):
        M = ElasticityTensor(-0.5, 1.0).mandel_matrix(3)  # 3λ+2μ = 0.5 > 0
        for _ in range(30):
            A = random_symmetric()
            if np.abs(A).max() < 1e-12:
                continue
            a = to_mandel(A)
            assert (M @ a) @ a > 0.0

    def test_rejects_bad_moduli(self):
        with pytest.raises(ValueError):
            ElasticityTensor(0.0, 0.0)
        with pytest.raises(ValueError):
            ElasticityTensor(-1.0, 1.0)  # 3λ+2μ = -1

    def test_mandel_matrix_consistent(self):
        C = ElasticityTensor(2.0, 3.0)
        for dim in (1, 2, 3):
            A = random_symmetric(dim)
            v, Cv = to_mandel(A), to_mandel(apply_full_tensor(2.0, 3.0, A))
            assert np.allclose(C.mandel_matrix(dim) @ v, Cv, atol=1e-13)
            assert np.allclose(C.inverse_mandel_matrix(dim) @ Cv, v, atol=1e-13)
            assert np.allclose(C.mandel_matrix(dim) @ C.inverse_mandel_matrix(dim),
                               np.eye(v.size), atol=1e-13)


class TestFlowRules:
    def test_zero_stress_gives_zero(self):
        for rule in (FlowRule.linear(2.0), FlowRule.mroz_saturating(1.5),
                     FlowRule.temperature_weighted(1.0)):
            for theta in (-3.0, 0.0, 1.0, 100.0):
                assert np.allclose(rule.eval_mandel(theta, np.zeros((1, 6))), 0.0)

    def test_linear_identity_scaling(self):
        rule = FlowRule.linear(1.0)
        t = to_mandel(np.diag([2.0, 0.0, 0.0]))
        assert np.allclose(rule.eval_mandel(1.0, t), t)

    def test_mroz_saturation(self):
        # |T| = 3 -> G = T / (1+3)
        rule = FlowRule.mroz_saturating(1.0)
        t = to_mandel(np.diag([3.0, 0.0, 0.0]))
        got = rule.eval_mandel(0.5, t)[0]
        assert np.allclose(got, to_mandel(np.diag([0.75, 0.0, 0.0])))
        assert np.linalg.norm(got) <= rule.c_growth * (1.0 + np.linalg.norm(t))

    def test_temperature_weighting_clamped(self):
        rule = FlowRule.temperature_weighted(2.0, kappa_min=0.01)
        assert rule.kappa(0.0) == pytest.approx(2.0)
        assert rule.kappa(-5.0) == pytest.approx(2.0)       # negative θ treated as 0
        assert rule.kappa(1.0) == pytest.approx(1.0)
        assert rule.kappa(1e9) == pytest.approx(0.01)       # floor keeps κ positive

    def test_scalar_eval_matches_matrix(self):
        rule = FlowRule.mroz_saturating(0.8)
        T = 2.5
        assert rule.scalar_eval(1.2, T) == pytest.approx(rule.eval_mandel(1.2, [[T]])[0, 0])


class TestTruncate:
    def test_examples(self):
        lvl = TruncationLevel(5.0)
        assert truncate(lvl, 3.0) == 3.0
        assert truncate(lvl, 7.0) == 5.0
        assert truncate(lvl, -9.0) == -5.0

    def test_identity_region_and_bound(self):
        lvl = TruncationLevel(2.0)
        r = RNG.uniform(-10, 10, size=200)
        out = truncate(lvl, r)
        assert np.all(np.abs(out) <= 2.0)
        inside = np.abs(r) <= 2.0
        assert np.allclose(out[inside], r[inside])

    def test_non_expansive(self):
        lvl = TruncationLevel(1.5)
        a = RNG.uniform(-5, 5, size=500)
        b = RNG.uniform(-5, 5, size=500)
        assert np.all(np.abs(truncate(lvl, a) - truncate(lvl, b)) <= np.abs(a - b) + 1e-15)

    def test_rejects_nonpositive_height(self):
        with pytest.raises(ValueError):
            TruncationLevel(0.0)


class TestAdmissibility:
    def test_linear_passes_with_sharp_growth(self):
        rep = verify_admissibility(FlowRule.linear(2.0), 10_000, rng_seed=3)
        assert rep.passed
        assert rep.worst_monotonicity >= -1e-12
        assert rep.worst_dissipation >= -1e-12
        assert rep.max_at_zero <= 1e-14
        # empirical C_G approaches kappa0 for the linear rule
        assert 0.9 * 2.0 <= rep.empirical_growth <= 2.0 * (1 + 1e-9)

    def test_mroz_passes(self):
        rep = verify_admissibility(FlowRule.mroz_saturating(1.0), 10_000, rng_seed=4)
        assert rep.passed
        # |G| = κ|η|/(1+|η|) <= κ, so growth is well below the declared bound
        assert rep.empirical_growth <= 1.0 * (1 + 1e-9)

    def test_temperature_weighted_passes(self):
        rep = verify_admissibility(FlowRule.temperature_weighted(1.0), 10_000, rng_seed=5)
        assert rep.passed

    def test_adversarial_anti_monotone_fails_with_witness(self):
        bad = FlowRule("custom", c_growth=1.0, fn=lambda theta: -1.0)
        rep = verify_admissibility(bad, 500, rng_seed=6)
        assert not rep.passed
        assert not rep.monotone_ok
        assert rep.worst_monotonicity < 0.0
        assert not rep.dissipative_ok

    @pytest.mark.parametrize("kappa0", [1e152, 1e200, 1e300])
    @pytest.mark.parametrize("make", [FlowRule.linear, FlowRule.mroz_saturating,
                                      FlowRule.temperature_weighted], ids=lambda m: m.__name__)
    def test_builtin_rules_pass_at_huge_kappa0(self, make, kappa0):
        # |G| reaches κ₀·10³, whose square overflows; the growth norm must not.
        rep = verify_admissibility(make(kappa0), 2000, rng_seed=0)
        assert rep.passed
        assert rep.empirical_growth <= kappa0 * (1 + 1e-9)
        bad = FlowRule("custom", c_growth=kappa0, fn=lambda theta: -kappa0)
        assert not verify_admissibility(bad, 2000, rng_seed=0).monotone_ok

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            verify_admissibility(FlowRule.linear(1.0), 0)
