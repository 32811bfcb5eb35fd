import numpy as np
import pytest

from _oracles import corr_matrices, correlation_objective, equal_corr_blocks, general_eigen
from macnet import numkernel
from macnet.errors import (
    DegenerateR,
    EmptyInput,
    LengthMismatch,
    NotPositiveDefinite,
    OutOfDomain,
)
from macnet.similarity import (
    K2Params,
    aggregate_extreme,
    canonical_corr,
    canonical_corr_homogeneous,
    equal_corr_closed_form,
    k2_closed_form,
)


def grid_search_rho(sigma_ii, sigma_jj, sigma_ij, steps=720):
    """Brute-force maximization of the weighted-combination correlation."""
    theta = np.linspace(0.0, np.pi, steps, endpoint=False)
    w = np.column_stack([np.cos(theta), np.sin(theta)])
    num = w @ sigma_ij @ w.T
    scale_i = np.sqrt(np.einsum("ij,jk,ik->i", w, sigma_ii, w))
    scale_j = np.sqrt(np.einsum("ij,jk,ik->i", w, sigma_jj, w))
    return float(np.max(np.abs(num / np.outer(scale_i, scale_j))))


def random_valid_structure(rng, homogeneous=False):
    """(sigma_ii, sigma_jj, sigma_ij) of a random two-attribute pair with a PD joint matrix."""
    while True:
        r_i = rng.uniform(-0.8, 0.8)
        r_j = r_i if homogeneous else rng.uniform(-0.8, 0.8)
        sigma_ii = np.array([[1.0, r_i], [r_i, 1.0]])
        sigma_jj = np.array([[1.0, r_j], [r_j, 1.0]])
        cross = rng.uniform(-0.6, 0.6, size=(2, 2))
        if homogeneous:
            cross = (cross + cross.T) / 2.0
        if np.linalg.eigvalsh(np.block([[sigma_ii, cross], [cross.T, sigma_jj]]))[0] > 1e-3:
            return sigma_ii, sigma_jj, cross


class TestCanonicalCorr:
    def test_zero_cross_block(self):
        for k in (2, 3):
            solution = canonical_corr(np.eye(k), np.eye(k), np.zeros((k, k)))
            assert solution.rho_c == 0.0
            np.testing.assert_array_equal(solution.roots, np.zeros(k))

    def test_single_attribute_degenerates_to_abs_corr(self):
        solution = canonical_corr(np.eye(1), np.eye(1), np.array([[0.5]]))
        assert solution.rho_c == 0.5
        np.testing.assert_array_equal(solution.contrib, [1.0])

    def test_single_attribute_exactness(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            rho = rng.uniform(-0.99, 0.99)
            assert canonical_corr(np.eye(1), np.eye(1), np.array([[rho]])).rho_c == abs(rho)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            structure = random_valid_structure(rng)
            solution = canonical_corr(*structure)
            assert abs(solution.rho_c - grid_search_rho(*structure)) < 1e-4

    def test_weights_achieve_the_root(self):
        rng = np.random.default_rng(5)
        structures = [random_valid_structure(rng) for _ in range(25)]
        # one attribute with a negative cross correlation: the weights must reach +|rho|
        structures.append((np.eye(1), np.eye(1), np.array([[-0.5]])))
        for structure in structures:
            solution = canonical_corr(*structure)
            achieved = correlation_objective(*structure, solution.w_i, solution.w_j)
            assert achieved == pytest.approx(solution.rho_c, abs=1e-10)

    def test_weight_normalization(self):
        rng = np.random.default_rng(7)
        sigma_ii, sigma_jj, sigma_ij = random_valid_structure(rng)
        solution = canonical_corr(sigma_ii, sigma_jj, sigma_ij)
        assert solution.w_i @ sigma_ii @ solution.w_i == pytest.approx(1.0, abs=1e-10)
        assert solution.w_j @ sigma_jj @ solution.w_j == pytest.approx(1.0, abs=1e-10)

    def test_scale_invariance_of_objective(self):
        rng = np.random.default_rng(11)
        structure = random_valid_structure(rng)
        solution = canonical_corr(*structure)
        base = correlation_objective(*structure, solution.w_i, solution.w_j)
        for alpha, beta in [(2.0, 3.0), (0.25, 7.0), (5.0, 0.1)]:
            scaled = correlation_objective(*structure, alpha * solution.w_i, beta * solution.w_j)
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            sigma_ii, sigma_jj, sigma_ij = random_valid_structure(rng)
            a = canonical_corr(sigma_ii, sigma_jj, sigma_ij)
            b = canonical_corr(sigma_jj, sigma_ii, sigma_ij.T)
            np.testing.assert_allclose(a.roots, b.roots, atol=1e-12)

    def test_lower_bound_on_cross_entries(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            structure = random_valid_structure(rng)
            solution = canonical_corr(*structure)
            assert solution.rho_c >= np.max(np.abs(structure[2])) - 1e-12

    def test_homogeneous_input_gives_equal_weights(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            solution = canonical_corr(*random_valid_structure(rng, homogeneous=True))
            delta = min(
                np.max(np.abs(solution.w_i - solution.w_j)),
                np.max(np.abs(solution.w_i + solution.w_j)),
            )
            assert delta < 1e-9

    def test_contrib_sums_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            solution = canonical_corr(*random_valid_structure(rng))
            assert solution.contrib_i.sum() == pytest.approx(1.0, abs=1e-12)
            assert solution.contrib_j.sum() == pytest.approx(1.0, abs=1e-12)
            assert solution.contrib.sum() == pytest.approx(1.0, abs=1e-12)

    def test_not_positive_definite(self):
        # a unit cross block makes the joint matrix exactly singular
        with pytest.raises(NotPositiveDefinite):
            canonical_corr(np.eye(2), np.eye(2), np.eye(2))

    def test_stack_matches_one_pair_at_a_time(self):
        rng = np.random.default_rng(37)
        structures = [random_valid_structure(rng) for _ in range(30)]
        structures.append((np.eye(2), np.eye(2), np.zeros((2, 2))))
        stacked = canonical_corr(*(np.stack(blocks) for blocks in zip(*structures)))
        for index, structure in enumerate(structures):
            single = canonical_corr(*structure)
            for field in ("roots", "w_i", "w_j", "contrib_i", "contrib_j", "contrib"):
                np.testing.assert_allclose(getattr(stacked, field)[index], getattr(single, field),
                                           rtol=0, atol=1e-14)
            assert stacked.degenerate[index] == single.degenerate
        np.testing.assert_array_equal(stacked.rho_c, stacked.roots[:, 0])

    def test_sign_convention(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            sigma_ii, sigma_jj, sigma_ij = random_valid_structure(rng)
            solution = canonical_corr(sigma_ii, sigma_jj, sigma_ij)
            assert solution.w_i @ sigma_ij @ solution.w_j > 0.0
            first = solution.w_i[np.flatnonzero(np.abs(solution.w_i) > 1e-12)[0]]
            assert first > 0.0

    def test_mismatched_blocks(self):
        with pytest.raises(LengthMismatch):
            canonical_corr(np.eye(2), np.eye(3), np.zeros((2, 3)))


class TestCanonicalCorrHomogeneous:
    def test_scaled_identity_cross_block(self):
        solution = canonical_corr_homogeneous(np.eye(2), 0.4 * np.eye(2))
        assert solution.rho_c == pytest.approx(0.4, abs=1e-14)
        assert solution.degenerate
        np.testing.assert_allclose(solution.contrib, [1.0, 0.0], atol=1e-12)

    def test_antidiagonal_cross_block(self):
        solution = canonical_corr_homogeneous(np.eye(2), np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert solution.rho_c == pytest.approx(0.5, abs=1e-14)

    def test_agrees_with_general_solver(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            structure = random_valid_structure(rng, homogeneous=True)
            hom = canonical_corr_homogeneous(structure[0], structure[2])
            gen = canonical_corr(*structure)
            assert abs(hom.rho_c - gen.rho_c) < 1e-9
            delta = min(
                np.max(np.abs(hom.w_i - gen.w_i)), np.max(np.abs(hom.w_i + gen.w_i))
            )
            assert delta < 1e-8

    def test_agrees_with_general_eigen_product(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            sigma_m, _, sigma_c = random_valid_structure(rng, homogeneous=True)
            hom = canonical_corr_homogeneous(sigma_m, sigma_c)
            values, _ = general_eigen(np.linalg.inv(sigma_m) @ sigma_c)
            assert abs(hom.rho_c - np.max(np.abs(values))) < 1e-10

    def test_weight_surface_at_origin(self):
        solution = canonical_corr_homogeneous(np.eye(2), np.diag([0.3, 0.1]))
        np.testing.assert_allclose(solution.contrib, [1.0, 0.0], atol=1e-9)
        assert solution.rho_c == pytest.approx(0.3, abs=1e-14)


class TestK2ClosedForm:
    def test_decoupled_attributes(self):
        assert k2_closed_form(K2Params(0.0, 0.0, 0.3, 0.1)) == pytest.approx(0.3, abs=1e-15)

    def test_pure_cross_correlation(self):
        assert k2_closed_form(K2Params(0.0, 0.5, 0.0, 0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_matches_eigensolver_over_grid(self):
        rho1, rho2 = 0.3, 0.1
        checked = 0
        for r in np.arange(-0.9, 0.901, 0.06):
            for b in np.arange(-0.9, 0.901, 0.06):
                params = K2Params(float(r), float(b), rho1, rho2)
                if not params.valid():
                    continue
                checked += 1
                expected = canonical_corr_homogeneous(params.sigma_m, params.sigma_c).rho_c
                assert abs(k2_closed_form(params) - expected) < 1e-10
        assert checked > 400

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            k2_closed_form(K2Params(0.9, 0.0, 0.3, 0.1))

    def test_degenerate_r(self):
        with pytest.raises(DegenerateR):
            k2_closed_form(K2Params(1.0, 0.0, 0.0, 0.0))


class TestK2Domain:
    def test_origin_is_valid(self):
        assert K2Params(0.0, 0.0, 0.3, 0.1).valid()

    def test_large_within_correlation_is_invalid(self):
        params = K2Params(0.9, 0.0, 0.3, 0.1)
        assert not params.valid()
        assert abs(params.a1 - 0.7937253933193772) < 1e-15

    def test_matches_direct_eigenvalues(self):
        rho1, rho2 = 0.3, 0.1
        for r in np.arange(-0.9, 0.901, 0.1):
            for b in np.arange(-0.9, 0.901, 0.1):
                params = K2Params(float(r), float(b), rho1, rho2)
                sigma = np.block(
                    [[params.sigma_m, params.sigma_c], [params.sigma_c, params.sigma_m]]
                )
                margin = min(
                    abs(abs(b - r) - params.a1), abs(abs(b + r) - params.a2)
                )
                if margin < 1e-9:
                    continue
                assert params.valid() == numkernel.pd_mask(sigma)

    def test_rejects_out_of_range_correlations(self):
        with pytest.raises(OutOfDomain):
            K2Params(0.0, 1.5, 0.3, 0.1)


class TestEqualCorrClosedForm:
    def test_decoupled(self):
        assert equal_corr_closed_form(3, 0.0, 0.4, 0.0) == pytest.approx(0.4, abs=1e-15)

    def test_k2_consistency(self):
        for r, b, rho in [(0.2, 0.1, 0.3), (-0.3, 0.2, 0.1), (0.5, -0.1, 0.2)]:
            expected = k2_closed_form(K2Params(r, b, rho, rho))
            assert abs(equal_corr_closed_form(2, r, rho, b) - expected) < 1e-12

    def test_k4_matches_eigensolver(self):
        sigma_m, sigma_c = equal_corr_blocks(4, 0.2, 0.3, 0.1)
        expected = canonical_corr_homogeneous(sigma_m, sigma_c).rho_c
        assert abs(equal_corr_closed_form(4, 0.2, 0.3, 0.1) - expected) < 1e-10

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            equal_corr_closed_form(3, -0.6, 0.3, 0.1)


class TestAggregateExtreme:
    def test_max(self):
        assert aggregate_extreme([0.3, 0.1], "max") == 0.3

    def test_min(self):
        assert aggregate_extreme([0.3, 0.1], "min") == 0.1

    def test_singleton(self):
        assert aggregate_extreme([0.2], "max") == 0.2
        assert aggregate_extreme([0.2], "min") == 0.2

    def test_signed(self):
        assert aggregate_extreme([-0.4, 0.1], "min") == -0.4

    def test_empty(self):
        with pytest.raises(EmptyInput):
            aggregate_extreme([], "max")


class TestStructureFromSamples:
    def test_blocks_match_direct_estimates(self):
        # the joint estimate infer re-derives from a pair's stacked samples
        rng = np.random.default_rng(41)
        block_i = rng.normal(size=(60, 2))
        block_j = rng.normal(size=(60, 2))
        joint = corr_matrices(np.hstack([block_i, block_j]))
        expected = corr_matrices(np.column_stack([block_i[:, 0], block_j[:, 1]]))
        assert joint[0, 3] == pytest.approx(expected[0, 1], abs=1e-12)
        assert numkernel.pd_mask(joint)
