from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import corr_matrices, general_eigen, two_pass_corr_matrices
from macnet import numkernel
from macnet.errors import (
    InsufficientSamples,
    NotPositiveDefinite,
    NotSymmetric,
    ZeroVariance,
)


def sigma_eigenvalues_formula(r, b, rho1, rho2):
    """Printed closed-form eigenvalues of the 4x4 two-attribute structure."""
    d_minus = np.sqrt((rho1 - rho2) ** 2 + 4.0 * (b - r) ** 2)
    d_plus = np.sqrt((rho1 - rho2) ** 2 + 4.0 * (b + r) ** 2)
    return sorted(
        [
            1.0 - ((rho1 + rho2) + d_minus) / 2.0,
            1.0 - ((rho1 + rho2) - d_minus) / 2.0,
            1.0 + ((rho1 + rho2) + d_plus) / 2.0,
            1.0 + ((rho1 + rho2) - d_plus) / 2.0,
        ],
        reverse=True,
    )


def build_sigma4(r, b, rho1, rho2):
    sigma_m = np.array([[1.0, r], [r, 1.0]])
    sigma_c = np.array([[rho1, b], [b, rho2]])
    return np.block([[sigma_m, sigma_c], [sigma_c, sigma_m]])


def pairwise_corr(x, y) -> float:
    """The (0, 1) entry of the correlation matrix of two sample columns."""
    return float(corr_matrices(np.column_stack([x, y]))[0, 1])


class TestPearsonCorr:
    def test_self_correlation_is_one(self):
        x = np.array([0.3, -1.2, 5.0, 2.2, 0.0])
        assert pairwise_corr(x, x) == 1.0

    def test_exact_anti_linear(self):
        assert pairwise_corr([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_independent_uniforms_near_zero(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=1000)
        y = rng.uniform(size=1000)
        assert abs(pairwise_corr(x, y)) < 0.08

    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamples):
            pairwise_corr([1.0, 2.0], [2.0, 1.0])

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            pairwise_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_bounds_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(3, 40)
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            r = pairwise_corr(x, y)
            assert -1.0 <= r <= 1.0


class TestCorrMatrix:
    def test_single_column(self):
        out = corr_matrices(np.array([[1.0], [2.0], [4.0]]))
        np.testing.assert_array_equal(out, [[1.0]])

    def test_identical_columns_all_ones(self):
        col = np.array([0.1, 2.0, -3.0, 4.0])
        out = corr_matrices(np.column_stack([col, col]))
        np.testing.assert_array_equal(out, np.ones((2, 2)))

    def test_independent_columns_near_identity(self):
        rng = np.random.default_rng(3)
        out = corr_matrices(rng.normal(size=(5000, 4)))
        off = out - np.eye(4)
        assert np.max(np.abs(off)) < 0.05

    def test_matches_pairwise_estimates(self):
        rng = np.random.default_rng(5)
        block = rng.normal(size=(40, 3))
        out = corr_matrices(block)
        for a in range(3):
            for b in range(3):
                x = block[:, a] - block[:, a].mean()
                y = block[:, b] - block[:, b].mean()
                expected = (x @ y) / np.sqrt((x @ x) * (y @ y))
                assert out[a, b] == pytest.approx(expected, abs=1e-14)

    def test_constant_column_reports_index(self):
        block = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.raises(ZeroVariance) as err:
            corr_matrices(block)
        assert err.value.index == 1

    @pytest.mark.parametrize("shape", [(3, 1), (40, 3), (7, 50, 4), (2, 5, 9, 6), (300, 1000, 4)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_matches_two_pass_reference_bit_for_bit(self, shape):
        # offsets and near-collinear columns exercise the centring, the scaling and the clip
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        samples = rng.normal(size=shape) * rng.uniform(0.1, 10.0, size=shape[-1])
        samples += rng.normal(scale=50.0, size=shape[:-2] + (1, shape[-1]))
        if shape[-1] > 1:
            samples[..., -1] = samples[..., 0] + 1e-9 * samples[..., -1]
        np.testing.assert_array_equal(corr_matrices(samples),
                                      two_pass_corr_matrices(samples))

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 3), extra=st.integers(0, 40), m=st.integers(1, 4),
           log_offset=st.lists(st.floats(-3.0, 9.0), min_size=6, max_size=6),
           log_scale=st.lists(st.floats(-8.0, 8.0), min_size=6, max_size=6),
           copies=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.booleans()),
                           max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_computed_matrices_are_semidefinite_up_to_rounding(self, k, extra, m, log_offset,
                                                               log_scale, copies, seed):
        # a computed sample correlation matrix is a scaled Gram matrix, so rounding moves
        # its eigenvalues by about 2k n 2^-53 at most, far less than 1e-12 at n <= 49
        d, n = 2 * k, 2 * k + 3 + extra
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((m, n, d))
        for source, target, exact in copies:
            source, target = source % d, target % d
            if source != target:
                noise = 0.0 if exact else 1e-9 * rng.standard_normal((m, n))
                samples[..., target] = samples[..., source] + noise
        sign = rng.choice([-1.0, 1.0], size=d)
        samples = (samples * 10.0 ** np.array(log_scale[:d])
                   + sign * 10.0 ** np.array(log_offset[:d]))
        assume((np.ptp(samples, axis=1) > 0.0).all())  # an offset can swamp a tiny scale
        values = np.linalg.eigvalsh(corr_matrices(samples))
        assert values.min() >= -1e-12

    def test_constant_column_reported_like_the_two_pass_reference(self):
        block = np.random.default_rng(2).normal(size=(4, 6, 3))
        block[2, :, 1] = 5.0
        with pytest.raises(ZeroVariance) as expected:
            two_pass_corr_matrices(block)
        with pytest.raises(ZeroVariance) as err:
            corr_matrices(block)
        assert (err.value.index, str(err.value)) == (expected.value.index, str(expected.value))


class TestSymEigen:
    """The printed eigenvalues of the two-attribute structure, and the symmetry check."""

    def test_structured_sigma_matches_printed_formulas(self):
        sigma = build_sigma4(0.1, 0.2, 0.3, 0.1)
        values = np.linalg.eigvalsh(sigma)[::-1]
        np.testing.assert_allclose(
            values, sigma_eigenvalues_formula(0.1, 0.2, 0.3, 0.1), atol=1e-10
        )

    def test_formula_agreement_over_grid(self):
        rho1, rho2 = 0.3, 0.1
        for r in np.arange(-0.95, 0.951, 0.05):
            for b in np.arange(-0.95, 0.951, 0.05):
                sigma = build_sigma4(r, b, rho1, rho2)
                values = np.linalg.eigvalsh(sigma)[::-1]
                expected = sigma_eigenvalues_formula(r, b, rho1, rho2)
                np.testing.assert_allclose(values, expected, atol=1e-10)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            numkernel.require_symmetric(np.array([[1.0, 0.2], [0.3, 1.0]]))


class TestGeneralEigen:
    """The general eigensolver oracle of the homogeneous-reduction tests."""

    def test_diagonal(self):
        values, _ = general_eigen(np.diag([0.3, 0.1]))
        np.testing.assert_allclose(values, [0.3, 0.1], atol=1e-14)

    def test_antidiagonal_pair(self):
        values, _ = general_eigen(np.array([[0.0, 0.5], [0.5, 0.0]]))
        np.testing.assert_allclose(sorted(values, reverse=True), [0.5, -0.5], atol=1e-14)
        np.testing.assert_allclose(np.abs(values), [0.5, 0.5], atol=1e-14)

    def test_matches_ratio_grid_search(self):
        # largest |eigenvalue| of inv(S_m) S_c equals the best Rayleigh-style
        # ratio |w' S_c w / w' S_m w| over weight directions
        rng = np.random.default_rng(23)
        found = 0
        while found < 10:
            r, b = rng.uniform(-0.7, 0.7, size=2)
            rho1, rho2 = rng.uniform(-0.5, 0.5, size=2)
            sigma = build_sigma4(r, b, rho1, rho2)
            if np.linalg.eigvalsh(sigma)[0] < 1e-3:
                continue
            found += 1
            sigma_m = sigma[:2, :2]
            sigma_c = sigma[:2, 2:]
            values, _ = general_eigen(np.linalg.inv(sigma_m) @ sigma_c)
            top = np.max(np.abs(values))
            theta = np.linspace(0.0, np.pi, 720, endpoint=False)
            w = np.column_stack([np.cos(theta), np.sin(theta)])
            num = np.einsum("ij,jk,ik->i", w, sigma_c, w)
            den = np.einsum("ij,jk,ik->i", w, sigma_m, w)
            oracle = np.max(np.abs(num / den))
            assert abs(top - oracle) < 1e-4

    def test_eigenvector_residual(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(4, 4))
        a = a @ a.T + 0.1 * np.eye(4)  # symmetric: general path still applies
        values, vectors = general_eigen(a)
        for idx in range(4):
            residual = a @ vectors[:, idx] - values[idx] * vectors[:, idx]
            assert np.max(np.abs(residual)) < 1e-9


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(numkernel.cholesky(np.eye(3)), np.eye(3))

    def test_scalar(self):
        np.testing.assert_array_equal(numkernel.cholesky(np.array([[4.0]])), [[2.0]])

    def test_reconstruction(self):
        sigma = build_sigma4(0.1, 0.2, 0.3, 0.1)
        lower = numkernel.cholesky(sigma)
        assert np.max(np.abs(lower @ lower.T - sigma)) < 1e-10
        assert np.max(np.triu(lower, k=1)) == 0.0

    def test_failure_reports_pivot(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite) as err:
            numkernel.cholesky(bad)
        assert err.value.pivot_index == 1


class TestPositiveDefinite:
    def test_identity(self):
        assert numkernel.pd_mask(np.eye(3))

    def test_indefinite(self):
        assert not numkernel.pd_mask(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_structured_sigma_outside_domain(self):
        # |b - r| = 0.9 exceeds sqrt(0.7 * 0.9) ~ 0.7937, so an eigenvalue is negative
        sigma = build_sigma4(0.9, 0.0, 0.3, 0.1)
        assert np.linalg.eigvalsh(sigma)[0] < 0
        assert not numkernel.pd_mask(sigma)

    def test_equivalence_with_cholesky(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            a = rng.normal(size=(4, 4))
            a = (a + a.T) / 2.0
            pd = numkernel.pd_mask(a)
            try:
                numkernel.cholesky(a)
                factored = True
            except NotPositiveDefinite:
                factored = False
            assert pd == factored


EPS = np.finfo(float).eps
UNIT_ROUNDOFF = EPS / 2


def symmetric_2x2(rng, m):
    """Symmetric 2x2 stacks, half SPD with eigenvalue ratios log-uniform down to 1e-16
    (det/(tr/2)^2 down to 4e-16), then indefinite, negative-definite and zero ones."""
    basis = np.linalg.qr(rng.normal(size=(m, 2, 2)))[0]
    values = np.exp(rng.uniform(-5.0, 5.0, size=(m, 1))) * np.stack(
        [np.ones(m), 10.0 ** rng.uniform(-16.0, 0.0, size=m)], axis=1)
    values[m // 2:, 1] *= np.where(np.arange(m - m // 2) % 2, -1.0, 1.0)
    values[m // 2::4] *= -1.0
    values[-1] = 0.0
    a = (basis * values[:, None, :]) @ np.swapaxes(basis, 1, 2)
    return (a + np.swapaxes(a, 1, 2)) / 2.0


def closed_form_ratio(a):
    """det / (tr/2)^2 where tr > 0, else 0: above CLOSED_FORM_RATIO a matrix takes the
    closed forms."""
    half = (a[:, 0, 0] + a[:, 1, 1]) / 2.0
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] ** 2
    return np.where(half > 0.0, det, 0.0) / np.where(half > 0.0, half * half, 1.0)


def test_2x2_stacks_span_the_routing_threshold():
    ratio = closed_form_ratio(symmetric_2x2(np.random.default_rng(5), 4000))
    assert ((ratio > 0.0) & (ratio < 1e-14)).any() and (ratio > numkernel.CLOSED_FORM_RATIO).sum() > 500
    assert ((ratio > 1e-14) & (ratio <= numkernel.CLOSED_FORM_RATIO)).sum() > 500


def test_2x2_eigenvalues_match_lapack():
    a = symmetric_2x2(np.random.default_rng(5), 4000)
    ratio = closed_form_ratio(a)
    closed = ratio > numkernel.CLOSED_FORM_RATIO
    lapack = np.linalg.eigvalsh(a)[:, ::-1]
    values = numkernel.eigvalsh_descending(a)
    # below the threshold, down to det/(tr/2)^2 = 1e-14 and past it, LAPACK answers
    assert values[~closed].tobytes() == lapack[~closed].tobytes()
    np.testing.assert_allclose(values[closed, 0], lapack[closed, 0], rtol=8 * EPS, atol=0)
    # the two small roots differ by their two errors: LAPACK's ~ eps hi, the closed
    # form's below (2 / ratio + 5) u relative
    tolerance = (8.0 / ratio[closed] + 8.0) * EPS * np.abs(values[closed, 1])
    assert np.all(np.abs(values[closed, 1] - lapack[closed, 1]) <= tolerance)


def test_small_root_error_bound_at_the_threshold():
    """det / hi against the exact determinant of the same matrix over the same hi:
    within (2 / ratio + 5) u, about 2.2e-12 at the routing threshold."""
    a = symmetric_2x2(np.random.default_rng(6), 4000)[:2000]
    ratio = closed_form_ratio(a)
    closed = np.flatnonzero(ratio > numkernel.CLOSED_FORM_RATIO)
    values = numkernel.eigvalsh_descending(a[closed])
    exact = np.array([float(Fraction(x[0, 0]) * Fraction(x[1, 1]) - Fraction(x[0, 1]) ** 2)
                      for x in a[closed]]) / values[:, 0]
    bound = (2.0 / ratio[closed] + 5.0) * UNIT_ROUNDOFF
    assert np.all(np.abs(values[:, 1] - exact) <= bound * exact)
    assert ratio[closed].min() < 2 * numkernel.CLOSED_FORM_RATIO
    assert (2.0 / numkernel.CLOSED_FORM_RATIO + 5.0) * UNIT_ROUNDOFF < 2.3e-12


@pytest.mark.parametrize("d", [1, 2])
def test_small_slogdet_matches_lapack(d):
    rng = np.random.default_rng(7 + d)
    a = symmetric_2x2(rng, 4000) if d == 2 else rng.normal(size=(400, 1, 1))
    if d == 1:
        a[::7] = 0.0
    sign, logdet = numkernel.slogdet(a)
    lapack_sign, lapack_logdet = np.linalg.slogdet(a)
    np.testing.assert_array_equal(sign, lapack_sign)
    if d == 1:
        np.testing.assert_allclose(logdet, lapack_logdet, rtol=2 * EPS, atol=0)
        return
    ratio = closed_form_ratio(a)
    closed = ratio > numkernel.CLOSED_FORM_RATIO
    assert logdet[~closed].tobytes() == lapack_logdet[~closed].tobytes()
    # an error e in the determinant is e absolute in its log
    assert np.all(np.abs(logdet[closed] - lapack_logdet[closed]) <= (8.0 / ratio[closed] + 8.0) * EPS)


def test_larger_stacks_go_to_lapack():
    a = np.random.default_rng(9).normal(size=(50, 3, 3))
    a = a @ np.swapaxes(a, 1, 2)
    assert numkernel.eigvalsh_descending(a).tobytes() == np.linalg.eigvalsh(a)[:, ::-1].tobytes()
    assert np.array_equal(numkernel.slogdet(a), np.linalg.slogdet(a))
