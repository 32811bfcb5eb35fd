import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from _oracles import bartlett_from_roots, corr_matrices, sample_mvn
from macnet import inference, numkernel, simulation
from macnet.cli import main
from macnet.errors import InsufficientSamples, NotPositiveDefinite, OutOfDomain, UsageError
from macnet.similarity import K2Params, canonical_roots
from macnet.simulation import (
    REPLICATE_CHUNK,
    PowerStudySpec,
    build_sigma,
    power_study,
    slice_grid,
    substream,
)


def sigma_eigenvalues_formula(r, b, rho1, rho2):
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


class TestBuildSigma:
    def test_identity_at_zero(self):
        sigma = build_sigma(K2Params(0.0, 0.0, 0.0, 0.0))
        np.testing.assert_array_equal(sigma, np.eye(4))

    def test_eigenvalues_match_formula(self):
        sigma = build_sigma(K2Params(0.1, 0.2, 0.3, 0.1))
        values = np.linalg.eigvalsh(sigma)[::-1]
        np.testing.assert_allclose(
            values, sigma_eigenvalues_formula(0.1, 0.2, 0.3, 0.1), atol=1e-10
        )
        assert numkernel.pd_mask(sigma)

    def test_boundary_rejected(self):
        params = K2Params(0.0, float(np.sqrt(0.7 * 0.9)), 0.3, 0.1)  # |b - r| = A1
        with pytest.raises(OutOfDomain):
            build_sigma(params)


class TestSampleMvn:
    """``_oracles.sample_mvn``, the Gaussian data generator the tests draw samples from."""

    def test_identity_correlations_near_zero(self):
        draws = sample_mvn(np.eye(4), 100_000, 1)
        joint = corr_matrices(draws)
        assert np.max(np.abs(joint - np.eye(4))) < 0.02

    def test_seed_determinism(self):
        sigma = build_sigma(K2Params(0.1, 0.2, 0.3, 0.1))
        a = sample_mvn(sigma, 500, 42)
        b = sample_mvn(sigma, 500, 42)
        np.testing.assert_array_equal(a, b)

    def test_target_correlation_recovered(self):
        sigma = build_sigma(K2Params(0.0, 0.0, 0.3, 0.1))
        draws = sample_mvn(sigma, 100_000, 7)
        joint = corr_matrices(draws)
        assert joint[0, 2] == pytest.approx(0.3, abs=0.01)
        assert joint[1, 3] == pytest.approx(0.1, abs=0.01)

    def test_requires_spd(self):
        with pytest.raises(NotPositiveDefinite):
            sample_mvn(np.array([[1.0, 2.0], [2.0, 1.0]]), 10, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, None])
    def test_seed_goes_to_seed_sequence_as_given(self, seed):
        with pytest.raises(Exception) as expected:
            np.random.SeedSequence([seed])
        with pytest.raises(expected.type):
            sample_mvn(np.eye(2), 3, seed)

    def test_integer_seed_draws_from_its_substream(self):
        expected = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
        np.testing.assert_array_equal(sample_mvn(np.eye(2), 3, 1), expected.standard_normal((3, 2)))
        np.testing.assert_array_equal(sample_mvn(np.eye(2), 3, 1),
                                      substream(1).standard_normal((3, 2)))

    def test_substream_order_independence(self):
        forward = [substream(3, 0, rep).standard_normal(4) for rep in range(5)]
        backward = [substream(3, 0, rep).standard_normal(4) for rep in reversed(range(5))]
        for rep in range(5):
            np.testing.assert_array_equal(forward[rep], backward[4 - rep])


class TestChunkDraw:
    """Each grid point's Bartlett factors are consecutive rows of one draw from each of
    its two ``substream``s."""

    @staticmethod
    def whole_stream_factors(seed, point, reps, n):
        factors = np.zeros((reps, 4, 4))
        rows, cols = np.tril_indices(4, -1)
        factors[:, rows, cols] = substream(seed, point, 0).standard_normal((reps, 6))
        shapes = (n - 1 - np.arange(4)) / 2.0
        diagonal = np.sqrt(2.0 * substream(seed, point, 1).standard_gamma(shapes, (reps, 4)))
        factors[:, range(4), range(4)] = diagonal
        return factors

    def test_factors_match_substreams_across_a_chunk_boundary(self):
        reps = REPLICATE_CHUNK + 5
        chunks = list(simulation._grid_point_factors(17, 3, reps, 50))
        assert [len(chunk) for chunk in chunks] == [REPLICATE_CHUNK, 5]
        expected = self.whole_stream_factors(17, 3, reps, 50)
        np.testing.assert_array_equal(np.concatenate(chunks), expected)
        prefix = np.concatenate(list(simulation._grid_point_factors(17, 3, reps - 1, 50)))
        np.testing.assert_array_equal(prefix, expected[:-1])

    def test_factors_have_rank_three_at_four_samples(self):
        factors = next(simulation._grid_point_factors(17, 3, 200, 4))
        np.testing.assert_array_equal(factors, self.whole_stream_factors(17, 3, 200, 4))
        assert not np.any(np.triu(factors, 1))
        assert np.all(np.diagonal(factors, axis1=1, axis2=2)[:, :3] > 0.0)
        np.testing.assert_array_equal(factors[:, 3, 3], 0.0)

    @pytest.mark.parametrize("seed", [-1, np.int64(-1), 1.5, 2.0])
    def test_keys_reject_what_seed_sequence_rejects(self, seed):
        with pytest.raises(Exception) as expected:
            np.random.SeedSequence([seed, 0])
        with pytest.raises(expected.type):
            next(simulation._grid_point_factors(seed, 0, 3, 5))


@pytest.mark.parametrize("n", [4, 5, 7, 50])
def test_wishart_draw_matches_sampled_data(n):
    # a point of the b=0.2r slice: every correlation of sigma is non-zero
    sigma = build_sigma(K2Params(r=0.4, b=0.08, rho1=0.3, rho2=0.1))
    lower = numkernel.cholesky(sigma)
    reps = 4000
    factors = np.concatenate(list(simulation._grid_point_factors(2525, 0, reps, n)))
    joint = simulation._replicate_correlations(factors, lower)
    data = sample_mvn(sigma, reps * n, substream(2525, 1)).reshape(reps, n, 4)
    sampled = corr_matrices(data)
    pairs = [(joint[:, i, j], sampled[:, i, j]) for i, j in ((0, 2), (1, 3), (0, 1), (0, 3))]
    if n >= 7:  # scenario 5 needs n >= 7; at n = 4 every R is singular
        pairs.append((simulation._log_wilks_lambda(joint), simulation._log_wilks_lambda(sampled)))
    for wishart, sampled_values in pairs:
        assert stats.ks_2samp(wishart, sampled_values).pvalue > 1e-3
    x = lower @ factors
    scatter = x @ np.swapaxes(x, 1, 2)
    se = scatter.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(scatter.mean(axis=0) - (n - 1) * sigma) <= 4.0 * se)


def test_sample_size_sets_no_array_size():
    # one replicate's data at n = 10**9 would be 32 GB
    tracemalloc.start()
    try:
        result = power_study(PowerStudySpec(grid=((0.0, 0.0),), n=10**9, reps=50, seed=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.rejections.shape == (1, 5)
    assert peak < 2**20


class TestPowerStudy:
    def test_grid_validation(self):
        with pytest.raises(OutOfDomain):
            PowerStudySpec(grid=((0.9, 0.0),))

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(OutOfDomain, match="seed"):
            PowerStudySpec(grid=((0.0, 0.0),), seed=seed)

    @pytest.mark.parametrize("field,value", [("reps", 100.0), ("reps", True), ("n", 50.0),
                                             ("n", False), ("n", np.float64(50.0)), ("seed", True)],
                             ids=["reps-float", "reps-bool", "n-float", "n-bool", "n-numpy-float",
                                  "seed-bool"])
    def test_integer_fields_must_be_integers(self, field, value):
        with pytest.raises(OutOfDomain, match=field):
            PowerStudySpec(grid=((0.0, 0.0),), **{field: value})

    @pytest.mark.parametrize("field,value", [("rho1", "0.3"), ("rho2", None), ("alpha", "0.05"),
                                             ("scenarios", (1.5,)), ("scenarios", (True,)),
                                             ("one_sided", "no"), ("one_sided", 1)],
                             ids=["rho1-str", "rho2-none", "alpha-str", "scenarios-float",
                                  "scenarios-bool", "one_sided-str", "one_sided-int"])
    def test_real_scenario_and_flag_fields_are_type_checked(self, field, value):
        with pytest.raises(OutOfDomain, match=field):
            PowerStudySpec(grid=((0.0, 0.0),), **{field: value})

    def test_montecarlo_mode_is_gone(self):
        with pytest.raises(UsageError, match=r"\('formula', 'exact'\), got 'montecarlo'"):
            PowerStudySpec(grid=((0.0, 0.0),), pvalue_mode="montecarlo")

    def test_numpy_integer_counts_are_accepted(self):
        spec = PowerStudySpec(grid=((0.0, 0.0),), n=np.int32(8), reps=np.int64(5), seed=1,
                              scenarios=(1,))
        assert (type(spec.n), type(spec.reps)) == (int, int)
        assert power_study(spec).rejections.shape == (1, 1)

    @pytest.mark.parametrize("n,scenarios", [(3, (1, 2)), (6, (1, 5))])
    def test_sample_size_checked_before_drawing(self, n, scenarios):
        with pytest.raises(InsufficientSamples):
            PowerStudySpec(grid=((0.0, 0.0),), n=n, scenarios=scenarios)

    def test_replicate_count_checked_before_drawing(self):
        with pytest.raises(InsufficientSamples, match="scenarios 3-4"):
            PowerStudySpec(grid=((0.0, 0.0),), reps=2, scenarios=(1, 4))

    def test_wilks_lambda_only_for_scenario_five(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Bartlett step run without scenario 5")

        monkeypatch.setattr(simulation, "_log_wilks_lambda", refuse)
        monkeypatch.setattr(inference, "_bartlett_from_log_lambda", refuse)
        spec = PowerStudySpec(grid=((0.0, 0.0),), n=5, reps=20, seed=2, scenarios=(1, 2, 3, 4))
        assert power_study(spec).rejections.shape == (1, 4)

    def test_benchmark_command_runs_no_eigensolver(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert main(["simulate", "--slice", "b=0.2r", "--points", "9", "--reps", "1000",
                     "--n", "50", "--seed", "7", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("replicate", [0, REPLICATE_CHUNK + 3])
    def test_singular_replicate_raises(self, monkeypatch, replicate):
        draw = simulation._grid_point_factors

        def with_a_singular_replicate(seed, point, reps, n):
            start = 0
            for factors in draw(seed, point, reps, n):
                if start <= replicate < start + len(factors):
                    factor = factors[replicate - start]
                    factor[3] = factor[1]
                start += len(factors)
                yield factors

        monkeypatch.setattr(simulation, "_grid_point_factors", with_a_singular_replicate)
        spec = PowerStudySpec(grid=((0.1, 0.2),), reps=REPLICATE_CHUNK + 10, seed=3)
        with pytest.raises(NotPositiveDefinite):
            power_study(spec)

    def test_cli_defaults_draw_one_chunk_per_grid_point(self, monkeypatch, tmp_path):
        calls = []
        draw = simulation._grid_point_factors

        def recording(seed, point, reps, n):
            for factors in draw(seed, point, reps, n):
                calls.append((point, len(factors)))
                yield factors

        monkeypatch.setattr(simulation, "_grid_point_factors", recording)
        assert main(["simulate", "--slice", "b=0.2r", "--points", "9", "--reps", "1000",
                     "--n", "50", "--seed", "7", "--out", str(tmp_path)]) == 0
        assert calls == [(point, 1000) for point in range(9)]

    def test_deterministic(self):
        spec = PowerStudySpec(grid=((0.0, 0.0), (0.1, 0.5)), reps=200, seed=11)
        base = power_study(spec)
        again = power_study(spec)
        assert base.rejections.dtype == np.int64
        np.testing.assert_array_equal(base.rejections, again.rejections)

    def test_max_power_dominates_min_power(self):
        spec = PowerStudySpec(
            grid=((0.0, 0.0), (0.2, 0.1), (0.1, 0.4)), reps=500, seed=5, scenarios=(3, 4)
        )
        result = power_study(spec)
        p_max, p_min = result.power.T
        slack = 2.0 * np.hypot(*result.mc_se.T)
        assert np.all(p_max >= p_min - slack)

    def test_pure_null_two_sided_calibration(self):
        # all five rejection rates sit at the test level; scenarios 3-4 are
        # checked with the exact tail since the analytic tail approximation
        # is deliberately reported as-printed rather than recalibrated
        spec = PowerStudySpec(
            grid=((0.0, 0.0),),
            rho1=0.0,
            rho2=0.0,
            reps=1000,
            seed=23,
            one_sided=False,
            pvalue_mode="exact",
        )
        result = power_study(spec)
        for scenario, rate in zip(spec.scenarios, result.power[0]):
            assert abs(rate - 0.05) <= 0.03, f"scenario {scenario} rate {rate}"

    def test_scenario_one_tracks_analytic_power(self):
        spec = PowerStudySpec(grid=((0.0, 0.0),), reps=1000, seed=3, scenarios=(1,))
        result = power_study(spec)
        assert result.power[0, 0] == pytest.approx(0.683, abs=0.045)

    def test_columns_follow_the_scenario_order(self):
        grid = ((0.0, 0.0), (0.1, 0.5))
        forward = power_study(PowerStudySpec(grid=grid, reps=80, seed=4, scenarios=(1, 5)))
        backward = power_study(PowerStudySpec(grid=grid, reps=80, seed=4, scenarios=(5, 1)))
        np.testing.assert_array_equal(backward.rejections, forward.rejections[:, ::-1])
        power = backward.rejections / 80
        np.testing.assert_array_equal(backward.power, power)
        np.testing.assert_array_equal(backward.mc_se, np.sqrt(power * (1.0 - power) / 80))


class TestSliceGrid:
    def test_named_slices(self):
        forward = slice_grid("b=0.2r", [0.0, 0.5])
        assert forward == ((0.0, 0.0), (0.5, 0.1))
        backward = slice_grid("r=0.2b", [0.5])
        assert backward == ((0.1, 0.5),)


def _sqrt_unit_2x2(r):
    """Symmetric square root of [[1, r], [r, 1]]."""
    plus, minus = np.sqrt(1.0 + r), np.sqrt(1.0 - r)
    return np.array([[plus + minus, plus - minus], [plus - minus, plus + minus]]) / 2.0


def _rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def _correlation(r11, r22, roots, angles):
    """4x4 matrix with unit diagonal, within-block correlations r11 and r22, and a
    cross block R11^1/2 U diag(roots) V' R22^1/2 (U, V rotations), so that its
    canonical roots are ``roots``; positive-definite iff both roots are below 1."""
    cross = (_sqrt_unit_2x2(r11) @ _rotation(angles[0]) @ np.diag(roots)
             @ _rotation(angles[1]).T @ _sqrt_unit_2x2(r22))
    joint = np.eye(4)
    joint[0, 1] = joint[1, 0] = r11
    joint[2, 3] = joint[3, 2] = r22
    joint[:2, 2:], joint[2:, :2] = cross, cross.T
    return joint


def _near_one(smallest_gap):
    """Values in [0, 1 - smallest_gap], dense near both ends."""
    return st.one_of(st.floats(0.0, 0.9),
                     st.floats(1.0, -np.log10(smallest_gap)).map(lambda e: 1.0 - 10.0 ** -e))


@st.composite
def correlation_stacks(draw, block_gap, root_gap, size=8):
    """Stacks of 4x4 correlation matrices whose within-block correlations reach
    1 - block_gap in magnitude and whose leading canonical root reaches 1 - root_gap."""
    stack = []
    for _ in range(draw(st.integers(1, size))):
        blocks = [draw(st.sampled_from([-1.0, 1.0])) * draw(_near_one(block_gap)) for _ in "ab"]
        leading = draw(_near_one(root_gap))
        roots = [leading, draw(st.floats(0.0, 1.0)) * leading]
        angles = [draw(st.floats(0.0, 2.0 * np.pi)) for _ in "uv"]
        stack.append(_correlation(*blocks, roots, angles))
    return np.array(stack)


def _roots_path_statistic(joint, n):
    """Bartlett's statistic from the canonical roots of T = R11^-1/2 R12 R22^-1/2."""
    t = (numkernel.inv_sqrt_spd_stack(joint[:, :2, :2]) @ joint[:, :2, 2:]
         @ numkernel.inv_sqrt_spd_stack(joint[:, 2:, 2:]))
    return bartlett_from_roots(canonical_roots(t), n, 2).statistic


@settings(max_examples=300, deadline=None)
@given(joint=correlation_stacks(block_gap=10.0 ** -1.5, root_gap=1e-3))
def test_wilks_lambda_matches_the_roots_path(joint):
    # with 1 - r^2 and 1 - root^2 down to about 0.06 and 2e-3, both paths carry a
    # relative error near 1e-16 / ((1 - r^2)(1 - root^2)), a few 1e-13; a statistic
    # below 1 (p above 0.9) is compared to within 1e-12 absolute
    expected = _roots_path_statistic(joint, 50)
    got = inference._bartlett_from_log_lambda(simulation._log_wilks_lambda(joint), 50, 2)
    assert got.df == 4
    assert np.all(np.abs(got.statistic - expected) <= 1e-12 * np.maximum(np.abs(expected), 1.0))


def _indefinite_or_near_singular():
    """Unit-diagonal symmetric 4x4 matrices near and past the positive-definite edge."""
    past_one = st.floats(-16.0, -1.0).map(lambda e: 1.0 + 10.0 ** e)
    # a leading root 1 - 1e-9 to 1 - 1e-11 puts lambda_min near pd_mask's 1e-10 lambda_max
    at_the_tolerance = st.floats(9.0, 11.0).map(lambda e: 1.0 - 10.0 ** -e)
    structured = st.builds(
        lambda r11, r22, leading, share, u, v: _correlation(r11, r22, [leading, share * leading],
                                                            [u, v]),
        _near_one(1e-16), _near_one(1e-16),
        st.one_of(_near_one(1e-16), past_one, at_the_tolerance),
        st.floats(0.0, 1.0), st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi))
    entries = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)

    def from_entries(values):
        joint = np.eye(4)
        joint[np.triu_indices(4, 1)] = values
        return np.triu(joint) + np.triu(joint, 1).T

    return st.one_of(structured, entries.map(from_entries))


@settings(max_examples=500, deadline=None)
@given(joint=_indefinite_or_near_singular())
# a leading root of exactly 1 with subnormal cross entries: S is exactly singular, and
# LAPACK's determinant of it divided by zero (a warning, so an error here)
@example(joint=_correlation(0.0, 0.0, [1.0, 0.5], [0.0, 1.1125369292536007e-308]))
def test_determinant_screen_clears_no_matrix_that_pd_mask_rejects(joint):
    if numkernel.pd_mask(joint):
        assert np.isfinite(simulation._log_wilks_lambda(joint[None])).all()
    else:
        with pytest.raises(NotPositiveDefinite):
            simulation._log_wilks_lambda(joint[None])
