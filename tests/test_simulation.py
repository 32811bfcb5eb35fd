import numpy as np
import pytest

from macnet import inference, numkernel, simulation
from macnet.errors import InsufficientSamples, NotPositiveDefinite, OutOfDomain
from macnet.similarity import K2Params
from macnet.simulation import (
    REPLICATE_CHUNK,
    PowerStudySpec,
    build_sigma,
    power_study,
    sample_mvn,
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
    def test_identity_correlations_near_zero(self):
        draws = sample_mvn(np.eye(4), 100_000, 1)
        joint = numkernel.corr_matrices(draws)
        assert np.max(np.abs(joint - np.eye(4))) < 0.02

    def test_seed_determinism(self):
        sigma = build_sigma(K2Params(0.1, 0.2, 0.3, 0.1))
        a = sample_mvn(sigma, 500, 42)
        b = sample_mvn(sigma, 500, 42)
        np.testing.assert_array_equal(a, b)

    def test_target_correlation_recovered(self):
        sigma = build_sigma(K2Params(0.0, 0.0, 0.3, 0.1))
        draws = sample_mvn(sigma, 100_000, 7)
        joint = numkernel.corr_matrices(draws)
        assert joint[0, 2] == pytest.approx(0.3, abs=0.01)
        assert joint[1, 3] == pytest.approx(0.1, abs=0.01)

    def test_requires_spd(self):
        with pytest.raises(NotPositiveDefinite):
            sample_mvn(np.array([[1.0, 2.0], [2.0, 1.0]]), 10, 0)

    def test_substream_order_independence(self):
        forward = [substream(3, 0, rep).standard_normal(4) for rep in range(5)]
        backward = [substream(3, 0, rep).standard_normal(4) for rep in reversed(range(5))]
        for rep in range(5):
            np.testing.assert_array_equal(forward[rep], backward[4 - rep])


class TestChunkDraw:
    """The chunk-level draw replays exactly the streams that ``substream`` builds."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("point", [0, 8])
    def test_keys_match_seed_sequence(self, seed, point):
        keys = simulation._substream_keys(seed, point, range(601))
        expected = np.stack([np.random.SeedSequence([seed, point, rep]).generate_state(2, np.uint64)
                             for rep in range(601)])
        assert keys.dtype == np.uint64
        np.testing.assert_array_equal(keys, expected)

    def test_keys_of_multi_word_replicates(self):
        reps = [3, 2**32, 2**40 + 7, 0]
        expected = np.stack([np.random.SeedSequence([5, 1, rep]).generate_state(2, np.uint64)
                             for rep in reps])
        np.testing.assert_array_equal(simulation._substream_keys(5, 1, reps), expected)

    @pytest.mark.parametrize("seed", [-1, np.int64(-1), 1.5, 2.0])
    def test_keys_reject_what_seed_sequence_rejects(self, seed):
        with pytest.raises(Exception) as expected:
            np.random.SeedSequence([seed, 0, 0])
        with pytest.raises(expected.type):
            simulation._substream_keys(seed, 0, range(3))

    def test_normals_match_substream_across_a_chunk_boundary(self):
        reps = range(REPLICATE_CHUNK + 5)
        chunks = [simulation._replicate_normals(17, 3, reps[start:start + REPLICATE_CHUNK], 50)
                  for start in range(0, len(reps), REPLICATE_CHUNK)]
        expected = np.stack([substream(17, 3, rep).standard_normal((50, 4)) for rep in reps])
        np.testing.assert_array_equal(np.concatenate(chunks), expected)


class TestPowerStudy:
    def test_grid_validation(self):
        with pytest.raises(OutOfDomain):
            PowerStudySpec(grid=((0.9, 0.0),))

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(OutOfDomain, match="seed"):
            PowerStudySpec(grid=((0.0, 0.0),), seed=seed)

    @pytest.mark.parametrize("n,scenarios", [(3, (1, 2)), (6, (1, 5))])
    def test_sample_size_checked_before_drawing(self, n, scenarios):
        with pytest.raises(InsufficientSamples):
            PowerStudySpec(grid=((0.0, 0.0),), n=n, scenarios=scenarios)

    def test_canonical_roots_only_for_scenario_five(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Bartlett step run without scenario 5")

        monkeypatch.setattr(simulation, "canonical_roots", refuse)
        monkeypatch.setattr(inference, "bartlett_chi2", refuse)
        spec = PowerStudySpec(grid=((0.0, 0.0),), n=5, reps=20, seed=2, scenarios=(1, 2, 3, 4))
        assert len(power_study(spec).cells) == 4

    def test_deterministic(self):
        spec = PowerStudySpec(grid=((0.0, 0.0), (0.1, 0.5)), reps=200, seed=11)
        base = power_study(spec)
        again = power_study(spec)
        assert base.cells == again.cells

    def test_max_power_dominates_min_power(self):
        spec = PowerStudySpec(
            grid=((0.0, 0.0), (0.2, 0.1), (0.1, 0.4)), reps=500, seed=5, scenarios=(3, 4)
        )
        result = power_study(spec)
        for r, b in spec.grid:
            p_max = result.cell(r, b, 3)
            p_min = result.cell(r, b, 4)
            slack = 2.0 * np.hypot(p_max.mc_se, p_min.mc_se)
            assert p_max.power >= p_min.power - slack

    def test_pure_null_two_sided_calibration(self):
        # all five rejection rates sit at the test level; scenarios 3-4 are
        # checked in Monte Carlo mode since the analytic tail approximation
        # is deliberately reported as-printed rather than recalibrated
        spec = PowerStudySpec(
            grid=((0.0, 0.0),),
            rho1=0.0,
            rho2=0.0,
            reps=1000,
            seed=23,
            one_sided=False,
            pvalue_mode="montecarlo",
        )
        result = power_study(spec)
        for scenario in (1, 2, 3, 4, 5):
            rate = result.cell(0.0, 0.0, scenario).power
            assert abs(rate - 0.05) <= 0.03, f"scenario {scenario} rate {rate}"

    def test_scenario_one_tracks_analytic_power(self):
        spec = PowerStudySpec(grid=((0.0, 0.0),), reps=1000, seed=3, scenarios=(1,))
        result = power_study(spec)
        assert result.cell(0.0, 0.0, 1).power == pytest.approx(0.683, abs=0.045)

    def test_rho_z_override_accepted(self):
        spec = PowerStudySpec(
            grid=((0.0, 0.0),), reps=50, seed=1, scenarios=(3,), rho_z_override=0.0
        )
        result = power_study(spec)
        assert 0.0 <= result.cell(0.0, 0.0, 3).power <= 1.0


class TestSliceGrid:
    def test_named_slices(self):
        forward = slice_grid("b=0.2r", [0.0, 0.5])
        assert forward == ((0.0, 0.0), (0.5, 0.1))
        backward = slice_grid("r=0.2b", [0.5])
        assert backward == ((0.1, 0.5),)
