import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macnet import cli, inference, numkernel, simulation
from macnet.cli import main
from macnet.errors import InsufficientSamples, NotPositiveDefinite, OutOfDomain
from macnet.similarity import K2Params, canonical_roots
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
    """Each grid point's replicates are consecutive rows of one ``substream`` draw."""

    @staticmethod
    def assert_one_stream(n, reps, sizes):
        chunks = list(simulation._grid_point_normals(17, 3, reps, n))
        assert [len(chunk) for chunk in chunks] == sizes
        expected = substream(17, 3).standard_normal((reps, n, 4))
        np.testing.assert_array_equal(np.concatenate(chunks), expected)
        prefix = np.concatenate(list(simulation._grid_point_normals(17, 3, reps - 1, n)))
        np.testing.assert_array_equal(prefix, expected[:-1])

    def test_normals_match_substream_across_a_chunk_boundary(self):
        self.assert_one_stream(50, REPLICATE_CHUNK + 5, [REPLICATE_CHUNK, 5])

    @pytest.mark.parametrize("n,reps,sizes", [(20_000, 5, [3, 2]), (2**16 + 1, 2, [1, 1])],
                             ids=["draw-row-cap", "one-replicate"])
    def test_draw_rows_cap_a_chunk(self, n, reps, sizes):
        self.assert_one_stream(n, reps, sizes)

    @pytest.mark.parametrize("seed", [-1, np.int64(-1), 1.5, 2.0])
    def test_keys_reject_what_seed_sequence_rejects(self, seed):
        with pytest.raises(Exception) as expected:
            np.random.SeedSequence([seed, 0])
        with pytest.raises(expected.type):
            next(simulation._grid_point_normals(seed, 0, 3, 5))


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
        draw = simulation._grid_point_normals

        def with_a_singular_replicate(seed, point, reps, n):
            start = 0
            for normals in draw(seed, point, reps, n):
                if start <= replicate < start + len(normals):
                    row = normals[replicate - start]
                    row[:, 3] = row[:, 1]
                start += len(normals)
                yield normals

        monkeypatch.setattr(simulation, "_grid_point_normals", with_a_singular_replicate)
        spec = PowerStudySpec(grid=((0.1, 0.2),), reps=REPLICATE_CHUNK + 10, seed=3)
        with pytest.raises(NotPositiveDefinite):
            power_study(spec)

    def test_cli_defaults_draw_one_chunk_per_grid_point(self, monkeypatch, tmp_path):
        calls = []
        draw = simulation._grid_point_normals

        def recording(seed, point, reps, n):
            for normals in draw(seed, point, reps, n):
                calls.append((point, len(normals)))
                yield normals

        monkeypatch.setattr(simulation, "_grid_point_normals", recording)
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


@pytest.mark.parametrize("n", [4, 7, 50, 1000])
def test_gram_path_matches_two_pass_correlations(n):
    # the first, middle and last points of the CLI's b=0.2r sweep, and the slice's
    # largest valid candidate, the point nearest the positive-definite boundary
    params = K2Params(r=0.0, b=0.0, rho1=0.3, rho2=0.1)
    candidates = np.linspace(0.0, 0.99, 500)
    edge = candidates[params.valid_at(*simulation.SLICES["b=0.2r"](candidates))][-1]
    sweep = cli._slice_sweep("b=0.2r", 9, 0.3, 0.1)
    grid = (sweep[0], sweep[4], sweep[-1]) + slice_grid("b=0.2r", [edge])
    for point, (r, b) in enumerate(grid):
        lower = numkernel.cholesky(build_sigma(K2Params(r=r, b=b, rho1=0.3, rho2=0.1)))
        normals = np.concatenate(list(simulation._grid_point_normals(9, point, 300, n)))
        joint = simulation._replicate_correlations(normals, lower)
        expected = numkernel.corr_matrices(normals @ lower.T)
        np.testing.assert_allclose(joint, expected, rtol=0.0, atol=1e-12)


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
    return inference.bartlett_chi2(canonical_roots(t), n, 2).statistic


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
