import csv
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import bartlett_from_roots, corr_matrices, homogeneity_from_cov, sample_mvn
from macnet import inference, numkernel, simulation
from macnet.errors import (
    DegenerateCorrelation,
    InsufficientSamples,
    InvalidDf,
    InvalidGamma,
    InvalidP,
    LengthMismatch,
    NonFiniteInput,
    OutOfDomain,
)
from macnet.inference import (
    ChiSquaredTest,
    bh_fdr,
    chi2_sf,
    extreme_corr_pvalue,
    fisher_z,
    fisher_z_correlation,
    normal_pdf,
    normal_sf,
)


def pair_homogeneity(samples_i, samples_j):
    """The closed-form homogeneity test of one pair, as ``infer`` runs it on a stack:
    (ChiSquaredTest of floats, or None where the stacked covariance is singular)."""
    stacked = np.hstack([samples_i, samples_j])
    n = stacked.shape[0]
    centered = stacked - stacked.mean(axis=0)
    test, singular = homogeneity_from_cov((centered.T @ centered / n)[None], n)
    if singular[0]:
        return None
    return ChiSquaredTest(statistic=float(test.statistic[0]), df=test.df, p=float(test.p[0]))


# high-precision references (40-digit evaluation of the defining integrals)
NORMAL_SF_TABLE = {
    0.5: 0.30853753872598689636,
    1.0: 0.15865525393145705141,
    2.0: 0.0227501319481792072,
    4.0: 3.1671241833119921254e-05,
    6.0: 9.865876450376981407e-10,
    8.0: 6.2209605742717841235e-16,
}
CHI2_SF_TABLE = {
    (1.0, 1): 0.31731050786291410283,
    (5.0, 2): 0.08208499862389879517,
    (10.0, 4): 0.04042768199451280258,
    (50.0, 4): 3.6108654048906453546e-10,
    (100.0, 1): 1.5239706048321052132e-23,
    (200.0, 10): 1.613930533697730479e-37,
    (0.5, 3): 0.91889141165467585936,
    (4.0, 9): 0.911412526831679171398,
    (16.9, 9): 0.050305190124310876064,
    (40.0, 9): 7.59852522946427598232e-06,
    (49.0, 49): 0.4731282956547652174,
    (90.0, 49): 3.22987867432421225783e-04,
    # e^(-x/2) alone underflows to 0 here; the tail does not
    (1500.0, 49): 5.70882017433584446012e-282,
}


class TestDistributionTails:
    def test_normal_sf_at_zero(self):
        assert normal_sf(0.0) == 0.5

    def test_normal_sf_accuracy(self):
        for c, expected in NORMAL_SF_TABLE.items():
            assert abs(normal_sf(c) - expected) / expected < 1e-12
            assert abs(normal_sf(-c) - (1.0 - expected)) < 1e-14

    def test_chi2_sf_at_zero(self):
        for df in range(1, 10):
            assert chi2_sf(0.0, df) == 1.0

    def test_chi2_sf_at_infinity(self):
        for df in range(1, 10):
            assert chi2_sf(math.inf, df) == 0.0
        assert list(chi2_sf(np.array([0.0, math.inf]), 4)) == [1.0, 0.0]

    def test_chi2_sf_matches_scipy(self):
        from scipy.stats import chi2

        x = np.concatenate([np.linspace(0.0, 5.0, 41), np.geomspace(5.0, 300.0, 60)])
        for df in range(1, 17):
            expected = chi2.sf(x, df)
            assert np.all(np.abs(chi2_sf(x, df) - expected) <= 1e-13 * expected)

    def test_chi2_sf_has_no_incomplete_gamma(self):
        src = Path(inference.__file__).parent
        assert not [p for p in src.glob("*.py") if "gammaincc" in p.read_text()]

    def test_chi2_sf_accuracy(self):
        for (x, df), expected in CHI2_SF_TABLE.items():
            assert abs(chi2_sf(x, df) - expected) / expected < 1e-12

    def test_chi2_standard_quantile(self):
        # 1.959964^2 = 3.841459 is the two-sided 5% cut for one degree of freedom
        assert chi2_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-6)

    def test_chi2_matches_normal_for_one_df(self):
        for x in [0.5, 1.0, 3.0, 9.0, 25.0]:
            assert chi2_sf(x, 1) == pytest.approx(2.0 * normal_sf(math.sqrt(x)), rel=1e-12)

    def test_invalid_df(self):
        with pytest.raises(InvalidDf):
            chi2_sf(1.0, 0)


class TestFisherZ:
    def test_zero(self):
        assert fisher_z(0.0, 50) == 0.0

    def test_frozen_value(self):
        assert fisher_z(0.3, 50) == pytest.approx(2.12195949846937, abs=1e-12)

    def test_antisymmetry_exact(self):
        for rho in np.linspace(0.001, 0.999, 57):
            assert fisher_z(-rho, 30) == -fisher_z(rho, 30)

    def test_strictly_increasing(self):
        grid = np.arange(-0.999, 0.9995, 0.001)
        values = np.array([fisher_z(r, 20) for r in grid])
        assert np.all(np.diff(values) > 0)

    def test_degenerate(self):
        with pytest.raises(DegenerateCorrelation):
            fisher_z(1.0, 50)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            fisher_z(0.3, 3)


class TestBartlett:
    def test_all_roots_zero(self):
        out = bartlett_from_roots([0.0, 0.0], 200, 2)
        assert out.statistic == 0.0
        assert out.p == 1.0
        assert out.df == 4

    def test_single_root_frozen_value(self):
        out = bartlett_from_roots([0.3], 50, 1)
        assert out.statistic == pytest.approx(4.479757274883963, abs=1e-12)
        assert out.statistic == pytest.approx(4.479, abs=1e-2)
        assert out.df == 1

    def test_nonnegative_and_zero_iff_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            roots = rng.uniform(0.0, 0.99, size=2)
            out = bartlett_from_roots(roots, 60, 2)
            assert out.statistic >= 0.0
            assert (out.statistic == 0.0) == bool(np.all(roots == 0.0))

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            bartlett_from_roots([0.1, 0.1], 6, 2)

    def test_cca_tail_rejects_at_the_nominal_rate_under_the_null(self):
        """The tail every cca pair reaches, audited where BH draws its line: 10^6 null
        pairs (k = 2, n = 50, Sigma = I) drawn as Bartlett factors, tested through the
        shipped correlation, log Wilks' Lambda and Bartlett steps.  Each rejection
        count lies within 4 binomial standard errors of alpha * reps."""
        reps, n = 10**6, 50
        pvalues = np.concatenate([
            inference._bartlett_from_log_lambda(simulation._log_wilks_lambda(
                numkernel.corr_from_cross(t @ np.swapaxes(t, 1, 2))), n, 2).p
            for t in simulation._grid_point_factors(23, 0, reps, n)])
        assert pvalues.size == reps
        for alpha in (0.05, 1e-3):
            expected = alpha * reps
            assert abs(np.sum(pvalues <= alpha) - expected) <= 4.0 * math.sqrt(
                expected * (1.0 - alpha))


class TestExtremePvalue:
    def test_perfect_correlation_plugin(self):
        # at L = 0 the correction reduces to phi(c) (phi(0) - 0.5) / (c/2)
        phi0 = 0.3989422804014327
        for c in [0.8, 1.5, 2.0, 3.0]:
            expected = normal_sf(c) + normal_pdf(c) * (phi0 - 0.5) / (c / 2.0)
            value = extreme_corr_pvalue(c, c - 0.3, 1.0, "max")
            assert value == pytest.approx(max(0.0, expected), abs=1e-14)
        assert extreme_corr_pvalue(2.0, 1.0, 1.0, "max") == pytest.approx(
            0.017293927993433811, abs=1e-14
        )

    def test_independence_deviation_recorded(self):
        # approximation quality at zero correlation is not asserted, only logged
        formula = extreme_corr_pvalue(2.0, 1.0, 0.0, "max")
        oracle = 1.0 - (1.0 - normal_sf(2.0)) ** 2
        print(f"\nmax-mode formula at c=2, rho_z=0: {formula:.6f}; "
              f"independence tail {oracle:.6f}; deviation {formula - oracle:+.6f}")
        assert 0.0 <= formula <= 1.0

    def test_min_mode_uses_minimum(self):
        lower = extreme_corr_pvalue(2.0, 0.5, 0.3, "min")
        same = extreme_corr_pvalue(0.5, 2.0, 0.3, "min")
        assert lower == same
        assert extreme_corr_pvalue(2.0, 0.5, 0.3, "max") == extreme_corr_pvalue(
            0.5, 2.0, 0.3, "max"
        )

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            z1, z2 = rng.normal(scale=2.0, size=2)
            rho = rng.uniform(-0.99, 0.99)
            for mode in ("max", "min"):
                assert 0.0 <= extreme_corr_pvalue(z1, z2, rho, mode) <= 1.0
                assert 0.0 <= extreme_corr_pvalue(z1, z2, rho, mode, two_sided=True) <= 1.0

    def test_non_finite_input(self):
        with pytest.raises(NonFiniteInput):
            extreme_corr_pvalue(math.nan, 1.0, 0.0, "max")
        with pytest.raises(NonFiniteInput):
            extreme_corr_pvalue(1.0, 1.0, 1.5, "max")

    def test_bad_mode_is_out_of_domain(self):
        with pytest.raises(OutOfDomain, match="'median'"):
            extreme_corr_pvalue(1.0, 2.0, 0.3, "median")

    def test_monte_carlo_matches_independence_oracle(self):
        # the calibration table's panel, at rho_z = 0 where the max tail is closed-form
        draws = 200_000
        rows = inference.w_formula_calibration_table(rho_values=(0.0,), c_values=(1.5, 2.0),
                                                     draws=draws, seed=4)
        for row in rows[:2]:
            oracle = 1.0 - (1.0 - normal_sf(row["c"])) ** 2
            se = math.sqrt(oracle * (1.0 - oracle) / draws)
            assert abs(row["montecarlo"] - oracle) < 4.0 * se

    def test_monte_carlo_deterministic(self):
        a = inference.w_formula_calibration_table(draws=10_000, seed=8)
        b = inference.w_formula_calibration_table(draws=10_000, seed=8)
        assert a == b


class TestExactExtremePvalue:
    def test_matches_independence_oracle(self):
        for c in (1.5, 2.0):
            exact = extreme_corr_pvalue(c, c - 1.0, 0.0, "max", exact=True)
            assert exact == pytest.approx(1.0 - (1.0 - normal_sf(c)) ** 2, abs=1e-12)

    def test_matches_bivariate_normal_cdf(self):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(2911)
        for rho, c in zip(rng.uniform(-0.95, 0.95, 200), rng.uniform(-3.0, 4.0, 200)):
            mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
            # P(Z1 > c, Z2 > c) and P(|Z1| > a, |Z2| > a) by inclusion-exclusion
            below = mvn.cdf([c, c])
            expected = {"max": 1.0 - below, "min": below + 2.0 * normal_sf(c) - 1.0}
            a = abs(c)
            inside = mvn.cdf([a, a], lower_limit=[-a, -a])
            two_sided = {"max": 1.0 - inside, "min": inside + 4.0 * normal_sf(a) - 1.0}
            for mode in ("max", "min"):
                one = extreme_corr_pvalue(c, c, rho, mode, exact=True)
                both = extreme_corr_pvalue(c, c, rho, mode, two_sided=True, exact=True)
                assert abs(one - expected[mode]) <= 1e-12
                assert abs(both - two_sided[mode]) <= 1e-12

    @pytest.mark.parametrize("c", [0.0, -0.7, -2.5, 1.3])
    def test_perfect_correlation(self, c):
        # rho_z = 1: both statistics are one; rho_z = -1: z2 = -z1, so max is |z1|, min -|z1|
        expected = {
            (1.0, "max"): normal_sf(c),
            (1.0, "min"): normal_sf(c),
            (-1.0, "max"): 1.0 if c < 0 else 2.0 * normal_sf(c),
            (-1.0, "min"): 1.0 - 2.0 * normal_sf(-c) if c < 0 else 0.0,
        }
        for (rho, mode), value in expected.items():
            p = extreme_corr_pvalue(c, c, rho, mode, exact=True)
            assert math.isfinite(p) and 0.0 <= p <= 1.0
            assert p == pytest.approx(value, abs=1e-15)

    def test_min_at_independence_is_the_squared_tail(self):
        c = np.linspace(-2.0, 4.0, 61)
        np.testing.assert_allclose(extreme_corr_pvalue(c, c + 0.5, 0.0, "min", exact=True),
                                   normal_sf(c) ** 2, rtol=1e-9, atol=0.0)

    @staticmethod
    def upper_quadrant(c, rho):
        """P(Z1 > c, Z2 > c), c > 0, as (1/pi) int_a^inf exp(-c^2 (1 + x^2)/2) / (1 + x^2) dx
        with a = tan(arccos(rho)/2), by scipy's adaptive quadrature to full relative
        precision: the first piece spans the integrand's fall from its peak at a."""
        from scipy.integrate import quad

        a = math.tan(math.acos(rho) / 2.0)
        f = lambda x: math.exp(-c * c * (1.0 + x * x) / 2.0) / (1.0 + x * x)  # noqa: E731
        split = a + 64.0 / (c * (c * a + 1.0))
        pieces = [quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                  for lo, hi in ((a, split), (split, math.inf))]
        return sum(pieces) / math.pi

    def test_min_tail_far_out_at_independence(self):
        # the Owen's T difference was 12.7x too large at c = 8 and 0 at c = 9
        from scipy.special import log_ndtr

        for c in np.arange(0.25, 20.01, 0.25):
            p = extreme_corr_pvalue(c, c, 0.0, "min", exact=True)
            tail = math.exp(2.0 * log_ndtr(-c))
            assert abs(p / tail - 1.0) <= (1e-12 if c <= 10.0 else 1e-9), c

    @pytest.mark.parametrize("rho", [-0.6, -0.3, 0.3, 0.8])
    def test_min_tail_far_out_matches_quadrature(self, rho):
        # at rho_z = -0.6 the Owen's T difference read 0 from c = 5 on
        for c in (1.0, 3.0, 5.0, 7.0, 9.0):
            p = extreme_corr_pvalue(c, c, rho, "min", exact=True)
            assert abs(p / self.upper_quadrant(c, rho) - 1.0) <= 1e-10, c

    def test_two_sided_tails_far_out(self):
        # both two-sided tails read the opposite-sign quadrant at -rho_z
        c, rho = 6.0, 0.5
        same, opposite = self.upper_quadrant(c, rho), self.upper_quadrant(c, -rho)
        expected = {"min": 2.0 * same + 2.0 * opposite,
                    "max": 4.0 * normal_sf(c) - 2.0 * same - 2.0 * opposite}
        for mode, value in expected.items():
            p = extreme_corr_pvalue(c, c, rho, mode, two_sided=True, exact=True)
            assert abs(p / value - 1.0) <= 1e-12, mode

    def test_owens_t_difference_kept_until_the_switch(self):
        # a min tail at least 1% of the normal tail keeps the bytes of the Owen's T form
        from scipy.special import owens_t

        c, rho = np.meshgrid(np.linspace(-3.0, 10.0, 131), np.linspace(-0.99, 0.99, 45))
        owen = normal_sf(c) - 2.0 * owens_t(c, np.tan(np.arccos(rho) / 2.0))
        kept = (c <= 0.0) | (owen >= 0.01 * normal_sf(c))
        p = extreme_corr_pvalue(c, c, rho, "min", exact=True)
        assert 0 < kept.sum() < kept.size
        np.testing.assert_array_equal(p[kept], np.clip(owen, 0.0, 1.0)[kept])

    def test_within_three_se_of_the_calibration_panel(self):
        rows = inference.w_formula_calibration_table()
        for row in rows:
            exact = extreme_corr_pvalue(row["c"], row["c"], row["rho_z"], row["mode"], exact=True)
            assert abs(exact - row["montecarlo"]) <= 3.0 * row["mc_se"], row

    def test_calibration_table_matches_its_record(self):
        path = Path(__file__).resolve().parents[1] / "docs" / "w_formula_calibration.csv"
        with open(path, newline="") as handle:
            recorded = list(csv.DictReader(handle))
        rows = inference.w_formula_calibration_table()
        assert len(rows) == len(recorded) == 18
        for row, record in zip(rows, recorded):
            assert list(row) == list(record)
            assert row["mode"] == record["mode"]
            for field in list(row)[1:]:
                assert row[field] == pytest.approx(float(record[field]), rel=0.0, abs=1e-15)


class TestFisherZCorrelation:
    def test_independent_structure(self):
        assert fisher_z_correlation(np.eye(2), np.eye(2), np.zeros((2, 2))) == 0.0

    def test_within_node_correlation_drives_dependence(self):
        sigma_ii = np.array([[1.0, 0.6], [0.6, 1.0]])
        value = fisher_z_correlation(sigma_ii, sigma_ii, np.zeros((2, 2)))
        assert value == pytest.approx(0.36, abs=1e-12)

    def test_against_simulated_z_pairs(self):
        # delta-method value should track the empirical correlation of z stats
        params = simulation.K2Params(r=0.5, b=0.2, rho1=0.3, rho2=0.1)
        sigma = simulation.build_sigma(params)
        z1s, z2s = [], []
        for rep in range(4000):
            draws = sample_mvn(sigma, 60, simulation.substream(99, rep))
            joint = corr_matrices(draws)
            z1s.append(fisher_z(joint[0, 2], 60))
            z2s.append(fisher_z(joint[1, 3], 60))
        empirical = np.corrcoef(z1s, z2s)[0, 1]
        plug_in = fisher_z_correlation(params.sigma_m, params.sigma_m, params.sigma_c)
        assert abs(empirical - plug_in) < 0.05


class TestBhFdr:
    def test_worked_example(self):
        rejected, q = bh_fdr([0.01, 0.02, 0.04, 0.5], 0.05)
        assert rejected.tolist() == [0, 1]
        assert q.tolist() == [0.04, 0.04, 0.05333333333333334, 0.5]

    def test_all_ones(self):
        assert bh_fdr([1.0, 1.0, 1.0], 0.05)[0].size == 0

    def test_single_test_reduces_to_plain_level(self):
        assert bh_fdr([0.04], 0.05)[0].tolist() == [0]
        assert bh_fdr([0.06], 0.05)[0].size == 0

    def test_q_dominates_p_and_is_monotone(self):
        rng = np.random.default_rng(15)
        p = rng.uniform(size=200)
        _, q = bh_fdr(p, 0.1)
        assert np.all(q >= p)
        order = np.argsort(p, kind="stable")
        assert np.all(np.diff(q[order]) >= -1e-15)

    def test_rejection_equals_q_threshold(self):
        rng = np.random.default_rng(21)
        p = rng.uniform(size=100) ** 2
        rejected, q = bh_fdr(p, 0.08)
        assert np.flatnonzero(q <= 0.08).tolist() == rejected.tolist()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(27)
        p = rng.uniform(size=50)
        base, _ = bh_fdr(p, 0.1)
        perm = rng.permutation(50)
        shuffled, _ = bh_fdr(p[perm], 0.1)
        assert np.sort(perm[shuffled]).tolist() == base.tolist()

    def test_array_input_matches_list(self):
        p = np.random.default_rng(33).uniform(size=300) ** 3
        (from_array, q_array), (from_list, q_list) = bh_fdr(p, 0.1), bh_fdr(p.tolist(), 0.1)
        assert from_array.size > 0
        np.testing.assert_array_equal(from_array, from_list)
        np.testing.assert_array_equal(q_array, q_list)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidP):
            bh_fdr([0.5, 1.2], 0.05)
        with pytest.raises(InvalidGamma):
            bh_fdr([0.5], 0.0)


@st.composite
def bh_families(draw):
    """A p-value family of up to 3,000 tests: uniform nulls, a share of small p-values,
    ties from rounding and p-values exactly at gamma."""
    m = draw(st.integers(0, 3000))
    gamma = draw(st.sampled_from([0.01, 0.05, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.uniform(size=m)
    signal = rng.uniform(size=m) < draw(st.floats(0.0, 1.0))
    p[signal] = gamma * rng.uniform(size=int(signal.sum())) ** draw(st.sampled_from([1, 3, 8]))
    decimals = draw(st.sampled_from([None, 2, 3, 5]))
    if decimals is not None:
        p = np.round(p, decimals)
    p[rng.uniform(size=m) < 0.01] = gamma
    return p, gamma


@settings(max_examples=300, deadline=None)
@given(family=bh_families())
def test_bh_over_candidates_matches_whole_family(family):
    p, gamma = family
    whole, whole_q = bh_fdr(p, gamma)
    candidates = np.flatnonzero(p <= gamma)
    rejected, q = bh_fdr(p[candidates], gamma, p.size)
    assert candidates[rejected].tolist() == whole.tolist()
    assert q[rejected].tobytes() == whole_q[whole].tobytes()


def _seeded_family(seed, m, gamma, signal, decimals=None):
    """A ``bh_families`` family drawn from fixed arguments."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(size=m)
    planted = rng.uniform(size=m) < signal
    p[planted] = gamma * rng.uniform(size=int(planted.sum())) ** 3
    if decimals is not None:
        p = np.round(p, decimals)
    p[rng.uniform(size=m) < 0.01] = gamma
    return p


@pytest.mark.parametrize("p,gamma", [
    pytest.param([0.01, 0.02, 0.04, 0.5], 0.05, id="worked-example"),
    pytest.param([0.05, 0.01, 0.05, 0.2, 0.01, 0.9, 0.05], 0.05, id="ties-at-gamma"),
    pytest.param([1.0, 1.0, 1.0], 0.05, id="all-ones"),
    pytest.param([0.3, 0.02, 0.6], 0.01, id="no-candidate"),
    pytest.param(_seeded_family(3, 3000, 0.05, 0.2), 0.05, id="signal"),
    pytest.param(_seeded_family(5, 1000, 0.2, 0.5, 2), 0.2, id="rounded"),
    pytest.param(_seeded_family(8, 500, 0.01, 0.0), 0.01, id="null"),
])
def test_bh_fdr_over_candidates_contract(p, gamma):
    p = np.asarray(p, dtype=float)
    whole, whole_q = bh_fdr(p, gamma)
    # every candidate (p <= gamma) and, coming along, every third other p-value
    given = np.flatnonzero((p <= gamma) | (np.arange(p.size) % 3 == 2))
    assert given.size < p.size
    rejected, q = bh_fdr(p[given], gamma, p.size)
    assert given[rejected].tolist() == whole.tolist()
    assert q[rejected].tobytes() == whole_q[whole].tobytes()
    kept = np.setdiff1d(np.arange(given.size), rejected)
    assert np.all(q[kept] >= whole_q[given[kept]])
    with pytest.raises(LengthMismatch):
        bh_fdr(p[given], gamma, given.size - 1)
    rejected, q = bh_fdr([], gamma, p.size)
    assert rejected.size == q.size == 0


@pytest.mark.parametrize("p,gamma,error", [
    ([0.01, -0.1], 0.05, InvalidP),
    ([0.01, np.nan], 0.05, InvalidP),
    ([np.inf], 0.05, InvalidP),
    ([0.01], 0.0, InvalidGamma),
    ([0.01], 1.0, InvalidGamma),
])
def test_bh_over_candidates_raises_bh_fdr_errors(p, gamma, error):
    with pytest.raises(error):
        bh_fdr(p, gamma)
    with pytest.raises(error):
        bh_fdr(p, gamma, 10)


def test_bh_over_candidates_needs_the_family_size():
    with pytest.raises(LengthMismatch):
        bh_fdr([0.01, 0.02], 0.05, 1)
    rejected, q = bh_fdr([], 0.05, 0)
    assert rejected.size == q.size == 0


class TestHomogeneityLrt:
    def test_exactly_homogeneous_construction(self):
        # stacking a block with its half-swapped copy makes the empirical
        # covariance block-swap invariant, so the constrained fit is exact
        rng = np.random.default_rng(33)
        base = rng.normal(size=(80, 4))
        samples_i = np.vstack([base[:, :2], base[:, 2:]])
        samples_j = np.vstack([base[:, 2:], base[:, :2]])
        out = pair_homogeneity(samples_i, samples_j)
        assert out.statistic == pytest.approx(0.0, abs=1e-8)
        assert out.p > 0.999999
        assert out.df == 4

    def test_null_calibration(self):
        params = simulation.K2Params(r=0.3, b=0.1, rho1=0.2, rho2=0.2)
        sigma = simulation.build_sigma(params)
        rejections = 0
        reps = 2000
        for rep in range(reps):
            draws = sample_mvn(sigma, 500, simulation.substream(7, rep))
            out = pair_homogeneity(draws[:, :2], draws[:, 2:])
            rejections += out.p < 0.05
        rate = rejections / reps
        assert abs(rate - 0.05) <= 0.02

    def test_detects_gross_heterogeneity(self):
        rng = simulation.substream(13, 0)
        cov_i = np.array([[1.0, 0.8], [0.8, 1.0]])
        cov_j = np.array([[1.0, -0.8], [-0.8, 1.0]])
        samples_i = sample_mvn(cov_i, 500, rng)
        samples_j = sample_mvn(cov_j, 500, simulation.substream(13, 1))
        out = pair_homogeneity(samples_i, samples_j)
        assert out.p < 0.01

    @staticmethod
    def full_form(cov, n):
        """The 2k-by-2k statistic n (log det M - log det C) with M assembled in full."""
        k = cov.shape[-1] // 2
        marginal = (cov[:, :k, :k] + cov[:, k:, k:]) / 2.0
        cross = (cov[:, :k, k:] + np.swapaxes(cov[:, :k, k:], 1, 2)) / 2.0
        model = np.block([[marginal, cross], [cross, marginal]])
        return np.maximum(0.0, n * (np.linalg.slogdet(model)[1] - np.linalg.slogdet(cov)[1]))

    @staticmethod
    def sample_covs(rng, k, m, n):
        mix = np.eye(2 * k) + 0.2 * rng.normal(size=(m, 2 * k, 2 * k))
        draws = rng.normal(size=(m, n, 2 * k)) @ mix
        centred = draws - draws.mean(axis=1, keepdims=True)
        return np.swapaxes(centred, 1, 2) @ centred / n

    @pytest.mark.parametrize("k,stat_rel", [(1, 1e-8), (2, 1e-12), (3, 1e-12)])
    def test_block_form_matches_full_form(self, k, stat_rel):
        rng = np.random.default_rng(40 + k)
        n = 50
        cov = self.sample_covs(rng, k, 500, n)
        test, singular = homogeneity_from_cov(cov, n)
        assert not singular.any()
        expected = self.full_form(cov, n)
        np.testing.assert_allclose(test.statistic, expected, rtol=stat_rel, atol=0)
        np.testing.assert_allclose(test.p, chi2_sf(expected, k * k), rtol=0, atol=1e-11)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_singular_mask_is_pd_mask(self, k):
        rng = np.random.default_rng(50 + k)
        random = self.sample_covs(rng, k, 300, 30)
        # too few samples, one column a combination of two others, a zero block, and
        # smallest eigenvalues from 1e-12 to 1e-8 of the largest, across the PD rule's bound
        short = self.sample_covs(rng, k, 50, 2 * k)
        combined = self.sample_covs(rng, k, 50, 30)
        combined[:, :, -1] = combined[:, :, 0] + combined[:, :, -2] if k > 1 else 0.0
        combined = np.swapaxes(combined, 1, 2) @ combined
        basis = np.linalg.qr(rng.normal(size=(200, 2 * k, 2 * k)))[0]
        values = rng.uniform(0.5, 2.0, size=(200, 2 * k))
        values[:, 0] = values.max(axis=1) * np.geomspace(1e-12, 1e-8, 200)
        edge = (basis * values[:, None, :]) @ np.swapaxes(basis, 1, 2)
        edge = (edge + np.swapaxes(edge, 1, 2)) / 2.0
        stacks = [random, short, combined, np.zeros((3, 2 * k, 2 * k)), edge]
        for cov in stacks:
            _, singular = homogeneity_from_cov(cov, 30)
            np.testing.assert_array_equal(singular, ~numkernel.pd_mask(numkernel.unit_diagonal(cov)))
        unit = numkernel.unit_diagonal(edge)
        assert (~numkernel.pd_mask(unit)).any() and numkernel.pd_mask(unit).any()

    @pytest.mark.parametrize("cross", [1.2 * np.eye(2), np.diag([1.2, 1.2, 0.5])])
    def test_negative_definite_schur_complement_is_singular(self, cross):
        # positive-definite blocks, but S = I - B'B has two negative eigenvalues, so its
        # determinant is positive and only its leading minors show that C is indefinite
        k = len(cross)
        cov = np.block([[np.eye(k), cross], [cross.T, np.eye(k)]])[None]
        assert not numkernel.pd_mask(cov).any()
        _, singular = homogeneity_from_cov(cov, 30)
        assert singular.tolist() == [True]

    @staticmethod
    def exact_det(a):
        """Determinant of a float matrix in exact rational arithmetic."""
        m = [[Fraction(float(v)) for v in row] for row in a]
        det = Fraction(1)
        for c in range(len(m)):
            pivot = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != c:
                m[c], m[pivot], det = m[pivot], m[c], -det
            det *= m[c][c]
            for r in range(c + 1, len(m)):
                f = m[r][c] / m[c][c]
                m[r][c:] = [x - f * y for x, y in zip(m[r][c:], m[c][c:])]
        return det

    @pytest.mark.parametrize("seed", [5, 6])
    def test_log_wilks_lambda_is_accurate_on_ill_conditioned_pairs(self, seed, monkeypatch):
        # each node's second attribute is its first plus noise 3e-2 down to 1e-3, and
        # node 1 is node 0 plus noise, so some pairs clear the determinant screen and
        # some reach the assembled fallback
        n_nodes, n, k = 30, 40, 2
        rng = np.random.default_rng(seed)
        first = rng.standard_normal((n_nodes, n))
        noise = np.resize([3e-2, 1e-2, 3e-3, 1e-3], n_nodes)[:, None]
        samples = np.stack([first, first + noise * rng.standard_normal((n_nodes, n))], axis=1)
        samples[1] = samples[0] + 0.3 * rng.standard_normal((k, n))
        centred = samples - samples.mean(axis=2, keepdims=True)
        i, j = np.triu_indices(n_nodes, 1)
        cov = np.einsum("van,vbn->vab", centred, centred) / n
        cross = np.einsum("pan,pbn->pab", centred[i], centred[j]) / n
        assembled = []
        unit_diagonal = numkernel.unit_diagonal

        def recording(a):
            if a.shape[-1] == 2 * k:
                assembled.extend(m.tobytes() for m in a)
            return unit_diagonal(a)

        monkeypatch.setattr(numkernel, "unit_diagonal", recording)
        facts = inference.covariance_block_facts(cov)
        _, singular, log_lambda = inference.homogeneity_test_from_blocks(
            [f[i] for f in facts], [f[j] for f in facts], cross, n)
        joint = np.block([[cov[i], cross], [np.swapaxes(cross, 1, 2), cov[j]]])
        assembled = set(assembled)
        fallback = np.array([m.tobytes() in assembled for m in joint])
        values = np.linalg.eigvalsh(unit_diagonal(joint))
        kappa = values[:, -1] / values[:, 0]
        ratio = np.full(len(joint), np.nan)
        for p in np.flatnonzero(~singular):
            exact = math.log(self.exact_det(joint[p]) / (self.exact_det(joint[p, :k, :k])
                                                         * self.exact_det(joint[p, k:, k:])))
            ratio[p] = abs(log_lambda[p] - exact) / (np.finfo(float).eps * kappa[p])
        assert (fallback & ~singular).any() and (~fallback & ~singular).any()
        assert np.all(ratio[~singular] <= 4.0)

    def test_insufficient_samples(self):
        # with n <= 2k samples the stacked covariance is singular, so no verdict
        assert pair_homogeneity(np.zeros((4, 2)), np.zeros((4, 2))) is None
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            draws = rng.normal(size=(n, 4))
            assert pair_homogeneity(draws[:, :2], draws[:, 2:]) is None
