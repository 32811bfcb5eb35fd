"""Hypothesis tests for edge detection and multiple-testing control.

Provides the variance-stabilized correlation test, the chi-squared test on
all canonical roots, tails for the maximum/minimum of two correlated test
statistics (the paper's approximation, or exact through Owen's T), a likelihood
ratio test for pair homogeneity, and Benjamini-Hochberg FDR control.
The test formulas work elementwise: arrays of statistics (stacks of
matrices) give arrays of results, scalars give floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import erfc, owens_t

from . import numkernel
from .errors import (
    DegenerateCorrelation,
    InsufficientSamples,
    InternalNumericalError,
    InvalidDf,
    InvalidGamma,
    InvalidP,
    LengthMismatch,
    NonFiniteInput,
    OutOfDomain,
)

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: degrees-of-freedom bookkeeping for the homogeneity likelihood ratio test:
#: k(k+1)/2 equalities between the marginal blocks plus k(k-1)/2 symmetry
#: constraints on the cross block
HOMOGENEITY_DF_FORMULA = "k(k+1)/2 + k(k-1)/2"

#: max/min tail p-values: the paper's analytic approximation or the exact bivariate-normal tail
PVALUE_MODES = ("formula", "exact")


def _float_or_array(value):
    """A 0-d result as a Python float; arrays pass through."""
    value = np.asarray(value)
    return float(value) if value.ndim == 0 else value


def normal_sf(c):
    """Standard normal upper-tail probability."""
    return _float_or_array(0.5 * erfc(np.asarray(c, dtype=float) / _SQRT2))


def normal_pdf(c):
    return _float_or_array(_INV_SQRT_2PI * np.exp(-0.5 * np.square(c)))


def chi2_sf(x, df: int):
    """Chi-squared upper-tail probability, in closed form for the integer df.

    With h = x/2 and df = 2m (+1), the tail is e^-h sum_{j<m} h^j / j! for even
    df and erfc(sqrt h) + e^-h sum_{j=1..m} h^(j-1/2) / Gamma(j+1/2) for odd df,
    each sum taken by Horner's rule.  e^-h enters as two factors e^(-h/2), so no
    intermediate underflows while the tail is a normal double; once e^(-h/2)
    underflows (x > ~2980) the series term is 0, as is the tail for df below ~600.
    """
    if int(df) != df or df < 1:
        raise InvalidDf(f"degrees of freedom must be a positive integer, got {df}")
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise NonFiniteInput("chi-squared statistic is NaN")
    h = np.maximum(x, 0.0) / 2.0
    m, odd = divmod(int(df), 2)
    value = erfc(np.sqrt(h)) if odd else 0.0
    if m:
        half = np.exp(-h / 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            series = 1.0
            for j in range(m - 1, 0, -1):
                series = series * h / (j + 0.5 * odd) + 1.0
            tail = half * (half * series * (2.0 * np.sqrt(h / math.pi) if odd else 1.0))
        if not half.all():
            tail = np.where(half > 0.0, tail, 0.0)
        value = value + tail
    return _float_or_array(value)


def fisher_z(rho_hat, n: int):
    """Variance-stabilized z statistic for a sample correlation.

    Equals sqrt(n-3)/2 * ln((1+rho)/(1-rho)); computed through atanh so the
    statistic is exactly antisymmetric in the correlation.
    """
    rho_hat = np.asarray(rho_hat, dtype=float)
    if not np.all(np.isfinite(rho_hat)):
        raise NonFiniteInput("correlation is not finite")
    if np.any(np.abs(rho_hat) >= 1.0):
        raise DegenerateCorrelation(f"|rho|={np.max(np.abs(rho_hat))} leaves no finite statistic")
    _require_fisher_n(n)
    return _float_or_array(math.sqrt(n - 3) * np.arctanh(rho_hat))


def _require_fisher_n(n: int) -> None:
    """Raise unless n samples suffice for the Fisher z statistic (n >= 4)."""
    if n < 4:
        raise InsufficientSamples(f"need at least 4 samples, got {n}")


def correlation_test(r, n: int, *, two_sided: bool = True):
    """Test of sample correlations r at n samples: (z, p), with z the Fisher
    statistic and p its normal tail, both tails or the upper one."""
    z = fisher_z(r, n)
    p = 2.0 * normal_sf(np.abs(z)) if two_sided else normal_sf(z)
    return z, p


@dataclass(frozen=True)
class ChiSquaredTest:
    """A chi-squared test: its statistic (one value, or one per pair), degrees of
    freedom and upper-tail p-value."""

    statistic: float
    df: int
    p: float


def _bartlett_from_log_lambda(log_lambda, n: int, k: int) -> ChiSquaredTest:
    """Bartlett's test of k canonical roots from log Wilks' Lambda, the sum of
    log(1 - root^2) (or a stack of them): the statistic -[(n-1) - (k+0.5)] log Lambda
    on k^2 degrees of freedom."""
    _require_bartlett_n(n, k)
    statistic = _float_or_array(-((n - 1) - (k + 0.5)) * np.asarray(log_lambda))
    if np.any(np.isnan(statistic)):
        raise InternalNumericalError("Bartlett statistic is NaN")
    return ChiSquaredTest(statistic=statistic, df=k * k, p=chi2_sf(statistic, k * k))


def _require_bartlett_n(n: int, k: int) -> None:
    """Raise unless n samples suffice for Bartlett's test on k canonical roots."""
    if n <= 2 * k + 2 or n - 1 < k * (2 * k - 1):
        raise InsufficientSamples(
            f"n={n} too small for k={k}: need n > {2 * k + 2} and n-1 >= {k * (2 * k - 1)}"
        )


def _one_sided_tail(c, arc, mode: str, exact: bool):
    """P(max(Z1, Z2) > c) or P(min(Z1, Z2) > c) for two standard normals whose
    correlation is cos(arc): the normal tail at c plus (max) or minus (min) a
    correction term.

    The printed correction is an approximation of uncertain accuracy at low
    correlation (``w_formula_calibration_table`` records it).  With ``exact`` the
    term is 2 T(c, tan(arc/2)), Owen's T, and the tail is exact (Owen 1956,
    Ann. Math. Stat. 27).  Output is clamped to [0, 1].
    """
    c = np.asarray(c, dtype=float)
    if exact:
        correction = 2.0 * owens_t(c, np.tan(arc / 2.0))
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            correction = normal_pdf(c) * (normal_pdf(c * arc / 2.0) - 0.5) / (c / 2.0)
    if mode == "max":
        value = normal_sf(c) + correction
    else:
        value = normal_sf(c) - correction
    if not exact:
        # the printed correction term diverges at zero; the clamp takes over
        value = np.where(c == 0.0, 0.0 if mode == "max" else 1.0, value)
    return np.clip(value, 0.0, 1.0)


def _check_extreme_inputs(z1, z2, rho_z, mode: str):
    if mode not in ("max", "min"):
        raise OutOfDomain(f"mode must be 'max' or 'min', got {mode!r}")
    if not (np.all(np.isfinite(z1)) and np.all(np.isfinite(z2)) and np.all(np.isfinite(rho_z))):
        raise NonFiniteInput("z statistics and their correlation must be finite")
    if np.any(np.abs(rho_z) > 1.0 + 1e-12):
        raise NonFiniteInput(f"correlation of z statistics outside [-1, 1]: {rho_z}")
    return np.clip(rho_z, -1.0, 1.0)


def extreme_corr_pvalue(z1, z2, rho_z, mode: str, *, two_sided: bool = False,
                        exact: bool = False):
    """Tail probability for max(z1, z2) or min(z1, z2), or with ``two_sided`` for the
    extreme of |z1| and |z2|, where the two statistics have correlation ``rho_z``
    (one value, or one per pair).

    The one-sided tail is the analytic approximation, or with ``exact`` the exact
    bivariate-normal tail.  The two-sided form comes from the one-sided one by
    quadrant decomposition: for the max,
    P(max|Z| > c) = 2 P(max Z > c) - 2 P(Z1 > c, Z2 < -c); for the min,
    P(min|Z| > c) sums the two same-sign and two opposite-sign quadrants, and the
    opposite-sign quadrants reuse the one-sided form at the negated correlation.
    """
    rho_z = _check_extreme_inputs(z1, z2, rho_z, mode)
    if two_sided:
        z1, z2 = np.abs(z1), np.abs(z2)
    c = np.maximum(z1, z2) if mode == "max" else np.minimum(z1, z2)
    value = _one_sided_tail(c, np.arccos(rho_z), mode, exact)
    if two_sided:
        opposite = 2.0 * _one_sided_tail(c, np.arccos(-rho_z), "min", exact)
        value = np.clip(2.0 * value - opposite if mode == "max" else 2.0 * value + opposite,
                        0.0, 1.0)
    return _float_or_array(value)


def w_formula_calibration_table(rho_values=(0.0, 0.3, 0.6), c_values=(1.5, 2.0, 2.5),
                                draws: int = 1_000_000, seed: int = 1905):
    """Analytic tail approximations next to Monte Carlo estimates.

    Returns one row per (mode, rho_z, c): the formula output, the share of a
    fixed panel of ``draws`` correlated standard-normal pairs whose extreme
    exceeds c, and its standard error.  This is the record of the
    approximation's accuracy; nothing recalibrates the formula itself.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    u1 = rng.standard_normal(draws)
    u2 = rng.standard_normal(draws)
    rows = []
    for mode in ("max", "min"):
        for rho_z in rho_values:
            z2 = rho_z * u1 + math.sqrt(1.0 - rho_z * rho_z) * u2
            extreme = np.maximum(u1, z2) if mode == "max" else np.minimum(u1, z2)
            for c in c_values:
                mc = np.count_nonzero(extreme > c) / draws
                formula = extreme_corr_pvalue(c, c, rho_z, mode)
                se = math.sqrt(max(mc * (1.0 - mc), 1.0 / draws) / draws)
                rows.append(
                    {"mode": mode, "rho_z": rho_z, "c": c, "formula": formula,
                     "montecarlo": mc, "mc_se": se, "deviation": formula - mc}
                )
    return rows


def fisher_z_correlation(sigma_ii, sigma_jj, sigma_ij):
    """Asymptotic correlation of the two per-attribute z statistics (k = 2).

    Delta-method expression for the covariance of two sample correlations
    with no shared variables, divided by the product of their asymptotic
    standard deviations; all entries are plug-in estimates.
    """
    sigma_ii = np.asarray(sigma_ii, dtype=float)
    sigma_jj = np.asarray(sigma_jj, dtype=float)
    sigma_ij = np.asarray(sigma_ij, dtype=float)
    if any(s.shape[-2:] != (2, 2) for s in (sigma_ii, sigma_jj, sigma_ij)):
        raise LengthMismatch("z-statistic correlation is defined for 2 attributes")
    r_ab = sigma_ij[..., 0, 0]
    r_cd = sigma_ij[..., 1, 1]
    r_ac = sigma_ii[..., 0, 1]
    r_bd = sigma_jj[..., 0, 1]
    r_ad = sigma_ij[..., 0, 1]
    r_bc = sigma_ij[..., 1, 0]
    cov = (
        0.5 * r_ab * r_cd * (r_ac**2 + r_ad**2 + r_bc**2 + r_bd**2)
        + r_ac * r_bd
        + r_ad * r_bc
        - r_ab * (r_ac * r_ad + r_bc * r_bd)
        - r_cd * (r_ac * r_bc + r_ad * r_bd)
    )
    denom = (1.0 - r_ab**2) * (1.0 - r_cd**2)
    if np.any(denom <= 0.0):
        raise DegenerateCorrelation("a per-attribute correlation has magnitude 1")
    return _float_or_array(np.clip(cov / denom, -1.0, 1.0))


def bh_fdr(pvalues: Sequence[float], gamma: float, m: int | None = None):
    """Benjamini-Hochberg step-up rule at level gamma over a family of m p-values
    (``len(pvalues)`` by default), with monotone adjusted q-values.

    Returns (rejected, q): the indices into ``pvalues`` of the rejected, ascending,
    and the q-value of every given p-value.  The rejected are the r smallest p-values,
    r the largest rank i with p_(i) <= i gamma / m, ties ordered by index; and
    q_(i) = min_{j >= i} m p_(j) / j, clamped to 1.

    With a larger m the given p-values must include every p-value <= gamma of the
    family, in family order (any others may come along).  The rejected and their
    q-values then equal those of the whole family: the cutoff rank i has
    p_(i) <= i gamma / m <= gamma, so it is given, and so are all smaller p-values,
    at their family ranks; and a rejected p-value has q <= gamma, which no term
    m p_(j) / j with p_(j) > gamma can attain.  A given p-value that is not rejected
    may take a larger q-value than in the whole family, never a smaller one.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.size and (np.any(~np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0)):
        bad = int(np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))[0])
        raise InvalidP(f"p-value at index {bad} outside [0, 1]: {p[bad]}")
    if not (0.0 < gamma < 1.0):
        raise InvalidGamma(f"FDR level must lie in (0, 1), got {gamma}")
    m = p.size if m is None else m
    if m < p.size:
        raise LengthMismatch(f"{p.size} p-values from a family of {m}")
    order = np.lexsort((np.arange(p.size), p))
    sorted_p = p[order]
    ranks = np.arange(1, p.size + 1)
    passed = np.flatnonzero(sorted_p <= ranks * gamma / m)
    cutoff = int(passed[-1]) + 1 if passed.size else 0
    q = np.empty(p.size)
    q[order] = np.minimum(np.minimum.accumulate((m * sorted_p / ranks)[::-1])[::-1], 1.0)
    return np.sort(order[:cutoff]), q


def covariance_block_facts(cov):
    """What the homogeneity test needs of each k-by-k covariance block of a stack
    (m, k, k), computed once per node: (blocks, inverses, log determinants, verdict
    of the PD rule on the block scaled to unit diagonal, sum of the logs of the
    diagonal).  Inverse and log determinant are 0 where the rule fails."""
    pd = numkernel.pd_mask(numkernel.unit_diagonal(cov))
    inverse = np.zeros_like(cov)
    logdet = np.zeros(cov.shape[0])
    inverse[pd] = np.linalg.inv(cov[pd])
    logdet[pd] = np.linalg.slogdet(cov[pd])[1]
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero block fails the PD rule
        log_diagonal = np.log(np.diagonal(cov, axis1=-2, axis2=-1)).sum(axis=-1)
    return cov, inverse, logdet, pd, log_diagonal


def homogeneity_test_from_blocks(facts_i, facts_j, cross, n: int):
    """Closed-form homogeneity likelihood ratio test of a stack of pairs, given
    ``covariance_block_facts`` of each pair's two marginal blocks C_ii, C_jj and
    the cross blocks C_ij (m, k, k) of their maximum-likelihood covariance C.

    The test compares equal marginal blocks and a symmetric cross block against an
    unconstrained Gaussian fit.  Under block-swap invariance the MLE is the group
    average M of C and its block swap, positive-definite whenever C is; since
    tr(M^-1 C) = 2k the statistic is n (log det M - log det C), with
    log det C = log det C_ii + log det S, S = C_jj - C_ij' C_ii^-1 C_ij, and
    log det M = log det(A + B) + log det(A - B), A = (C_ii + C_jj)/2,
    B = (C_ij + C_ij')/2.  Returns the test over the non-singular pairs, the mask of
    singular ones, which get no verdict, and log Wilks' Lambda, the sum of
    log(1 - root^2), as log det S - log det C_jj for every non-singular pair (NaN for
    the singular).

    C is singular when C scaled to unit diagonal, R = D^-1/2 C D^-1/2 with D the
    diagonal of C, fails ``numkernel.pd_mask``'s rule, so the verdict does not
    depend on attribute units.  ``numkernel.schur_logdet`` gives the verdict and
    log det S of every pair.
    """
    c_ii, inv_ii, logdet_ii, pd_i, log_diagonal_i = facts_i
    c_jj, _, logdet_jj, pd_j, log_diagonal_j = facts_j
    k = cross.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero stack fails the PD rule
        logdet_schur, pd = numkernel.schur_logdet(c_ii, pd_i & pd_j, inv_ii, logdet_ii, c_jj,
                                                  cross, log_diagonal_i + log_diagonal_j)
    logdet_free = logdet_ii + logdet_schur
    log_lambda = np.where(pd, logdet_schur - logdet_jj, np.nan)
    marginal = (c_ii + c_jj) / 2.0
    sym = (cross + np.swapaxes(cross, -1, -2)) / 2.0
    logdet_model = numkernel.slogdet(marginal + sym)[1] + numkernel.slogdet(marginal - sym)[1]
    statistic = np.maximum(0.0, n * (logdet_model[pd] - logdet_free[pd]))
    df = k * (k + 1) // 2 + k * (k - 1) // 2
    test = ChiSquaredTest(statistic=statistic, df=df, p=chi2_sf(statistic, df))
    return test, ~pd, log_lambda
