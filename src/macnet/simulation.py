"""Structured covariances and the five-scenario edge-detection power study.

Five tests of a single planted edge are compared over a grid of
two-attribute correlation structures: each attribute's correlation alone,
max and min aggregation of the two, and canonical correlation.  Every test
reads only a replicate's 4x4 sample correlation matrix, so no replicate's data
is drawn: for n Gaussian draws the centred scatter matrix is Wishart(n - 1,
Sigma), and each replicate draws its Bartlett factor instead, six normals and
four chi-squared variates whatever n is.  Each grid point draws its factors in
order from two counter-based generators keyed by (seed, grid point), so grid
points are independent of each other and results are bit-reproducible
regardless of the order points run in.  Replicates are drawn, stacked and
tested in chunks, one call per generator each; since the chunks consume the
streams in order, results do not depend on the chunk size, and no array grows
with n.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from . import inference, numkernel
from .errors import InsufficientSamples, NotPositiveDefinite, OutOfDomain, UsageError
from .similarity import K2Params

SCENARIOS = (1, 2, 3, 4, 5)

#: replicates drawn and tested per batched step, at most
REPLICATE_CHUNK = 1024

SLICES = {
    "b=0.2r": lambda t: (t, 0.2 * t),
    "r=0.2b": lambda t: (0.2 * t, t),
}


def build_sigma(p: K2Params) -> np.ndarray:
    """4x4 joint correlation matrix [[S_m, S_c], [S_c, S_m]] for a valid parameterization."""
    if not p.valid():
        raise OutOfDomain(
            f"(r={p.r}, b={p.b}, rho1={p.rho1}, rho2={p.rho2}) is outside the "
            f"positive-definite domain"
        )
    sigma = np.block([[p.sigma_m, p.sigma_c], [p.sigma_c, p.sigma_m]])
    return sigma


def substream(seed: int, *key) -> np.random.Generator:
    """Independent generator keyed by (seed, *key); order-independent by construction.

    The key words go to SeedSequence as given, so a negative or non-integer one is
    rejected there rather than truncated.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *key])))


def _grid_point_factors(seed: int, point: int, reps: int, n: int):
    """Bartlett factors of grid point ``point``'s replicates 0..reps-1, yielded in
    chunks of at most REPLICATE_CHUNK, each a stack (count, 4, 4).

    Replicate r's factor T is lower triangular.  Its entries below the diagonal are
    row r of ``substream(seed, point, 0).standard_normal((reps, 6))``, in
    ``np.tril_indices(4, -1)`` order, and T[i, i] is the root of twice entry (r, i) of
    ``substream(seed, point, 1).standard_gamma((n - 1 - arange(4)) / 2, (reps, 4))``,
    a chi-squared variate on n - 1 - i degrees of freedom.  T T' is then distributed
    as the centred scatter matrix of n standard-normal draws, Wishart(n - 1, I)
    (Bartlett 1933); at n = 4 the last shape is 0, T[3, 3] = 0 and T T' has rank 3.
    Each chunk is one call per stream and consumes it in order, so the factors
    depend neither on the chunk size nor, for the first replicates, on ``reps``.
    """
    normals, gammas = substream(seed, point, 0), substream(seed, point, 1)
    shapes = (n - 1 - np.arange(4)) / 2.0
    rows, cols = np.tril_indices(4, -1)
    diag = np.arange(4)
    for start in range(0, reps, REPLICATE_CHUNK):
        count = min(REPLICATE_CHUNK, reps - start)
        factors = np.zeros((count, 4, 4))
        factors[:, rows, cols] = normals.standard_normal((count, 6))
        factors[:, diag, diag] = np.sqrt(2.0 * gammas.standard_gamma(shapes, (count, 4)))
        yield factors


def slice_grid(name: str, values) -> tuple:
    """(r, b) points along a named slice, e.g. 'b=0.2r' sweeps r."""
    if name not in SLICES:
        raise UsageError(f"unknown slice {name!r}; choose from {sorted(SLICES)}")
    return tuple(SLICES[name](float(t)) for t in values)


@dataclass(frozen=True, eq=False)
class PowerStudySpec:
    """Configuration for the power sweep."""

    grid: tuple
    rho1: float = 0.3
    rho2: float = 0.1
    n: int = 50
    reps: int = 1000
    alpha: float = 0.05
    seed: int = 0
    scenarios: tuple = SCENARIOS
    one_sided: bool = True
    pvalue_mode: str = "formula"

    def __post_init__(self):
        if not self.grid:
            raise OutOfDomain("empty simulation grid")
        for name, kind, what in (("seed", Integral, "an integer"), ("reps", Integral, "an integer"),
                                 ("n", Integral, "an integer"), ("rho1", Real, "a real number"),
                                 ("rho2", Real, "a real number"), ("alpha", Real, "a real number")):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise OutOfDomain(f"{name} must be {what}, got {value!r}")
        if not isinstance(self.one_sided, (bool, np.bool_)):
            raise OutOfDomain(f"one_sided must be a bool, got {self.one_sided!r}")
        if self.reps < 1:
            raise OutOfDomain(f"reps must be positive, got {self.reps}")
        if self.n > np.iinfo(np.int64).max:
            # the chi-squared shapes of the Bartlett factor are drawn from int64 degrees of freedom
            raise OutOfDomain(f"n must be at most 2**63 - 1, got {self.n}")
        if self.seed < 0:
            raise OutOfDomain(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (0.0 < self.alpha < 1.0):
            raise OutOfDomain(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.pvalue_mode not in inference.PVALUE_MODES:
            raise UsageError(f"pvalue_mode must be one of {inference.PVALUE_MODES}, got {self.pvalue_mode!r}")
        if any(not isinstance(s, Integral) or isinstance(s, bool) for s in self.scenarios):
            raise OutOfDomain(f"scenarios must be integers, got {tuple(self.scenarios)!r}")
        scenarios = tuple(int(s) for s in self.scenarios)
        if not scenarios or len(set(scenarios)) < len(scenarios) or any(
                s not in SCENARIOS for s in scenarios):
            raise OutOfDomain(f"scenarios must be distinct values drawn from {SCENARIOS}, "
                              f"got {scenarios}")
        inference._require_fisher_n(self.n)
        if self.reps < 3 and (3 in scenarios or 4 in scenarios):
            # the max/min scenarios estimate rho_z from the replicates' (z1, z2)
            raise InsufficientSamples(f"scenarios 3-4 need at least 3 replicates, got {self.reps}")
        if 5 in scenarios:
            try:
                inference._require_bartlett_n(self.n, 2)
            except InsufficientSamples as exc:
                raise InsufficientSamples(f"scenario 5 (Bartlett's test): {exc}") from None
        grid = tuple((float(r), float(b)) for r, b in self.grid)
        for r, b in grid:
            if not self.params(r, b).valid():
                raise OutOfDomain(f"grid point (r={r}, b={b}) is outside the valid domain")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "scenarios", scenarios)
        for name in ("seed", "reps", "n"):
            object.__setattr__(self, name, int(getattr(self, name)))

    def params(self, r: float, b: float) -> K2Params:
        return K2Params(r=r, b=b, rho1=self.rho1, rho2=self.rho2)


@dataclass(frozen=True, eq=False)
class PowerResult:
    """Rejection counts of a power study: ``rejections[g, s]`` of ``spec.reps``
    replicates at grid point ``spec.grid[g]`` under scenario ``spec.scenarios[s]``."""

    spec: PowerStudySpec
    rejections: np.ndarray

    @property
    def power(self) -> np.ndarray:
        return self.rejections / self.spec.reps

    @property
    def mc_se(self) -> np.ndarray:
        """Monte Carlo standard error of each power estimate."""
        power = self.power
        return np.sqrt(power * (1.0 - power) / self.spec.reps)


def _log_wilks_lambda(joint: np.ndarray) -> np.ndarray:
    """log Wilks' Lambda = log det R - log det R11 - log det R22, the sum of
    log(1 - root^2) over the canonical roots, of each correlation matrix R of a
    stack (m, 4, 4) with 2-by-2 blocks R11, R12, R22.

    Since det R = det R11 det S with S = R22 - R12' R11^-1 R12, it is
    log det S - log det R22, with log det S and the PD verdict from
    ``numkernel.schur_logdet``.  Raises ``NotPositiveDefinite`` if an R fails
    ``numkernel.pd_mask``'s rule.
    """
    r11, r12, r22 = joint[:, :2, :2], joint[:, :2, 2:], joint[:, 2:, 2:]
    sign11, logdet11 = numkernel.slogdet(r11)
    # a unit-diagonal 2-by-2 block with a positive determinant is positive-definite
    logdet_schur, pd = numkernel.schur_logdet(r11, sign11 > 0.0, numkernel.inv_2x2(r11),
                                              logdet11, r22, r12)
    if not np.all(pd):
        raise NotPositiveDefinite("joint correlation matrix is not positive-definite")
    return logdet_schur - numkernel.slogdet(r22)[1]


def _replicate_correlations(factors: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Sample correlation matrix of each replicate from its Bartlett factor T, a stack
    (m, 4, 4): X = L T gives X X' = L T T' L', distributed as the centred cross
    products of n draws from N(0, L L'), scaled as for sampled data."""
    x = lower @ factors
    return numkernel.corr_from_cross(x @ np.swapaxes(x, 1, 2))


def _replicate_statistics(spec: PowerStudySpec, lower: np.ndarray, factors: np.ndarray):
    """z1 and z2 of a chunk of replicates from their Bartlett factors, the p-values of
    scenarios 1 and 2, then scenario 5's Bartlett p-values if it is requested."""
    joint = _replicate_correlations(factors, lower)
    two_sided = not spec.one_sided
    z1, p1 = inference.correlation_test(joint[:, 0, 2], spec.n, two_sided=two_sided)
    z2, p2 = inference.correlation_test(joint[:, 1, 3], spec.n, two_sided=two_sided)
    if 5 not in spec.scenarios:
        return z1, z2, p1, p2
    # unrestricted block estimates: the k^2-df chi-squared reference assumes a
    # freely estimated cross block even though the generator is homogeneous
    # (the chi-squared test is upper-tailed in both settings)
    bartlett = inference._bartlett_from_log_lambda(_log_wilks_lambda(joint), spec.n, 2)
    return z1, z2, p1, p2, bartlett.p


def _grid_point_rejections(spec: PowerStudySpec, grid_index: int, r: float, b: float) -> list:
    """Rejection count of each scenario at one grid point, in ``spec.scenarios`` order."""
    sigma = build_sigma(spec.params(r, b))
    try:
        lower = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        # a point that passes K2Params.valid() a few ulps inside the domain boundary
        raise NotPositiveDefinite(
            f"grid point {grid_index} (r={r}, b={b}): the joint correlation matrix has no "
            f"Cholesky factor") from None
    chunks = [_replicate_statistics(spec, lower, factors)
              for factors in _grid_point_factors(spec.seed, grid_index, spec.reps, spec.n)]
    z1, z2, *columns = (np.concatenate(parts) for parts in zip(*chunks))
    pvalues = dict(zip((1, 2, 5), columns))
    extremes = [(s, mode) for s, mode in ((3, "max"), (4, "min")) if s in spec.scenarios]
    if extremes:  # only the max/min scenarios read rho_z
        rho_z = min(1.0, max(-1.0, float(np.corrcoef(z1, z2)[0, 1])))
        for scenario, mode in extremes:
            pvalues[scenario] = inference.extreme_corr_pvalue(
                z1, z2, rho_z, mode, two_sided=not spec.one_sided,
                exact=spec.pvalue_mode == "exact")
    return [int(np.sum(pvalues[scenario] < spec.alpha)) for scenario in spec.scenarios]


def power_study(spec: PowerStudySpec) -> PowerResult:
    """Rejection count of each scenario at every grid point."""
    return PowerResult(spec, np.array([_grid_point_rejections(spec, grid_index, r, b)
                                       for grid_index, (r, b) in enumerate(spec.grid)],
                                      dtype=np.int64))
