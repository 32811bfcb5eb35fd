"""Structured-covariance sampling and the five-scenario edge-detection power study.

Five tests of a single planted edge are compared over a grid of
two-attribute correlation structures: each attribute's correlation alone,
max and min aggregation of the two, and canonical correlation.  Each grid
point draws its replicates in order from one counter-based generator keyed by
(seed, grid point), so grid points are independent of each other and results
are bit-reproducible regardless of the order points run in.  Replicates are
drawn, stacked and tested in chunks, each drawn by one generator call; since
the chunks consume the point's stream in order, results do not depend on the
chunk size.  Each replicate's correlation matrix comes from one pass over its
standard-normal draws, their column sums and Gram matrix, so the draws are a
chunk's only array that grows with n, and a chunk's draw rows are capped.
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

#: draw rows (n per replicate, 4 doubles each) per batched step, at most: 2 MiB
CHUNK_DRAW_ROWS = 2**16

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


def _resolve_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def substream(seed: int, *key) -> np.random.Generator:
    """Independent generator keyed by (seed, *key); order-independent by construction.

    The key words go to SeedSequence as given, so a negative or non-integer one is
    rejected there rather than truncated.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *key])))


def _grid_point_normals(seed: int, point: int, reps: int, n: int):
    """Standard normals of grid point ``point``'s replicates 0..reps-1, yielded in
    chunks, each a stack (count, n, 4).

    Replicate r is row r of ``substream(seed, point).standard_normal((reps, n, 4))``.
    The chunks consume that one stream in order, so the draws depend neither on the
    chunk size nor, for the first replicates, on ``reps``.  A chunk holds at most
    REPLICATE_CHUNK replicates and CHUNK_DRAW_ROWS rows of n draws, but at least one
    replicate.
    """
    generator = substream(seed, point)
    step = max(1, min(REPLICATE_CHUNK, CHUNK_DRAW_ROWS // n))
    for start in range(0, reps, step):
        yield generator.standard_normal((min(step, reps - start), n, 4))


def sample_mvn(sigma, n: int, seed) -> np.ndarray:
    """n draws from a centered multivariate normal with the given SPD covariance."""
    sigma = numkernel.require_symmetric(sigma, tol=1e-10)
    if n < 1:
        raise InsufficientSamples(f"need at least 1 draw, got {n}")
    lower = numkernel.cholesky(sigma)
    rng = _resolve_rng(seed)
    z = rng.standard_normal((n, sigma.shape[0]))
    return z @ lower.T


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


def _replicate_correlations(normals: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Sample correlation matrix of each replicate's draws X = Z L' from its standard
    normals Z, a stack (m, n, 4), without forming X.

    One pass over Z gives each replicate's column sums s and Gram Z'Z; X's centred
    cross products are then L (Z'Z - s s'/n) L', a 4-by-4 product per replicate,
    scaled as ``numkernel.corr_matrices`` scales them.  Centring after summing
    loses relative accuracy in proportion to mean^2 / variance of each column
    (Chan, Golub and LeVeque 1983), about 1/n for standard-normal draws, so the
    result agrees with the two-pass ``corr_matrices(Z @ L.T)`` to rounding.
    """
    n = normals.shape[1]
    sums = np.einsum("mni->mi", normals)
    centred = np.swapaxes(normals, 1, 2) @ normals - sums[:, :, None] * sums[:, None, :] / n
    return numkernel.corr_from_cross(lower @ centred @ lower.T)


def _replicate_statistics(spec: PowerStudySpec, lower: np.ndarray, normals: np.ndarray):
    """z1 and z2 of a chunk of replicates drawn as X = Z L' from their standard normals
    Z, the p-values of scenarios 1 and 2, then scenario 5's Bartlett p-values if it is
    requested."""
    joint = _replicate_correlations(normals, lower)
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
    lower = numkernel.cholesky(build_sigma(spec.params(r, b)))
    chunks = [_replicate_statistics(spec, lower, normals)
              for normals in _grid_point_normals(spec.seed, grid_index, spec.reps, spec.n)]
    z1, z2, *columns = (np.concatenate(parts) for parts in zip(*chunks))
    pvalues = dict(zip((1, 2, 5), columns))
    extremes = [(s, mode) for s, mode in ((3, "max"), (4, "min")) if s in spec.scenarios]
    if extremes:  # only the max/min scenarios read rho_z
        rho_z = min(1.0, max(-1.0, float(np.corrcoef(z1, z2)[0, 1])))
        sampler = None
        if spec.pvalue_mode == "montecarlo":
            sampler = inference.ExtremeTailSampler(seed=spec.seed * 1_000_003 + grid_index)
        for scenario, mode in extremes:
            pvalues[scenario] = inference.extreme_corr_pvalue(
                z1, z2, rho_z, mode, two_sided=not spec.one_sided, sampler=sampler)
    return [int(np.sum(pvalues[scenario] < spec.alpha)) for scenario in spec.scenarios]


def power_study(spec: PowerStudySpec) -> PowerResult:
    """Rejection count of each scenario at every grid point."""
    return PowerResult(spec, np.array([_grid_point_rejections(spec, grid_index, r, b)
                                       for grid_index, (r, b) in enumerate(spec.grid)],
                                      dtype=np.int64))
