"""Structured-covariance sampling and the five-scenario edge-detection power study.

Five tests of a single planted edge are compared over a grid of
two-attribute correlation structures: each attribute's correlation alone,
max and min aggregation of the two, and canonical correlation.  Replicates
draw from a counter-based generator keyed per (seed, grid point,
replicate), so results are bit-reproducible regardless of execution order.
Replicates are drawn, stacked and tested in chunks: a chunk derives all its
generator keys in one array pass and replays each replicate's stream on one
reused generator.  Each replicate's correlation matrix comes from one pass over
its standard-normal draws, their column sums and Gram matrix, so the draws are
a chunk's only array that grows with n.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from . import inference, numkernel
from .errors import InsufficientSamples, NotPositiveDefinite, OutOfDomain, UsageError
from .similarity import K2Params

SCENARIOS = (1, 2, 3, 4, 5)

#: replicates drawn and tested per batched step
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


def _resolve_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def substream(seed: int, *key) -> np.random.Generator:
    """Independent generator keyed by (seed, *key); order-independent by construction."""
    entropy = [int(seed)] + [int(k) for k in key]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _seed_words(value) -> list:
    """``value`` as SeedSequence splits it: little-endian 32-bit words, at least one."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = []
    while True:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        if not value:
            return words


def _pooled_keys(entropy: list) -> np.ndarray:
    """Philox keys that SeedSequence derives from entropy words, one row per array element.

    ``entropy`` holds equal-length uint32 arrays, one per entropy word.  This is
    numpy's ``mix_entropy`` into a 4-word pool followed by
    ``generate_state(2, np.uint64)``, in wrapping uint32 arithmetic; the
    constants are numpy's INIT_A, MULT_A, MIX_MULT_L, MIX_MULT_R, INIT_B and MULT_B.
    """
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * 0x931E8875 & 0xFFFFFFFF
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = 0xCA01F9DD * x - 0x4973F715 * y
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = 0x8B51F9DD
    state = np.empty((zero.size, 4), dtype=np.uint32)
    for i in range(4):
        value = pool[i] ^ hash_const
        hash_const = hash_const * 0x58F38DED & 0xFFFFFFFF
        value = value * hash_const
        state[:, i] = value ^ (value >> 16)
    # numpy reads word pairs little-endian whatever the platform's byte order
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _substream_keys(seed: int, point: int, reps) -> np.ndarray:
    """Philox keys of ``substream(seed, point, rep)`` for each rep, shape (len(reps), 2).

    Row i equals ``np.random.SeedSequence([seed, point, reps[i]]).generate_state(2,
    np.uint64)``, computed for all reps at once.  Like SeedSequence, it rejects
    negative values (ValueError) and non-integers (TypeError).
    """
    prefix = _seed_words(seed) + _seed_words(point)
    reps = np.asarray(reps, dtype=np.int64)
    if np.any(reps < 0):
        raise ValueError("expected non-negative integer")
    low = (reps & 0xFFFFFFFF).astype(np.uint32)
    high = (reps >> 32).astype(np.uint32)
    keys = np.empty((reps.size, 2), dtype=np.uint64)
    # a rep below 2**32 is one entropy word, a larger one two
    for rows, rep_words in ((high == 0, (low,)), (high > 0, (low, high))):
        if rows.any():
            count = int(rows.sum())
            words = [np.full(count, w, dtype=np.uint32) for w in prefix]
            keys[rows] = _pooled_keys(words + [w[rows] for w in rep_words])
    return keys


def _replicate_normals(seed: int, point: int, reps, n: int) -> np.ndarray:
    """(len(reps), n, 4) standard normals; row i equals
    ``substream(seed, point, reps[i]).standard_normal((n, 4))``.

    Philox is counter-based, so a fresh generator's stream depends only on its
    key: one generator, reset to counter 0 with an empty buffer and each
    replicate's key in turn, replays every replicate's stream.
    """
    bit_generator = np.random.Philox(key=0)
    generator = np.random.Generator(bit_generator)
    fresh = bit_generator.state  # counter 0, empty buffer
    normals = np.empty((len(reps), n, 4))
    for key, out in zip(_substream_keys(seed, point, reps), normals):
        fresh["state"]["key"] = key
        bit_generator.state = fresh
        generator.standard_normal((n, 4), out=out)
    return normals


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


def _replicate_statistics(spec: PowerStudySpec, grid_index: int, lower: np.ndarray, reps):
    """z1 and z2 of the replicates ``reps`` of one grid point, the p-values of
    scenarios 1 and 2, then scenario 5's Bartlett p-values if it is requested."""
    joint = _replicate_correlations(_replicate_normals(spec.seed, grid_index, reps, spec.n),
                                    lower)
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
    chunks = [
        _replicate_statistics(spec, grid_index, lower,
                              range(start, min(start + REPLICATE_CHUNK, spec.reps)))
        for start in range(0, spec.reps, REPLICATE_CHUNK)
    ]
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
