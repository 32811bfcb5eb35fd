"""Structured-covariance sampling and the five-scenario edge-detection power study.

Five tests of a single planted edge are compared over a grid of
two-attribute correlation structures: each attribute's correlation alone,
max and min aggregation of the two, and canonical correlation.  Replicates
draw from a counter-based generator keyed per (seed, grid point,
replicate), so results are bit-reproducible regardless of execution order.
All replicates of one grid point are drawn, stacked and tested as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import inference, numkernel
from .errors import InsufficientSamples, NotPositiveDefinite, OutOfDomain, UsageError
from .similarity import K2Params, canonical_roots

SCENARIOS = (1, 2, 3, 4, 5)

#: replicates drawn and tested per batched step
REPLICATE_CHUNK = 256

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
    rho_z_override: Optional[float] = None

    def __post_init__(self):
        if not self.grid:
            raise OutOfDomain("empty simulation grid")
        if self.reps < 1:
            raise OutOfDomain(f"reps must be positive, got {self.reps}")
        if not (0.0 < self.alpha < 1.0):
            raise OutOfDomain(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.pvalue_mode not in inference.PVALUE_MODES:
            raise UsageError(f"pvalue_mode must be one of {inference.PVALUE_MODES}, got {self.pvalue_mode!r}")
        scenarios = tuple(int(s) for s in self.scenarios)
        if not scenarios or len(set(scenarios)) < len(scenarios) or any(
                s not in SCENARIOS for s in scenarios):
            raise OutOfDomain(f"scenarios must be distinct values drawn from {SCENARIOS}, "
                              f"got {scenarios}")
        grid = tuple((float(r), float(b)) for r, b in self.grid)
        for r, b in grid:
            if not self.params(r, b).valid():
                raise OutOfDomain(f"grid point (r={r}, b={b}) is outside the valid domain")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "scenarios", scenarios)

    def params(self, r: float, b: float) -> K2Params:
        return K2Params(r=r, b=b, rho1=self.rho1, rho2=self.rho2)


@dataclass(frozen=True)
class PowerCell:
    r: float
    b: float
    scenario: int
    rejections: int
    power: float
    mc_se: float


@dataclass(frozen=True, eq=False)
class PowerResult:
    spec: PowerStudySpec
    cells: tuple

    def cell(self, r: float, b: float, scenario: int) -> PowerCell:
        for c in self.cells:
            if c.scenario == scenario and np.isclose(c.r, r) and np.isclose(c.b, b):
                return c
        raise KeyError(f"no cell for (r={r}, b={b}, scenario={scenario})")


def _replicate_statistics(spec: PowerStudySpec, grid_index: int, lower: np.ndarray, reps):
    """z1, z2 and Bartlett p-values of the replicates ``reps`` of one grid point."""
    normals = np.stack([
        substream(spec.seed, grid_index, rep).standard_normal((spec.n, 4)) for rep in reps
    ])
    joint = numkernel.corr_matrices(normals @ lower.T)
    z1 = inference.fisher_z(joint[:, 0, 2], spec.n)
    z2 = inference.fisher_z(joint[:, 1, 3], spec.n)
    # unrestricted block estimates: the k^2-df chi-squared reference assumes a
    # freely estimated cross block even though the generator is homogeneous
    if not np.all(numkernel.pd_mask(joint)):
        raise NotPositiveDefinite("joint correlation matrix is not positive-definite")
    roots = canonical_roots(
        numkernel.inv_sqrt_spd_stack(joint[:, :2, :2]) @ joint[:, :2, 2:]
        @ numkernel.inv_sqrt_spd_stack(joint[:, 2:, 2:])
    )
    return z1, z2, inference.bartlett_chi2(roots, spec.n, 2).p


def _grid_point_rejections(spec: PowerStudySpec, grid_index: int, r: float, b: float) -> dict:
    lower = numkernel.cholesky(build_sigma(spec.params(r, b)))
    chunks = [
        _replicate_statistics(spec, grid_index, lower,
                              range(start, min(start + REPLICATE_CHUNK, spec.reps)))
        for start in range(0, spec.reps, REPLICATE_CHUNK)
    ]
    z1, z2, bartlett_p = (np.concatenate(parts) for parts in zip(*chunks))

    rho_z = sampler = None
    if 3 in spec.scenarios or 4 in spec.scenarios:  # only the max/min scenarios read rho_z
        if spec.rho_z_override is not None:
            rho_z = float(spec.rho_z_override)
        elif spec.reps >= 3:
            rho_z = float(np.corrcoef(z1, z2)[0, 1])
        else:
            raise InsufficientSamples("need rho_z_override or at least 3 replicates for scenarios 3-4")
        rho_z = min(1.0, max(-1.0, rho_z))
        if spec.pvalue_mode == "montecarlo":
            sampler = inference.ExtremeTailSampler(seed=spec.seed * 1_000_003 + grid_index)

    rejections = {}
    for scenario in spec.scenarios:
        if scenario in (1, 2):
            z = z1 if scenario == 1 else z2
            p = inference.normal_sf(z) if spec.one_sided else 2.0 * inference.normal_sf(np.abs(z))
        elif scenario in (3, 4):
            mode = "max" if scenario == 3 else "min"
            if sampler is not None:
                p = inference.extreme_corr_mc_pvalue(z1, z2, rho_z, mode,
                                                     two_sided=not spec.one_sided, sampler=sampler)
            elif spec.one_sided:
                p = inference.extreme_corr_pvalue(z1, z2, rho_z, mode)
            else:
                p = inference.extreme_corr_pvalue_two_sided(z1, z2, rho_z, mode)
        else:
            # the chi-squared test is upper-tailed in both settings
            p = bartlett_p
        rejections[scenario] = int(np.sum(np.asarray(p) < spec.alpha))
    return rejections


def power_study(spec: PowerStudySpec) -> PowerResult:
    """Rejection rate of each scenario at every grid point."""
    cells = []
    for grid_index, (r, b) in enumerate(spec.grid):
        rejections = _grid_point_rejections(spec, grid_index, r, b)
        for scenario in spec.scenarios:
            count = rejections[scenario]
            power = count / spec.reps
            mc_se = float(np.sqrt(power * (1.0 - power) / spec.reps))
            cells.append(PowerCell(r=r, b=b, scenario=scenario, rejections=count,
                                   power=power, mc_se=mc_se))
    return PowerResult(spec=spec, cells=tuple(cells))
