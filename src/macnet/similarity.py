"""Similarity measures between a pair of multi-attribute nodes.

Four measures are supported: single-attribute sample correlation, max/min
aggregation of per-attribute correlations, and canonical correlation.  The
canonical solver comes in a general form (separate weight vectors per node)
and a homogeneous form (equal marginal blocks, symmetric cross block, one
weight vector), plus explicit closed forms for the two-attribute and
equal-correlation parameterizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkernel
from .errors import (
    DegenerateR,
    EmptyInput,
    InternalNumericalError,
    LengthMismatch,
    NotPositiveDefinite,
    OutOfDomain,
)

#: repeated-root threshold for flagging a degenerate leading eigenvector
DEGENERACY_TOL = 1e-10

_CLAMP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PairCorrelationStructure:
    """Estimated correlation blocks for one node pair.

    ``sigma_ii`` and ``sigma_jj`` are the k-by-k marginal correlation
    matrices of the two nodes' attribute vectors; ``sigma_ij[l, m]`` is the
    correlation between attribute ``l`` of the first node and attribute
    ``m`` of the second.
    """

    sigma_ii: np.ndarray
    sigma_jj: np.ndarray
    sigma_ij: np.ndarray

    def __post_init__(self):
        sii = numkernel.require_symmetric(self.sigma_ii, tol=1e-10)
        sjj = numkernel.require_symmetric(self.sigma_jj, tol=1e-10)
        sij = numkernel.require_square(self.sigma_ij)
        if not (sii.shape == sjj.shape == sij.shape):
            raise LengthMismatch("correlation blocks have mismatched shapes")
        object.__setattr__(self, "sigma_ii", sii)
        object.__setattr__(self, "sigma_jj", sjj)
        object.__setattr__(self, "sigma_ij", sij)

    @property
    def k(self) -> int:
        return self.sigma_ii.shape[0]

    @property
    def supermatrix(self) -> np.ndarray:
        """Joint 2k-by-2k correlation matrix of the stacked attribute vector."""
        top = np.hstack([self.sigma_ii, self.sigma_ij])
        bottom = np.hstack([self.sigma_ij.T, self.sigma_jj])
        return np.vstack([top, bottom])

    @classmethod
    def from_samples(cls, samples_i, samples_j) -> "PairCorrelationStructure":
        """Estimate the blocks from two aligned n-by-k sample matrices."""
        samples_i = numkernel.as_matrix(samples_i)
        samples_j = numkernel.as_matrix(samples_j)
        if samples_i.shape != samples_j.shape:
            raise LengthMismatch("sample blocks have mismatched shapes")
        k = samples_i.shape[1]
        joint = numkernel.corr_matrix(np.hstack([samples_i, samples_j]))
        return cls(joint[:k, :k], joint[k:, k:], joint[:k, k:])

    @classmethod
    def homogeneous(cls, sigma_m, sigma_c) -> "PairCorrelationStructure":
        sigma_m = numkernel.require_symmetric(sigma_m, tol=1e-10)
        sigma_c = numkernel.require_symmetric(sigma_c, tol=1e-10)
        return cls(sigma_m, sigma_m, sigma_c)


@dataclass(frozen=True)
class K2Params:
    """Two-attribute homogeneous parameterization.

    ``r`` is the within-node cross-attribute correlation, ``b`` the
    between-node cross-attribute correlation, and ``rho1``/``rho2`` the
    within-attribute correlations between the two nodes.
    """

    r: float
    b: float
    rho1: float
    rho2: float

    def __post_init__(self):
        for name in ("r", "b", "rho1", "rho2"):
            value = getattr(self, name)
            if not np.isfinite(value) or abs(value) > 1.0:
                raise OutOfDomain(f"{name}={value} is not a correlation in [-1, 1]")

    @property
    def a1(self) -> float:
        return float(np.sqrt((1.0 - self.rho1) * (1.0 - self.rho2)))

    @property
    def a2(self) -> float:
        return float(np.sqrt((1.0 + self.rho1) * (1.0 + self.rho2)))

    @property
    def d(self) -> float:
        return (self.rho1 - self.rho2) ** 2 + 4.0 * (self.b - self.rho1 * self.r) * (
            self.b - self.rho2 * self.r
        )

    def valid(self) -> bool:
        return abs(self.b - self.r) < self.a1 and abs(self.b + self.r) < self.a2

    @property
    def sigma_m(self) -> np.ndarray:
        return np.array([[1.0, self.r], [self.r, 1.0]])

    @property
    def sigma_c(self) -> np.ndarray:
        return np.array([[self.rho1, self.b], [self.b, self.rho2]])


@dataclass(frozen=True, eq=False)
class CanonicalSolution:
    """Canonical roots and weight vectors for one node pair.

    ``roots`` holds all canonical roots in descending order; ``rho_c`` is the
    first.  ``contrib_i``/``contrib_j`` are the squared entries of the
    unit-length standardized weight vectors (each sums to one); ``contrib``
    is their mean and is the vector reported per edge.  ``degenerate`` marks
    a repeated leading root, where the weight direction is fixed only by the
    deterministic ordering/sign convention of the eigensolver.
    """

    roots: np.ndarray
    w_i: np.ndarray
    w_j: np.ndarray
    contrib_i: np.ndarray
    contrib_j: np.ndarray
    degenerate: bool = False
    contrib: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "contrib", (self.contrib_i + self.contrib_j) / 2.0)

    @property
    def rho_c(self) -> float:
        return float(self.roots[0])


def _clamp_squared_roots(values: np.ndarray) -> np.ndarray:
    """Clamp squared roots to [0, 1], tolerating tiny numerical excursions."""
    values = np.asarray(values, dtype=float)
    if np.any(values < -_CLAMP_TOL) or np.any(values > 1.0 + _CLAMP_TOL):
        raise InternalNumericalError(
            f"squared canonical root outside [0, 1] beyond tolerance: {values}"
        )
    return np.clip(values, 0.0, 1.0)


def _squared_unit(w: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(w))
    if norm <= 0.0:
        raise InternalNumericalError("zero-length canonical weight vector")
    u = w / norm
    return u * u


def _pair_sign_fix(w_i: np.ndarray, w_j: np.ndarray):
    """Flip the weight pair together so w_i's first non-negligible entry is positive."""
    nz = np.flatnonzero(np.abs(w_i) > 1e-12)
    if nz.size and w_i[nz[0]] < 0:
        return -w_i, -w_j
    return w_i, w_j


def canonical_roots(t) -> np.ndarray:
    """Canonical roots, descending: square roots of the eigenvalues of T'T for
    T = inv_sqrt(S_ii) S_ij inv_sqrt(S_jj), or for each T of a stack (..., k, k)."""
    squared = np.linalg.eigvalsh(np.swapaxes(t, -1, -2) @ t)[..., ::-1]
    return np.sqrt(_clamp_squared_roots(squared))


def correlation_objective(s: PairCorrelationStructure, w_i, w_j) -> float:
    """Correlation of the two weighted attribute combinations."""
    w_i = np.asarray(w_i, dtype=float)
    w_j = np.asarray(w_j, dtype=float)
    num = float(w_i @ s.sigma_ij @ w_j)
    den = float(np.sqrt((w_i @ s.sigma_ii @ w_i) * (w_j @ s.sigma_jj @ w_j)))
    return num / den


def canonical_corr(s: PairCorrelationStructure) -> CanonicalSolution:
    """General canonical correlation between two attribute blocks.

    Solves the paired eigensystem for the weight vectors: the squared roots
    are the eigenvalues of inv(S_jj) S_ij' inv(S_ii) S_ij (and of its
    companion), computed here through the symmetric equivalent
    T = inv_sqrt(S_ii) S_ij inv_sqrt(S_jj) whose singular structure carries
    the same spectrum.  Weights are scaled so w' S w = 1 on each side.
    """
    if not numkernel.is_positive_definite(s.supermatrix):
        raise NotPositiveDefinite("joint correlation matrix is not positive-definite")
    k = s.k
    if k == 1:
        rho = abs(float(s.sigma_ij[0, 0]))
        one = np.ones(1)
        scale_i = 1.0 / float(np.sqrt(s.sigma_ii[0, 0]))
        scale_j = 1.0 / float(np.sqrt(s.sigma_jj[0, 0]))
        return CanonicalSolution(
            roots=np.array([rho]),
            w_i=one * scale_i,
            w_j=one * scale_j,
            contrib_i=np.ones(1),
            contrib_j=np.ones(1),
            degenerate=False,
        )

    inv_sqrt_ii = numkernel.inv_sqrt_spd(s.sigma_ii)
    inv_sqrt_jj = numkernel.inv_sqrt_spd(s.sigma_jj)
    t = inv_sqrt_ii @ s.sigma_ij @ inv_sqrt_jj
    roots = canonical_roots(t)

    v_j = numkernel.sym_eigen(t.T @ t).vectors[:, 0]
    w_j = inv_sqrt_jj @ v_j
    rho = float(roots[0])
    if rho > 1e-12:
        # Lagrange relation: S_ij w_j = rho * S_ii w_i with both sides unit-scaled
        w_i = inv_sqrt_ii @ (inv_sqrt_ii @ (s.sigma_ij @ w_j)) / rho
    else:
        eig_i = numkernel.sym_eigen(t @ t.T)
        w_i = inv_sqrt_ii @ eig_i.vectors[:, 0]
    norm_i = float(np.sqrt(w_i @ s.sigma_ii @ w_i))
    w_i = w_i / norm_i
    if float(w_i @ s.sigma_ij @ w_j) < 0.0:
        w_j = -w_j
    w_i, w_j = _pair_sign_fix(w_i, w_j)

    degenerate = bool(roots.size > 1 and roots[0] - roots[1] < DEGENERACY_TOL)
    return CanonicalSolution(
        roots=roots,
        w_i=w_i,
        w_j=w_j,
        contrib_i=_squared_unit(w_i),
        contrib_j=_squared_unit(w_j),
        degenerate=degenerate,
    )


def canonical_corr_homogeneous(sigma_m, sigma_c) -> CanonicalSolution:
    """Canonical correlation under equal marginal blocks and a symmetric cross block.

    Solves inv(S_m) S_c w = lambda w through the symmetric equivalent
    inv_sqrt(S_m) S_c inv_sqrt(S_m); the leading root is the largest
    eigenvalue in absolute value and a single weight vector serves both
    nodes.
    """
    sigma_m = numkernel.require_symmetric(sigma_m, tol=1e-10)
    sigma_c = numkernel.require_symmetric(sigma_c, tol=1e-10)
    if sigma_m.shape != sigma_c.shape:
        raise LengthMismatch("marginal and cross blocks have mismatched shapes")
    structure = PairCorrelationStructure.homogeneous(sigma_m, sigma_c)
    if not numkernel.is_positive_definite(structure.supermatrix):
        raise NotPositiveDefinite("joint correlation matrix is not positive-definite")

    inv_sqrt_m = numkernel.inv_sqrt_spd(sigma_m)
    sym = inv_sqrt_m @ sigma_c @ inv_sqrt_m
    eig = numkernel.sym_eigen(sym)
    order = np.argsort(-np.abs(eig.values), kind="stable")
    signed = eig.values[order]
    vectors = eig.vectors[:, order]
    squared = _clamp_squared_roots(signed * signed)
    roots = np.sqrt(squared)

    w = inv_sqrt_m @ vectors[:, 0]
    w, _ = _pair_sign_fix(w, w)
    contrib = _squared_unit(w)
    degenerate = bool(roots.size > 1 and roots[0] - roots[1] < DEGENERACY_TOL)
    return CanonicalSolution(
        roots=roots,
        w_i=w,
        w_j=w.copy(),
        contrib_i=contrib,
        contrib_j=contrib.copy(),
        degenerate=degenerate,
    )


def k2_closed_form(p: K2Params) -> float:
    """Leading canonical root for the two-attribute homogeneous model."""
    if abs(p.r) >= 1.0:
        raise DegenerateR(f"within-node correlation r={p.r} leaves no valid structure")
    if not p.valid():
        raise OutOfDomain(
            f"(r={p.r}, b={p.b}) violates |b-r| < {p.a1:.6g} or |b+r| < {p.a2:.6g}"
        )
    disc = p.d
    if disc < 0.0:
        if disc < -1e-12:
            raise InternalNumericalError(f"negative discriminant {disc}")
        disc = 0.0
    root = np.sqrt(disc)
    base = p.rho1 + p.rho2 - 2.0 * p.b * p.r
    denom = 2.0 * (1.0 - p.r * p.r)
    return max(abs((base - root) / denom), abs((base + root) / denom))


def k2_domain(p: K2Params) -> bool:
    """True iff the two-attribute parameterization gives a positive-definite model."""
    return p.valid()


def equal_corr_closed_form(k: int, r: float, rho: float, b: float) -> float:
    """Leading canonical root when all attributes share one correlation pattern.

    The marginal block has unit diagonal and constant off-diagonal ``r``; the
    cross block has diagonal ``rho`` and constant off-diagonal ``b``.  Only
    two distinct roots exist in this model.
    """
    if k < 2:
        raise OutOfDomain(f"need at least 2 attributes, got {k}")
    if not (-1.0 / (k - 1) < r < 1.0):
        raise OutOfDomain(f"r={r} outside (-1/(k-1), 1) for k={k}")
    if not abs(rho - b) < abs(1.0 - r):
        raise OutOfDomain(f"|rho-b|={abs(rho - b)} must be below |1-r|={abs(1 - r)}")
    if not abs(rho + (k - 1) * b) < abs(1.0 + (k - 1) * r):
        raise OutOfDomain("|rho+(k-1)b| must be below |1+(k-1)r|")
    return max(
        abs((rho - b) / (1.0 - r)),
        abs((rho + (k - 1) * b) / (1.0 + (k - 1) * r)),
    )


def aggregate_extreme(rhos, mode: str):
    """Signed max or min of per-attribute correlations (per row of an (m, k) stack)."""
    values = np.asarray(rhos, dtype=float)
    if values.size == 0:
        raise EmptyInput("no per-attribute correlations supplied")
    if mode not in ("max", "min"):
        raise OutOfDomain(f"mode must be 'max' or 'min', got {mode!r}")
    out = values.max(axis=-1) if mode == "max" else values.min(axis=-1)
    return float(out) if out.ndim == 0 else out


def equal_corr_blocks(k: int, r: float, rho: float, b: float):
    """Marginal and cross blocks for the equal-correlation model."""
    sigma_m = np.full((k, k), r)
    np.fill_diagonal(sigma_m, 1.0)
    sigma_c = np.full((k, k), b)
    np.fill_diagonal(sigma_c, rho)
    return sigma_m, sigma_c
