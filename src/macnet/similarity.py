"""Similarity measures between a pair of multi-attribute nodes.

Four measures are supported: single-attribute sample correlation, max/min
aggregation of per-attribute correlations, and canonical correlation.  The
canonical solver comes in a general form (separate weight vectors per node,
for one pair or a stack of pairs, sharing its weight kernel with ``infer``)
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
        return bool(self.valid_at(self.r, self.b))

    def valid_at(self, r, b):
        """``valid()`` with this rho1 and rho2 at other (r, b), elementwise over arrays."""
        return (np.abs(b - r) < self.a1) & (np.abs(b + r) < self.a2)

    @property
    def sigma_m(self) -> np.ndarray:
        return np.array([[1.0, self.r], [self.r, 1.0]])

    @property
    def sigma_c(self) -> np.ndarray:
        return np.array([[self.rho1, self.b], [self.b, self.rho2]])


@dataclass(frozen=True, eq=False)
class CanonicalSolution:
    """Canonical roots and weight vectors for one node pair, or for each pair of a
    stack (then every field gains a leading pair axis).

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
    def rho_c(self):
        rho = self.roots[..., 0]
        return float(rho) if rho.ndim == 0 else rho


def _clamp_squared_roots(values: np.ndarray) -> np.ndarray:
    """Clamp squared roots to [0, 1], tolerating tiny numerical excursions."""
    values = np.asarray(values, dtype=float)
    if np.any(values < -_CLAMP_TOL) or np.any(values > 1.0 + _CLAMP_TOL):
        raise InternalNumericalError(
            f"squared canonical root outside [0, 1] beyond tolerance: {values}"
        )
    return np.clip(values, 0.0, 1.0)


def _squared_unit(w: np.ndarray) -> np.ndarray:
    """Squared entries of each weight vector of a stack (..., k) scaled to unit length."""
    u = w * w
    return u / u.sum(axis=-1, keepdims=True)


def _pair_sign_fix(w_i: np.ndarray, w_j: np.ndarray):
    """Flip each weight pair of a stack (..., k) together so w_i's first
    non-negligible entry is positive."""
    first = np.take_along_axis(w_i, (np.abs(w_i) > 1e-12).argmax(axis=-1)[..., None], axis=-1)
    sign = np.where(first < 0.0, -1.0, 1.0)
    return w_i * sign, w_j * sign


def _leading_vector(a: np.ndarray) -> np.ndarray:
    """Unit eigenvector (m, d, 1) of the largest eigenvalue, first index on ties, of
    each symmetric matrix in a stack (m, d, d)."""
    values, vectors = np.linalg.eigh(a)
    return np.take_along_axis(vectors, values.argmax(axis=-1)[:, None, None], axis=-1)


def squared_roots(t) -> np.ndarray:
    """Squared canonical roots, descending and unclamped: the eigenvalues of T'T for
    T = inv_sqrt(S_ii) S_ij inv_sqrt(S_jj), or for each T of a stack (..., k, k); in
    closed form for k <= 2 (``numkernel.eigvalsh_descending``)."""
    return numkernel.eigvalsh_descending(np.swapaxes(t, -1, -2) @ t)


def canonical_roots(t) -> np.ndarray:
    """Canonical roots, descending: square roots of ``squared_roots(t)``, clamped to [0, 1]."""
    return np.sqrt(_clamp_squared_roots(squared_roots(t)))


def _leading_weights(t, inv_i, inv_j, sigma_ij):
    """Leading canonical weights of a stack of pairs (m, k, k), given each pair's T and
    the inverse roots inv_sqrt(S_ii), inv_sqrt(S_jj).

    v leads T'T, w_j = inv_sqrt(S_jj) v and w_i = inv(S_ii) S_ij w_j, which the
    Lagrange relation S_ij w_j = rho S_ii w_i fixes up to the positive factor rho.
    Returns (w_i, w_j, contrib), the weights as (m, k, 1) columns and contrib (m, k)
    the mean of their squared unit-length entries.
    """
    w_j = inv_j @ _leading_vector(np.swapaxes(t, 1, 2) @ t)
    w_i = inv_i @ (inv_i @ (sigma_ij @ w_j))
    squared = np.concatenate([w_i, w_j], axis=2) ** 2
    return w_i, w_j, (squared / squared.sum(axis=1, keepdims=True)).mean(axis=2)


def canonical_corr(sigma_ii, sigma_jj, sigma_ij) -> CanonicalSolution:
    """General canonical correlation between two attribute blocks, for one pair of
    (k, k) blocks or for each pair of a stack (m, k, k).

    The squared roots are the eigenvalues of T'T for the symmetric equivalent
    T = inv_sqrt(S_ii) S_ij inv_sqrt(S_jj) of inv(S_jj) S_ij' inv(S_ii) S_ij; the
    leading weights come from the kernel that ``infer`` runs on its declared
    edges.  Weights are scaled so w' S w = 1 on each side and signed so that
    w_i' S_ij w_j >= 0 and w_i's first non-negligible entry is positive.
    """
    blocks = [np.asarray(s, dtype=float) for s in (sigma_ii, sigma_jj, sigma_ij)]
    shape = blocks[0].shape
    if any(b.shape != shape for b in blocks) or len(shape) not in (2, 3) or shape[-1] != shape[-2]:
        raise LengthMismatch(f"correlation blocks must share one (k, k) or (m, k, k) shape, "
                             f"got {[b.shape for b in blocks]}")
    sii, sjj, sij = (b.reshape((-1,) + shape[-2:]) for b in blocks)
    if not np.all(numkernel.pd_mask(np.block([[sii, sij], [np.swapaxes(sij, 1, 2), sjj]]))):
        raise NotPositiveDefinite("joint correlation matrix is not positive-definite")
    inv_i = numkernel.inv_sqrt_spd_stack(sii)
    inv_j = numkernel.inv_sqrt_spd_stack(sjj)
    t = inv_i @ sij @ inv_j
    roots = canonical_roots(t)
    with np.errstate(invalid="ignore"):  # the contributions of a null pair are 0/0
        w_i, w_j, _ = _leading_weights(t, inv_i, inv_j, sij)
    # with no leading root, S_ij w_j vanishes; take w_i from the leading vector of T T'
    null = roots[:, 0] <= 1e-12
    w_i[null] = inv_i[null] @ _leading_vector(t[null] @ np.swapaxes(t[null], 1, 2))
    w_i /= np.sqrt(np.swapaxes(w_i, 1, 2) @ sii @ w_i)
    w_j *= np.where(np.swapaxes(w_i, 1, 2) @ sij @ w_j < 0.0, -1.0, 1.0)
    w_i, w_j = _pair_sign_fix(w_i[:, :, 0], w_j[:, :, 0])
    degenerate = np.any(roots[:, :1] - roots[:, 1:2] < DEGENERACY_TOL, axis=1)
    if len(shape) == 2:
        roots, w_i, w_j, degenerate = roots[0], w_i[0], w_j[0], bool(degenerate[0])
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
    eigenvalue in absolute value (the larger signed value on a tie) and a
    single weight vector serves both nodes.
    """
    sigma_m = numkernel.require_symmetric(sigma_m, tol=1e-10)
    sigma_c = numkernel.require_symmetric(sigma_c, tol=1e-10)
    if sigma_m.shape != sigma_c.shape:
        raise LengthMismatch("marginal and cross blocks have mismatched shapes")
    if not numkernel.pd_mask(np.block([[sigma_m, sigma_c], [sigma_c, sigma_m]])):
        raise NotPositiveDefinite("joint correlation matrix is not positive-definite")

    inv_sqrt_m = numkernel.inv_sqrt_spd_stack(sigma_m)
    values, vectors = np.linalg.eigh(inv_sqrt_m @ sigma_c @ inv_sqrt_m)
    order = np.lexsort((-values, -np.abs(values)))
    roots = np.sqrt(_clamp_squared_roots(values[order] ** 2))

    w = inv_sqrt_m @ vectors[:, order[0]]
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
