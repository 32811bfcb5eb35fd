"""Small dense matrix kernel: correlation estimation, eigendecomposition,
Cholesky factorization, inverse square roots and positive-definiteness checks.

Everything here operates on tiny matrices (a few rows per attribute block),
so the routines favour strict validation and deterministic output over
scale.  Eigen decompositions are delegated to LAPACK via numpy; results are
re-ordered and sign-fixed so repeated runs produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexSpectrum,
    InsufficientSamples,
    LengthMismatch,
    NoConvergence,
    NotPositiveDefinite,
    NotSymmetric,
    ZeroVariance,
)

#: relative eigenvalue threshold below which a matrix is not accepted as
#: positive-definite
PD_TOLERANCE = 1e-10

_SYMMETRY_TOL = 1e-12
_SIGN_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Eigenvalues (descending) with column-aligned unit-norm eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise LengthMismatch(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def require_square(a) -> np.ndarray:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise LengthMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def require_symmetric(a, tol: float = _SYMMETRY_TOL) -> np.ndarray:
    a = require_square(a)
    dev = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if dev > tol:
        raise NotSymmetric(f"matrix is not symmetric (max deviation {dev:.3e})")
    return a


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first non-negligible entry is positive."""
    v = vectors.copy()
    for col in range(v.shape[1]):
        nz = np.flatnonzero(np.abs(v[:, col]) > _SIGN_TOL)
        if nz.size and v[nz[0], col] < 0:
            v[:, col] = -v[:, col]
    return v


def pearson_corr(x, y) -> float:
    """Sample correlation of two equally long sample vectors.

    Raises ``LengthMismatch`` for unequal lengths, ``InsufficientSamples``
    for fewer than 3 observations and ``ZeroVariance`` for a constant input.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise LengthMismatch(f"sample vectors differ in length: {x.size} vs {y.size}")
    if x.size < 3:
        raise InsufficientSamples(f"need at least 3 samples, got {x.size}")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx <= 0.0:
        raise ZeroVariance("first input vector is constant", index=0)
    if syy <= 0.0:
        raise ZeroVariance("second input vector is constant", index=1)
    r = float(xc @ yc) / float(np.sqrt(sxx * syy))
    return min(1.0, max(-1.0, r))


def corr_matrices(samples) -> np.ndarray:
    """Sample correlation matrix of each n-by-d block in a stack (..., n, d)."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[-2]
    if n < 3:
        raise InsufficientSamples(f"need at least 3 samples, got {n}")
    xc = samples - samples.mean(axis=-2, keepdims=True)
    cross = np.swapaxes(xc, -1, -2) @ xc
    diag = np.diagonal(cross, axis1=-2, axis2=-1)
    bad = np.flatnonzero(np.any(diag <= 0.0, axis=tuple(range(diag.ndim - 1))))
    if bad.size:
        raise ZeroVariance(f"column {bad[0]} is constant", index=int(bad[0]))
    r = cross / np.sqrt(diag[..., :, None] * diag[..., None, :])
    d = np.arange(samples.shape[-1])
    r[..., d, d] = 1.0
    return np.clip(r, -1.0, 1.0)


def corr_matrix(samples) -> np.ndarray:
    """Sample correlation matrix of an n-by-d block (rows are observations)."""
    return corr_matrices(as_matrix(samples))


def sym_eigen(a) -> EigenResult:
    """Full spectral decomposition of a symmetric matrix, eigenvalues descending."""
    a = require_symmetric(a)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(-values, kind="stable")
    return EigenResult(values[order], _fix_signs(vectors[:, order]))


def general_eigen(a) -> EigenResult:
    """Right eigendecomposition of a general square matrix with real spectrum.

    Eigenvalues are sorted descending by absolute value.  A spectrum with a
    non-negligible imaginary part raises ``ComplexSpectrum``: the matrix
    products analysed here (inverses of SPD blocks times symmetric blocks)
    have real spectra whenever the input correlation structure is valid.
    """
    a = require_square(a)
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
    if np.iscomplexobj(values):
        if float(np.max(np.abs(values.imag))) > 1e-9 * scale:
            raise ComplexSpectrum("matrix has complex eigenvalues")
        values = values.real
        vectors = vectors.real
    norms = np.linalg.norm(vectors, axis=0)
    vectors = vectors / np.where(norms > 0, norms, 1.0)
    order = np.argsort(-np.abs(values), kind="stable")
    return EigenResult(values[order], _fix_signs(vectors[:, order]))


def cholesky(a) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T == a.

    Implemented directly so a failed pivot can be reported by index.
    """
    a = require_symmetric(a)
    n = a.shape[0]
    lower = np.zeros_like(a)
    scale = max(float(np.max(np.abs(np.diag(a)))), np.finfo(float).tiny)
    tol = 1e-12 * scale
    for j in range(n):
        pivot = a[j, j] - float(lower[j, :j] @ lower[j, :j])
        if pivot <= tol:
            raise NotPositiveDefinite(
                f"pivot {pivot:.3e} at index {j} is not positive", pivot_index=j
            )
        lower[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1:, j] = (a[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def pd_from_eigenvalues(values: np.ndarray) -> np.ndarray:
    """PD test on ascending eigenvalues (..., d), relative to the largest."""
    return (values[..., -1] > 0.0) & (values[..., 0] > PD_TOLERANCE * values[..., -1])


def pd_mask(a) -> np.ndarray:
    """Positive-definiteness of each matrix in a symmetric stack (..., d, d)."""
    return pd_from_eigenvalues(np.linalg.eigvalsh(a))


def is_positive_definite(a) -> bool:
    """True iff every eigenvalue exceeds ``PD_TOLERANCE`` relative to the largest."""
    return bool(pd_mask(require_symmetric(a)))


def inv_sqrt_spd_stack(a) -> np.ndarray:
    """Inverse symmetric square root of each SPD matrix in a stack (..., d, d)."""
    values, vectors = np.linalg.eigh(a)
    if not np.all(pd_from_eigenvalues(values)):
        raise NotPositiveDefinite("matrix is not positive-definite")
    return (vectors / np.sqrt(values)[..., None, :]) @ np.swapaxes(vectors, -1, -2)


def inv_sqrt_spd(a) -> np.ndarray:
    """Inverse symmetric square root of an SPD matrix."""
    return inv_sqrt_spd_stack(require_symmetric(a))
