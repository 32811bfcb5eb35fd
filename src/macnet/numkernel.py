"""Small dense matrix kernel: correlation estimation, Cholesky factorization,
inverse square roots and positive-definiteness checks.

The matrices are tiny (a few rows per attribute block) and come in stacks
(..., d, d), one matrix per node, pair or replicate; apart from the
pivot-reporting Cholesky factor, each routine takes a whole stack in one
numpy/LAPACK call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    LengthMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    ZeroVariance,
)

#: relative eigenvalue threshold below which a matrix is not accepted as
#: positive-definite
PD_TOLERANCE = 1e-10

_SYMMETRY_TOL = 1e-12

#: a symmetric 2-by-2 matrix [[a, b], [b, d]] takes the closed forms (determinant
#: ad - b^2, eigenvalues tr/2 + hypot((a - d)/2, b) and det over that) where it is
#: positive-definite with det / (tr/2)^2 above this ratio.  There ad and b^2 are at
#: most (tr/2)^2, so the determinant, and with it the small eigenvalue, carries a
#: relative error below (2 / ratio + 5) u, u = 2^-53: about 2.2e-12 at the bound.
#: Every other matrix goes to LAPACK.
CLOSED_FORM_RATIO = 1e-4


def require_symmetric(a, tol: float = _SYMMETRY_TOL) -> np.ndarray:
    """``a`` as a float matrix, checked to be square and symmetric within ``tol``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise LengthMismatch(f"expected a square matrix, got shape {a.shape}")
    dev = float(np.max(np.abs(a - a.T)))
    if dev > tol:
        raise NotSymmetric(f"matrix is not symmetric (max deviation {dev:.3e})")
    return a


def corr_from_cross(cross) -> np.ndarray:
    """Correlation matrix of each centred cross-product matrix in a stack (..., d, d):
    each entry over the root of its two diagonal entries, then a unit diagonal and
    entries clipped to [-1, 1].  Raises ``ZeroVariance`` naming the first column
    whose diagonal entry is not positive in some matrix."""
    diag = np.diagonal(cross, axis1=-2, axis2=-1)
    bad = np.flatnonzero(np.any(diag <= 0.0, axis=tuple(range(diag.ndim - 1))))
    if bad.size:
        raise ZeroVariance(f"column {bad[0]} is constant", index=int(bad[0]))
    r = cross / np.sqrt(diag[..., :, None] * diag[..., None, :])
    d = np.arange(cross.shape[-1])
    r[..., d, d] = 1.0
    return np.clip(r, -1.0, 1.0)


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


def schur_logdet(a, a_pd, inv_a, logdet_a, b, x, log_diagonal=0.0):
    """log det S of the Schur complement S = B - X' A^-1 X of each block matrix
    M = [[A, X], [X', B]] of a stack, and whether M passes ``pd_mask``'s rule once
    scaled to unit diagonal, given A with its PD mask, inverse and log determinant
    (``log_diagonal``: the sum of the logs of M's diagonal).

    Most M are cleared without assembly: A and S positive-definite, S by its leading
    principal minors, and log det M - log_diagonal above log(2 PD_TOLERANCE d^d),
    d = dim M.  The scaled M has lambda_max <= tr = d and
    lambda_min >= det / lambda_max^(d-1) >= det / d^(d-1), so lambda_min clears
    PD_TOLERANCE lambda_max with a factor 2 for rounding.  Every other M is assembled,
    decided by ``pd_mask`` and given log det S = log det M - log det A."""
    s = b - np.swapaxes(x, -1, -2) @ inv_a @ x
    sign, logdet = slogdet(s)
    pd = a_pd & (sign > 0.0) & (s[:, 0, 0] > 0.0)
    for d in range(2, s.shape[-1]):
        pd &= slogdet(s[:, :d, :d])[0] > 0.0
    d = a.shape[-1] + b.shape[-1]
    pd &= logdet_a + logdet - log_diagonal > math.log(2.0 * PD_TOLERANCE) + d * math.log(d)
    rest = np.flatnonzero(~pd)
    if rest.size:
        m = np.block([[a[rest], x[rest]], [np.swapaxes(x[rest], -1, -2), b[rest]]])
        pd[rest] = a_pd[rest] & pd_mask(unit_diagonal(m))
        with np.errstate(invalid="ignore"):  # an A without a log determinant fails
            logdet[rest] = slogdet(m)[1] - logdet_a[rest]
    return logdet, pd


def unit_diagonal(a) -> np.ndarray:
    """Each matrix of a stack (..., d, d) scaled to unit diagonal, D^-1/2 A D^-1/2 with
    D its diagonal.  The row and column of a diagonal entry that is not positive
    become 0, so such a matrix fails the PD rule."""
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    scale = np.zeros(diag.shape)
    positive = diag > 0.0
    scale[positive] = 1.0 / np.sqrt(diag[positive])
    return a * scale[..., :, None] * scale[..., None, :]


def _closed_form_2x2(a):
    """Determinant, half trace and the mask of matrices that take the closed forms, for
    a stack (..., 2, 2)."""
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    half = (a[..., 0, 0] + a[..., 1, 1]) / 2.0
    return det, half, (half > 0.0) & (det > CLOSED_FORM_RATIO * half * half)


def slogdet(a):
    """``np.linalg.slogdet`` of each symmetric matrix in a stack (m, d, d): in closed form
    for d = 1, and for d = 2 where ``CLOSED_FORM_RATIO`` allows; the rest by LAPACK.  An
    exactly singular matrix gives sign 0 and log determinant -inf, with no warning."""
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore"):
        if a.shape[-1] == 1:
            return np.sign(a[:, 0, 0]), np.log(np.abs(a[:, 0, 0]))
        if a.shape[-1] != 2:
            return np.linalg.slogdet(a)
        det, _, closed = _closed_form_2x2(a)
        sign = np.ones(det.shape)
        logdet = np.log(np.where(closed, det, 1.0))
        routed = np.flatnonzero(~closed)
        if routed.size:
            sign[routed], logdet[routed] = np.linalg.slogdet(a[routed])
    return sign, logdet


def eigvalsh_descending(a):
    """Eigenvalues, largest first, of each symmetric matrix in a stack (..., d, d): in
    closed form for d = 1, and for d = 2 where ``CLOSED_FORM_RATIO`` allows (the small
    eigenvalue as det over the large one); the rest by LAPACK."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] == 1:
        return a[..., 0, :].copy()
    if a.shape[-1] != 2:
        return np.linalg.eigvalsh(a)[..., ::-1]
    det, half, closed = _closed_form_2x2(a)
    high = half + np.hypot((a[..., 0, 0] - a[..., 1, 1]) / 2.0, a[..., 0, 1])
    out = np.stack([high, det / np.where(closed, high, 1.0)], axis=-1)
    routed = ~closed
    if routed.any():
        out[routed] = np.linalg.eigvalsh(a[routed])[..., ::-1]
    return out


def inv_2x2(a) -> np.ndarray:
    """Inverse of each matrix of a stack (..., 2, 2), as its adjugate over its
    determinant; 0 where the determinant is not positive."""
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    adjugate = np.stack([a[..., 1, 1], -a[..., 0, 1], -a[..., 1, 0], a[..., 0, 0]],
                        axis=-1).reshape(a.shape)
    scale = np.divide(1.0, det, out=np.zeros_like(det), where=det > 0.0)
    return adjugate * scale[..., None, None]


def pd_mask(a) -> np.ndarray:
    """Positive-definiteness of each matrix in a symmetric stack (..., d, d)."""
    return pd_from_eigenvalues(np.linalg.eigvalsh(a))


def inv_sqrt_spd_stack(a) -> np.ndarray:
    """Inverse symmetric square root of each SPD matrix in a stack (..., d, d)."""
    values, vectors = np.linalg.eigh(a)
    if not np.all(pd_from_eigenvalues(values)):
        raise NotPositiveDefinite("matrix is not positive-definite")
    return inv_sqrt_from_eigh(values, vectors)


def inv_sqrt_from_eigh(values, vectors) -> np.ndarray:
    """Inverse symmetric square root of each matrix of a stack, from its eigenvalues
    (..., d), all positive, and eigenvectors (..., d, d)."""
    return (vectors / np.sqrt(values)[..., None, :]) @ np.swapaxes(vectors, -1, -2)
