"""Dense real linear-algebra substrate shared by every other module.

Checked SVD, QR and polar-factor wrappers, the Cholesky factor of a Gram
matrix (:func:`_cholesky_r`, shared by the inverse map and the QR and
polar retractions), the orthonormality defect :func:`feasibility`, the
input coercion :func:`as_matrix`, and the error taxonomy the other modules
raise.

Conventions
-----------
* All matrices are ``numpy.float64`` ndarrays in row-major (C) order.
  That choice is made once, here, and inherited everywhere else.
* Factorizations delegate to LAPACK through ``numpy.linalg``; the wrappers
  add the error taxonomy and determinism fixes (sign conventions, rank
  thresholds) that callers rely on.
* Everything in this module is a pure function of its inputs and is safe
  to call from multiple threads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "DimensionError",
    "FactorizationError",
    "RankError",
    "SingularMatrixError",
    "SvdResult",
    "as_matrix",
    "feasibility",
    "svd",
    "qr_orthonormalize",
    "polar_factor",
]

#: Condition-number threshold (1-norm) above which a linear system is
#: refused (the low-rank Cayley-retraction system uses it).  Roughly the
#: inverse of machine epsilon with a safety margin.
COND_LIMIT = 1e14


class DimensionError(ValueError):
    """Operands have incompatible or unexpected shapes."""


class FactorizationError(RuntimeError):
    """A dense factorization failed to converge."""


class RankError(RuntimeError):
    """Input is numerically rank deficient where full rank is required."""


class SingularMatrixError(RuntimeError):
    """A matrix that is nonsingular by construction tested as singular.

    This cannot happen for well-formed inputs; it signals corrupted data.
    """


class SvdResult(NamedTuple):
    """Thin singular value decomposition ``x = u @ diag(sigma) @ vt``.

    ``u`` has orthonormal columns, ``vt`` orthonormal rows, and ``sigma``
    is nonnegative and sorted in nonincreasing order.
    """

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def feasibility(u) -> float:
    """Orthonormality defect ``||u^T u - I||_F`` of a column frame."""
    u = np.asarray(u, dtype=np.float64)
    g = u.T @ u
    g.flat[:: g.shape[0] + 1] -= 1.0  # the diagonal
    return float(np.linalg.norm(g))


def svd(x) -> SvdResult:
    """Thin SVD with the usual ordering guarantees.

    Raises
    ------
    FactorizationError
        If the underlying iteration fails to converge.
    """
    x = as_matrix(x, "svd input")
    try:
        u, s, vt = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware dependent
        raise FactorizationError(f"SVD did not converge: {exc}") from exc
    return SvdResult(u, s, vt)


def qr_orthonormalize(x) -> np.ndarray:
    """Orthonormal basis of the column span of ``x`` via reduced QR.

    The R-factor diagonal is sign-fixed to be nonnegative, so the result is
    a deterministic function of ``x`` (up to the LAPACK build in use).
    Householder QR is backward stable for any full-rank ``x``; its one
    caller in the package is ``problems.random_stiefel``, whose input is an
    arbitrary Gaussian matrix.  The QR and polar retractions, whose input
    ``U + D`` has no singular value below 1, use the cheaper Cholesky QR of
    ``retractions._gram_qr`` instead.

    Raises
    ------
    RankError
        If the smallest ``|R_ii|`` falls below ``1e-12 * ||x||_F`` (both
        taken relative to ``max |x_ij|``, so an input whose norm would
        overflow is judged like its rescaled copy), or ``x`` is zero.
    """
    x = as_matrix(x, "qr input")
    n, p = x.shape
    if n < p:
        raise DimensionError(f"need rows >= cols for a column frame, got {x.shape}")
    q, r = np.linalg.qr(x)
    diag = np.diag(r)
    scale = float(np.max(np.abs(x)))
    r_min = float(np.min(np.abs(diag)))
    if scale == 0.0 or r_min / scale < 1e-12 * np.linalg.norm(x / scale):
        raise RankError(f"numerically rank-deficient input: min |R_ii| = {r_min:.3e}")
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return q * signs


def _cholesky_r(gram: np.ndarray, what: str) -> np.ndarray:
    """The upper Cholesky factor ``R`` of a Gram matrix ``gram = R^T R``.

    Shared by the inverse map (``cayley._cayley_frame``, on ``I + B^T B``)
    and the Cholesky QR of the QR and polar retractions
    (``retractions._gram_qr``).  Forming a Gram matrix rounds its entries
    by about ``eps ||gram||``, so one whose eigenvalues spread beyond about
    ``1 / eps`` need not be positive definite once rounded; Cholesky then
    fails.  ``what`` names the matrix in the error message.

    Raises
    ------
    RankError
        If ``gram`` is not finite (its entries overflowed) or Cholesky
        fails on it.
    """
    if not np.isfinite(gram).all():
        raise RankError(f"{what} is not finite")
    try:
        return np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError as exc:
        raise RankError(f"Cholesky factorization of {what} failed: {exc}") from exc


def polar_factor(x) -> np.ndarray:
    """Orthonormal polar factor ``x (x^T x)^{-1/2}``, computed as ``u @ vt``.

    This is the nearest matrix with orthonormal columns in Frobenius norm.
    ``retractions.retract_polar`` applies it to the p-by-p R factor of
    ``U + D``, since ``polar(Q R) = Q polar(R)``.

    Raises
    ------
    RankError
        If ``x`` is numerically rank deficient.
    """
    res = svd(x)
    if res.sigma[0] == 0.0 or res.sigma[-1] < 1e-12 * res.sigma[0]:
        raise RankError(
            f"numerically rank-deficient input: sigma_min/sigma_max = "
            f"{res.sigma[-1]:.3e}/{res.sigma[0]:.3e}"
        )
    return res.u @ res.vt

