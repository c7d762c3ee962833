"""Dense real linear-algebra substrate shared by every other module.

Checked SVD, QR and polar-factor wrappers, the Cholesky QR that the
inverse map and the retractions share (:func:`_cholesky_qr`), the blocked
product :func:`_mm`, the orthonormality defect :func:`feasibility`, the
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
  to call from multiple threads, except :func:`_one_blas_thread`, which
  sets the process's OpenBLAS thread count while its body runs.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
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

#: Cholesky QR (:func:`_cholesky_qr`) takes its second pass only when
#: :func:`_one_pass_enough`'s bound ``beta >= cond(X)^2`` exceeds this.  At
#: or below it one pass leaves ``||Q^T Q - I||_F`` within about 3x of two
#: (3.9e-15 against 1.2e-15 at N=500, p=10, ``cond(X)^2 = 10``); beyond it
#: the defect grows like ``eps cond(X)^2``.  The table is in BENCH_22.json
#: (``accuracy``).  ``retractions.retract_polar`` takes its one Gram
#: eigendecomposition under the same bound on the eigenvalues' ratio,
#: ``cond(X)^2``.
ONE_PASS_BOUND = 10.0


#: OpenBLAS's small-matrix GEMM limit on ``m n k`` (100^3): a product at
#: or below it runs on an unpacked kernel, a larger one packs its operands
#: into GEMM panels on every call (``A @ U`` at one BLAS thread: 82.6 us at
#: N=316, p=10, 148.6 us at N=317).  Above it, :func:`_mm` splits a product
#: into blocks that each stay at or below it, which won at every shape
#: timed; numpy's one syrk call for a symmetric Gram ``X^T X`` beat the
#: blocks, so those stay ``x.T @ x``.  The sweep is in CHANGES.md, the
#: entry "One place for each number"; for blocks at every thread count see
#: CHANGES.md, the entry "One product rule at every BLAS thread count".
SMALL_PRODUCT_MAX = 100**3


@functools.cache
def _openblas_function(stem: str, restype, *argtypes):
    """OpenBLAS's ``openblas_<stem>`` in the library bundled with numpy,
    under whichever of its symbol names that build exports, or None where
    numpy links another BLAS."""
    root = os.path.dirname(np.__file__)
    for path in glob.glob(root + ".libs/*openblas*") + glob.glob(root + "/.dylibs/*openblas*"):
        lib = ctypes.CDLL(path)
        for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}",
                     f"openblas_{stem}64_", f"openblas_{stem}"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, list(argtypes)
                return fn
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body at one OpenBLAS thread and restore the count after, so
    that a large product sums in the same order at every thread count.  The
    count is the process's: BLAS calls made meanwhile from other threads
    run at one thread too.  A no-op where numpy links another BLAS."""
    get = _openblas_function("get_num_threads", ctypes.c_int)
    set_ = _openblas_function("set_num_threads", None, ctypes.c_int)
    threads = 1 if get is None or set_ is None else get()
    if threads == 1:
        yield
        return
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def _block_size(m: int, k: int, n: int) -> int:
    """Rows (``m >= k``) or inner indices (``m < k``) per block of
    :func:`_mm`'s product of an m-by-k and a k-by-n matrix, or 0 where it
    is one plain product: at or below :data:`SMALL_PRODUCT_MAX`, or when a
    single row (inner index) is already over it."""
    if m * k * n <= SMALL_PRODUCT_MAX:
        return 0
    return SMALL_PRODUCT_MAX // (min(m, k) * n)


def _mm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` (into ``out`` when given) on OpenBLAS's small-matrix path.

    Where :func:`_block_size` is 0 this is the bare ``np.matmul(a, b)``.
    Otherwise, when ``a``'s rows are the long dimension, each row block of
    the result is its own product ``a[block] @ b``; when the inner
    dimension is, the products ``a[:, block] @ b[block]`` are summed in
    order.  Every block is at most :data:`SMALL_PRODUCT_MAX` in size.  The
    small-matrix kernel sums in another order than the packed one, and the
    inner blocks add their own partial sums, so a blocked result may differ
    from ``a @ b`` at roundoff.  That kernel runs on one thread, so a block
    that numpy hands to GEMM (both result dimensions above 1) sums in the
    same order at every OpenBLAS thread count; a column result goes to
    gemv and a 1-by-1 one to ddot, which OpenBLAS may split across threads.
    """
    m, k = a.shape
    size = _block_size(m, k, b.shape[1])
    if size == 0:
        return np.matmul(a, b, out=out)
    if m >= k:
        if out is None:
            out = np.empty((m, b.shape[1]))
        for i in range(0, m, size):
            np.matmul(a[i : i + size], b, out=out[i : i + size])
        return out
    out = np.matmul(a[:, :size], b[:size], out=out)
    for j in range(size, k, size):
        out += a[:, j : j + size] @ b[j : j + size]
    return out


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
    """Orthonormality defect ``||u^T u - I||_F`` of a column frame.

    Raises :class:`DimensionError` if ``u`` is not 2-D; it does not scan
    for NaN, which makes the defect NaN.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise DimensionError(f"frame must be 2-D, got ndim={u.ndim}")
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
    Householder QR is backward stable for any full-rank ``x``, such as the
    Gaussian input of ``problems.random_stiefel``; the QR retraction,
    whose ``U + D`` has no singular value below 1, takes the cheaper
    :func:`_cholesky_qr`.

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

    Forming a Gram matrix rounds its entries by about ``eps ||gram||``, so
    one whose eigenvalues spread beyond about ``1 / eps`` need not be
    positive definite once rounded; Cholesky then fails.  ``what`` names
    the matrix in the error message.

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


def _one_pass_enough(gram: np.ndarray, r_inv: np.ndarray) -> bool:
    """Whether one pass of :func:`_cholesky_qr` is accurate: ``X R^{-1}``
    for ``gram = X^T X = R^T R`` and its inverse ``r_inv``.

    The bound ``beta = ||gram||_1 ||R^{-1}||_1 ||R^{-1}||_inf`` is at least
    ``cond(X)^2 = lambda_max(gram) / lambda_min(gram)``, since
    ``lambda_max <= ||gram||_1`` and
    ``1 / lambda_min = ||R^{-1}||_2^2 <= ||R^{-1}||_1 ||R^{-1}||_inf``, and
    overstates it by up to ``p^{3/2}`` (steps along coordinate directions
    have ``beta = cond(X)^2``); it costs three p-by-p reductions.  True
    when ``beta`` is at most :data:`ONE_PASS_BOUND`; a NaN ``beta`` gives
    False.
    """
    r_abs = np.abs(r_inv)
    beta = np.abs(gram).sum(axis=0).max() * r_abs.sum(axis=0).max() * r_abs.sum(axis=1).max()
    return bool(beta <= ONE_PASS_BOUND)


def _cholesky_qr(gram: np.ndarray, blocks, what: str):
    """``X = Q R`` by Cholesky QR from ``gram = X^T X``, with a second pass
    only where one may be inaccurate; returns ``(R, R^{-1}, second)``.

    Pass 1 factors ``gram = R1^T R1``.  ``Q1 = X R1^{-1}`` is orthonormal
    to about ``eps cond(X)^2``, a few eps where :func:`_one_pass_enough`
    bounds ``cond(X)^2`` by :data:`ONE_PASS_BOUND`: there ``R = R1`` and
    ``second`` is None.  Beyond it, while that defect is below 1, a second
    pass on ``Q1`` makes ``Q = Q1 R2^{-1}`` orthonormal to roundoff
    (CholeskyQR2; Yamamoto, Nakatsukasa, Yanagisawa and Fukaya 2015).  It
    factors the sum, in order, of the Gram matrices of the row blocks of
    ``Q1`` that ``blocks(R1^{-1})`` returns (called only then), as
    ``R2^T R2``: ``R = R2 R1``, ``R^{-1} = R1^{-1} R2^{-1}`` and
    ``second = (blocks(R1^{-1}), R2^{-1})``.  ``R`` has a positive
    diagonal.  Raises :class:`RankError`, naming ``gram`` by ``what``, where
    a Gram matrix is not finite or Cholesky fails on it (:func:`_cholesky_r`).
    """
    r = _cholesky_r(gram, what)
    r_inv = np.linalg.inv(r)
    if _one_pass_enough(gram, r_inv):
        return r, r_inv, None
    q1 = blocks(r_inv)
    gram2 = sum((b.T @ b for b in q1[1:]), q1[0].T @ q1[0])
    r2 = _cholesky_r(gram2, f"{what} (second pass)")
    r2_inv = np.linalg.inv(r2)
    return r2 @ r, r_inv @ r2_inv, (q1, r2_inv)


def polar_factor(x) -> np.ndarray:
    """Orthonormal polar factor ``x (x^T x)^{-1/2}``, computed as ``u @ vt``.

    This is the nearest matrix with orthonormal columns in Frobenius norm.

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

