"""Benchmark costs and reproducible random instances.

The eigenbasis-extraction cost (maximize the trace of a projected symmetric
PSD matrix), the squared-distance cost used by the near-singular-center
experiment, the parametrized rotation centers that experiment sweeps, a
stochastic eigen family with an exactly known gradient-noise variance, and
seeded sampling helpers shared by the CLI and the test suite.

All randomness flows through ``numpy.random.default_rng`` (PCG64); costs
built here are stateless and safe to evaluate concurrently.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass

import numpy as np

from . import linalg
from .cayley import Center, SkewParam
from .gradients import CostFunction

__all__ = [
    "EigenInstance",
    "make_eigen_instance",
    "eigen_cost",
    "distance_cost",
    "rotation_center",
    "StochasticEigenFamily",
    "stochastic_eigen_family",
    "random_stiefel",
    "random_center",
    "random_skew_param",
]


@dataclass(frozen=True)
class EigenInstance:
    """A symmetric PSD matrix with its known projection optimum.

    ``optimum_value`` is minus the sum of the p largest eigenvalues of
    ``a`` and ``optimum_basis`` stacks the corresponding eigenvectors
    (descending eigenvalue order), so solver results can be measured
    against the exact global minimum.
    """

    n: int
    p: int
    a: np.ndarray
    optimum_value: float
    optimum_basis: np.ndarray


def make_eigen_instance(n: int, p: int, seed: int) -> EigenInstance:
    """Sample ``A = G^T G`` with standard-normal ``G`` and solve it exactly.

    The Gram construction keeps the conditioning profile of squared
    Gaussian spectra; the optimum comes from a symmetric eigendecomposition.
    """
    if not 1 <= p < n:
        raise linalg.DimensionError(f"need 1 <= p < n, got n={n}, p={p}")
    rng = np.random.default_rng(seed)
    atilde = rng.standard_normal((n, n))
    a = atilde.T @ atilde
    a = (a + a.T) / 2.0
    evals, evecs = np.linalg.eigh(a)
    basis = np.ascontiguousarray(evecs[:, : n - p - 1 : -1])
    a.setflags(write=False)
    basis.setflags(write=False)
    return EigenInstance(
        n=n,
        p=p,
        a=a,
        optimum_value=-float(np.sum(evals[n - p :])),
        optimum_basis=basis,
    )


#: OpenBLAS's small-matrix GEMM limit on ``m n k`` (100^3): a product at
#: or below it runs on an unpacked kernel, a larger one packs the whole of
#: ``A`` into GEMM panels on every call.  At one BLAS thread
#: (scipy-openblas 0.3.31) ``A @ U`` jumps from 82.6 us at N=316, p=10 to
#: 148.6 us at N=317, and the same jump shows at p=2 (N 707/708), p=5
#: (447/448) and p=20 (223/224).  Above it, :func:`_sym_times` forms
#: ``A U`` in row blocks of ``SMALL_PRODUCT_MAX // (N p)`` rows, each its
#: own product at or below it.  Time of the blocked form over
#: ``(U^T A)^T``, best of 7 interleaved rounds, one BLAS thread:
#:
#: ======  =====  =====  =====  =====  =====  =====  =====  =====  =====
#:   N     p=2    p=5    p=10   p=15   p=20   p=25   p=30   p=40   p=64
#: ======  =====  =====  =====  =====  =====  =====  =====  =====  =====
#:   320                 0.64   0.78   0.80   0.98   1.03   0.70   1.01
#:   400                 0.73   0.80   0.79   1.01   1.14   1.04   0.80
#:   500          0.52   0.63   0.74   0.82   0.96   1.01   0.98   1.19
#:   700          0.51   0.63   0.78   0.75   0.96   1.11   1.09   1.10
#:  1000   0.50   0.51   0.68   0.70   0.84   1.00   1.14   1.07   0.88
#:  1400   0.52   0.59   0.81   0.89   0.95   1.06   1.37   1.22   0.96
#:  2000   0.61   0.60   0.82   0.86   0.99   1.00   1.25   1.00   1.05
#: ======  =====  =====  =====  =====  =====  =====  =====  =====  =====
#:
#: (blank: at or below the limit, where both are ``A @ U``).  The blocks
#: win for p <= 20, tie at p=1 (0.96-1.07 at N 1001-2000) and p=25, and
#: lose by up to 1.37x at p=30; they are used for every p, since no
#: benchmark workload has p > 20.  The ratio climbs with N; no N above
#: 2000 was timed.  At two BLAS threads ``(U^T A)^T`` is split across the
#: threads and the blocks are not, and the blocks lose (1.13x at N=500,
#: p=10; 1.43x at N=2000, p=20), so they are used only at one thread.
SMALL_PRODUCT_MAX = 100**3


@functools.cache
def _openblas_get_num_threads():
    """OpenBLAS's ``get_num_threads`` in the library bundled with numpy,
    or None where numpy links another BLAS."""
    root = os.path.dirname(np.__file__)
    for path in glob.glob(root + ".libs/*openblas*") + glob.glob(root + "/.dylibs/*openblas*"):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                return get
    return None


def _single_blas_thread() -> bool:
    """Whether numpy's BLAS is its bundled OpenBLAS, running one thread."""
    get = _openblas_get_num_threads()
    return get is not None and get() == 1


def _sym_times(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``A U`` for an exactly symmetric ``A`` (C-ordered result).

    At or below :data:`SMALL_PRODUCT_MAX` it is one product ``a @ u``.
    Above it, at one OpenBLAS thread, each row block of the result is its
    own product ``a[block] @ u`` of at most ``SMALL_PRODUCT_MAX`` size.
    Otherwise (more threads, another BLAS, or a single row already over
    the limit) it is ``(U^T A)^T``, which equals ``A U`` only because
    ``A = A^T`` holds exactly: both :func:`make_eigen_instance` and
    :meth:`StochasticEigenFamily.draw` build ``a`` that way.  The forms sum
    in different orders, so they may differ at roundoff.
    """
    n, p = u.shape
    rows = SMALL_PRODUCT_MAX // (n * p)
    if rows < n and (rows == 0 or not _single_blas_thread()):
        return np.ascontiguousarray((u.T @ a).T)
    out = np.empty((n, p))
    for i in range(0, n, rows):
        np.matmul(a[i : i + rows], u, out=out[i : i + rows])
    return out


def _trace_cost(a: np.ndarray, n: int, p: int) -> CostFunction:
    def ev(u: np.ndarray) -> float:
        return -float(np.vdot(u, _sym_times(a, u)))

    def gr(u: np.ndarray) -> np.ndarray:
        return -2.0 * _sym_times(a, u)

    def evgr(u: np.ndarray):
        au = _sym_times(a, u)
        return -float(np.vdot(u, au)), -2.0 * au

    return CostFunction(dim_n=n, dim_p=p, eval=ev, grad=gr, eval_grad=evgr)


def eigen_cost(inst: EigenInstance) -> CostFunction:
    """``f(U) = -trace(U^T A U)`` with gradient ``-2 A U``.

    Minimized exactly by any orthonormal basis of the top-p eigenspace;
    invariant under right-multiplication of ``U`` by any orthogonal p-by-p
    matrix.  The value, the gradient and the fused evaluation all take
    the one product ``A U`` from the same helper, so they agree bitwise.
    At or below ``p N^2 = 100^3`` that product is ``A @ U``.  Above it,
    where OpenBLAS leaves its small-matrix path and ``A @ U`` slows down,
    it is formed at one BLAS thread in row blocks that each stay on that
    path, and otherwise as ``(U^T A)^T``, which relies on ``inst.a`` being
    exactly symmetric (see :data:`SMALL_PRODUCT_MAX`).  The summation
    order, and so the last bits, therefore change across that size and
    with the BLAS thread count above it.
    """
    return _trace_cost(inst.a, inst.n, inst.p)


def distance_cost(target: np.ndarray) -> CostFunction:
    """``f(U) = ||U - target||_F^2 / 2`` with gradient ``U - target``."""
    target = np.asarray(target, dtype=np.float64).copy()
    target.setflags(write=False)
    n, p = target.shape

    def ev(u: np.ndarray) -> float:
        return 0.5 * float(np.sum((u - target) ** 2))

    def gr(u: np.ndarray) -> np.ndarray:
        return u - target

    def evgr(u: np.ndarray):
        d = u - target
        return 0.5 * float(np.sum(d * d)), d

    return CostFunction(dim_n=n, dim_p=p, eval=ev, grad=gr, eval_grad=evgr)


def rotation_center(theta: float, n: int, p: int):
    """Structured center rotating the leading 2-plane by ``theta``.

    Returns ``(center, left_block)`` where the center's p-by-p block is
    ``diag(R(theta), I_{p-2})`` and ``left_block`` is its first p columns
    as an n-by-p frame (handy as a target or start point).  The family
    interpolates from the identity (theta = 0) to a half-turn (theta = pi)
    whose left block is maximally far from the identity's in the leading
    plane; requires p >= 2.
    """
    if p < 2:
        raise linalg.DimensionError(f"rotation center needs p >= 2, got p={p}")
    c, s = math.cos(theta), math.sin(theta)
    t = np.eye(p)
    t[0, 0] = c
    t[0, 1] = -s
    t[1, 0] = s
    t[1, 1] = c
    center = Center.structured(t, n)
    return center, center.left(p)


class StochasticEigenFamily:
    """Eigen cost with symmetric Gaussian matrix noise of known variance.

    Draw ``k`` uses ``A + a (G + G^T)`` with i.i.d. standard-normal ``G``
    seeded by ``(seed, k)`` and amplitude ``a = sigma / sqrt(8 p (n+1))``,
    chosen so that exactly, for every feasible frame,

        ``E[grad f_draw(U)] = grad f(U)``  and
        ``E || grad f_draw(U) - grad f(U) ||_F^2 = sigma^2``

    (the second moment of ``(G + G^T)^2`` is ``2 (n+1) I``).  ``sigma = 0``
    degenerates to the deterministic cost.
    """

    def __init__(self, inst: EigenInstance, sigma: float, seed: int):
        if not 0.0 <= sigma < math.inf:
            raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
        self.inst = inst
        self.sigma = float(sigma)
        self.seed = int(seed)
        self.mean_cost = eigen_cost(inst)
        self._amp = self.sigma / math.sqrt(8.0 * inst.p * (inst.n + 1))

    def draw(self, k: int) -> CostFunction:
        if self._amp == 0.0:
            return self.mean_cost
        rng = np.random.default_rng([self.seed, int(k)])
        g = rng.standard_normal((self.inst.n, self.inst.n))
        a_draw = self.inst.a + self._amp * (g + g.T)
        return _trace_cost(a_draw, self.inst.n, self.inst.p)


def stochastic_eigen_family(
    inst: EigenInstance, noise_sigma: float, seed: int
) -> StochasticEigenFamily:
    """Build a :class:`StochasticEigenFamily` (see its docstring)."""
    return StochasticEigenFamily(inst, noise_sigma, seed)


def random_stiefel(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """A uniformly random feasible frame (orthonormalized Gaussian)."""
    return linalg.qr_orthonormalize(rng.standard_normal((n, p)))


def random_center(
    rng: np.random.Generator, n: int, p: int, structured: bool = True
) -> Center:
    """A random center: block-structured by default, fully general otherwise."""
    if structured:
        return Center.structured(random_stiefel(rng, p, p), n)
    return Center.general(random_stiefel(rng, n, n))


def random_skew_param(
    rng: np.random.Generator, n: int, p: int, norm: float | None = None
) -> SkewParam:
    """A random parameter, optionally rescaled to a target weighted norm."""
    v = SkewParam(rng.standard_normal((p, p)), rng.standard_normal((n - p, p)))
    if norm is None:
        return v
    nrm = v.norm()
    return v if nrm == 0.0 else (norm / nrm) * v
