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

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .cayley import Center, random_skew_param
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
    n, p = operator.index(n), operator.index(p)
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


# Above ``p N^2 = linalg.SMALL_PRODUCT_MAX``, time of ``A U`` in row blocks
# (``linalg._mm``) over ``(U^T A)^T``, best of 7 interleaved rounds, one
# BLAS thread (scipy-openblas 0.3.31):
#
# ======  =====  =====  =====  =====  =====  =====  =====  =====  =====
#   N     p=2    p=5    p=10   p=15   p=20   p=25   p=30   p=40   p=64
# ======  =====  =====  =====  =====  =====  =====  =====  =====  =====
#   320                 0.64   0.78   0.80   0.98   1.03   0.70   1.01
#   400                 0.73   0.80   0.79   1.01   1.14   1.04   0.80
#   500          0.52   0.63   0.74   0.82   0.96   1.01   0.98   1.19
#   700          0.51   0.63   0.78   0.75   0.96   1.11   1.09   1.10
#  1000   0.50   0.51   0.68   0.70   0.84   1.00   1.14   1.07   0.88
#  1400   0.52   0.59   0.81   0.89   0.95   1.06   1.37   1.22   0.96
#  2000   0.61   0.60   0.82   0.86   0.99   1.00   1.25   1.00   1.05
# ======  =====  =====  =====  =====  =====  =====  =====  =====  =====
#
# (blank: at or below the limit, where both are ``A @ U``).  The blocks
# win for p <= 20, tie at p=1 (0.96-1.07 at N 1001-2000) and p=25, and
# lose by up to 1.37x at p=30; they are used for every p, since no
# benchmark workload has p > 20.  The ratio climbs with N; no N above
# 2000 was timed.  At two BLAS threads ``(U^T A)^T`` is split across the
# threads and the blocks are not, and the blocks lose (1.13x at N=500,
# p=10; 1.43x at N=2000, p=20), so they are used only at one thread.


def _sym_times(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``A U`` for an exactly symmetric ``A`` (C-ordered result).

    At or below :data:`linalg.SMALL_PRODUCT_MAX` it is one product
    ``a @ u``.  Above it, at one OpenBLAS thread, it is
    :func:`linalg._mm`'s row blocks, each its own product ``a[block] @ u``
    of at most that size.  Otherwise (more threads, another BLAS, or a
    single row already over the limit) it is ``(U^T A)^T``, which equals
    ``A U`` only because ``A = A^T`` holds exactly: both
    :func:`make_eigen_instance` and :meth:`StochasticEigenFamily.draw`
    build ``a`` that way.  The forms sum in different orders, so they may
    differ at roundoff.
    """
    n, p = u.shape
    if n * n * p > linalg.SMALL_PRODUCT_MAX and not linalg._block_size(n, n, p):
        return np.ascontiguousarray((u.T @ a).T)
    return linalg._mm(a, u)


def _fused_cost(n: int, p: int, evgr) -> CostFunction:
    """The cost whose fused evaluation ``evgr(u) -> (value, gradient)`` also
    gives its value and its gradient, so the three members agree bitwise."""
    return CostFunction(dim_n=n, dim_p=p, eval=lambda u: evgr(u)[0],
                        grad=lambda u: evgr(u)[1], eval_grad=evgr)


def _trace_cost(a: np.ndarray, n: int, p: int) -> CostFunction:
    def evgr(u: np.ndarray):
        au = _sym_times(a, u)
        return -float(np.vdot(u, au)), -2.0 * au

    return _fused_cost(n, p, evgr)


def eigen_cost(inst: EigenInstance) -> CostFunction:
    """``f(U) = -trace(U^T A U)`` with gradient ``-2 A U``.

    Minimized exactly by any orthonormal basis of the top-p eigenspace;
    invariant under right-multiplication of ``U`` by any orthogonal p-by-p
    matrix.  The value and the gradient are both taken from the fused
    evaluation and its one product ``A U``, so they agree bitwise.
    At or below ``p N^2 = 100^3`` that product is ``A @ U``.  Above it,
    where OpenBLAS leaves its small-matrix path and ``A @ U`` slows down,
    it is formed at one BLAS thread in row blocks that each stay on that
    path, and otherwise as ``(U^T A)^T``, which relies on ``inst.a`` being
    exactly symmetric (see :func:`_sym_times`).  The summation
    order, and so the last bits, therefore change across that size and
    with the BLAS thread count above it.
    """
    return _trace_cost(inst.a, inst.n, inst.p)


def distance_cost(target: np.ndarray) -> CostFunction:
    """``f(U) = ||U - target||_F^2 / 2`` with gradient ``U - target``.

    A ``target`` that is not 2-D or not finite raises on entry."""
    target = linalg.as_matrix(target, "target").copy()
    target.setflags(write=False)
    n, p = target.shape

    def evgr(u: np.ndarray):
        d = u - target
        return 0.5 * float(np.sum(d * d)), d

    return _fused_cost(n, p, evgr)


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
