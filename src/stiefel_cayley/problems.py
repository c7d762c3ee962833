"""Benchmark costs and reproducible random instances.

The eigenbasis-extraction cost (maximize the trace of a projected symmetric
PSD matrix), the squared-distance cost used by the near-singular-center
experiment, the parametrized rotation centers that experiment sweeps, a
stochastic eigen family with an exactly known gradient-noise variance, and
seeded sampling helpers shared by the CLI and the test suite.

All randomness flows through ``numpy.random.default_rng`` (PCG64); costs
built here are stateless.
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
    Both run at one OpenBLAS thread (``linalg._one_blas_thread``), so the
    instance is the same at every thread count: split across threads, the
    n^3 Gram product sums in another order.
    """
    n, p = operator.index(n), operator.index(p)
    if not 1 <= p < n:
        raise linalg.DimensionError(f"need 1 <= p < n, got n={n}, p={p}")
    rng = np.random.default_rng(seed)
    atilde = rng.standard_normal((n, n))
    with linalg._one_blas_thread():
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


def _fused_cost(n: int, p: int, evgr) -> CostFunction:
    """The cost whose fused evaluation ``evgr(u) -> (value, gradient)`` also
    gives its value and its gradient, so the three members agree bitwise."""
    return CostFunction(dim_n=n, dim_p=p, eval=lambda u: evgr(u)[0],
                        grad=lambda u: evgr(u)[1], eval_grad=evgr)


# ``A U`` takes ``linalg._mm``'s row blocks at every p: against ``(U^T A)^T``
# they won for p <= 20 (0.63x at N=500, p=10) and lost by up to 1.37x at
# p=30, and no benchmark workload has p > 20.  The sweep is in CHANGES.md,
# the entry "One place for each number".


def _trace_cost(a: np.ndarray, n: int, p: int) -> CostFunction:
    def evgr(u: np.ndarray):
        au = linalg._mm(a, u)
        return -float(np.vdot(u, au)), -2.0 * au

    return _fused_cost(n, p, evgr)


def eigen_cost(inst: EigenInstance) -> CostFunction:
    """``f(U) = -trace(U^T A U)`` with gradient ``-2 A U``.

    Minimized exactly by any orthonormal basis of the top-p eigenspace;
    invariant under right-multiplication of ``U`` by any orthogonal p-by-p
    matrix.  The value and the gradient are both taken from the fused
    evaluation and its one product ``A U``, so they agree bitwise.  That
    product is taken by :func:`linalg._mm`, in row blocks above
    ``p N^2 = linalg.SMALL_PRODUCT_MAX``, so its summation order, and with
    it the last bits, change across that size.
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
        return 0.5 * float(np.vdot(d, d)), d

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
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        self.inst = inst
        self.sigma = float(sigma)
        self.seed = seed
        self.mean_cost = eigen_cost(inst)
        self._amp = self.sigma / math.sqrt(8.0 * inst.p * (inst.n + 1))

    def draw(self, k: int) -> CostFunction:
        k = operator.index(k)
        if self._amp == 0.0:
            return self.mean_cost
        rng = np.random.default_rng([self.seed, k])
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
