"""Gradients of costs pulled back through the transform.

Given a smooth cost on ambient N-by-p matrices, the pulled-back cost on the
skew parameter space has an explicit Euclidean gradient assembled from one
p-by-p inverse; this module provides that gradient and sampled checks of
the Lipschitz / boundedness / variance bounds the pullback inherits from the
ambient cost.

Everything here works on compressed blocks.  The pullback factorizes only
the p-by-p matrix ``M`` and costs four N-row products beyond the ambient
gradient; :func:`grad_pullback` adds the inverse map when it has to build
the frame (four more N-row products, every factorization p-by-p).  The
pullback's three products with two distinct N-row operands go through
:func:`linalg._mm` (blocks on OpenBLAS's small-matrix path above its size
limit, at one BLAS thread); the Gram matrix ``B^T B`` stays ``x.T @ x`` on
numpy's symmetric (syrk) path.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg
from .cayley import Center, SkewParam, inverse, random_skew_param

__all__ = [
    "CostFunction",
    "grad_pullback",
    "pullback_from_euclidean",
    "BoundReport",
    "check_gradient_bounds",
]


@dataclass(frozen=True)
class CostFunction:
    """A smooth cost on ambient N-by-p matrices.

    ``eval`` maps a matrix to a scalar and ``grad`` to its Euclidean
    gradient (an N-by-p matrix).  ``eval_grad``, when provided, returns
    both at once so implementations can share work (e.g. one product
    ``A @ U`` serving value and gradient); :meth:`value_and_grad` falls
    back to two separate calls otherwise.  The solvers in
    :mod:`stiefel_cayley.optimize` call :meth:`value_and_grad` on every
    line-search trial, so a cost without ``eval_grad`` pays for ``eval``
    plus ``grad`` on each one.

    Instances must be stateless with respect to evaluation: calling the
    members concurrently from several threads has to be safe.
    """

    dim_n: int
    dim_p: int
    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    eval_grad: Optional[Callable[[np.ndarray], tuple]] = field(default=None)

    def value_and_grad(self, u: np.ndarray) -> tuple:
        if self.eval_grad is not None:
            return self.eval_grad(u)
        return self.eval(u), self.grad(u)


def pullback_from_euclidean(
    center: Center, v: SkewParam, g: np.ndarray, u: np.ndarray, *, btb: Optional[np.ndarray] = None
) -> SkewParam:
    """Assemble the pulled-back gradient from an ambient gradient.

    ``g`` must be the Euclidean gradient of the cost at ``u``, and ``u``
    must equal ``inverse(center, v)``.  With ``M = I + A + B^T B`` and
    ``X = S_le - S_ri B``, the kernel is

        ``W11 = M^{-1} g^T X M^{-1}``
        ``a   = W11 - W11^T``
        ``b   = -B (W11 + (g^T X M^{-1})^T M^{-T}) - S_ri^T g M^{-T}``

    ``M^{-1}`` is formed once and applied by matrix products.  That is
    safe: the symmetric part of ``M`` is ``I + B^T B``, which is ``>= I``,
    so ``||M^{-1}||_2 <= 1`` and ``cond_2(M) <= 1 + ||A||_2 + ||B||_2^2``
    (``run_gdm_cp`` re-centers once ``||B||_2`` exceeds 3, unless the
    caller fixed its center).  ``a`` is exactly skew by construction, so
    the result is built without the checked constructor's copies; its
    finiteness check is kept, so a non-finite ``g`` raises ``ValueError``.

    Cost for a structured center: four N-row products of ``O(N p^2)``
    flops each (``B^T B``, ``(S_ri^T g)^T B``, and the two terms of ``b``)
    plus ``O(p^3)``.  Separated from :func:`grad_pullback` so
    optimization loops that already hold ``u`` and ``g`` (from a fused cost
    evaluation) pay nothing twice.  For the same reason a caller that
    holds the Gram matrix ``B^T B`` of this ``v`` (``inverse`` forms it)
    passes it as ``btb`` and saves the first of those products; it must
    be ``v.b.T @ v.b`` as formed from this very ``v``, and then the result
    is bit-identical to the one without it.
    """
    p = v.p
    gle = center.leftT_mul(g, p)  # S_le^T g
    gri = center.riT_mul(g, p)  # S_ri^T g
    if btb is None:
        btb = v.b.T @ v.b
    m = np.eye(p) + v.a + btb
    m_inv = np.linalg.inv(m)
    gtx = gle.T - linalg._mm(gri.T, v.b)  # g^T (S_le - S_ri B)
    gp = gtx @ m_inv  # g^T X M^{-1}
    w11 = m_inv @ gp
    b = linalg._mm(v.b, -(w11 + gp.T @ m_inv.T))
    b -= linalg._mm(gri, m_inv.T)
    return SkewParam._trusted(
        linalg.as_matrix(w11 - w11.T, "a block"), linalg.as_matrix(b, "b block")
    )


def grad_pullback(
    center: Center, v: SkewParam, f: CostFunction, u: Optional[np.ndarray] = None
) -> SkewParam:
    """Euclidean gradient of the pulled-back cost at parameter ``v``.

    Evaluates the frame ``u = inverse(center, v)`` (or reuses a supplied
    one), queries the ambient gradient there, and assembles the compressed
    skew result via :func:`pullback_from_euclidean`.
    """
    if u is None:
        u = inverse(center, v)
    return pullback_from_euclidean(center, v, f.grad(u), u)


@dataclass(frozen=True)
class BoundReport:
    """Sampled verdict on the three pullback gradient bounds.

    Ratios are observed-over-limit, so any value above 1 is a violation.
    The variance fields are NaN (and its draw count zero) when no
    stochastic family was supplied.
    """

    samples: int
    mu: float
    lipschitz_const: float
    lipschitz_limit: float
    lipschitz_worst_ratio: float
    lipschitz_violations: int
    norm_limit: float
    norm_worst_ratio: float
    norm_violations: int
    variance_draws: int
    variance_ratio: float
    variance_limit: float
    variance_violations: int

    @property
    def passed(self) -> bool:
        return (
            self.lipschitz_violations == 0
            and self.norm_violations == 0
            and self.variance_violations == 0
        )

    def to_row(self) -> dict:
        """Flat record for CSV serialization."""
        return {**asdict(self), "passed": int(self.passed)}


#: :func:`check_gradient_bounds` draws each parameter with a norm uniform
#: in ``[0, BOUND_PARAM_SCALE]``.
BOUND_PARAM_SCALE = 10.0


def check_gradient_bounds(
    f: CostFunction,
    center: Center,
    samples: int = 1000,
    *,
    mu: float,
    lipschitz: float,
    grad_norm_max: float,
    family=None,
    variance_draws: int = 10_000,
    seed: int = 0,
) -> BoundReport:
    """Sample-check the bounds the pullback inherits from the ambient cost.

    Over ``samples`` random parameter pairs with norms up to
    :data:`BOUND_PARAM_SCALE`, verifies the Lipschitz bound ``4 (mu + L)``
    and the norm bound ``2 max ||grad f||_F``.  When a stochastic
    ``family`` is supplied (an object with ``sigma``, ``mean_cost`` and
    ``draw(k)``), also estimates the pulled-back gradient variance over
    ``variance_draws`` draws against the limit ``4 sigma^2`` plus three
    standard errors.

    ``mu`` (spectral-norm bound on the ambient gradient over the manifold),
    ``lipschitz`` (Lipschitz constant of the ambient gradient) and
    ``grad_norm_max`` (Frobenius max of the ambient gradient) are the
    cost's analytic constants.  This is a report, not an assertion:
    violations are counted and returned, never raised.
    """
    n, p = f.dim_n, f.dim_p
    if center.n != n:
        raise linalg.DimensionError(f"cost expects n={n} but center has n={center.n}")
    rng = np.random.default_rng(seed)

    def observed_over_limit(lhs: float, limit: float) -> float:
        if limit == 0.0:
            return 0.0 if lhs == 0.0 else math.inf
        return lhs / limit

    lip_limit = 4.0 * (mu + lipschitz)
    norm_limit = 2.0 * grad_norm_max
    lip_worst = 0.0
    lip_bad = 0
    norm_worst = 0.0
    norm_bad = 0
    for _ in range(samples):
        scale1 = BOUND_PARAM_SCALE * float(rng.uniform(0.0, 1.0))
        scale2 = BOUND_PARAM_SCALE * float(rng.uniform(0.0, 1.0))
        v1 = random_skew_param(rng, n, p, scale1)
        v2 = random_skew_param(rng, n, p, scale2)
        g1 = grad_pullback(center, v1, f)
        g2 = grad_pullback(center, v2, f)
        diff = (v1 - v2).norm()
        if diff > 1e-12:
            ratio = observed_over_limit((g1 - g2).norm(), lip_limit * diff)
            lip_worst = max(lip_worst, ratio)
            lip_bad += ratio > 1.0
        for g in (g1, g2):
            ratio = observed_over_limit(g.norm(), norm_limit)
            norm_worst = max(norm_worst, ratio)
            norm_bad += ratio > 1.0

    var_ratio = math.nan
    var_limit = math.nan
    var_bad = 0
    drawn = 0
    if family is not None and variance_draws > 0:
        sigma2 = float(family.sigma) ** 2
        v = random_skew_param(rng, n, p, 2.0)
        g_mean = grad_pullback(center, v, family.mean_cost)
        u = inverse(center, v)
        sq = np.empty(variance_draws)
        for k in range(variance_draws):
            gk = grad_pullback(center, v, family.draw(k), u=u)
            sq[k] = (gk - g_mean).norm() ** 2
        drawn = variance_draws
        mean_sq = float(np.mean(sq))
        stderr = float(np.std(sq)) / math.sqrt(variance_draws)
        if sigma2 == 0.0:
            var_ratio = 0.0 if mean_sq == 0.0 else math.inf
            var_limit = 4.0
        else:
            var_ratio = mean_sq / sigma2
            var_limit = 4.0 + 3.0 * stderr / sigma2
        var_bad = int(var_ratio > var_limit)

    return BoundReport(
        samples=samples,
        mu=float(mu),
        lipschitz_const=float(lipschitz),
        lipschitz_limit=lip_limit,
        lipschitz_worst_ratio=lip_worst,
        lipschitz_violations=int(lip_bad),
        norm_limit=norm_limit,
        norm_worst_ratio=norm_worst,
        norm_violations=int(norm_bad),
        variance_draws=drawn,
        variance_ratio=var_ratio,
        variance_limit=var_limit,
        variance_violations=var_bad,
    )
