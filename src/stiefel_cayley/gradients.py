"""Gradients of costs pulled back through the transform.

Given a smooth cost on ambient N-by-p matrices, the pulled-back cost on the
skew parameter space has an explicit Euclidean gradient assembled from one
p-by-p inverse; this module provides that gradient, its closed form at the
origin, the first-order optimality residual of a frame, and sampled checks of
the Lipschitz / boundedness / variance bounds the pullback inherits from the
ambient cost.

Everything here works on compressed blocks.  The pullback factorizes only
the p-by-p matrix ``M`` and costs ``O(N p^2)`` beyond the ambient gradient;
:func:`grad_pullback` adds the inverse map when it has to build the frame
(one Householder QR of the (N-p)-by-p block plus p-by-p work).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg
from .cayley import Center, SkewParam, inverse

__all__ = [
    "CostFunction",
    "grad_pullback",
    "pullback_from_euclidean",
    "grad_at_zero",
    "BoundReport",
    "check_gradient_bounds",
    "stationarity_residual",
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
    center: Center, v: SkewParam, g: np.ndarray, u: np.ndarray
) -> SkewParam:
    """Assemble the pulled-back gradient from an ambient gradient.

    ``g`` must be the Euclidean gradient of the cost at ``u``, and ``u``
    must equal ``inverse(center, v)``.  With ``M = I + A + B^T B`` and
    ``X = S_le - S_ri B``, the kernel is

        ``W11 = M^{-1} g^T X M^{-1}``
        ``a   = W11 - W11^T``
        ``b   = -B W11 - (B (g^T X M^{-1})^T + S_ri^T g) M^{-T}``

    ``M^{-1}`` is formed once and applied by matrix products.  That is
    safe: the symmetric part of ``M`` is ``I + B^T B``, which is ``>= I``,
    so ``||M^{-1}||_2 <= 1`` and ``cond_2(M) <= 1 + ||A||_2 + ||B||_2^2``
    (``run_gdm_cp`` re-centers once ``||B||_2`` exceeds 3, unless the
    caller fixed its center).  ``a`` is exactly skew by construction, so
    the result is built without the checked constructor's copies; its
    finiteness check is kept, so a non-finite ``g`` raises ``ValueError``.

    Cost for a structured center: five products of ``O(N p^2)`` flops
    each plus ``O(p^3)``.  Separated from :func:`grad_pullback` so
    optimization loops that already hold ``u`` and ``g`` (from a fused cost
    evaluation) pay nothing twice.
    """
    p = v.p
    gle = center.leftT_mul(g, p)  # S_le^T g
    gri = center.riT_mul(g, p)  # S_ri^T g
    m = np.eye(p) + v.a + v.b.T @ v.b
    m_inv = np.linalg.inv(m)
    gtx = gle.T - gri.T @ v.b  # g^T (S_le - S_ri B)
    gp = gtx @ m_inv  # g^T X M^{-1}
    w11 = m_inv @ gp
    z = v.b @ gp.T + gri
    b = -v.b @ w11 - z @ m_inv.T
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


def grad_at_zero(center: Center, f: CostFunction) -> SkewParam:
    """Pulled-back gradient at the origin of parameter space.

    At ``V = 0`` the frame is ``S_le`` and the blocks collapse to

        ``a = g^T S_le - S_le^T g``,  ``b = -S_ri^T g``,  ``g = grad f(S_le)``

    with no solves at all.  Agrees with ``grad_pullback(center, 0, f)``.
    The result vanishes exactly when ``S_le`` is a stationary point of the
    cost on the manifold (compare :func:`stationarity_residual`).
    """
    p = f.dim_p
    if center.n != f.dim_n:
        raise linalg.DimensionError(
            f"cost expects n={f.dim_n} but center has n={center.n}"
        )
    u = center.left(p)
    g = f.grad(u)
    gle = center.leftT_mul(g, p)
    return SkewParam(gle.T - gle, -center.riT_mul(g, p))


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
        return {
            "samples": self.samples,
            "mu": self.mu,
            "lipschitz_const": self.lipschitz_const,
            "lipschitz_limit": self.lipschitz_limit,
            "lipschitz_worst_ratio": self.lipschitz_worst_ratio,
            "lipschitz_violations": self.lipschitz_violations,
            "norm_limit": self.norm_limit,
            "norm_worst_ratio": self.norm_worst_ratio,
            "norm_violations": self.norm_violations,
            "variance_draws": self.variance_draws,
            "variance_ratio": self.variance_ratio,
            "variance_limit": self.variance_limit,
            "variance_violations": self.variance_violations,
            "passed": int(self.passed),
        }


def _random_param(rng: np.random.Generator, n: int, p: int, scale: float) -> SkewParam:
    v = SkewParam(rng.standard_normal((p, p)), rng.standard_normal((n - p, p)))
    nrm = v.norm()
    return v if nrm == 0.0 else (scale / nrm) * v


def check_gradient_bounds(
    f: CostFunction,
    center: Center,
    samples: int = 1000,
    *,
    mu: Optional[float] = None,
    lipschitz: Optional[float] = None,
    grad_norm_max: Optional[float] = None,
    family=None,
    variance_draws: int = 10_000,
    param_scale: float = 10.0,
    seed: int = 0,
) -> BoundReport:
    """Sample-check the bounds the pullback inherits from the ambient cost.

    Over ``samples`` random parameter pairs with norms up to ``param_scale``
    verifies the Lipschitz bound ``4 (mu + L)`` and the norm bound
    ``2 max ||grad f||_F``; when a stochastic ``family`` is supplied (an
    object with ``sigma``, ``mean_cost`` and ``draw(k)``), additionally
    estimates the pulled-back gradient variance over ``variance_draws``
    draws against the limit ``4 sigma^2`` plus three standard errors.

    ``mu`` (spectral-norm bound on the ambient gradient over the manifold),
    ``lipschitz`` and ``grad_norm_max`` (Frobenius max) may be supplied
    analytically; whichever is missing is estimated from 1000 random
    feasible frames, with a safety factor of 2 on ``mu`` and ``lipschitz``
    since sampling can undershoot a maximum.  This is a report, not an
    assertion: violations are counted and returned, never raised.
    """
    n, p = f.dim_n, f.dim_p
    if center.n != n:
        raise linalg.DimensionError(f"cost expects n={n} but center has n={center.n}")
    rng = np.random.default_rng(seed)

    if mu is None or lipschitz is None or grad_norm_max is None:
        frames = [
            linalg.qr_orthonormalize(rng.standard_normal((n, p))) for _ in range(1000)
        ]
        grads = [f.grad(u) for u in frames]
        if mu is None:
            mu = 2.0 * max(float(np.linalg.norm(g, 2)) for g in grads)
        if grad_norm_max is None:
            grad_norm_max = max(float(np.linalg.norm(g)) for g in grads)
        if lipschitz is None:
            slopes = []
            for i in range(0, len(frames) - 1, 2):
                du = float(np.linalg.norm(frames[i] - frames[i + 1]))
                if du > 1e-8:
                    slopes.append(float(np.linalg.norm(grads[i] - grads[i + 1])) / du)
            lipschitz = 2.0 * max(slopes)

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
        scale1 = param_scale * float(rng.uniform(0.0, 1.0))
        scale2 = param_scale * float(rng.uniform(0.0, 1.0))
        v1 = _random_param(rng, n, p, scale1)
        v2 = _random_param(rng, n, p, scale2)
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
        v = _random_param(rng, n, p, 2.0)
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


def stationarity_residual(u: np.ndarray, f: CostFunction) -> float:
    """First-order optimality residual of a feasible frame.

    ``||(I - U U^T) grad f(U)||_F + ||U^T grad f(U) - grad f(U)^T U||_F``:
    zero exactly at the stationary points of the cost restricted to the
    manifold (gradient normal to the frame's column space and the p-by-p
    coupling symmetric).
    """
    u = np.asarray(u, dtype=np.float64)
    g = f.grad(u)
    utg = u.T @ g
    normal_part = g - u @ utg
    return float(np.linalg.norm(normal_part)) + float(np.linalg.norm(utg - utg.T))
