"""Tangent-space machinery and retraction baselines.

Tangent vectors at a feasible frame, the projection onto the tangent space,
three classic retractions (QR, polar, Cayley), the exact inverse of the
Cayley retraction, the linear bridge between tangent vectors and the skew
parameter space, and the gradient of a cost composed with the Cayley
retraction.

The Cayley retraction and its gradient run through a low-rank update
(Sherman-Morrison-Woodbury) so their cost is O(Np^2); the update's inner
2p-by-2p system can become ill-conditioned for large steps, which is
surfaced as :class:`StepTooLargeError` so line searches can shrink the step
instead of aborting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .cayley import Center, SingularPointError, SkewParam, _frozen, _pivot_check
from .gradients import CostFunction

__all__ = [
    "StepTooLargeError",
    "TangentVector",
    "orth_complement",
    "project_tangent",
    "riemannian_grad",
    "retract_qr",
    "retract_polar",
    "retract_cayley",
    "psi_map",
    "inverse_retract_cayley",
    "grad_retraction_pullback",
]


class StepTooLargeError(RuntimeError):
    """The low-rank update behind the Cayley retraction is unreliable here.

    Raised when the inner 2p-by-2p system's condition estimate exceeds
    ``linalg.COND_LIMIT`` (or its factorization fails outright).  Callers
    running a line search should treat this as "shrink the step and retry".
    """

    def __init__(self, msg: str, cond: float):
        super().__init__(msg)
        self.cond = cond


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector ``mat`` at the feasible frame ``base``.

    A caller's construction checks finite 2-D arrays of one shape and the
    tangency identity ``U^T D + D^T U = 0`` (tolerance ``1e-10``, scaled by
    the norm) and stores read-only copies.  ``+``, ``-`` and scalar ``*``
    (same base only) trust their operands, since tangency is linear.
    ``norm`` and ``inner`` use the Frobenius geometry of the ambient matrix.
    """

    base: np.ndarray
    mat: np.ndarray

    def __post_init__(self):
        base = linalg.as_matrix(self.base, "base frame")
        mat = linalg.as_matrix(self.mat, "tangent matrix")
        if base.shape != mat.shape:
            raise linalg.DimensionError(
                f"tangent matrix shape {mat.shape} != base shape {base.shape}"
            )
        defect = float(np.linalg.norm(base.T @ mat + mat.T @ base))
        tol = 1e-10 * max(1.0, float(np.linalg.norm(mat)))
        if defect > tol:
            raise ValueError(
                f"matrix is not tangent at the base frame: defect {defect:.3e}"
            )
        _frozen(self, base=base.copy(), mat=mat.copy())

    @classmethod
    def zero(cls, base) -> "TangentVector":
        """The zero vector at ``base``.

        Zero is tangent at every frame, so only ``base`` is checked (2-D,
        finite) and copied; the tangency product is skipped.
        """
        base = linalg.as_matrix(base, "base frame").copy()
        return _frozen(object.__new__(cls), base=base, mat=np.zeros_like(base))

    def _same_base(self, other: "TangentVector") -> None:
        if not np.array_equal(self.base, other.base):
            raise ValueError("tangent vectors live at different base frames")

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))

    def inner(self, other: "TangentVector") -> float:
        self._same_base(other)
        return float(np.tensordot(self.mat, other.mat))

    def __add__(self, other: "TangentVector") -> "TangentVector":
        self._same_base(other)
        return _frozen(object.__new__(TangentVector), base=self.base, mat=self.mat + other.mat)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        self._same_base(other)
        return _frozen(object.__new__(TangentVector), base=self.base, mat=self.mat - other.mat)

    def __mul__(self, scalar) -> "TangentVector":
        return _frozen(object.__new__(TangentVector), base=self.base, mat=float(scalar) * self.mat)

    __rmul__ = __mul__


def orth_complement(u: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the orthogonal complement of ``range(U)``.

    Trailing N-p columns of a full QR factorization.  Only needed by the
    bridge :func:`psi_map` and by tests; the Cayley retraction and its
    inverse never touch it.
    """
    u = np.asarray(u, dtype=np.float64)
    q = np.linalg.qr(u, mode="complete")[0]
    return q[:, u.shape[1] :]


def project_tangent(u: np.ndarray, x: np.ndarray) -> TangentVector:
    """Orthogonal projection of an ambient matrix onto the tangent space.

    ``P(X) = X - U sym(U^T X)``, equivalently
    ``(1/2) U (U^T X - X^T U) + (I - U U^T) X``.  Idempotent; the residual
    ``X - P(X)`` is orthogonal to every tangent vector.

    The formula is applied twice: one pass leaves a skew-coupling defect
    proportional to roundoff in ``X``, which breaks the TangentVector
    tolerance exactly when the tangential part is far smaller than ``X``
    (a converged gradient of a large-norm cost); the second pass shrinks
    the defect to the scale of the output itself.
    """
    u = np.asarray(u, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    utx = u.T @ x
    once = x - u @ ((utx + utx.T) / 2.0)
    uto = u.T @ once
    return TangentVector(u, once - u @ ((uto + uto.T) / 2.0))


def riemannian_grad(u: np.ndarray, f: CostFunction) -> TangentVector:
    """Projected ambient gradient: the steepest-ascent tangent direction."""
    return project_tangent(u, f.grad(np.asarray(u, dtype=np.float64)))


def retract_qr(u: np.ndarray, d: TangentVector) -> np.ndarray:
    """QR retraction: orthonormalize ``U + D``."""
    return linalg.qr_orthonormalize(u + d.mat)


def retract_polar(u: np.ndarray, d: TangentVector) -> np.ndarray:
    """Polar retraction: closest feasible frame to ``U + D``."""
    return linalg.polar_factor(u + d.mat)


def _smw_panels(u: np.ndarray, dmat: np.ndarray):
    """Low-rank panels of the Cayley-retraction kernel at step ``D``.

    The kernel matrix is ``Z = (I + W)^{-1}`` for the rank-2p skew
    ``W = (U Y^T - Y U^T)/2`` with ``Y = (I - U U^T / 2) D``; writing
    ``W = A_lr B_lr^T`` gives ``Z = I - A_lr (I + B_lr^T A_lr)^{-1} B_lr^T``
    so only a 2p-by-2p system is ever solved.  ``I + W`` itself is never
    singular (``det >= 1`` for skew ``W``), but the low-rank inner system
    can be arbitrarily ill-conditioned for large ``D``; that is reported
    via :class:`StepTooLargeError` rather than silently returning garbage.
    """
    y = dmat - 0.5 * u @ (u.T @ dmat)
    a_lr = np.hstack([u, 0.5 * y])
    b_lr = np.hstack([0.5 * y, -u])
    inner = np.eye(a_lr.shape[1]) + b_lr.T @ a_lr
    cond = float(np.linalg.cond(inner, 1))
    if not np.isfinite(cond) or cond > linalg.COND_LIMIT:
        raise StepTooLargeError(
            f"low-rank Cayley system has condition estimate {cond:.3e} "
            f"(limit {linalg.COND_LIMIT:.0e}); shrink the step",
            cond=cond,
        )
    return a_lr, b_lr, inner


def retract_cayley(u: np.ndarray, d: TangentVector) -> np.ndarray:
    """Cayley retraction ``(I + W)^{-1} (I - W) U`` in O(Np^2).

    ``W`` is the rank-2p skew matrix of :func:`_smw_panels`; the result is
    computed as ``2 Z U - U``.  Unlike the QR and polar retractions this
    one is algebraically exact on the manifold but numerically drifts with
    the inner system's conditioning, which grows with ``||D||``.

    Raises
    ------
    StepTooLargeError
        If the low-rank inner system is too ill-conditioned to trust.
    """
    u = np.asarray(u, dtype=np.float64)
    a_lr, b_lr, inner = _smw_panels(u, d.mat)
    try:
        zu = u - a_lr @ np.linalg.solve(inner, b_lr.T @ u)
    except np.linalg.LinAlgError as exc:
        raise StepTooLargeError(
            "low-rank Cayley system is singular; shrink the step", cond=np.inf
        ) from exc
    return 2.0 * zu - u


def psi_map(u: np.ndarray, uperp: np.ndarray, d: TangentVector) -> SkewParam:
    """Linear bridge from a tangent vector to the skew parameter space.

    For the orthogonal completion ``[U Uperp]`` the image has blocks
    ``a = -U^T D / 2`` and ``b = -Uperp^T D / 2``.  Composing the inverse
    transform at center ``[U Uperp]`` with this map reproduces the Cayley
    retraction exactly.  It is invertible: ``D = -2 (U a + Uperp b)``.
    """
    u = np.asarray(u, dtype=np.float64)
    uperp = np.asarray(uperp, dtype=np.float64)
    return SkewParam(-0.5 * (u.T @ d.mat), -0.5 * (uperp.T @ d.mat))


def inverse_retract_cayley(u: np.ndarray, ufrak: np.ndarray) -> TangentVector:
    """The tangent step whose Cayley retraction reaches ``ufrak``.

    ``D = 2 U (I + ufrak^T U)^{-1} + 2 ufrak (I + U^T ufrak)^{-1} - 2 U``,
    defined whenever ``det(I + ufrak^T U) != 0``; on that domain it is the
    exact two-sided inverse of :func:`retract_cayley`.

    Raises
    ------
    SingularPointError
        If ``det(I + ufrak^T U)`` is numerically zero (``ufrak`` is outside
        the retraction's range from ``u``).
    """
    u = np.asarray(u, dtype=np.float64)
    ufrak = np.asarray(ufrak, dtype=np.float64)
    p = u.shape[1]
    k = np.eye(p) + ufrak.T @ u
    _pivot_check(k, p, "inverse Cayley retraction")
    term1 = 2.0 * np.linalg.solve(k.T, u.T).T  # U (I + ufrak^T U)^{-1}
    term2 = 2.0 * np.linalg.solve(k, ufrak.T).T  # ufrak (I + U^T ufrak)^{-1}
    # tangent in exact arithmetic; the roundoff defect grows with cond(k),
    # not with the result, so re-project before attaching the base point
    return project_tangent(u, term1 + term2 - 2.0 * u)


def grad_retraction_pullback(
    u: np.ndarray, d: TangentVector, f: CostFunction, *, g: Optional[np.ndarray] = None
) -> TangentVector:
    """Gradient of the cost composed with the Cayley retraction.

    At step ``D`` the gradient is ``-2 P_U Skew(Z U g^T Z) U`` with
    ``g = grad f(R(D))``, ``Z`` the kernel of :func:`_smw_panels` and
    ``P_U = I - U U^T / 2``; both ``Z U`` and ``Z^T g`` come from the same
    2p-by-2p factorization, keeping the cost O(Np^2).  At ``D = 0`` this
    equals :func:`riemannian_grad` exactly.

    ``g``, when given, must be ``f.grad(retract_cayley(u, d))``: a caller
    that already evaluated the cost at the retracted frame passes its
    ambient gradient and ``f`` is not called.  The frame re-derived here
    from the same panels is bit-identical to :func:`retract_cayley`'s, so
    both calls return the same result.

    Raises
    ------
    StepTooLargeError
        Propagated from the low-rank kernel; line searches should retry
        with a smaller step.
    """
    u = np.asarray(u, dtype=np.float64)
    a_lr, b_lr, inner = _smw_panels(u, d.mat)
    try:
        zu = u - a_lr @ np.linalg.solve(inner, b_lr.T @ u)
        if g is None:
            g = f.grad(2.0 * zu - u)
        ztg = g - b_lr @ np.linalg.solve(inner.T, a_lr.T @ g)
    except np.linalg.LinAlgError as exc:
        raise StepTooLargeError(
            "low-rank Cayley system is singular; shrink the step", cond=np.inf
        ) from exc
    # 2 Skew(Z U g^T Z) U = (Z U)(g^T Z U) - (Z^T g)(U^T Z^T U)
    dmat = zu @ (g.T @ zu) - ztg @ (zu.T @ u)
    out = -(dmat - 0.5 * u @ (u.T @ dmat))
    # tangent in exact arithmetic; the roundoff defect scales with the
    # ambient gradient, not with the (possibly tiny) result: re-project
    return project_tangent(u, out)
