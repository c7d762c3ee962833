"""Tangent-space machinery and retraction baselines.

Tangent vectors at a feasible frame, the projection onto the tangent space,
three classic retractions (QR, polar, Cayley), the exact inverse of the
Cayley retraction, the linear bridge between tangent vectors and the skew
parameter space, and the gradient of a cost composed with the Cayley
retraction.

The Cayley retraction and its gradient share one O(Np^2) kernel,
:func:`_cayley_kernel`: the low-rank (Sherman-Morrison-Woodbury) form of
``(I + W)^{-1}``, whose 2p-by-2p matrix is built from p-by-p Gram blocks
and inverted once.  That matrix becomes ill-conditioned for large steps;
its exact 1-norm condition number, taken from the inverse, is checked and
an unreliable step raises :class:`StepTooLargeError`, so line searches can
shrink it instead of aborting.

Given the kernel and the ambient gradient ``g``, the gradient
(:func:`grad_retraction_pullback`) works in p-by-p coefficients: two
p-row products against ``g`` (``U^T g``, ``Y^T g``), one assembly of the
N-by-p result in the ``[U, Y, g]`` basis, then the two-pass tangent
projection (no tangency check: see :func:`project_tangent`): 9 products
of order N p^2 in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

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
    """The 2p-by-2p system behind the Cayley retraction is unreliable here.

    Raised when the exact 1-norm condition number ``||K||_1 ||K^{-1}||_1``
    of the kernel's ``K`` (see :func:`_cayley_kernel`) exceeds
    ``linalg.COND_LIMIT``; ``cond`` carries it.  A failed inverse or a
    non-finite condition number gives ``cond = inf``.  Callers running a
    line search should treat this as "shrink the step and retry".
    """

    def __init__(self, msg: str, cond: float):
        super().__init__(msg)
        self.cond = cond


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector ``mat`` at the feasible frame ``base``.

    A caller's construction checks finite 2-D arrays of one shape and the
    tangency identity ``U^T D + D^T U = 0`` (tolerance ``1e-10``, scaled by
    the norm) and stores read-only copies.  Vectors the package builds go
    through :meth:`_trusted` instead: :func:`project_tangent` and ``+``,
    ``-`` and scalar ``*`` (same base only), which trust their operands
    since tangency is linear.  ``norm`` and ``inner`` use the Frobenius
    geometry of the ambient matrix.  Equality and hashing are by identity,
    as for :class:`SkewParam`.
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
        coupling = base.T @ mat
        defect = float(np.linalg.norm(coupling + coupling.T))
        tol = 1e-10 * max(1.0, float(np.linalg.norm(mat)))
        if defect > tol:
            raise ValueError(
                f"matrix is not tangent at the base frame: defect {defect:.3e}"
            )
        _frozen(self, base=base.copy(), mat=mat.copy())

    @classmethod
    def _trusted(cls, base: np.ndarray, mat: np.ndarray) -> "TangentVector":
        """Wrap fresh or already read-only arrays without checks or copies;
        ``mat`` must be finite, of ``base``'s shape and tangent at it.  The
        arrays become read-only."""
        return _frozen(object.__new__(cls), base=base, mat=mat)

    def _same_base(self, other: "TangentVector") -> None:
        if self.base is not other.base and not np.array_equal(self.base, other.base):
            raise ValueError("tangent vectors live at different base frames")

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))

    def inner(self, other: "TangentVector") -> float:
        self._same_base(other)
        return float(np.tensordot(self.mat, other.mat))

    def __add__(self, other: "TangentVector") -> "TangentVector":
        self._same_base(other)
        return TangentVector._trusted(self.base, self.mat + other.mat)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        self._same_base(other)
        return TangentVector._trusted(self.base, self.mat - other.mat)

    def __mul__(self, scalar) -> "TangentVector":
        return TangentVector._trusted(self.base, float(scalar) * self.mat)

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
    proportional to roundoff in ``X``, which breaks the public
    :class:`TangentVector` tolerance exactly when the tangential part is
    far smaller than ``X`` (a converged gradient of a large-norm cost); the
    second pass shrinks the defect to the scale of the output itself, so
    the result meets that tolerance (a test pins it for ``||X||`` from 1e-8
    to 1e12).  So the result skips the tangency check; a NaN or Inf in it
    still raises ``ValueError``.  Its base is a private copy of ``u``.
    """
    u = np.asarray(u, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    utx = u.T @ x
    once = x - u @ ((utx + utx.T) / 2.0)
    uto = u.T @ once
    mat = linalg.as_matrix(once - u @ ((uto + uto.T) / 2.0), "tangent matrix")
    return TangentVector._trusted(u.copy(), mat)


def riemannian_grad(u: np.ndarray, f: CostFunction) -> TangentVector:
    """Projected ambient gradient: the steepest-ascent tangent direction."""
    return project_tangent(u, f.grad(np.asarray(u, dtype=np.float64)))


def retract_qr(u: np.ndarray, d: TangentVector) -> np.ndarray:
    """QR retraction: orthonormalize ``U + D``."""
    return linalg.qr_orthonormalize(u + d.mat)


def retract_polar(u: np.ndarray, d: TangentVector) -> np.ndarray:
    """Polar retraction: closest feasible frame to ``U + D``."""
    return linalg.polar_factor(u + d.mat)


class _CayleyKernel(NamedTuple):
    """What :func:`_cayley_kernel` computes at ``(U, D)``; see there."""

    y: np.ndarray
    k_inv: np.ndarray
    zu: np.ndarray
    x: np.ndarray
    utu: np.ndarray
    uty: np.ndarray


def _cayley_kernel(u: np.ndarray, dmat: np.ndarray) -> _CayleyKernel:
    """The Cayley-retraction kernel at step ``D``.

    ``Z = (I + W)^{-1}`` for the rank-2p skew ``W = A B^T`` with
    ``A = [U, Y/2]``, ``B = [Y/2, -U]`` and ``Y = (I - U U^T / 2) D``, so
    ``Z = I - A K^{-1} B^T`` with ``K = I + B^T A``.  ``K`` is assembled
    from the p-by-p blocks ``U^T D``, ``U^T U``,
    ``U^T Y = U^T D - (U^T U)(U^T D)/2`` and ``Y^T Y``, and inverted once;
    with ``[X1; X2] = K^{-1} B^T U`` (refined once against ``K``),
    ``Z U = U - U X1 - Y X2 / 2``.

    Returns the fields ``y`` (``Y``, N-by-p), ``k_inv`` (``K^{-1}``,
    2p-by-2p), ``zu`` (``Z U``, N-by-p), ``x`` (the refined
    ``[X1; X2]``, 2p-by-p), ``utu`` (``U^T U``) and ``uty`` (``U^T Y``),
    in that order.

    ``I + W`` is never singular (``det >= 1`` for skew ``W``), but ``K``
    can be arbitrarily ill-conditioned for large ``D``.  A condition
    number ``||K||_1 ||K^{-1}||_1`` (what ``np.linalg.cond(K, 1)``
    computes) above ``linalg.COND_LIMIT``, or a failed inverse, raises
    :class:`StepTooLargeError`.
    """
    p = u.shape[1]
    utd = u.T @ dmat
    utu = u.T @ u
    y = dmat - 0.5 * u @ utd
    uty = utd - 0.5 * utu @ utd
    yty = y.T @ y
    # K = I + [[(U^T Y)^T / 2, Y^T Y / 4], [-U^T U, -U^T Y / 2]], each block
    # added into the identity in place
    k = np.eye(2 * p)
    k[:p, :p] += 0.5 * uty.T
    k[:p, p:] += 0.25 * yty
    k[p:, :p] -= utu
    k[p:, p:] -= 0.5 * uty
    try:
        k_inv = np.linalg.inv(k)
        cond = float(np.linalg.norm(k, 1) * np.linalg.norm(k_inv, 1))
    except np.linalg.LinAlgError:
        cond = np.inf
    if not cond <= linalg.COND_LIMIT:  # NaN fails this test too
        raise StepTooLargeError(
            f"low-rank Cayley system has condition number {cond:.3e} "
            f"(limit {linalg.COND_LIMIT:.0e}); shrink the step",
            cond=cond if cond > linalg.COND_LIMIT else np.inf,
        )
    # B^T U = [Y^T U / 2; -U^T U].  Multiplying by an inverse is not
    # backward stable the way an LU solve is; one step of refinement
    # against K restores the frame's orthonormality at large steps.
    rhs = np.vstack([0.5 * uty.T, -utu])
    x = k_inv @ rhs
    x += k_inv @ (rhs - k @ x)
    zu = u - u @ x[:p] - 0.5 * (y @ x[p:])
    return _CayleyKernel(y, k_inv, zu, x, utu, uty)


def retract_cayley(u: np.ndarray, d: TangentVector, *, return_kernel: bool = False):
    """Cayley retraction ``(I + W)^{-1} (I - W) U`` in O(Np^2).

    ``W`` is the rank-2p skew matrix of :func:`_cayley_kernel`; the result
    is ``2 Z U - U``.  Unlike the QR and polar retractions this one is
    algebraically exact on the manifold but numerically drifts with the
    kernel's condition number, which grows like ``||D||^2``.  With
    ``return_kernel=True`` it returns ``(frame, kernel)``, and the kernel
    may be passed to :func:`grad_retraction_pullback` at the same ``u``
    and ``d``.

    Raises
    ------
    StepTooLargeError
        If the kernel's 2p-by-2p matrix is too ill-conditioned to trust.
    """
    u = np.asarray(u, dtype=np.float64)
    kernel = _cayley_kernel(u, d.mat)
    frame = 2.0 * kernel.zu - u
    return (frame, kernel) if return_kernel else frame


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
    u: np.ndarray, d: TangentVector, f: CostFunction, *, g: Optional[np.ndarray] = None, kernel=None
) -> TangentVector:
    """Gradient of the cost composed with the Cayley retraction.

    At step ``D`` the gradient is ``-2 P_U Skew(Z U g^T Z) U`` with
    ``g = grad f(R(D))``, ``Z`` the kernel of :func:`_cayley_kernel` and
    ``P_U = I - U U^T / 2``.  Every N-by-p term lies in the span of
    ``[U, Y, g]``: with ``C_U = I - X1`` and ``C_Y = -X2 / 2`` the
    kernel's ``Z U = U C_U + Y C_Y``, and with
    ``q = K^{-T} [U^T g; Y^T g / 2]``, ``Z^T g = g - Y q1 / 2 + U q2``.
    So ``G1 = g^T Z U``, ``G2 = (Z U)^T U`` and the coefficients
    ``P_U = C_U G1 - q2 G2``, ``P_Y = C_Y G1 + q1 G2 / 2`` are p-by-p,
    ``2 Skew(Z U g^T Z) U = U P_U + Y P_Y - g G2``, and the result is
    ``U (U^T dmat / 2 - P_U) - Y P_Y + g G2`` with
    ``U^T dmat = (U^T U) P_U + (U^T Y) P_Y - (U^T g) G2``.  The N-row work
    is the two p-row products ``U^T g`` and ``Y^T g``, this one assembly
    ``[U, Y, g] C`` (as three products summed), and the two-pass
    :func:`project_tangent`.  At ``D = 0`` the result agrees with
    :func:`riemannian_grad` to within ``1e-13 max(1, ||grad||)``.

    A caller that already retracted and evaluated the cost passes
    ``kernel``, the one ``retract_cayley(u, d, return_kernel=True)``
    returned for the same ``u`` and ``d``, and ``g``, the ambient gradient
    ``f.grad`` at that frame; then neither the kernel is rebuilt nor ``f``
    called.  A rebuilt kernel is bit-identical to the carried one, so every
    combination returns the same result.

    Raises
    ------
    StepTooLargeError
        Propagated from the kernel when it is built here; line searches
        should retry with a smaller step.
    """
    u = np.asarray(u, dtype=np.float64)
    if kernel is None:
        kernel = _cayley_kernel(u, d.mat)
    if g is None:
        g = f.grad(2.0 * kernel.zu - u)
    p = u.shape[1]
    a1 = u.T @ g
    a2 = kernel.y.T @ g
    q = kernel.k_inv.T @ np.vstack([a1, 0.5 * a2])
    # Z U = U C_U + Y C_Y and Z^T g = g - Y q1 / 2 + U q2
    c_u = np.eye(p) - kernel.x[:p]
    c_y = -0.5 * kernel.x[p:]
    g1 = a1.T @ c_u + a2.T @ c_y  # g^T Z U
    g2 = c_u.T @ kernel.utu + c_y.T @ kernel.uty.T  # (Z U)^T U
    # 2 Skew(Z U g^T Z) U = (Z U) G1 - (Z^T g) G2 = U P_U + Y P_Y - g G2
    p_u = c_u @ g1 - q[p:] @ g2
    p_y = c_y @ g1 + 0.5 * (q[:p] @ g2)
    ut_dmat = kernel.utu @ p_u + kernel.uty @ p_y - a1 @ g2
    # -(I - U U^T / 2) of that, assembled once in the [U, Y, g] basis
    out = u @ (0.5 * ut_dmat - p_u) - kernel.y @ p_y + g @ g2
    # tangent in exact arithmetic; the roundoff defect scales with the
    # ambient gradient, not with the (possibly tiny) result: re-project
    return project_tangent(u, out)
