"""Tangent-space machinery and retraction baselines.

Tangent vectors at a feasible frame, the projection onto the tangent space,
three classic retractions (QR, polar, Cayley), the exact inverse of the
Cayley retraction, the linear bridge between tangent vectors and the skew
parameter space, and the gradient of a cost composed with the Cayley
retraction.

The QR and polar retractions share one O(Np^2) kernel, :func:`_gram_qr`:
Cholesky QR applied twice to ``X = U + D``.  Its N-row work is two Gram
products and two products with a p-by-p inverse; every factorization is
p-by-p (Cholesky, and for the polar factor the SVD of ``R``).  Two passes
are accurate here because ``X^T X = I + D^T D`` for a tangent step, so the
smallest singular value of ``X`` is at least 1 and ``cond(X)`` is at most
``sqrt(1 + ||D||_2^2)``.  A step too large for the Gram matrix to carry
raises :class:`linalg.RankError`, the error every line search counts as a
failed trial (:class:`StepTooLargeError` is one).

The Cayley retraction and its gradient share one O(Np^2) kernel,
:func:`_cayley_kernel`: the low-rank (Sherman-Morrison-Woodbury) form of
``(I + W)^{-1}`` (Wen and Yin 2013), whose 2p-by-2p matrix is built from
p-by-p Gram blocks and inverted once.  Every N-by-p term of the low-rank
form lies in the span of ``[U, D]``, so the kernel carries p-by-p
coefficients and never forms an N-by-p panel besides the frame: five
N-row products in all (``U^T D``, ``U^T U``, ``D^T D`` and the frame's
two).  The 2p-by-2p matrix becomes ill-conditioned for large steps; its
exact 1-norm condition number, taken from the inverse, is checked and an
unreliable step raises :class:`StepTooLargeError`, so line searches can
shrink it instead of aborting.

Given the kernel and the ambient gradient ``g``, the gradient
(:func:`grad_retraction_pullback`) works in p-by-p coefficients in the
``[U, D, g]`` basis: two p-row products against ``g`` (``U^T g``,
``D^T g``), one assembly of the N-by-p result (three products), then one
correcting tangent projection (two products; no tangency check, see
there): 7 products of order N p^2 in all.

Every N-row product of a solver step with two distinct operands goes
through :func:`linalg._mm`, which above OpenBLAS's small-matrix limit
(``N p^2 > 100^3``) and at one BLAS thread splits it into blocks that stay
on that path: the projection's four, :func:`_gram_qr`'s two panels, the
polar retraction's last product, the Cayley kernel's ``U^T D`` and frame
products, and the pullback's seven.  The symmetric Gram products
(``X^T X``, ``Q1^T Q1``, ``U^T U``, ``D^T D``) stay ``x.T @ x``, which
numpy runs as one symmetric rank-k update (syrk) and which blocks would
slow down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

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


class StepTooLargeError(linalg.RankError):
    """The 2p-by-2p system behind the Cayley retraction is unreliable here.

    Raised when the exact 1-norm condition number ``||K||_1 ||K^{-1}||_1``
    of the kernel's ``K`` (see :func:`_cayley_kernel`) exceeds
    ``linalg.COND_LIMIT``; ``cond`` carries it.  A failed inverse or a
    non-finite condition number gives ``cond = inf``.  It is a
    :class:`linalg.RankError`, so a line search counts it as a failed
    trial, shrinks the step and retries.
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


def _tangent_pass(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One pass of the tangent projection, ``X <- X - U sym(U^T X)``, in
    place on ``x``, which it returns: two N-row products."""
    utx = linalg._mm(u.T, x)
    x -= linalg._mm(u, (utx + utx.T) / 2.0)
    return x


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
    x = np.array(x, dtype=np.float64)  # a private copy, projected in place
    mat = linalg.as_matrix(_tangent_pass(u, _tangent_pass(u, x)), "tangent matrix")
    return TangentVector._trusted(u.copy(), mat)


def riemannian_grad(u: np.ndarray, f: CostFunction) -> TangentVector:
    """Projected ambient gradient: the steepest-ascent tangent direction."""
    return project_tangent(u, f.grad(np.asarray(u, dtype=np.float64)))


def _gram_qr(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``X = Q R`` by Cholesky QR applied twice (CholeskyQR2).

    Pass 1 factors the Gram matrix ``X^T X = R1^T R1`` and forms
    ``Q1 = X R1^{-1}``; pass 2 does the same on ``Q1``, so
    ``Q = Q1 R2^{-1}`` and ``R = R2 R1``.  ``R`` has a positive diagonal,
    the sign convention of :func:`linalg.qr_orthonormalize`.  Cost: two Gram
    products and two N-row products with a p-by-p inverse, plus p-by-p
    Cholesky factors and inverses.

    One pass leaves ``||Q1^T Q1 - I||`` of order ``eps cond(X)^2``; while
    that is below 1, ``Q1`` is well conditioned and the second pass makes
    ``Q`` orthonormal to roundoff (Yamamoto, Nakatsukasa, Yanagisawa and
    Fukaya 2015).  For ``X = U + D`` with a tangent ``D``, ``cond(X)`` is at
    most ``sqrt(1 + ||D||_2^2)``.  For steps beyond about ``1e8`` the
    rounded Gram matrix need not be positive definite; Cholesky
    (:func:`linalg._cholesky_r`, shared with the inverse map) then fails.

    Raises
    ------
    ValueError
        If ``X`` contains NaN or Inf.
    linalg.DimensionError
        If ``X`` has fewer rows than columns.
    linalg.RankError
        If a Gram matrix is not finite (overflow, ``||X||`` beyond about
        ``1e154``), a Cholesky factorization fails, or the smallest
        ``|R_ii|`` falls below ``1e-12 ||X||_F`` (the bar of
        :func:`linalg.qr_orthonormalize`).
    """
    n, p = x.shape
    if n < p:
        raise linalg.DimensionError(f"need rows >= cols for a column frame, got {x.shape}")
    gram = x.T @ x
    if not np.isfinite(gram).all():
        # a NaN or Inf in a column of x reaches that column's diagonal entry
        linalg.as_matrix(x, "retraction input")
    r1 = linalg._cholesky_r(gram, "the Gram matrix of U + D")
    q1 = linalg._mm(x, np.linalg.inv(r1))
    r2 = linalg._cholesky_r(q1.T @ q1, "the Gram matrix of Q1")
    q, r = linalg._mm(q1, np.linalg.inv(r2)), r2 @ r1
    r_min = float(np.min(np.diagonal(r)))
    if r_min < 1e-12 * float(np.sqrt(np.trace(gram))):  # trace(X^T X) = ||X||_F^2
        raise linalg.RankError(f"numerically rank-deficient input: min |R_ii| = {r_min:.3e}")
    return q, r


def retract_qr(u: np.ndarray, d: TangentVector) -> np.ndarray:
    """QR retraction: the Q factor of ``U + D``, with positive ``diag(R)``.

    Computed by :func:`_gram_qr` in O(Np^2): two Gram products, two N-row
    products and p-by-p factorizations.  Since ``sigma_min(U + D) >= 1``,
    the frame is orthonormal to roundoff and matches Householder QR
    (:func:`linalg.qr_orthonormalize`) to within roundoff times
    ``cond(U + D)``.

    Raises
    ------
    ValueError
        If ``U + D`` contains NaN or Inf.
    linalg.RankError
        If the step is too large for the Gram matrix (see
        :func:`_gram_qr`); line searches should retry with a smaller step.
    """
    return _gram_qr(np.asarray(u, dtype=np.float64) + d.mat)[0]


def retract_polar(u: np.ndarray, d: TangentVector) -> np.ndarray:
    """Polar retraction: closest feasible frame to ``U + D``.

    With ``U + D = Q R`` from :func:`_gram_qr`, the polar factor is
    ``Q polar(R)``, exactly, so the only SVD is of the p-by-p ``R``
    (:func:`linalg.polar_factor`): O(Np^2) in all, one N-row product more
    than :func:`retract_qr`.  ``R`` has the singular values of ``U + D``,
    all at least 1.

    Raises
    ------
    ValueError
        If ``U + D`` contains NaN or Inf.
    linalg.RankError
        If the step is too large for the Gram matrix (see
        :func:`_gram_qr`), or ``sigma_min(R) < 1e-12 sigma_max(R)``; line
        searches should retry with a smaller step.
    """
    q, r = _gram_qr(np.asarray(u, dtype=np.float64) + d.mat)
    return linalg._mm(q, linalg.polar_factor(r))


class _CayleyKernel(NamedTuple):
    """What :func:`_cayley_kernel` computes at ``(U, D)``; see there."""

    frame: np.ndarray
    k_inv: np.ndarray
    x: np.ndarray
    utu: np.ndarray
    uty: np.ndarray
    utd: np.ndarray
    dmat: np.ndarray


def _cayley_kernel(u: np.ndarray, dmat: np.ndarray) -> _CayleyKernel:
    """The Cayley-retraction kernel at step ``D``.

    ``Z = (I + W)^{-1}`` for the rank-2p skew ``W = A B^T`` with
    ``A = [U, Y/2]``, ``B = [Y/2, -U]`` and ``Y = (I - U U^T / 2) D``, so
    ``Z = I - A K^{-1} B^T`` with ``K = I + B^T A``.  ``Y`` is never
    formed: every N-by-p term lies in the span of ``[U, D]`` and is carried
    by p-by-p coefficients.  With ``T = U^T D`` and ``S = U^T U``, ``K``
    is assembled from the p-by-p blocks ``S``, ``U^T Y = T - S T / 2`` and

        ``Y^T Y = D^T D - T^T (T - S T / 4)``,

    one Gram product of ``D`` in place of one of ``Y``.  The subtraction
    does not cancel: for a tangent ``D``, ``T`` is skew and ``S = I`` up to
    roundoff, so with ``D = U T + E`` (``U^T E = 0``) the result is
    ``E^T E + T^T T / 4``, at least a quarter of ``D^T D = T^T T + E^T E``;
    its rounding error, a few eps times ``||D^T D||``, stays a few eps
    relative to ``||Y^T Y||``.  ``K`` is inverted once;
    with ``[X1; X2] = K^{-1} B^T U`` (refined once against ``K``),
    ``Z U = U - U X1 - Y X2 / 2`` and the retraction's frame is

        ``2 Z U - U = U (I - 2 X1 + T X2 / 2) - D X2``,

    two N-row products and one update in place: five N-row products in
    all, with ``T``, ``S`` and ``D^T D``.

    Returns the fields ``frame`` (``2 Z U - U``, N-by-p), ``k_inv``
    (``K^{-1}``, 2p-by-2p), ``x`` (the refined ``[X1; X2]``, 2p-by-p),
    ``utu`` (``S``), ``uty`` (``U^T Y``), ``utd`` (``T``) and ``dmat``
    (``D`` itself), in that order.

    ``I + W`` is never singular (``det >= 1`` for skew ``W``), but ``K``
    can be arbitrarily ill-conditioned for large ``D``.  A condition
    number ``||K||_1 ||K^{-1}||_1`` (what ``np.linalg.cond(K, 1)``
    computes) above ``linalg.COND_LIMIT``, or a failed inverse, raises
    :class:`StepTooLargeError`.
    """
    p = u.shape[1]
    utd = linalg._mm(u.T, dmat)
    utu = u.T @ u
    s_t = utu @ utd
    uty = utd - 0.5 * s_t
    yty = dmat.T @ dmat - utd.T @ (utd - 0.25 * s_t)
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
    frame = linalg._mm(u, np.eye(p) - 2.0 * x[:p] + 0.5 * (utd @ x[p:]))
    frame -= linalg._mm(dmat, x[p:])
    return _CayleyKernel(frame, k_inv, x, utu, uty, utd, dmat)


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
    kernel = _cayley_kernel(np.asarray(u, dtype=np.float64), d.mat)
    return (kernel.frame, kernel) if return_kernel else kernel.frame


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
        If ``I + ufrak^T U`` has its smallest singular value below
        ``cayley.PIVOT_FLOOR`` (``ufrak`` is outside the retraction's
        range from ``u``, numerically).
    """
    u = np.asarray(u, dtype=np.float64)
    ufrak = np.asarray(ufrak, dtype=np.float64)
    p = u.shape[1]
    k = np.eye(p) + ufrak.T @ u
    _pivot_check(k, "inverse Cayley retraction")
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
    ``[U, D, g]``; ``Y = D - U T / 2`` (``T = U^T D``) is used only through
    its coefficients.  With ``C_U = I - X1`` and ``C_Y = -X2 / 2`` the
    kernel's ``Z U = U C_U + Y C_Y``, and with
    ``q = K^{-T} [U^T g; Y^T g / 2]`` and
    ``Y^T g = D^T g - T^T (U^T g) / 2``, ``Z^T g = g - Y q1 / 2 + U q2``.
    So ``G1 = g^T Z U``, ``G2 = (Z U)^T U`` and the coefficients
    ``P_U = C_U G1 - q2 G2``, ``P_Y = C_Y G1 + q1 G2 / 2`` are p-by-p,
    ``2 Skew(Z U g^T Z) U = U P_U + Y P_Y - g G2 =: E``, and the result
    ``-(I - U U^T / 2) E`` is

        ``U (U^T E / 2 - P_U + T P_Y / 2) - D P_Y + g G2``

    with ``U^T E = (U^T U) P_U + (U^T Y) P_Y - (U^T g) G2``.  The N-row
    work is the two p-row products ``U^T g`` and ``D^T g``, this one
    assembly (three products summed) and one correcting projection
    ``out -= U sym(U^T out)`` (two products): 7 in all.  At ``D = 0`` the
    result agrees with :func:`riemannian_grad` to within
    ``1e-13 max(1, ||grad||)``.

    One correcting pass is enough here, where :func:`project_tangent`
    needs two.  The assembled result is tangent in exact arithmetic, so
    its tangency defect is the assembly's roundoff, which scales with the
    terms summed (with ``g``, up to ``||g||``), not with the result.  A
    pass removes the defect of its input up to roundoff in its own output:
    after this one, the defect is of the order of eps times the result,
    within the public :class:`TangentVector` tolerance however small the
    result is next to ``g`` (a test pins it for ``||g||`` from 1e-8 to
    1e12).  :func:`project_tangent` takes arbitrary ambient input, whose
    normal part may be far larger than its tangential part: its first
    pass leaves roundoff of the size of that input, and only its second
    brings the defect to the scale of the output.  The result skips the
    tangency check; a NaN or Inf in it still raises ``ValueError``.  Its
    base is ``d.base``, the frame ``d`` is tangent at, so the two share one
    base and their arithmetic skips the comparison of bases.

    A caller that already retracted and evaluated the cost passes
    ``kernel``, the one ``retract_cayley(u, d, return_kernel=True)``
    returned for the same ``u`` and ``d``, and ``g``, the ambient gradient
    ``f.grad`` at that frame; then neither the kernel is rebuilt nor ``f``
    called.  A rebuilt kernel is bit-identical to the carried one and
    ``g`` is taken at its frame, so every combination returns the same
    result.

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
        g = f.grad(kernel.frame)
    p = u.shape[1]
    a1 = linalg._mm(u.T, g)
    a2 = linalg._mm(kernel.dmat.T, g) - 0.5 * (kernel.utd.T @ a1)  # Y^T g
    q = kernel.k_inv.T @ np.vstack([a1, 0.5 * a2])
    # Z U = U C_U + Y C_Y and Z^T g = g - Y q1 / 2 + U q2
    c_u = np.eye(p) - kernel.x[:p]
    c_y = -0.5 * kernel.x[p:]
    g1 = a1.T @ c_u + a2.T @ c_y  # g^T Z U
    g2 = c_u.T @ kernel.utu + c_y.T @ kernel.uty.T  # (Z U)^T U
    # 2 Skew(Z U g^T Z) U = (Z U) G1 - (Z^T g) G2 = U P_U + Y P_Y - g G2
    p_u = c_u @ g1 - q[p:] @ g2
    p_y = c_y @ g1 + 0.5 * (q[:p] @ g2)
    ut_e = kernel.utu @ p_u + kernel.uty @ p_y - a1 @ g2
    # -(I - U U^T / 2) of that, assembled once in the [U, D, g] basis
    out = linalg._mm(u, 0.5 * ut_e - p_u + 0.5 * (kernel.utd @ p_y))
    out -= linalg._mm(kernel.dmat, p_y)
    out += linalg._mm(g, g2)
    # remove the assembly's roundoff from the tangency identity
    out = linalg.as_matrix(_tangent_pass(u, out), "tangent matrix")
    return TangentVector._trusted(d.base, out)
