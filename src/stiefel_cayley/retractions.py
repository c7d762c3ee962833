"""Tangent-space machinery and retraction baselines.

Tangent vectors at a feasible frame, the tangent projection, the QR, polar
and Cayley retractions, the inverse Cayley retraction, the linear bridge
:func:`psi_map` to the skew parameter space, and the gradient of a cost
composed with the Cayley retraction.

Both the QR and the polar retraction start from the Gram matrix of
``X = U + D``.  For a tangent step ``X^T X = I + D^T D``, so ``X`` has no
singular value below 1 and ``cond(X) <= sqrt(1 + ||D||_2^2)``.  The QR
retraction is the Cholesky QR of ``X`` (:func:`_gram_qr`, through
:func:`linalg._cholesky_qr`).  The polar retraction is ``X (X^T X)^{-1/2}``
from the Gram matrix's eigendecomposition under ``linalg.ONE_PASS_BOUND``,
and the QR factor's ``Q polar(R)`` past it.  The Cayley retraction is the
inverse Cayley transform at the frame center ``[U, Uperp]`` applied to
``psi_map(D)``; :func:`_cayley_kernel` computes it with the transform's own
p-by-p core (:func:`cayley._m_factors`) without forming ``Uperp``, so its
range is the inverse map's, and :func:`grad_retraction_pullback` is the
transform's pullback carried back through ``psi_map``.  As
``cayley.inverse`` does, :func:`retract_cayley` with the private
``_return_kernel=True`` returns that kernel (its ``frame`` is the frame),
which the pullback at the same ``U`` and ``D`` takes in place of
rebuilding it.  Every factorization is p-by-p.

The tangent projection and that gradient take a correcting tangent pass
only where roundoff needs it (``_TANGENT_PASS_BOUND``).  A step too large
for a retraction raises :class:`linalg.RankError`, the error every line
search counts as a failed trial.  Every N-row product of a step with two
distinct operands goes through :func:`linalg._mm`; README's product table
counts them per solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import math

import numpy as np

from . import linalg
from .cayley import SkewParam, _frozen, _m_factors, _pivot_check, check_stiefel
from .gradients import CostFunction

__all__ = [
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


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector ``mat`` at the feasible frame ``base``.

    A caller's construction checks finite 2-D arrays of one shape and the
    tangency identity ``U^T D + D^T U = 0`` (tolerance ``1e-10``, scaled by
    the norm) and stores read-only copies.  Vectors the package builds go
    through :meth:`_trusted` instead: :func:`project_tangent` and ``+``,
    ``-`` and scalar ``*`` (same base only), which trust their operands
    since tangency is linear; a NaN or infinite scalar raises
    ``ValueError``.  ``norm`` and ``inner`` use the Frobenius
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
        return _fro(self.mat)

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
        s = float(scalar)
        if not math.isfinite(s):
            raise ValueError(f"scalar must be finite, got {s}")
        return TangentVector._trusted(self.base, s * self.mat)

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


#: A tangent pass leaves a tangency defect ``||U^T Y + Y^T U||_F`` of a few
#: eps times the scale of its input, so a correcting pass follows only
#: when that scale exceeds this multiple of ``||Y||_F`` (:func:`_pass_needed`).
#: One pass leaves about ``1.5e-15`` times that ratio and a second takes
#: any defect to a few eps, so a result keeps its defect within about
#: ``6 eps`` times the bound of its own norm, far inside the public
#: :class:`TangentVector` tolerance of ``1e-10``.  The tables are in
#: BENCH_23.json (``accuracy``, ``tangent_passes``).
_TANGENT_PASS_BOUND = 20.0


def _tangent_pass(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One pass of the tangent projection, ``X <- X - U sym(U^T X)``, in
    place on ``x``, which it returns."""
    utx = linalg._mm(u.T, x)
    x -= linalg._mm(u, (utx + utx.T) / 2.0)
    return x


def _fro(a: np.ndarray) -> float:
    """``||a||_F`` as one dot product: at N=500, p=10 ``np.linalg.norm``
    spends about 2 us more per call."""
    return math.sqrt(np.vdot(a, a))


def _pass_needed(scale: float, y: np.ndarray) -> bool:
    """Whether ``y``, whose tangency defect is roundoff of order eps times
    ``scale``, needs a correcting :func:`_tangent_pass`: when ``scale``
    exceeds :data:`_TANGENT_PASS_BOUND` times ``||y||_F``.  A NaN on
    either side gives True."""
    return not scale <= _TANGENT_PASS_BOUND * _fro(y)


def project_tangent(u: np.ndarray, x: np.ndarray) -> TangentVector:
    """Orthogonal projection of an ambient matrix onto the tangent space.

    ``P(X) = X - U sym(U^T X)``, equivalently
    ``(1/2) U (U^T X - X^T U) + (I - U U^T) X``.  Idempotent; the residual
    ``X - P(X)`` is orthogonal to every tangent vector.

    One pass of the formula leaves a skew-coupling defect proportional to
    roundoff in ``X``.  That is roundoff in the output too, unless the
    tangential part is far smaller than ``X`` (a converged gradient of a
    large-norm cost), so a second pass runs only when ``||X||_F`` exceeds
    ``_TANGENT_PASS_BOUND`` times the first pass's ``||P_1(X)||_F``; it
    shrinks the defect to the scale of the output itself (Daniel, Gragg,
    Kaufman and Stewart 1976).  Either way the result meets the public
    :class:`TangentVector` tolerance (a test pins it for ``||X||`` from
    1e-8 to 1e12) and skips the tangency check; a NaN or Inf in it still
    raises ``ValueError``.  Its base is a private copy of ``u``.

    Raises
    ------
    linalg.DimensionError
        If ``u`` is not 2-D or ``x`` has another shape than ``u``.
    ValueError
        If the result contains NaN or Inf.
    """
    u = np.asarray(u, dtype=np.float64)
    x = np.array(x, dtype=np.float64)  # a private copy, projected in place
    if u.ndim != 2 or x.shape != u.shape:
        raise linalg.DimensionError(
            f"tangent matrix shape {x.shape} != base shape {u.shape}"
        )
    scale = _fro(x)
    mat = _tangent_pass(u, x)
    if _pass_needed(scale, mat):
        mat = _tangent_pass(u, mat)
    return TangentVector._trusted(u.copy(), linalg.as_matrix(mat, "tangent matrix"))


def riemannian_grad(u: np.ndarray, f: CostFunction) -> TangentVector:
    """Projected ambient gradient: the steepest-ascent tangent direction."""
    return project_tangent(u, f.grad(np.asarray(u, dtype=np.float64)))


def _gram_qr(x: np.ndarray, gram: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``X = Q R`` by :func:`linalg._cholesky_qr` from the caller's
    ``gram = X^T X``, with ``R``'s diagonal positive as in
    :func:`linalg.qr_orthonormalize`.  Past steps of about ``1e8`` the
    rounded Gram matrix need not be positive definite, and Cholesky fails.

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
    if not np.isfinite(gram).all():
        # a NaN or Inf in a column of x reaches that column's diagonal entry
        linalg.as_matrix(x, "retraction input")
    r, r_inv, second = linalg._cholesky_qr(
        gram, lambda r1: (linalg._mm(x, r1),), "the Gram matrix of U + D")
    r_min = float(np.min(np.diagonal(r)))
    if r_min < 1e-12 * float(np.sqrt(np.trace(gram))):  # trace(X^T X) = ||X||_F^2
        raise linalg.RankError(f"numerically rank-deficient input: min |R_ii| = {r_min:.3e}")
    if second is None:
        return linalg._mm(x, r_inv), r
    (q1,), r2_inv = second
    return linalg._mm(q1, r2_inv), r


def retract_qr(u: np.ndarray, d: TangentVector) -> np.ndarray:
    """QR retraction: the Q factor of ``U + D``, with positive ``diag(R)``.

    Computed by :func:`_gram_qr`.  Since ``sigma_min(U + D) >= 1``, the
    frame is orthonormal to roundoff and matches Householder QR
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
    x = np.asarray(u, dtype=np.float64) + d.mat
    return _gram_qr(x, x.T @ x)[0]


def retract_polar(u: np.ndarray, d: TangentVector) -> np.ndarray:
    """Polar retraction: closest feasible frame to ``U + D``.

    The polar factor of ``X = U + D`` is ``X G^{-1/2}`` with the Gram
    matrix ``G = X^T X = I + D^T D`` (Absil, Mahony and Sepulchre 2008).
    With ``G = V diag(lambda) V^T`` from ``eigh``, the frame is
    ``X (V diag(lambda)^{-1/2} V^T)``, as in SVQB (Stathopoulos and Wu
    2002).  The eigenvalues' ratio is ``cond(X)^2`` of the rounded Gram,
    and the frame is orthonormal to ``eps cond(X)^2``, so this route runs
    only when ``0 < lambda_min`` and ``lambda_max <= linalg.ONE_PASS_BOUND
    lambda_min``.  Otherwise (a Gram matrix that is not finite or that
    ``eigh`` cannot take, or a ratio past the bound) it takes the route
    accurate to ``eps cond(X)``: ``X = Q R`` by :func:`_gram_qr` from the
    same ``G``, then ``Q polar(R)`` with the p-by-p SVD of
    :func:`linalg.polar_factor`.

    Raises
    ------
    ValueError
        If ``U + D`` contains NaN or Inf.
    linalg.RankError
        If the step is too large for the Gram matrix (see
        :func:`_gram_qr`), or ``sigma_min(R) < 1e-12 sigma_max(R)``; line
        searches should retry with a smaller step.
    """
    x = np.asarray(u, dtype=np.float64) + d.mat
    gram = x.T @ x
    if np.isfinite(gram).all():
        try:
            lam, v = np.linalg.eigh(gram)
        except np.linalg.LinAlgError:
            pass  # the Cholesky QR route below
        else:
            if 0.0 < lam[0] and lam[-1] <= linalg.ONE_PASS_BOUND * lam[0]:
                return linalg._mm(x, (v / np.sqrt(lam)) @ v.T)
    q, r = _gram_qr(x, gram)
    return linalg._mm(q, linalg.polar_factor(r))


class _CayleyKernel(NamedTuple):
    """What :func:`_cayley_kernel` computes at ``(U, D)``; see there."""

    frame: np.ndarray
    m_inv: np.ndarray
    utd: np.ndarray


def _cayley_kernel(u: np.ndarray, dmat: np.ndarray) -> _CayleyKernel:
    """The Cayley-retraction kernel at step ``D``: the inverse map at the
    center ``[U, Uperp]`` applied to ``psi_map(D)``, in the ``[U, D]`` basis.

    With ``T = U^T D`` and ``E = D - U T`` (so ``Uperp Uperp^T D = E``),
    ``psi_map(D)`` has ``a = -T/2`` and ``B^T B = E^T E / 4 =
    (D^T D - T^T T) / 4``, and with ``M = I + a + B^T B`` the inverse map's
    frame ``U (2 M^{-1} - I) - 2 Uperp B M^{-1}`` is

        ``U (2 M^{-1} - I - T M^{-1}) + D M^{-1}``.

    ``Uperp`` is never formed.  ``M^{-1}`` comes from the transform's own
    Cholesky QR of ``[I; B]`` (:func:`cayley._m_factors`); where it takes a
    second pass, the panel in place of ``B R1^{-1}`` is the explicit
    ``E R1^{-1} / 2 = (D R1^{-1} - U (T R1^{-1})) / 2``, which has the same
    Gram matrix.  The frame is assembled as ``U`` plus corrections that
    vanish with ``D``, ``U (-2 C - T M^{-1}) + D M^{-1}`` with
    ``C = M^{-1} (a + B^T B) = I - M^{-1}``.  ``C`` has two forms: the
    product carries roundoff of order ``eps ||a + B^T B||`` and the
    difference of order ``eps``, so the kernel takes the product while
    ``||a + B^T B||_F <= 1`` and the difference beyond.  Either form alone
    loses orthonormality: see CHANGES.md, the entry "One Cayley kernel".

    Frames stay within 1e-12 of orthonormal up to ``||D|| = 1e8`` when
    ``N - p >= p``, and when ``p < N`` and ``E``'s null space has even
    dimension ``2p - N``.  Two cases lose more at large steps.  When
    ``2p - N`` is odd, ``M^{-1}`` keeps a direction of norm O(1), where the
    terms ``U T M^{-1}`` and ``D M^{-1}`` cancel to about ``eps ||D||``
    (4e-11 at 9-by-5 and ``||D|| = 1e6``).  At ``p = N``, ``E = 0`` and
    ``B^T B`` is roundoff of order ``eps ||D||^2`` (5e-11 at St(3, 3) and
    ``||D|| = 1e3``).

    Returns the fields ``frame`` (N-by-p), ``m_inv`` (``M^{-1}``) and
    ``utd`` (``T``), in that order.  A NaN or Inf in ``U`` or ``D`` raises
    ``ValueError``, checked only where ``B^T B`` is not finite; a step
    outside the inverse map's range raises :class:`linalg.RankError`.
    """
    utd = linalg._mm(u.T, dmat)
    btb = (dmat.T @ dmat - utd.T @ utd) / 4.0  # E^T E / 4
    if not np.isfinite(btb).all():
        # a NaN or Inf in U or D reaches B^T B; else the step overflowed
        linalg.as_matrix(u, "base frame")
        linalg.as_matrix(dmat, "tangent matrix")
    a = (utd.T - utd) / 4.0  # -T/2, exactly skew

    def half_normal_panel(r1_inv):
        return 0.5 * (linalg._mm(dmat, r1_inv) - linalg._mm(u, utd @ r1_inv))

    r_inv, g, _ = _m_factors(a, btb, half_normal_panel)
    m_inv = r_inv @ g
    k = a + btb
    c = m_inv @ k if _fro(k) <= 1.0 else np.eye(u.shape[1]) - m_inv
    frame = linalg._mm(u, -2.0 * c - utd @ m_inv)
    frame += linalg._mm(dmat, m_inv)
    frame += u
    return _CayleyKernel(frame, m_inv, utd)


def retract_cayley(u: np.ndarray, d: TangentVector, *, _return_kernel: bool = False):
    """Cayley retraction ``(I + W)^{-1} (I - W) U`` in O(Np^2).

    ``W = (U Y^T - Y U^T) / 2`` with ``Y = (I - U U^T / 2) D`` is skew, and
    the result equals the inverse Cayley transform at the center
    ``[U, Uperp]`` applied to :func:`psi_map` of ``D``, which is how
    :func:`_cayley_kernel` computes it.  With the private
    ``_return_kernel`` it returns that kernel in place of the frame, as
    ``cayley.inverse`` does; its ``frame`` field is the frame, and
    ``run_gdm_cp_retraction`` passes the kernel to
    :func:`grad_retraction_pullback` at the same ``u`` and ``d``.

    Raises
    ------
    ValueError
        If ``U`` or ``D`` contains NaN or Inf.
    linalg.RankError
        If the step is outside the inverse map's range (see
        :func:`cayley._m_factors`); line searches should retry with a
        smaller step.
    """
    kernel = _cayley_kernel(np.asarray(u, dtype=np.float64), d.mat)
    return kernel if _return_kernel else kernel.frame


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
    ValueError
        If either frame has NaN, Inf or columns that are not orthonormal.
    DimensionError
        If the frames differ in shape, or either is not a tall matrix.
    SingularPointError
        If ``I + ufrak^T U`` has its smallest singular value below
        ``cayley.PIVOT_FLOOR`` (``ufrak`` is outside the retraction's
        range from ``u``, numerically).
    """
    u = check_stiefel(u)
    ufrak = check_stiefel(ufrak)
    if ufrak.shape != u.shape:
        raise linalg.DimensionError(f"target frame shape {ufrak.shape} != base shape {u.shape}")
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

    The retraction is the inverse map at the center ``[U, Uperp]`` composed
    with the linear :func:`psi_map`, so its gradient is the tangent
    projection of ``psi_map``'s adjoint, ``-U G_a / 2 - Uperp G_b``, applied
    to the transform's pullback ``G = gradients.grad_pullback`` at
    ``psi_map(D)``.  In the ``[U, D, g]`` basis, with ``g = grad f(R(D))``
    and ``M^{-1}``, ``T`` from the kernel of :func:`_cayley_kernel`,

        ``P = M^{-1} [(U^T g)^T (2 I - T) + (D^T g)^T] M^{-1}``,
        ``S = (P + P^T) / 4``,

    and the result is

        ``U [(P^T - P) / 4 + T S - (U^T g) M^{-T}] - D S + g M^{-T}``.

    At ``D = 0`` it agrees with :func:`riemannian_grad` to within
    ``1e-13 max(1, ||grad||)``.

    The result is tangent in exact arithmetic, so its tangency defect is
    the assembly's roundoff, which scales with the terms summed,
    ``s = ||C|| + ||D|| ||S|| + ||g|| ||M^{-1}||`` (Frobenius norms; ``C``
    the coefficient of ``U``), not with the result.  One correcting
    :func:`_tangent_pass` runs only when ``s`` exceeds
    ``_TANGENT_PASS_BOUND`` times ``||out||_F``, so the result meets the
    public :class:`TangentVector` tolerance however small it is next to
    ``g`` (a test pins it to ``1e-14 max(1, ||grad||)`` for ``||g||`` from
    1e-8 to 1e12) and skips the tangency check; a NaN or Inf in it still
    raises ``ValueError``.  Its base is ``d.base``, so the two share one
    base and their arithmetic compares no frames.

    A caller that already retracted and evaluated the cost passes
    ``kernel``, the one ``retract_cayley(u, d, _return_kernel=True)``
    returned for the same ``u`` and ``d``, and ``g``, the ambient gradient
    at ``kernel.frame``; ``D`` itself is read from ``d``.  A rebuilt kernel
    is bit-identical to the carried one, so every combination returns the
    same result.

    Raises
    ------
    ValueError, linalg.RankError
        Propagated from the kernel when it is built here, as
        :func:`retract_cayley` raises them.
    """
    u = np.asarray(u, dtype=np.float64)
    if kernel is None:
        kernel = _cayley_kernel(u, d.mat)
    if g is None:
        g = f.grad(kernel.frame)
    m_inv, utd, dmat = kernel.m_inv, kernel.utd, d.mat
    utg = linalg._mm(u.T, g)
    pm = m_inv @ (utg.T @ (2.0 * np.eye(u.shape[1]) - utd) + linalg._mm(dmat.T, g).T) @ m_inv
    s = (pm + pm.T) / 4.0
    c = (pm.T - pm) / 4.0 + utd @ s - utg @ m_inv.T
    out = linalg._mm(u, c)
    out -= linalg._mm(dmat, s)
    out += linalg._mm(g, m_inv.T)
    # the scale of the terms summed sets the assembly's tangency roundoff
    scale = _fro(c) + _fro(dmat) * _fro(s) + _fro(g) * _fro(m_inv)
    if _pass_needed(scale, out):
        out = _tangent_pass(u, out)
    return TangentVector._trusted(d.base, linalg.as_matrix(out, "tangent matrix"))
