"""Cayley-transform parametrization of the Stiefel manifold.

The forward map sends a feasible frame ``U`` (an N-by-p matrix with
orthonormal columns) to a compressed skew parameter ``V = (A, B)`` living in
a fixed vector space; the inverse map reconstructs ``U`` from ``V``.  Both
directions are anchored at an orthogonal *center* ``S`` and only ever factor
p-by-p matrices: the inverse map's N-row work is two Gram products and two
panel products with the (N-p)-by-p block.  The panels go through
:func:`linalg._mm`, which keeps them on OpenBLAS's small-matrix path in
blocks above its size limit at one BLAS thread; the Grams stay
``x.T @ x`` on numpy's symmetric (syrk) path.

Frames are plain ndarrays; ``SkewParam``, ``Center`` and
``retractions.TangentVector`` are small immutable classes because they carry
contracts (the factor-2 inner product, structured-versus-general center
dispatch, tangency) that the rest of the package relies on.  A caller's
construction is checked in full.  A value the package builds keeps the
invariant by construction: it gets an O(size) finiteness check where
non-finite input can reach it, then the unchecked constructor ``_trusted``.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import DimensionError, SingularMatrixError

__all__ = [
    "SingularPointError",
    "SkewParam",
    "Center",
    "check_stiefel",
    "forward",
    "inverse",
    "construct_center",
    "align_right_invariant",
    "SingularDiagnostic",
    "singular_diagnostic",
    "mobility",
]

#: Feasibility tolerance for frame validation on construction.
FEASIBILITY_TOL = 1e-10

#: The forward map and the inverse Cayley retraction refuse a frame whose
#: p-by-p pivot matrix ``K`` has its smallest singular value below this
#: floor.  It does not depend on p, so every frame that
#: :func:`construct_center` certifies (``K`` symmetric with eigenvalues
#: ``>= 1``) passes at every p.  The forward map's ``B = -S_ri^T U K^{-1}``
#: then has ``||B||_2 <= 1 / PIVOT_FLOOR``.  A floor on ``|det K|`` would
#: refuse well-conditioned pivots at large p: ``K``'s singular values lie
#: in ``[0, 2]``, so its determinant can be tiny while none of them is.
PIVOT_FLOOR = 1e-12


class SingularPointError(RuntimeError):
    """The frame sits (numerically) on the excluded singular set.

    Carries ``sigma_min``, the smallest singular value of the pivot matrix
    ``I_p + S_le^T U``, so callers can see how close the rejected point
    was.
    """

    def __init__(self, msg: str, sigma_min: float):
        super().__init__(msg)
        self.sigma_min = sigma_min


def _frozen(obj, **arrays):
    """Mark ``arrays`` read-only, bind them to ``obj`` and return it."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    return obj


def check_stiefel(u) -> np.ndarray:
    """Validate that ``u`` is an N-by-p frame with orthonormal columns, to
    within :data:`FEASIBILITY_TOL`."""
    u = linalg.as_matrix(u, "frame")
    n, p = u.shape
    if p > n:
        raise DimensionError(f"frame must be tall, got shape {u.shape}")
    defect = linalg.feasibility(u)
    if defect > FEASIBILITY_TOL:
        raise ValueError(
            f"frame is not orthonormal: defect {defect:.3e} > {FEASIBILITY_TOL:.1e}")
    return u


class SkewParam:
    """Compressed zero-corner skew matrix ``V = [[A, -B^T], [B, 0]]``.

    Only the p-by-p skew block ``a`` and the (n-p)-by-p block ``b`` are
    stored.  Because ``B`` appears twice in the full matrix, the Frobenius
    geometry of the full matrix is reproduced by the weighted contract

        ``<V1, V2> = trace(A1^T A2) + 2 trace(B1^T B2)``

    and ``norm(V)^2 = ||A||_F^2 + 2 ||B||_F^2``.  Every inner product and
    norm taken on these parameters (gradient descent updates, stopping
    rules, finite differences) must go through :meth:`inner` / :meth:`norm`.

    Instances are immutable and their arrays read-only.  A caller's
    construction checks the blocks, copies them and makes ``a`` exactly
    skew; ``+``, ``-`` and scalar ``*`` trust their operands, since IEEE
    arithmetic keeps an exactly skew ``a`` exactly skew.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a = linalg.as_matrix(a, "a block")
        b = linalg.as_matrix(b, "b block")
        if a.shape[0] != a.shape[1]:
            raise DimensionError(f"a block must be square, got {a.shape}")
        if b.shape[1] != a.shape[0]:
            raise DimensionError(
                f"b block must have {a.shape[0]} columns, got {b.shape}"
            )
        _frozen(self, a=(a - a.T) / 2.0, b=b.copy())  # a exactly skew

    def __setattr__(self, name, value):
        raise AttributeError("SkewParam is immutable")

    @property
    def p(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[0] + self.b.shape[0]

    @classmethod
    def zero(cls, n: int, p: int) -> "SkewParam":
        return cls(np.zeros((p, p)), np.zeros((n - p, p)))

    def full(self) -> np.ndarray:
        """Embed as the full n-by-n skew matrix."""
        n, p = self.n, self.p
        w = np.zeros((n, n))
        w[:p, :p] = self.a
        w[p:, :p] = self.b
        w[:p, p:] = -self.b.T
        return w

    def inner(self, other: "SkewParam") -> float:
        return float(
            np.tensordot(self.a, other.a) + 2.0 * np.tensordot(self.b, other.b)
        )

    def norm(self) -> float:
        return math.sqrt(float(np.sum(self.a * self.a) + 2.0 * np.sum(self.b * self.b)))

    def spectral_norm(self) -> float:
        """Spectral norm of the embedded matrix (costs a full n-by-n SVD)."""
        return float(np.linalg.norm(self.full(), 2))

    @classmethod
    def _trusted(cls, a: np.ndarray, b: np.ndarray) -> "SkewParam":
        """Wrap fresh blocks without checks or copies; ``a`` must already be
        exactly skew and the shapes consistent.  The arrays become read-only."""
        return _frozen(object.__new__(cls), a=a, b=b)

    def __add__(self, other: "SkewParam") -> "SkewParam":
        return SkewParam._trusted(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "SkewParam") -> "SkewParam":
        return SkewParam._trusted(self.a - other.a, self.b - other.b)

    def __mul__(self, scalar) -> "SkewParam":
        s = float(scalar)
        return SkewParam._trusted(s * self.a, s * self.b)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"SkewParam(n={self.n}, p={self.p}, norm={self.norm():.6g})"


def random_skew_param(
    rng: np.random.Generator, n: int, p: int, norm: float | None = None
) -> SkewParam:
    """A random parameter, optionally rescaled to a target weighted norm."""
    v = SkewParam(rng.standard_normal((p, p)), rng.standard_normal((n - p, p)))
    if norm is None:
        return v
    nrm = v.norm()
    return v if nrm == 0.0 else (norm / nrm) * v


class Center:
    """Orthogonal n-by-n center anchoring the transform.

    Two variants:

    * ``Center.general(s)`` stores the full matrix ``S``.
    * ``Center.structured(t, n)`` stores only the p-by-p orthogonal block
      ``T`` of ``S = diag(T, I_{n-p})``; this is the form produced by
      :func:`construct_center` and enables the fast paths (``n`` can be huge
      while only p-by-p data is touched).

    Block actions take the column split ``p`` explicitly because a general
    center does not know it; structured centers check it against ``T``.
    Only those two constructors build centers: calling ``Center(...)``
    raises ``TypeError``.
    """

    __slots__ = ("n", "s", "t")

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Center with Center.general or Center.structured")

    @classmethod
    def _build(cls, s, t, n: int) -> "Center":
        center = object.__new__(cls)
        object.__setattr__(center, "s", s)
        object.__setattr__(center, "t", t)
        object.__setattr__(center, "n", n)
        return center

    def __setattr__(self, name, value):
        raise AttributeError("Center is immutable")

    @classmethod
    def general(cls, s, check: bool = True) -> "Center":
        s = linalg.as_matrix(s, "center")
        if s.shape[0] != s.shape[1]:
            raise DimensionError(f"center must be square, got {s.shape}")
        if check and linalg.feasibility(s) > FEASIBILITY_TOL:
            raise ValueError("center matrix is not orthogonal")
        s = s.copy()
        s.setflags(write=False)
        return cls._build(s, None, s.shape[0])

    @classmethod
    def structured(cls, t, n: int) -> "Center":
        t = linalg.as_matrix(t, "center block")
        n = operator.index(n)
        if t.shape[0] != t.shape[1]:
            raise DimensionError(f"center block must be square, got {t.shape}")
        if t.shape[0] > n:
            raise DimensionError(f"center block {t.shape} too large for n={n}")
        if linalg.feasibility(t) > FEASIBILITY_TOL:
            raise ValueError("center block is not orthogonal")
        t = t.copy()
        t.setflags(write=False)
        return cls._build(None, t, n)

    @property
    def is_structured(self) -> bool:
        return self.t is not None

    def _check_p(self, p: int) -> None:
        if self.is_structured and p != self.t.shape[0]:
            raise DimensionError(
                f"structured center has block size {self.t.shape[0]}, got p={p}"
            )
        if p > self.n:
            raise DimensionError(f"p={p} exceeds center size n={self.n}")

    def left(self, p: int) -> np.ndarray:
        """First p columns ``S_le``."""
        self._check_p(p)
        if self.is_structured:
            out = np.zeros((self.n, p))
            out[:p] = self.t
            return out
        return np.array(self.s[:, :p])

    def leftT_mul(self, x, p: int) -> np.ndarray:
        """``S_le^T x`` for an n-by-k panel."""
        self._check_p(p)
        if self.is_structured:
            return self.t.T @ x[:p]
        return self.s[:, :p].T @ x

    def riT_mul(self, x, p: int) -> np.ndarray:
        """``S_ri^T x`` for an n-by-k panel; for a structured center, a view
        of the last n-p rows of ``x``."""
        self._check_p(p)
        if self.is_structured:
            return x[p:]
        return self.s[:, p:].T @ x

    def __repr__(self) -> str:
        kind = "structured" if self.is_structured else "general"
        return f"Center({kind}, n={self.n})"


def _pivot_check(k: np.ndarray, what: str) -> None:
    """Reject a p-by-p pivot matrix whose smallest singular value is below
    :data:`PIVOT_FLOOR`."""
    sigma_min = float(np.linalg.svd(k, compute_uv=False)[-1])
    if not sigma_min >= PIVOT_FLOOR:
        raise SingularPointError(
            f"{what}: the pivot matrix has smallest singular value {sigma_min:.3e}, "
            f"below the floor {PIVOT_FLOOR:.0e}",
            sigma_min=sigma_min,
        )


def forward(center: Center, u) -> SkewParam:
    """Map a feasible frame to its skew parameter at the given center.

    With ``K = I_p + S_le^T U`` the blocks are

        ``A = K^{-1} - K^{-T}``       (equal to ``2 K^{-T} Skew(U^T S_le) K^{-1}``)
        ``B = -S_ri^T U K^{-1}``

    The A-block identity follows from ``U^T S_le = K^T - I``.  Structured
    centers touch only ``T^T U_up`` and ``U_lo``, costing ``N p^2 + O(p^3)``.

    Raises
    ------
    DimensionError, ValueError
        If the frame is not a finite orthonormal N-by-p array.
    SingularPointError
        If the smallest singular value of ``I_p + S_le^T U`` is below
        :data:`PIVOT_FLOOR` (the frame lies on the excluded set for this
        center, numerically).
    """
    u = check_stiefel(u)
    n, p = u.shape
    if n != center.n:
        raise DimensionError(f"frame has {n} rows but center is {center.n}-by-{center.n}")
    k = np.eye(p) + center.leftT_mul(u, p)
    _pivot_check(k, "forward map")
    k_inv = np.linalg.solve(k, np.eye(p))
    a = k_inv - k_inv.T
    b = -center.riT_mul(u, p) @ k_inv
    return SkewParam(a, b)


def _cayley_frame(v: SkewParam):
    """Identity-center frame ``[2 M^{-1} - I; -2 B M^{-1}]`` of a parameter,
    returned with the Gram matrix ``B^T B`` it forms.

    ``M = I_p + A + B^T B`` is always nonsingular (its symmetric part is
    ``I + B^T B``), but a direct solve with it loses ~ ``eps * ||B||^2``
    of orthonormality in the result.  Instead, ``I + B^T B = X^T X`` for
    ``X = [I_p; B]``, whose singular values are all at least 1, so
    Cholesky QR applied twice gives ``X = Q R`` with ``Q`` orthonormal to
    roundoff (the argument of ``retractions._gram_qr``): pass 1 factors
    ``I + B^T B = R1^T R1``, pass 2 the Gram matrix of
    ``X R1^{-1} = [R1^{-1}; B R1^{-1}]``, and ``R = R2 R1``.  Then

        ``M^{-1} = R^{-1} (I + A_s)^{-1} R^{-T}``,
        ``A_s = R^{-T} A R^{-1}``  (skew),

    and with ``G = (I + A_s)^{-1} R^{-T}`` the frame is
    ``[2 R^{-1} G - I; (B R1^{-1}) (-2 R2^{-1} G)]``.  ``I + A_s`` has all
    singular values >= 1, and ``R^{-1}`` and ``B R^{-1}`` are blocks of
    ``Q``, so every factor has spectral norm <= 1 and the defect stays
    near roundoff (~ ``eps * (1 + ||A||)``).  The N-row work is four
    products: the Gram matrices ``B^T B`` and ``(B R1^{-1})^T (B R1^{-1})``,
    the panel ``B R1^{-1}`` and the bottom block; every factorization is
    p-by-p.

    Range: the rounded ``I + B^T B`` stays positive definite while
    ``cond(X)^2 = (1 + sigma_max(B)^2) / (1 + sigma_min(B)^2)`` is well
    below ``1 / eps``.  From ``||B||_2`` near ``1e8`` on, a B with a
    singular value near 0 (always the case when B has fewer rows than
    columns) falls outside it, and the failed Cholesky raises
    ``linalg.RankError``.
    """
    p = v.p
    ip = np.eye(p)
    btb = v.b.T @ v.b
    r1_inv = np.linalg.inv(linalg._cholesky_r(ip + btb, "I + B^T B"))
    q1_lo = linalg._mm(v.b, r1_inv)  # B R1^{-1}
    gram2 = r1_inv.T @ r1_inv + q1_lo.T @ q1_lo  # (X R1^{-1})^T (X R1^{-1})
    r2_inv = np.linalg.inv(linalg._cholesky_r(gram2, "the Gram matrix of X R1^{-1}"))
    r_inv = r1_inv @ r2_inv  # R^{-1}, the top block of Q
    a_s = r_inv.T @ v.a @ r_inv
    a_s = (a_s - a_s.T) / 2.0
    g = np.linalg.solve(ip + a_s, r_inv.T)  # (I + A_s)^{-1} R^{-T}
    frame = np.empty((v.n, p))
    frame[:p] = 2.0 * (r_inv @ g) - ip
    linalg._mm(q1_lo, -2.0 * (r2_inv @ g), out=frame[p:])
    return frame, btb


def inverse(center: Center, v: SkewParam, *, _return_gram: bool = False):
    """Map a skew parameter back to its feasible frame.

    Builds the identity-center frame ``W = [2 M^{-1} - I; -2 B M^{-1}]``
    (orthonormal columns up to roundoff, see :func:`_cayley_frame`) and
    applies the center orthogonally: ``U = S W``, which for a structured
    center touches only the top p-by-p block.  Cost: Cholesky QR applied
    twice to ``[I_p; B]``, four N-row products in all plus p-by-p work,
    ``O(N p^2)``.  With the private ``_return_gram`` the result is the
    pair ``(U, B^T B)``, the Gram matrix the map forms: ``run_gdm_cp``
    takes ``||B||_2`` from it (:func:`_gram_norm`) and passes it to its
    pullback.

    Defined for every parameter whose ``I + B^T B`` stays positive
    definite once rounded: every parameter with ``||B||_2`` below about
    ``1e7``, and beyond that those whose B keeps its singular values away
    from 0.  From ``||B||_2`` near ``1e8`` on, a B with a singular value
    near 0 (always the case when B has fewer rows than columns, and
    certain at ``||B||_2 >= 1e9``) is outside that range, and the map
    raises rather than return an inaccurate frame.

    Raises
    ------
    DimensionError
        If the parameter and the center differ in size.
    linalg.RankError
        If ``v`` is outside that range (see :func:`_cayley_frame`); line
        searches should retry with a smaller step.
    """
    p, n = v.p, v.n
    if n != center.n:
        raise DimensionError(f"parameter has n={n} but center is {center.n}-by-{center.n}")
    w, btb = _cayley_frame(v)
    if center.is_structured:
        w[:p] = center.t @ w[:p]
        u = w
    else:
        u = center.s @ w
    return (u, btb) if _return_gram else u


def _gram_norm(btb: np.ndarray) -> float:
    """``||B||_2`` from the Gram matrix ``B^T B``: the square root of its
    largest eigenvalue (one p-by-p symmetric eigenvalue problem), accurate
    to a few eps relative."""
    return math.sqrt(max(float(np.linalg.eigvalsh(btb)[-1]), 0.0))


def construct_center(u) -> Center:
    """Build the default structured center for a frame.

    Takes the SVD ``U_up = Q1 diag(sigma) Q2^T`` of the top p-by-p block and
    returns the center with ``T = Q1 Q2^T``.  This choice guarantees
    ``det(I_p + S_le^T U) = det(I_p + diag(sigma)) >= 1`` and
    ``||B||_2 <= 1`` for the resulting parameter, so the frame is safely
    inside the domain.  When ``U_up`` has repeated or zero singular values
    the SVD factors are not unique; any of them yields a valid center (the
    guarantees hold for all of them).  Cost ``O(p^3)``.
    """
    u = np.asarray(u, dtype=np.float64)
    n, p = u.shape
    res = linalg.svd(u[:p])
    return Center.structured(res.u @ res.vt, n)


def align_right_invariant(center: Center, u) -> np.ndarray:
    """Rotate a frame's columns so its parameter has spectral norm <= 1.

    Takes the SVD ``S_le^T U = Q1 diag(sigma) Q2^T`` and returns
    ``U* = U Q2 Q1^T``.  The rotated frame stays outside the singular set,
    and the parameter of ``U*`` at this center satisfies ``||B||_2 <= 1``
    and ``||V||_2 <= 1``.  For any cost with ``f(U Q) = f(U)`` for all
    orthogonal ``Q``, the value is unchanged by the rotation.
    """
    u = np.asarray(u, dtype=np.float64)
    p = u.shape[1]
    res = linalg.svd(center.leftT_mul(u, p))
    q = res.vt.T @ res.u.T
    return u @ q


class SingularDiagnostic(NamedTuple):
    """Value and log of the singular-set proximity indicator."""

    value: float
    log_value: float


def singular_diagnostic(v: SkewParam) -> SingularDiagnostic:
    """Positive indicator ``g(V) = 2^p / det(I_p + A + B^T B)``.

    Measures how close the frame ``Phi^{-1}(V)`` is to the excluded set of
    its center: ``g`` equals ``det(I_p + S_le^T Phi^{-1}(V))`` for every
    center, is at most ``2^p`` (attained at ``V = 0``), and tends to zero
    exactly when ``||V||_2`` tends to infinity.  The log form
    ``p ln 2 - ln det(M)`` avoids under/overflow for large ``p`` or ``V``.
    """
    p = v.p
    m = np.eye(p) + v.a + v.b.T @ v.b
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0.0:
        raise SingularMatrixError(
            "det(I + A + B^T B) is positive for every valid parameter; "
            "a nonpositive determinant signals corrupted data"
        )
    log_value = p * math.log(2.0) - logdet
    return SingularDiagnostic(value=math.exp(log_value), log_value=log_value)


def mobility(v: SkewParam) -> float:
    """Local sensitivity bound ``r(V)`` of the inverse map.

    ``r(V) = 2 sqrt(1 + sigma_max(B)^2) / (1 + sigma_min(B)^2)`` where
    ``sigma_min`` is the smallest singular value of ``B`` as a map on p
    columns (zero when ``B`` has fewer than p rows).  For every direction
    ``E`` of unit Frobenius norm and every step ``tau > 0``,

        ``||Phi^{-1}(V + tau E) - Phi^{-1}(V)||_F <= tau * r(V)``

    and ``r(V) >= 2 / sqrt(1 + ||B||_2^2)`` with equality when all singular
    values of ``B`` coincide.  ``r = 2`` at ``B = 0``.  Small mobility means
    the frame barely moves under parameter updates (the stall mechanism near
    the singular set).
    """
    if v.b.size == 0:
        return 2.0
    sigma = np.linalg.svd(v.b, compute_uv=False)
    sigma_max = float(sigma[0])
    sigma_min = float(sigma[-1]) if v.b.shape[0] >= v.p else 0.0
    return 2.0 * math.sqrt(1.0 + sigma_max**2) / (1.0 + sigma_min**2)

