"""Cayley-transform parametrization of the Stiefel manifold.

The forward map sends a feasible frame ``U`` (an N-by-p matrix with
orthonormal columns) to a compressed skew parameter ``V = (A, B)`` living in
a fixed vector space; the inverse map reconstructs ``U`` from ``V``.  Both
directions are anchored at an orthogonal *center* ``S`` and only ever invert
p-by-p matrices; the inverse map also takes at most one QR of the (N-p)-by-p
block.

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

#: The forward map rejects inputs whose p-by-p pivot matrix has
#: ``|det| < DET_FLOOR * 2**p`` (checked in log scale to avoid overflow).
DET_FLOOR = 1e-12


class SingularPointError(RuntimeError):
    """The frame sits (numerically) on the excluded singular set.

    Carries the sign and log of ``|det(I_p + S_le^T U)|`` so callers can see
    how close the rejected point was.
    """

    def __init__(self, msg: str, sign: float, logabsdet: float):
        super().__init__(msg)
        self.sign = sign
        self.logabsdet = logabsdet


def _frozen(obj, **arrays):
    """Mark ``arrays`` read-only, bind them to ``obj`` and return it."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    return obj


def check_stiefel(u, tol: float = FEASIBILITY_TOL) -> np.ndarray:
    """Validate that ``u`` is an N-by-p frame with orthonormal columns."""
    u = linalg.as_matrix(u, "frame")
    n, p = u.shape
    if p > n:
        raise DimensionError(f"frame must be tall, got shape {u.shape}")
    defect = linalg.feasibility(u)
    if defect > tol:
        raise ValueError(f"frame is not orthonormal: defect {defect:.3e} > {tol:.1e}")
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
        if t.shape[0] != t.shape[1]:
            raise DimensionError(f"center block must be square, got {t.shape}")
        if t.shape[0] > n:
            raise DimensionError(f"center block {t.shape} too large for n={n}")
        if linalg.feasibility(t) > FEASIBILITY_TOL:
            raise ValueError("center block is not orthogonal")
        t = t.copy()
        t.setflags(write=False)
        return cls._build(None, t, int(n))

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
        """``S_ri^T x`` for an n-by-k panel."""
        self._check_p(p)
        if self.is_structured:
            return np.array(x[p:])
        return self.s[:, p:].T @ x

    def __repr__(self) -> str:
        kind = "structured" if self.is_structured else "general"
        return f"Center({kind}, n={self.n})"


def _pivot_check(k: np.ndarray, p: int, what: str) -> None:
    """Reject a p-by-p pivot matrix whose determinant is numerically zero."""
    sign, logabsdet = np.linalg.slogdet(k)
    if sign == 0.0 or logabsdet < math.log(DET_FLOOR) + p * math.log(2.0):
        raise SingularPointError(
            f"{what}: |det| estimate exp({logabsdet:.3f}) with sign {sign:+.0f} "
            f"is below the floor {DET_FLOOR:.0e} * 2^{p}",
            sign=float(sign),
            logabsdet=float(logabsdet),
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
        If ``det(I_p + S_le^T U)`` is numerically zero (the frame lies on
        the excluded set for this center).
    """
    u = check_stiefel(u)
    n, p = u.shape
    if n != center.n:
        raise DimensionError(f"frame has {n} rows but center is {center.n}-by-{center.n}")
    k = np.eye(p) + center.leftT_mul(u, p)
    _pivot_check(k, p, "forward map")
    k_inv = np.linalg.solve(k, np.eye(p))
    a = k_inv - k_inv.T
    b = -center.riT_mul(u, p) @ k_inv
    return SkewParam(a, b)


def _cayley_frame(v: SkewParam):
    """Identity-center frame ``[2 M^{-1} - I; -2 B M^{-1}]`` of a parameter,
    returned with ``||B||_2`` (read off the SVD below at no extra cost).

    ``M = I_p + A + B^T B`` is always nonsingular (its symmetric part is
    ``I + B^T B``), but a direct solve with it loses ~ ``eps * ||B||^2``
    of orthonormality in the result.  Instead, with the SVD
    ``B = Q diag(sigma) W^T`` and ``D = diag(sqrt(1 + sigma^2))``,

        ``M^{-1} = W D^{-1} (I + A_s)^{-1} D^{-1} W^T``,
        ``A_s = D^{-1} W^T A W D^{-1}``  (skew),

    and ``I + A_s`` has all singular values >= 1, so every factor of the
    assembled frame has spectral norm <= 1 and the defect stays near
    roundoff (~ ``eps * (1 + ||A||)``) no matter how large ``B`` is.

    Only ``sigma`` and ``W`` are used.  They come from the SVD of the R
    factor of a Householder QR ``B = Q_B R``: ``Q_B`` has orthonormal
    columns, so R has the singular values and right singular vectors of B,
    and the (N-p)-by-p factor ``Q`` is never formed.  The Gram matrix
    ``B^T B``, whose eigenvalues would carry errors of order
    ``eps * ||B||^2``, is never formed either.  Cost: the QR,
    ``O(N p^2)``, plus ``O(p^3)``.
    """
    p = v.p
    ip = np.eye(p)
    if v.b.shape[0] == 0:
        z = np.linalg.solve(ip + v.a, ip)
        return 2.0 * z - ip, 0.0
    res = linalg.svd(np.linalg.qr(v.b, mode="r"))
    if res.vt.shape[0] < p:
        # B has fewer rows than columns: complete the right singular basis.
        # QR of an orthonormal panel reproduces its columns up to sign, and
        # the sign cancels because only B @ w is used below; the appended
        # columns span ker(B) and get sigma = 0.
        w = np.linalg.qr(res.vt.T, mode="complete")[0]
        sigma = np.zeros(p)
        sigma[: res.sigma.size] = res.sigma
    else:
        w = res.vt.T
        sigma = res.sigma
    d = np.sqrt(1.0 + sigma * sigma)
    ws = w / d  # W D^{-1}
    f = (v.b @ w) / d  # B W D^{-1}, spectral norm <= 1
    a_s = ws.T @ v.a @ ws
    a_s = (a_s - a_s.T) / 2.0
    g = np.linalg.solve(ip + a_s, ws.T)  # (I + A_s)^{-1} D^{-1} W^T
    frame = np.empty((v.n, p))
    frame[:p] = 2.0 * (ws @ g) - ip
    frame[p:] = -2.0 * (f @ g)
    return frame, float(sigma[0])


def inverse(center: Center, v: SkewParam, return_b_norm: bool = False):
    """Map a skew parameter back to its feasible frame.

    Builds the identity-center frame ``W = [2 M^{-1} - I; -2 B M^{-1}]``
    (orthonormal columns up to roundoff for every valid ``v``, see
    :func:`_cayley_frame`) and applies the center orthogonally: ``U = S W``,
    which for a structured center touches only the top p-by-p block.
    Defined for all of parameter space.  Cost: at most one Householder QR
    of the (N-p)-by-p block B plus p-by-p work, ``O(N p^2)``.  With
    ``return_b_norm`` the result is the pair ``(U, ||B||_2)``; the norm
    comes from the SVD the map already takes.
    """
    p, n = v.p, v.n
    if n != center.n:
        raise DimensionError(f"parameter has n={n} but center is {center.n}-by-{center.n}")
    w, b_norm = _cayley_frame(v)
    if center.is_structured:
        u = np.empty((n, p))
        u[:p] = center.t @ w[:p]
        u[p:] = w[p:]
    else:
        u = center.s @ w
    return (u, b_norm) if return_b_norm else u


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

