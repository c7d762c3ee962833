"""Reference implementations the tests check the package against."""

import numpy as np

from stiefel_cayley import retractions


def stationarity_residual(u, f):
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


def embed(center):
    """The full n-by-n orthogonal matrix of a structured or general center."""
    if not center.is_structured:
        return np.array(center.s)
    p = center.t.shape[0]
    s = np.eye(center.n)
    s[:p, :p] = center.t
    return s


def panel_reference(u, d, f):
    """Frame, 2p-by-2p system and its 1-norm condition number, ambient
    gradient and pullback gradient of the Cayley retraction, from the
    explicit Sherman-Morrison-Woodbury panels
    ``A = [U, Y/2]``, ``B = [Y/2, -U]`` of ``W = A B^T``: ``cond`` of
    ``I + B^T A`` and one LU solve against it and one against its
    transpose.  The pullback is built from the N-by-p matrices ``Z U``
    and ``Z^T g`` as ``(Z U)(g^T Z U) - (Z^T g)((Z U)^T U)``.  This is the
    panel form of the kernel and the direct form of the pullback, kept as
    an oracle."""
    y = d.mat - 0.5 * u @ (u.T @ d.mat)
    a_lr = np.hstack([u, 0.5 * y])
    b_lr = np.hstack([0.5 * y, -u])
    inner = np.eye(a_lr.shape[1]) + b_lr.T @ a_lr
    cond = float(np.linalg.cond(inner, 1))
    zu = u - a_lr @ np.linalg.solve(inner, b_lr.T @ u)
    g = f.grad(2.0 * zu - u)
    ztg = g - b_lr @ np.linalg.solve(inner.T, a_lr.T @ g)
    dmat = zu @ (g.T @ zu) - ztg @ (zu.T @ u)
    out = -(dmat - 0.5 * u @ (u.T @ dmat))
    return 2.0 * zu - u, inner, cond, g, retractions.project_tangent(u, out).mat
