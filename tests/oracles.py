"""Reference implementations the tests check the package against."""

import numpy as np


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
