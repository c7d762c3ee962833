"""Dense-kernel tests: factorizations and the norm facts every other module
leans on."""

import warnings

import numpy as np
import pytest

from stiefel_cayley import linalg
from stiefel_cayley.cayley import SkewParam


def test_svd_diagonal_case():
    res = linalg.svd(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(res.sigma, [3.0, 1.0], atol=0.0)
    np.testing.assert_allclose(np.abs(res.u), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(np.abs(res.vt), np.eye(2), atol=1e-14)


def test_svd_zero_matrix():
    res = linalg.svd(np.zeros((2, 2)))
    np.testing.assert_allclose(res.sigma, [0.0, 0.0], atol=0.0)


def test_svd_reconstruction_and_ordering():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal((6, 4))
        res = linalg.svd(x)
        recon = res.u @ np.diag(res.sigma) @ res.vt
        assert np.linalg.norm(x - recon) <= 1e-10 * max(1.0, np.linalg.norm(x))
        assert np.all(np.diff(res.sigma) <= 0.0) and np.all(res.sigma >= 0.0)
        assert np.linalg.norm(res.u.T @ res.u - np.eye(4)) <= 1e-12
        assert np.linalg.norm(res.vt @ res.vt.T - np.eye(4)) <= 1e-12


def test_qr_orthonormalize_fixed_point_and_axes():
    rng = np.random.default_rng(2)
    q0 = linalg.qr_orthonormalize(rng.standard_normal((7, 3)))
    # already-orthonormal input with the sign convention applied is a fixed point
    assert np.linalg.norm(linalg.qr_orthonormalize(q0) - q0) <= 1e-12
    out = linalg.qr_orthonormalize(np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]]))
    np.testing.assert_allclose(out, np.eye(3)[:, :2], atol=1e-15)


def test_qr_orthonormalize_feasibility_and_determinism():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 5))
    q = linalg.qr_orthonormalize(x)
    assert linalg.feasibility(q) <= 1e-13
    assert np.array_equal(q, linalg.qr_orthonormalize(x.copy()))


def test_qr_orthonormalize_rank_error():
    x = np.ones((6, 2))  # two identical columns
    with pytest.raises(linalg.RankError):
        linalg.qr_orthonormalize(x)


def test_qr_orthonormalize_judges_rank_without_overflow():
    # ||x||_F overflows at this scale; the rank bar must not, so a full-rank
    # input gives the frame of its rescaled copy, with no warning
    rng = np.random.default_rng(6)
    x = rng.standard_normal((50, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = linalg.qr_orthonormalize(1e160 * x)
        assert linalg.feasibility(q) <= 1e-13
        assert np.linalg.norm(q - linalg.qr_orthonormalize(x)) <= 1e-13
        rank_one = 1e160 * np.outer(x[:, 0], [1.0, 2.0, 3.0])
        with pytest.raises(linalg.RankError):
            linalg.qr_orthonormalize(rank_one)
        with pytest.raises(linalg.RankError):
            linalg.qr_orthonormalize(np.zeros((4, 2)))


def test_polar_factor_fixed_point_and_scaling():
    rng = np.random.default_rng(4)
    u = linalg.qr_orthonormalize(rng.standard_normal((8, 3)))
    assert np.linalg.norm(linalg.polar_factor(u) - u) <= 1e-12
    tall_eye = np.eye(5)[:, :2]
    np.testing.assert_allclose(linalg.polar_factor(2.0 * tall_eye), tall_eye, atol=1e-14)


def test_polar_factor_feasibility_and_optimality():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 4))
    u = linalg.polar_factor(x)
    assert linalg.feasibility(u) <= 1e-12
    # nearest orthonormal factor: beats random feasible frames in Frobenius distance
    for k in range(5):
        q = linalg.qr_orthonormalize(rng.standard_normal((20, 4)))
        assert np.linalg.norm(x - u) <= np.linalg.norm(x - q) + 1e-12


def test_polar_factor_rank_error():
    with pytest.raises(linalg.RankError):
        linalg.polar_factor(np.zeros((4, 2)))


def test_identity_plus_param_singular_values_at_least_one():
    rng = np.random.default_rng(8)
    for _ in range(25):
        p = int(rng.integers(1, 6))
        n = int(rng.integers(p + 1, 20))
        v = SkewParam(rng.standard_normal((p, p)),
                      rng.standard_normal((n - p, p)))
        sig = np.linalg.svd(np.eye(n) + v.full(), compute_uv=False)
        assert sig.min() >= 1.0 - 1e-12


def test_inverse_map_is_nonexpansive():
    rng = np.random.default_rng(9)
    for _ in range(25):
        p, n = 3, 14
        mats = []
        vs = []
        for _ in range(2):
            v = SkewParam(rng.standard_normal((p, p)),
                          rng.standard_normal((n - p, p)))
            vs.append(v)
            mats.append(np.linalg.inv(np.eye(n) + v.full()))
        lhs = np.linalg.norm(mats[0] - mats[1])
        rhs = np.linalg.norm(vs[0].full() - vs[1].full())
        assert lhs <= rhs + 1e-12


def test_determinant_lower_bound():
    rng = np.random.default_rng(10)
    for _ in range(25):
        p, n = 2, 9
        v = SkewParam(rng.standard_normal((p, p)),
                      rng.standard_normal((n - p, p)))
        full = v.full()
        det = np.linalg.det(np.eye(n) + full)
        assert det >= np.sqrt(1.0 + np.linalg.norm(full, 2) ** 2) - 1e-9
