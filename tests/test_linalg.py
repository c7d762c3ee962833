"""Dense-kernel tests: factorizations and the norm facts every other module
leans on."""

import warnings
from pathlib import Path

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


def test_one_pass_bound_brackets_cond_squared(monkeypatch):
    # beta = ||X^T X||_1 ||R^{-1}||_1 ||R^{-1}||_inf >= cond(X)^2, so with the
    # bound set just below cond(X)^2 no draw may take one pass; each norm is
    # within sqrt(p) of its 2-norm, so beta <= p^(3/2) cond(X)^2.
    rng = np.random.default_rng(31)
    for n, p in ((50, 1), (30, 5), (200, 10), (120, 80)):
        for decades in (0.0, 0.5, 1.0, 3.0):
            rot = np.linalg.qr(rng.standard_normal((p, p)))[0]
            x = rng.standard_normal((n, p)) * np.logspace(0.0, decades, p) @ rot
            gram = x.T @ x
            r_inv = np.linalg.inv(linalg._cholesky_r(gram, "X^T X"))
            cond2 = np.linalg.cond(x) ** 2
            monkeypatch.setattr(linalg, "ONE_PASS_BOUND", cond2 * (1.0 - 1e-9))
            assert not linalg._one_pass_enough(gram, r_inv), (n, p, decades)
            monkeypatch.setattr(linalg, "ONE_PASS_BOUND", p**1.5 * cond2 * (1.0 + 1e-9))
            assert linalg._one_pass_enough(gram, r_inv), (n, p, decades)


def test_cholesky_qr_steps_are_called_only_in_linalg():
    # The pass rule lives in linalg._cholesky_qr alone: no other module
    # factors a Gram matrix or judges a pass itself.
    for path in Path(linalg.__file__).parent.glob("*.py"):
        if path.name != "linalg.py":
            text = path.read_text(encoding="utf-8")
            for step in ("_cholesky_r(", "_one_pass_enough("):
                assert step not in text, (path.name, step)


def test_polar_factor_fixed_point_and_scaling():
    rng = np.random.default_rng(4)
    u = linalg.qr_orthonormalize(rng.standard_normal((8, 3)))
    assert np.linalg.norm(linalg.polar_factor(u) - u) <= 1e-12
    tall_eye = np.eye(5)[:, :2]
    np.testing.assert_allclose(linalg.polar_factor(2.0 * tall_eye), tall_eye, atol=1e-14)


def test_feasibility_rejects_input_that_is_not_2d():
    for bad in (np.ones(3), 1.0, np.ones((2, 2, 2))):
        with pytest.raises(linalg.DimensionError):
            linalg.feasibility(bad)
    assert linalg.feasibility(np.eye(3)[:, :2]) == 0.0


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


# ------------------------------------------------- the blocked product


def in_order_blocks(a, b):
    """``a @ b`` in the blocks of :func:`linalg._mm`, with the block height
    checked against the limit on its own."""
    m, k = a.shape
    n = b.shape[1]
    short = min(m, k)
    size = linalg._block_size(m, k, n)
    assert size * short * n <= linalg.SMALL_PRODUCT_MAX < (size + 1) * short * n
    if m >= k:
        return np.vstack([a[i:i + size] @ b for i in range(0, m, size)])
    total = a[:, :size] @ b[:size]
    for j in range(size, k, size):
        total = total + a[:, j:j + size] @ b[j:j + size]
    return total


#: (N, p) at and just above N p^2 = 100^3 for p = 1, 10, 40, 64 and 100,
#: and distance-tall's shape
PANEL_SIDES = [(1_000_000, 1), (1_000_001, 1), (10_000, 10), (10_001, 10), (625, 40),
               (626, 40), (244, 64), (245, 64), (100, 100), (101, 100), (2000, 40)]


def product_cases(rng, n, p):
    """The step path's kinds of N-row product at (N, p), as ``(a, b)``:
    panels ``U C`` and ``B C`` (a row slice), cross Grams ``U^T X`` and
    ``(S_ri^T g)^T B`` (transposed views of slices)."""
    u = rng.standard_normal((n, p))
    x = rng.standard_normal((n, p))
    c = rng.standard_normal((p, p))
    g = rng.standard_normal((n + p, p))
    return [(u, c), (g[p:], c), (u.T, x), (g[p:].T, u)]


@pytest.mark.parametrize("n, p", PANEL_SIDES)
def test_blocked_product_agrees_with_the_plain_one(n, p):
    rng = np.random.default_rng(n + p)
    above = n * p * p > linalg.SMALL_PRODUCT_MAX
    for a, b in product_cases(rng, n, p):
        plain = a @ b
        out = linalg._mm(a, b)
        assert out.shape == plain.shape and out.flags.c_contiguous
        assert np.linalg.norm(out - plain) <= 1e-14 * np.linalg.norm(a) * np.linalg.norm(b)
        if above:
            assert np.array_equal(out, in_order_blocks(a, b)), (n, p, a.shape)
        else:
            assert np.array_equal(out, plain), (n, p, a.shape)
        # into a row slice of a larger array, as the inverse map fills its
        # frame's bottom block
        frame = np.full((plain.shape[0] + 3, plain.shape[1]), np.nan)
        assert np.shares_memory(linalg._mm(a, b, out=frame[3:]), frame)
        assert np.array_equal(frame[3:], out) and np.isnan(frame[:3]).all()


def test_blocked_product_block_rule():
    assert linalg._block_size(625, 40, 40) == 0  # at the limit
    assert linalg._block_size(2000, 40, 40) == 625  # rows of a panel
    assert linalg._block_size(40, 2000, 40) == 625  # inner indices of a Gram
    assert linalg._block_size(500, 500, 10) == 200  # rows of A U
    assert linalg._block_size(2, 600_000, 1) == 500_000


def test_blocked_product_falls_back_when_one_row_is_over_the_limit(monkeypatch):
    monkeypatch.setattr(linalg, "SMALL_PRODUCT_MAX", 99)
    rng = np.random.default_rng(17)
    u, c = rng.standard_normal((30, 10)), rng.standard_normal((10, 10))
    for a, b in ((u, c), (u.T, u)):  # one row, or one inner index, is 100
        assert linalg._block_size(*a.shape, b.shape[1]) == 0
        assert np.array_equal(linalg._mm(a, b), a @ b)
    # and blocks of one row (inner index) when that fits
    monkeypatch.setattr(linalg, "SMALL_PRODUCT_MAX", 100)
    for a, b in ((u, c), (u.T, u)):
        assert linalg._block_size(*a.shape, b.shape[1]) == 1
        assert np.array_equal(linalg._mm(a, b), in_order_blocks(a, b))
