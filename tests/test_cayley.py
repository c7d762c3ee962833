"""Transform tests: the forward/inverse pair, centers, diagnostics, and
their closed-form oracles."""

import math
import warnings

import numpy as np
import pytest

from stiefel_cayley import cayley, linalg, problems
from stiefel_cayley.cayley import Center, SingularPointError, SkewParam

from oracles import embed


def random_param(rng, n, p, norm=None):
    if norm is None:  # the blocks random_skew_param draws, unscaled
        return SkewParam(rng.standard_normal((p, p)), rng.standard_normal((n - p, p)))
    return problems.random_skew_param(rng, n, p, norm=norm)


# --------------------------------------------------------------------------
# SkewParam representation contract


def test_param_inner_product_matches_full_embedding():
    rng = np.random.default_rng(0)
    for _ in range(10):
        v1 = random_param(rng, 11, 3)
        v2 = random_param(rng, 11, 3)
        full_inner = float(np.sum(v1.full() * v2.full()))
        assert abs(v1.inner(v2) - full_inner) <= 1e-12 * max(1.0, abs(full_inner))
        assert abs(v1.norm() ** 2 - np.linalg.norm(v1.full()) ** 2) <= 1e-10


def test_param_full_round_trip_and_corner_check():
    rng = np.random.default_rng(1)
    v = random_param(rng, 9, 2)
    w = v.full()
    back = SkewParam(w[:2, :2], w[2:, :2])
    assert np.linalg.norm(back.a - v.a) == 0.0
    assert np.linalg.norm(back.b - v.b) == 0.0
    assert np.array_equal(w, -w.T)
    assert not w[2:, 2:].any()  # the corner is exactly zero


def test_param_enforces_skew_and_immutability():
    v = SkewParam(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
    np.testing.assert_allclose(v.a, [[0.0, 0.5], [-0.5, 0.0]], atol=0.0)
    with pytest.raises(AttributeError):
        v.a = np.zeros((2, 2))
    with pytest.raises(ValueError):
        v.a[0, 1] = 3.0  # read-only storage
    with pytest.raises(linalg.DimensionError):
        SkewParam(np.ones((2, 3)), np.zeros((1, 3)))  # non-square a block


def test_param_scalar_product_rejects_non_finite_scalars():
    v = SkewParam(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.ones((3, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            bad * v
        with pytest.raises(ValueError):
            v * bad
    assert np.array_equal((2.0 * v).b, 2.0 * v.b)


def test_center_validation():
    with pytest.raises(ValueError):
        Center.general(np.ones((3, 3)))
    with pytest.raises(ValueError):
        Center.structured(np.array([[2.0]]), 5)
    c = Center.structured(np.array([[-1.0]]), 4)
    assert c.is_structured and c.n == 4
    with pytest.raises(TypeError):
        Center.structured(np.eye(2), 4.9)  # a size is an integer, never truncated
    assert Center.structured(np.eye(2), np.int64(4)).n == 4
    g = Center.general(np.eye(3))
    assert not g.is_structured


def test_center_has_no_unchecked_constructor():
    # an unchecked center such as S = 2I makes inverse return a frame with
    # defect 3.0, and one without n cannot take a block action
    for kwargs in (dict(s=2.0 * np.eye(3), n=3), dict(t=np.eye(2), n=5), {}):
        with pytest.raises(TypeError, match="Center.general or Center.structured"):
            Center(**kwargs)


def test_check_stiefel():
    rng = np.random.default_rng(2)
    u = problems.random_stiefel(rng, 10, 3)
    cayley.check_stiefel(u)
    with pytest.raises(ValueError):
        cayley.check_stiefel(1.1 * u)


# --------------------------------------------------------------------------
# forward


def test_forward_at_center_left_block_is_zero():
    rng = np.random.default_rng(3)
    for structured in (True, False):
        center = problems.random_center(rng, 12, 4, structured=structured)
        v = cayley.forward(center, center.left(4))
        assert v.norm() <= 1e-13


def test_forward_half_angle_closed_form():
    # N=2, p=1, identity center, U = (cos t, sin t): A = 0, B = -tan(t/2)
    center = Center.structured(np.eye(1), 2)
    for theta in (math.pi / 2, 0.3, 1.1, 2.5, -0.7):
        u = np.array([[math.cos(theta)], [math.sin(theta)]])
        v = cayley.forward(center, u)
        assert abs(v.a[0, 0]) <= 1e-15
        assert abs(v.b[0, 0] + math.tan(theta / 2.0)) <= 1e-12
    v = cayley.forward(center, np.array([[0.0], [1.0]]))
    assert abs(v.b[0, 0] + 1.0) <= 1e-15


def test_forward_diagonal_block_matches_literal_formula():
    rng = np.random.default_rng(4)
    for structured in (True, False):
        n, p = 14, 4
        center = problems.random_center(rng, n, p, structured=structured)
        u = problems.random_stiefel(rng, n, p)
        v = cayley.forward(center, u)
        s_le = center.left(p)
        k = np.eye(p) + s_le.T @ u
        w = u.T @ s_le
        a_direct = 2.0 * np.linalg.inv(k).T @ ((w - w.T) / 2.0) @ np.linalg.inv(k)
        assert np.linalg.norm(v.a - a_direct) <= 1e-12 * max(1.0, np.linalg.norm(a_direct))
        b_direct = -center.riT_mul(u, p) @ np.linalg.inv(k)
        assert np.linalg.norm(v.b - b_direct) <= 1e-12 * max(1.0, np.linalg.norm(b_direct))


def test_forward_structured_equals_general_embedding():
    rng = np.random.default_rng(5)
    n, p = 13, 3
    center = problems.random_center(rng, n, p, structured=True)
    general = Center.general(embed(center))
    u = problems.random_stiefel(rng, n, p)
    v1 = cayley.forward(center, u)
    v2 = cayley.forward(general, u)
    assert np.linalg.norm(v1.a - v2.a) <= 1e-12
    assert np.linalg.norm(v1.b - v2.b) <= 1e-12


def test_forward_singular_point_error():
    center = Center.structured(np.eye(1), 2)
    with pytest.raises(SingularPointError):
        cayley.forward(center, np.array([[-1.0], [0.0]]))


def test_forward_rejects_bad_frames():
    center = Center.structured(np.eye(4), 50)
    gaussian = np.random.default_rng(0).standard_normal((50, 4))
    with pytest.raises(ValueError, match="frame is not orthonormal"):
        cayley.forward(center, gaussian)
    nan_frame = problems.random_stiefel(np.random.default_rng(1), 50, 4)
    nan_frame[3, 1] = np.nan
    with pytest.raises(ValueError, match="frame contains NaN"):
        cayley.forward(center, nan_frame)


def test_round_trip_through_frames():
    rng = np.random.default_rng(6)
    for structured in (True, False):
        n, p = 30, 4
        center = problems.random_center(rng, n, p, structured=structured)
        u = problems.random_stiefel(rng, n, p)
        back = cayley.inverse(center, cayley.forward(center, u))
        assert np.linalg.norm(back - u) <= 1e-10


def test_round_trip_through_params():
    rng = np.random.default_rng(7)
    for structured in (True, False):
        n, p = 25, 5
        center = problems.random_center(rng, n, p, structured=structured)
        v = random_param(rng, n, p, norm=3.0)
        back = cayley.forward(center, cayley.inverse(center, v))
        scale = max(1.0, v.norm())
        assert (back - v).norm() <= 1e-10 * scale


# --------------------------------------------------------------------------
# inverse


def test_inverse_at_zero_returns_center_left_block():
    rng = np.random.default_rng(8)
    for structured in (True, False):
        center = problems.random_center(rng, 10, 3, structured=structured)
        u = cayley.inverse(center, SkewParam(np.zeros((3, 3)), np.zeros((7, 3))))
        assert np.linalg.norm(u - center.left(3)) <= 1e-14


def test_inverse_hand_case():
    center = Center.structured(np.eye(1), 2)
    u = cayley.inverse(center, SkewParam(np.zeros((1, 1)), np.array([[-1.0]])))
    np.testing.assert_allclose(u, [[0.0], [1.0]], atol=1e-15)


def test_inverse_matches_dense_oracle():
    rng = np.random.default_rng(9)
    for structured in (True, False):
        n, p = 20, 4
        center = problems.random_center(rng, n, p, structured=structured)
        v = random_param(rng, n, p, norm=4.0)
        dense = 2.0 * (embed(center) @ np.linalg.inv(np.eye(n) + v.full()))[:, :p] \
            - center.left(p)
        assert np.linalg.norm(cayley.inverse(center, v) - dense) <= 1e-10


def test_inverse_feasibility_including_huge_params():
    rng = np.random.default_rng(10)
    worst = 0.0
    for scale in (1.0, 50.0, 1e3):
        for structured in (True, False):
            center = problems.random_center(rng, 40, 6, structured=structured)
            v = random_param(rng, 40, 6, norm=scale)
            u = cayley.inverse(center, v)
            worst = max(worst, linalg.feasibility(u))
    assert worst <= 1e-12


def spread_param(rng, n, p, b_norm, low=1e-6):
    """A parameter whose B has ``||B||_2 = b_norm`` and its other singular
    values spaced logarithmically down to ``low``."""
    k = min(n - p, p)
    left = np.linalg.qr(rng.standard_normal((n - p, k)))[0]
    right = np.linalg.qr(rng.standard_normal((p, p)))[0][:, :k]
    sigma = np.logspace(math.log10(b_norm), math.log10(low), k)
    return SkewParam(rng.standard_normal((p, p)), (left * sigma) @ right.T)


@pytest.mark.parametrize("n, p", [(2000, 40), (60, 20)])
def test_inverse_stays_feasible_at_large_b_with_spread_singular_values(n, p):
    # A direct solve with M = I + A + B^T B would lose about eps ||B||^2 of
    # orthonormality; the two Cholesky QR passes over I + B^T B keep it at
    # roundoff, with ||B||_2 read from B^T B to a few eps.
    rng = np.random.default_rng(13)
    for structured in (True, False):
        center = problems.random_center(rng, n, p, structured=structured)
        v = spread_param(rng, n, p, 1e6)
        u, btb, _ = cayley.inverse(center, v, _return_kernel=True)
        b_norm = cayley._gram_norm(btb)
        assert linalg.feasibility(u) <= 1e-13
        assert abs(b_norm - 1e6) <= 1e-12 * 1e6


@pytest.mark.parametrize("n, p", [(500, 10), (2000, 40), (120, 80), (60, 40)])
def test_one_pass_inverse_forms_its_bottom_block_from_b_and_stays_orthonormal(
        monkeypatch, n, p):
    # After one Cholesky QR pass the bottom block is the single product
    # B (-2 M^{-1}).  At ||B||_2 <= 3, cond([I; B])^2 <= 10 whatever
    # linalg._one_pass_enough's bound says, so the pass is forced here; and
    # a B with equal singular values (cond([I; B]) = 1) takes one pass by
    # itself at ||B||_2 = 30.
    rng = np.random.default_rng(n + p)
    mm, panels = linalg._mm, []
    monkeypatch.setattr(linalg, "_mm", lambda *a, **kw: panels.append(a[0]) or mm(*a, **kw))
    cases = []
    for b_norm in (0.1, 1.0, 2.0, 3.0):
        for a_norm in (0.0, 1.0, 10.0):
            a = rng.standard_normal((p, p))
            a = a - a.T
            b = rng.standard_normal((n - p, p))
            cases.append((a_norm / np.linalg.norm(a) * a, b_norm / np.linalg.norm(b, 2) * b, True))
    if n - p >= p:
        flat = 30.0 * np.linalg.qr(rng.standard_normal((n - p, p)))[0]
        cases.append((np.zeros((p, p)), flat, False))
    enough = linalg._one_pass_enough
    for structured in (True, False):
        center = problems.random_center(rng, n, p, structured=structured)
        for a, b, forced in cases:
            monkeypatch.setattr(linalg, "_one_pass_enough",
                                (lambda *args: True) if forced else enough)
            v = SkewParam(a, b)
            panels.clear()
            u = cayley.inverse(center, v)
            assert len(panels) == 1 and panels[0] is v.b  # one pass, one panel, of B
            assert linalg.feasibility(u) <= 1e-13, (structured, np.linalg.norm(b, 2))


@pytest.mark.parametrize("n, p", [(50, 1), (500, 10), (120, 80)])
def test_inverse_takes_its_second_cholesky_pass_only_above_the_bound(monkeypatch, n, p):
    # [I; B] takes one Cholesky QR pass while cond([I; B])^2 is small and
    # two at a rank-one B with ||B||_2 = 1e3 (cond^2 = 1 + 1e6), where one
    # alone leaves about 1e-10; at p = 1 cond([I; B]) is 1 and every
    # parameter takes one.  At p = 80 the p-by-p solve and the center add
    # roundoff of their own (2.1e-14 with two passes on every parameter).
    bar = 5e-14 if p == 80 else 1e-14
    rng = np.random.default_rng(n + p)
    chol, calls = linalg._cholesky_r, []
    monkeypatch.setattr(linalg, "_cholesky_r", lambda *args: calls.append(1) or chol(*args))
    w, z = rng.standard_normal((n - p, 1)), rng.standard_normal((1, p))
    rank_one = SkewParam(rng.standard_normal((p, p)),
                         1e3 * (w / np.linalg.norm(w)) @ (z / np.linalg.norm(z)))
    for structured in (True, False):
        center = problems.random_center(rng, n, p, structured=structured)
        for v, passes in ((random_param(rng, n, p, norm=0.1), 1),
                          (rank_one, 1 if p == 1 else 2)):
            calls.clear()
            u = cayley.inverse(center, v)
            assert len(calls) == passes
            assert linalg.feasibility(u) <= bar


def test_inverse_raises_rank_error_beyond_its_range():
    # With fewer rows than columns, B^T B is singular, and at ||B||_2 >= 1e9
    # its rounding error (eps ||B||^2 >= 200) swamps the identity in
    # I + B^T B: Cholesky fails and the map refuses, with no warning and no
    # NaN frame.
    rng = np.random.default_rng(14)
    n, p = 30, 20
    center = problems.random_center(rng, n, p)
    for b_norm in (1e9, 1e12, 1e150):
        for _ in range(5):
            v = spread_param(rng, n, p, b_norm)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(linalg.RankError):
                    cayley.inverse(center, v)
    # past 1e154 the Gram matrix overflows; that is refused the same way
    v = SkewParam(np.zeros((p, p)), np.full((n - p, p), 1e160))
    with pytest.raises(linalg.RankError), np.errstate(over="ignore"):
        cayley.inverse(center, v)


def test_inverse_square_case_without_lower_block():
    rng = np.random.default_rng(11)
    center = problems.random_center(rng, 4, 4, structured=True)
    v = SkewParam(rng.standard_normal((4, 4)), np.zeros((0, 4)))
    u = cayley.inverse(center, v)
    assert linalg.feasibility(u) <= 1e-13
    back = cayley.forward(center, u)
    assert (back - v).norm() <= 1e-11


def test_inverse_is_two_lipschitz():
    rng = np.random.default_rng(12)
    center = problems.random_center(rng, 16, 3)
    for _ in range(25):
        v1 = random_param(rng, 16, 3, norm=float(rng.uniform(0.1, 8.0)))
        v2 = random_param(rng, 16, 3, norm=float(rng.uniform(0.1, 8.0)))
        lhs = np.linalg.norm(cayley.inverse(center, v1) - cayley.inverse(center, v2))
        assert lhs <= 2.0 * (v1 - v2).norm() + 1e-12


# --------------------------------------------------------------------------
# construct_center


def test_construct_center_identity_top_block():
    u = np.eye(6)[:, :2]
    center = cayley.construct_center(u)
    assert center.is_structured
    np.testing.assert_allclose(center.t, np.eye(2), atol=1e-14)


def test_construct_center_zero_top_block_hand_case():
    center = cayley.construct_center(np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(center.t, [[1.0]], atol=0.0)
    v = cayley.forward(center, np.array([[0.0], [1.0]]))
    assert abs(v.b[0, 0] + 1.0) <= 1e-15  # boundary case ||B||_2 = 1


def test_construct_center_guarantees():
    rng = np.random.default_rng(13)
    for _ in range(40):
        p = int(rng.integers(1, 7))
        n = int(rng.integers(p + 1, 50))
        u = problems.random_stiefel(rng, n, p)
        center = cayley.construct_center(u)
        det = np.linalg.det(np.eye(p) + center.leftT_mul(u, p))
        assert det >= 1.0 - 1e-10
        v = cayley.forward(center, u)
        assert np.linalg.norm(v.a) <= 1e-12
        assert np.linalg.norm(v.b, 2) <= 1.0 + 1e-10


# --------------------------------------------------------------------------
# align_right_invariant


def test_align_fixed_points():
    rng = np.random.default_rng(14)
    center = problems.random_center(rng, 12, 3)
    s_le = center.left(3)
    assert np.linalg.norm(cayley.align_right_invariant(center, s_le) - s_le) <= 1e-13
    u = problems.random_stiefel(rng, 12, 3)
    once = cayley.align_right_invariant(center, u)
    twice = cayley.align_right_invariant(center, once)
    assert np.linalg.norm(twice - once) <= 1e-12


def test_align_bounds_parameter_spectral_norm():
    rng = np.random.default_rng(15)
    for _ in range(20):
        center = problems.random_center(rng, 40, 5, structured=bool(rng.integers(2)))
        u = problems.random_stiefel(rng, 40, 5)
        star = cayley.align_right_invariant(center, u)
        v = cayley.forward(center, star)
        assert v.spectral_norm() <= 1.0 + 1e-12
        assert np.linalg.norm(v.b, 2) <= 1.0 + 1e-12


def test_align_preserves_column_span():
    rng = np.random.default_rng(16)
    center = problems.random_center(rng, 15, 4)
    u = problems.random_stiefel(rng, 15, 4)
    star = cayley.align_right_invariant(center, u)
    # U* = U Q for orthogonal Q: projectors agree
    assert np.linalg.norm(star @ star.T - u @ u.T) <= 1e-12
    assert linalg.feasibility(star) <= 1e-13


# --------------------------------------------------------------------------
# singular_diagnostic and mobility


def test_singular_diagnostic_at_zero_and_hand_case():
    diag = cayley.singular_diagnostic(SkewParam(np.zeros((3, 3)), np.zeros((6, 3))))
    assert abs(diag.value - 8.0) <= 1e-13
    assert abs(diag.log_value - 3.0 * math.log(2.0)) <= 1e-13
    diag = cayley.singular_diagnostic(SkewParam(np.zeros((1, 1)), np.array([[-1.0]])))
    assert abs(diag.value - 1.0) <= 1e-14


def test_singular_diagnostic_det_identity_and_decay():
    rng = np.random.default_rng(17)
    base = random_param(rng, 12, 3, norm=1.0)
    prev = math.inf
    for scale in (0.5, 2.0, 8.0, 32.0, 128.0):
        v = scale * base
        diag = cayley.singular_diagnostic(v)
        m = np.eye(3) + v.a + v.b.T @ v.b
        assert abs(diag.value * np.linalg.det(m) - 8.0) <= 1e-10 * 8.0
        assert diag.value < prev  # monotone decay toward 0 along the ray
        prev = diag.value
    assert prev <= 1e-6


def test_singular_diagnostic_matches_frame_determinant():
    rng = np.random.default_rng(18)
    for structured in (True, False):
        n, p = 14, 4
        center = problems.random_center(rng, n, p, structured=structured)
        v = random_param(rng, n, p, norm=3.0)
        u = cayley.inverse(center, v)
        det = np.linalg.det(np.eye(p) + center.leftT_mul(u, p))
        diag = cayley.singular_diagnostic(v)
        assert abs(diag.value - det) <= 1e-10 * max(1.0, abs(det))


def test_mobility_closed_forms():
    assert cayley.mobility(SkewParam(np.zeros((2, 2)), np.zeros((6, 2)))) == 2.0
    rng = np.random.default_rng(19)
    a = rng.standard_normal((3, 3))
    for c in (0.5, 1.0, 3.0):
        v = SkewParam(a, c * np.eye(3))
        expected = 2.0 / math.sqrt(1.0 + c * c)
        assert abs(cayley.mobility(v) - expected) <= 1e-13
    # wide lower block: sigma_min treated as 0
    v_wide = SkewParam(rng.standard_normal((4, 4)),
                       np.ones((2, 4)))
    sig_max = np.linalg.norm(v_wide.b, 2)
    assert abs(cayley.mobility(v_wide) - 2.0 * math.sqrt(1.0 + sig_max**2)) <= 1e-12


def test_mobility_lower_bound_and_change_bound():
    rng = np.random.default_rng(20)
    center = problems.random_center(rng, 18, 4)
    for _ in range(60):
        v = random_param(rng, 18, 4, norm=float(rng.uniform(0.0, 6.0)))
        r = cayley.mobility(v)
        assert r >= 2.0 / math.sqrt(1.0 + np.linalg.norm(v.b, 2) ** 2) - 1e-12
        e = random_param(rng, 18, 4, norm=1.0)
        for tau in (1e-3, 1.0, 10.0):
            change = np.linalg.norm(
                cayley.inverse(center, v + tau * e) - cayley.inverse(center, v))
            assert change <= tau * r + 1e-10

