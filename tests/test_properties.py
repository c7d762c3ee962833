"""Property tests of the value classes and the maps.

Sums and scalar multiples of checked tangent vectors and skew parameters
keep their invariants, are read-only and equal the raw numpy arithmetic bit
for bit.  The inverse map stays feasible and agrees with its dense oracle,
and the forward and inverse maps undo each other, on every block shape,
both kinds of center and parameters from 1e-3 to 1e3 in norm; the
forward map accepts every frame at the center built from it, for p up to
100.  The Cayley
retraction stays feasible and agrees with its dense oracle, within bounds
scaled by the condition number of the 2p-by-2p low-rank system; its
pulled-back gradient agrees with the panel oracle, from a carried kernel
and from a rebuilt one; and both are the inverse transform and its
pullback at the frame center ``[U, Uperp]``, for steps up to 1e6.  The
QR and polar retractions (Cholesky QR) stay feasible and agree with
Householder QR and the SVD polar factor for steps from 1e-8 to 1e6 in
norm."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefel_cayley import cayley, gradients, linalg, problems, retractions
from stiefel_cayley.cayley import Center, SkewParam

from oracles import embed, panel_reference

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def combinations(draw):
    """Shape, rng seed, and 1-4 terms of (coefficient, operand norm)."""
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, n - 1))
    terms = draw(st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
        min_size=1, max_size=4))
    return n, p, draw(st.integers(0, 2**32 - 1)), terms


def combine(values, coeffs):
    """``c_0 v_0 + c_1 v_1 - c_2 v_2 + c_3 v_3``: after the first term the
    signs alternate, so both ``+`` and ``-`` run on operator and raw input."""
    out = coeffs[0] * values[0]
    for i, (c, v) in enumerate(zip(coeffs[1:], values[1:])):
        out = out - c * v if i % 2 else out + c * v
    return out


@SETTINGS
@given(combinations())
def test_tangent_combinations_stay_tangent(case):
    n, p, seed, terms = case
    rng = np.random.default_rng(seed)
    u = problems.random_stiefel(rng, n, p)
    coeffs = [c for c, _ in terms]
    vecs = []
    for _, norm in terms:
        d = retractions.project_tangent(u, rng.standard_normal((n, p))).mat
        vecs.append(retractions.TangentVector(u, (norm / np.linalg.norm(d)) * d))
    r = combine(vecs, coeffs)
    m = r.mat
    scale = sum(abs(c) * v.norm() for c, v in zip(coeffs, vecs))
    assert np.linalg.norm(u.T @ m + m.T @ u) <= 1e-10 * max(1.0, scale)
    assert m.tobytes() == combine([v.mat for v in vecs], coeffs).tobytes()
    assert r.base is vecs[0].base
    assert not m.flags.writeable and not r.base.flags.writeable


@SETTINGS
@given(combinations())
def test_param_combinations_stay_exactly_skew(case):
    n, p, seed, terms = case
    rng = np.random.default_rng(seed)
    coeffs = [c for c, _ in terms]
    params = [problems.random_skew_param(rng, n, p, norm=norm) for _, norm in terms]
    r = combine(params, coeffs)
    assert np.array_equal(r.a, -r.a.T)
    raw_a = combine([v.a for v in params], coeffs)
    raw_b = combine([v.b for v in params], coeffs)
    assert r.a.tobytes() == raw_a.tobytes() and r.b.tobytes() == raw_b.tobytes()
    assert not r.a.flags.writeable and not r.b.flags.writeable


# --------------------------------------------------------------------------
# The forward and inverse maps


@st.composite
def map_cases(draw):
    """A parameter at a center.  The shapes p=1, p=N-1, N-p=p, N-p>p and
    p=N give B every relation of rows to columns, an empty B included
    (``cayley.inverse`` has one path for all of them); the center is
    structured or general, the weighted norm 1e-3 to 1e3, and B is scaled
    against A by 1e-2 to 1e2 before that norm is set."""
    kind = draw(st.sampled_from(["p=1", "p=N-1", "N-p=p", "N-p>p", "p=N"]))
    if kind == "p=1":
        n, p = draw(st.integers(2, 40)), 1
    elif kind == "p=N-1":
        n = draw(st.integers(2, 40))
        p = n - 1
    elif kind == "N-p=p":
        p = draw(st.integers(1, 20))
        n = 2 * p
    elif kind == "N-p>p":
        p = draw(st.integers(1, 13))
        n = draw(st.integers(2 * p + 1, 40))
    else:
        n = p = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = problems.random_center(rng, n, p, structured=draw(st.booleans()))
    b_scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    v = SkewParam(rng.standard_normal((p, p)), b_scale * rng.standard_normal((n - p, p)))
    norm = 10.0 ** draw(st.floats(-3.0, 3.0))
    return center, v if v.norm() == 0.0 else (norm / v.norm()) * v  # St(1, 1) has V = 0


@SETTINGS
@given(map_cases())
def test_inverse_is_feasible_and_matches_dense_oracle(case):
    center, v = case
    n, p = v.n, v.p
    u, btb, _ = cayley.inverse(center, v, _return_kernel=True)
    b_norm = cayley._gram_norm(btb)
    assert linalg.feasibility(u) <= 1e-12
    # I + V is normal with singular values sqrt(1 + lambda^2) >= 1, so the
    # dense oracle carries an error of order eps * (1 + ||V||_2).
    v_full = v.full()
    dense = 2.0 * (embed(center) @ np.linalg.inv(np.eye(n) + v_full))[:, :p] \
        - center.left(p)
    scale = (1.0 + np.linalg.norm(v_full, 2)) * np.sqrt(n * p)
    assert np.linalg.norm(u - dense) <= 1e-14 * scale
    # Re-centering compares b_norm with its threshold, so it must be ||B||_2.
    if v.b.size:
        expected = np.linalg.norm(v.b, 2)
        assert abs(b_norm - expected) <= 1e-12 * expected
    else:
        assert b_norm == 0.0


@SETTINGS
@given(map_cases())
def test_forward_and_inverse_round_trip(case):
    center, v = case
    p = v.p
    u = cayley.inverse(center, v)
    # The forward map inverts K = 2 M^{-1} with M = I + A + B^T B, so its
    # conditioning, and with it both round-trip errors, grows with ||M||_2.
    m = float(np.linalg.norm(np.eye(p) + v.a + v.b.T @ v.b, 2))
    try:
        w = cayley.forward(center, u)
    except cayley.SingularPointError:
        # Refused only near the excluded set: sigma_min(K) = 2 / ||M||_2 is
        # then within a factor e of the floor the forward map enforces.
        assert 2.0 / m < math.e * cayley.PIVOT_FLOOR
        return
    assert (w - v).norm() <= 1e-14 * (1.0 + m) ** 2
    back = cayley.inverse(center, w)
    assert linalg.feasibility(back) <= 1e-12
    assert np.linalg.norm(back - u) <= 1e-13 * (1.0 + m)


@st.composite
def center_cases(draw):
    """A random frame with p from 1 to 100 and N from p to 5p."""
    p = draw(st.integers(1, 100))
    n = draw(st.integers(p, 5 * p))
    return problems.random_stiefel(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, p)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(center_cases())
def test_forward_accepts_the_frame_its_own_center_was_built_from(u):
    # construct_center certifies det K >= 1 and ||B||_2 <= 1 at u, at every
    # p; det K itself can fall below 1e-12 2^p from p = 40 on.
    center = cayley.construct_center(u)
    v = cayley.forward(center, u)
    if v.b.size:
        assert np.linalg.norm(v.b, 2) <= 1.0 + 1e-10
    assert np.linalg.norm(cayley.inverse(center, v) - u) <= 1e-12 * math.sqrt(u.size)


# --------------------------------------------------------------------------
# The QR and polar retractions


@st.composite
def gram_qr_cases(draw):
    """A frame and a tangent step: the shapes p=1, p=N, N-p<p and N-p>=p
    with N <= 40, step norm 1e-8 to 1e6."""
    kind = draw(st.sampled_from(["p=1", "p=N", "N-p<p", "N-p>=p"]))
    if kind == "p=1":
        n, p = draw(st.integers(1, 40)), 1
    elif kind == "p=N":
        n = p = draw(st.integers(1, 20))
    elif kind == "N-p<p":
        n = draw(st.integers(3, 40))
        p = draw(st.integers(n // 2 + 1, n - 1))
    else:
        p = draw(st.integers(1, 20))
        n = draw(st.integers(2 * p, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = problems.random_stiefel(rng, n, p)
    d = retractions.project_tangent(u, rng.standard_normal((n, p)))
    norm = 10.0 ** draw(st.floats(-8.0, 6.0))
    return u, d if d.norm() == 0.0 else (norm / d.norm()) * d  # St(1, 1) has D = 0


@SETTINGS
@given(gram_qr_cases())
def test_qr_and_polar_retractions_match_householder_and_svd(case):
    u, d = case
    n, p = u.shape
    x = u + d.mat
    # Both sides are backward stable, so they agree to roundoff times the
    # sensitivity of the factor, cond(U + D) <= sqrt(1 + ||D||_2^2).
    bar = 1e-14 * (math.sqrt(n * p) + np.linalg.cond(x))
    for retract, reference in ((retractions.retract_qr, linalg.qr_orthonormalize),
                               (retractions.retract_polar, linalg.polar_factor)):
        frame = retract(u, d)
        assert linalg.feasibility(frame) <= 1e-13
        assert np.linalg.norm(frame - reference(x)) <= bar


# --------------------------------------------------------------------------
# The Cayley retraction


@st.composite
def retraction_cases(draw):
    """A frame and a tangent step: N <= 40, 1 <= p <= N (p = N included),
    step norm 1e-3 to 1e3."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = problems.random_stiefel(rng, n, p)
    d = retractions.project_tangent(u, rng.standard_normal((n, p)))
    norm = 10.0 ** draw(st.floats(-3.0, 3.0))
    return u, d if d.norm() == 0.0 else (norm / d.norm()) * d  # St(1, 1) has D = 0


@SETTINGS
@given(retraction_cases())
def test_retract_cayley_is_feasible_and_matches_dense_oracle(case):
    u, d = case
    n, p = u.shape
    frame = retractions.retract_cayley(u, d)
    # The bars scale with the condition number of K = I + B^T A, the
    # 2p-by-2p low-rank form of I + W, which grows like ||D||^2 / 4; the
    # kernel's B^T B = (D^T D - T^T T) / 4 carries roundoff of that order,
    # which shows at p = N.  Up to cond 1e3 (||D|| near 60) the frame keeps
    # the 1e-12 of the other maps.
    y = d.mat - 0.5 * u @ (u.T @ d.mat)
    a_lr = np.hstack([u, 0.5 * y])
    b_lr = np.hstack([0.5 * y, -u])
    cond = np.linalg.cond(np.eye(2 * p) + b_lr.T @ a_lr, 1)
    assert linalg.feasibility(frame) <= max(1e-12, 1e-15 * cond)
    w = a_lr @ b_lr.T
    dense = 2.0 * np.linalg.solve(np.eye(n) + w, u) - u
    assert np.linalg.norm(frame - dense) <= 1e-14 * cond * np.sqrt(n * p)


@st.composite
def pullback_cases(draw, max_log_norm=3.0):
    """A frame, a tangent step and a distance cost.  The shapes p=1, p=N,
    N-p<p, N-p=p and N-p>p with N <= 40 cover every relation between
    the kernel's blocks; the step norm is 1e-3 to ``10**max_log_norm``."""
    kind = draw(st.sampled_from(["p=1", "p=N", "N-p<p", "N-p=p", "N-p>p"]))
    if kind == "p=1":
        n, p = draw(st.integers(2, 40)), 1
    elif kind == "p=N":
        n = p = draw(st.integers(2, 20))
    elif kind == "N-p<p":
        n = draw(st.integers(3, 40))
        p = draw(st.integers(n // 2 + 1, n - 1))
    elif kind == "N-p=p":
        p = draw(st.integers(1, 20))
        n = 2 * p
    else:
        p = draw(st.integers(1, 13))
        n = draw(st.integers(2 * p + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = problems.random_stiefel(rng, n, p)
    f = problems.distance_cost(problems.random_stiefel(rng, n, p))
    d = retractions.project_tangent(u, rng.standard_normal((n, p)))
    norm = 10.0 ** draw(st.floats(-3.0, max_log_norm))
    return u, (norm / d.norm()) * d, f


@SETTINGS
@given(pullback_cases())
def test_grad_retraction_pullback_matches_panel_reference(case):
    u, d, f = case
    _, _, cond, g_ref, grad_ref = panel_reference(u, d, f)
    # The bars of the kernel test in test_retractions: up to ||D|| = 10
    # relative to the pullback; beyond, eps * cond against the ambient
    # gradient, since the pullback shrinks far below it there.  Neither
    # bar drops below one ulp of the ambient gradient: on St(2, 2) with
    # the target in the other component the cost is constant, and the
    # pullback is roundoff in g.
    eps, g_norm = np.finfo(float).eps, np.linalg.norm(g_ref)
    if d.norm() <= 10.0:
        bar = max(1e-13 * np.linalg.norm(grad_ref), eps * g_norm)
    else:
        bar = eps * cond * g_norm
    frame, kernel = retractions.retract_cayley(u, d, return_kernel=True)
    carried = retractions.grad_retraction_pullback(u, d, f, g=f.grad(frame), kernel=kernel)
    rebuilt = retractions.grad_retraction_pullback(u, d, f)
    for grad in (carried, rebuilt):
        assert np.linalg.norm(grad.mat - grad_ref) <= bar
        retractions.TangentVector(u, grad.mat)  # tangent to the public tolerance


@SETTINGS
@given(pullback_cases(max_log_norm=6.0))
def test_cayley_retraction_and_its_gradient_are_the_transform_at_a_frame_center(case):
    # The retraction is the inverse map at the center [U, Uperp] applied
    # to psi_map(D), and its gradient is the tangent projection of
    # psi_map's adjoint, -U G_a / 2 - Uperp G_b, applied to the transform's
    # pullback G there.  The center is dense, hence N <= 40.  The kernel
    # works in the [U, D] basis, where B^T B = (D^T D - T^T T) / 4 carries
    # roundoff eps ||D||^2 and M^{-1} scales it, so both bars grow with
    # (||D||_2 ||M^{-1}||_2)^2.  That stays O(1) unless M^{-1} keeps a
    # direction of norm O(1) at large steps (p = N, or N - p < p with
    # 2p - N odd).
    u, d, f = case
    n, p = u.shape
    uperp = retractions.orth_complement(u)
    center = Center.general(np.hstack([u, uperp]), check=False)
    v = retractions.psi_map(u, uperp, d)
    m_inv = np.linalg.inv(np.eye(p) + v.a + v.b.T @ v.b)
    amp = math.sqrt(n * p) * (1.0 + (np.linalg.norm(d.mat, 2) * np.linalg.norm(m_inv, 2)) ** 2)
    frame = retractions.retract_cayley(u, d)
    assert np.linalg.norm(frame - cayley.inverse(center, v)) <= 1e-14 * amp
    pulled = gradients.grad_pullback(center, v, f)
    expected = retractions.project_tangent(u, -0.5 * u @ pulled.a - uperp @ pulled.b).mat
    grad = retractions.grad_retraction_pullback(u, d, f)
    assert np.linalg.norm(grad.mat - expected) <= 1e-13 * np.linalg.norm(f.grad(frame)) * amp
