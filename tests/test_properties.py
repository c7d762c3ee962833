"""Property tests of the value classes and the maps.

Sums and scalar multiples of checked tangent vectors and skew parameters
keep their invariants, are read-only and equal the raw numpy arithmetic bit
for bit.  The inverse map stays feasible and agrees with its dense oracle,
and the forward and inverse maps undo each other, on every block shape,
both kinds of center and parameters from 1e-3 to 1e3 in norm."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefel_cayley import cayley, linalg, problems, retractions
from stiefel_cayley.cayley import SkewParam

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
    p=N reach every branch of ``_cayley_frame``; the center is structured
    or general, the weighted norm 1e-3 to 1e3, and B is scaled against A
    by 1e-2 to 1e2 before that norm is set."""
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
    u, b_norm = cayley.inverse(center, v, return_b_norm=True)
    assert linalg.feasibility(u) <= 1e-12
    # I + V is normal with singular values sqrt(1 + lambda^2) >= 1, so the
    # dense oracle carries an error of order eps * (1 + ||V||_2).
    v_full = v.full()
    dense = 2.0 * (center.embed() @ np.linalg.inv(np.eye(n) + v_full))[:, :p] \
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
    try:
        w = cayley.forward(center, u)
    except cayley.SingularPointError:
        # Refused only near the excluded set: det(K) = g(V) is then within
        # a factor e of the floor the forward map enforces.
        floor = math.log(cayley.DET_FLOOR) + p * math.log(2.0)
        assert cayley.singular_diagnostic(v).log_value < floor + 1.0
        return
    # The forward map inverts K = 2 M^{-1} with M = I + A + B^T B, so its
    # conditioning, and with it both round-trip errors, grows with ||M||_2.
    m = float(np.linalg.norm(np.eye(p) + v.a + v.b.T @ v.b, 2))
    assert (w - v).norm() <= 1e-14 * (1.0 + m) ** 2
    back = cayley.inverse(center, w)
    assert linalg.feasibility(back) <= 1e-12
    assert np.linalg.norm(back - u) <= 1e-13 * (1.0 + m)
