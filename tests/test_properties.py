"""Property tests of the value-class arithmetic: sums and scalar multiples
of checked tangent vectors and skew parameters keep their invariants, are
read-only and equal the raw numpy arithmetic bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefel_cayley import problems, retractions

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
