"""Retraction-suite tests: tangent projection, the three retractions and
their axioms, the skew-parameter bridge, the inverse Cayley retraction,
and the retraction-pullback gradient."""

import math

import numpy as np
import pytest

from stiefel_cayley import cayley, gradients, linalg, problems, retractions
from stiefel_cayley.cayley import Center, SingularPointError
from stiefel_cayley.gradients import CostFunction
from stiefel_cayley.retractions import TangentVector

from oracles import panel_reference


def random_tangent(rng, u, norm=None):
    d = retractions.project_tangent(u, rng.standard_normal(u.shape))
    if norm is None:
        return d
    return (norm / d.norm()) * d


def constant_cost(n, p):
    return CostFunction(dim_n=n, dim_p=p,
                        eval=lambda u: 1.0,
                        grad=lambda u: np.zeros((n, p)))


# ---------------------------------------------------------------- tangent


def test_tangent_vector_validates():
    u = np.eye(4)[:, :2]
    TangentVector(u, np.array([[0.0, 1.0], [-1.0, 0.0], [1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        TangentVector(u, u)  # U^T U = I is far from skew
    with pytest.raises(linalg.DimensionError):
        TangentVector(u, np.zeros((3, 2)))


def test_tangent_vector_defect_boundary():
    # the check is ||U^T D + D^T U|| <= 1e-10 max(1, ||D||), from the one
    # product U^T D; a symmetric U^T D block of norm t sets the defect to t
    rng = np.random.default_rng(13)
    for n, p, norm in ((6, 1, 1e-3), (9, 3, 1e-3), (9, 3, 1e3), (40, 40, 1e3)):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        u = q[:, :p]
        tangent = retractions.project_tangent(u, rng.standard_normal((n, p)))
        tangent = (norm / tangent.norm()) * tangent
        limit = 1e-10 * max(1.0, norm)
        for factor, accepted in ((0.5, True), (2.0, False)):
            mat = tangent.mat + u @ ((factor * limit / (2.0 * np.sqrt(p))) * np.eye(p))
            defect = np.linalg.norm(u.T @ mat + mat.T @ u)
            assert abs(defect - factor * limit) <= 1e-3 * limit
            if accepted:
                TangentVector(u, mat)
            else:
                with pytest.raises(ValueError, match="not tangent"):
                    TangentVector(u, mat)


def test_tangent_vector_arithmetic_and_immutability():
    rng = np.random.default_rng(0)
    u = problems.random_stiefel(rng, 6, 2)
    d1 = random_tangent(rng, u)
    d2 = random_tangent(rng, u)
    s = 2.0 * d1 + d2 - d1
    np.testing.assert_allclose(s.mat, d1.mat + d2.mat, atol=1e-14)
    assert abs(d1.inner(d1) - d1.norm() ** 2) <= 1e-12
    other = random_tangent(rng, problems.random_stiefel(rng, 6, 2))
    with pytest.raises(ValueError):
        d1 + other
    with pytest.raises(ValueError):
        d1.mat[0, 0] = 5.0


def test_tangent_vector_scalar_product_rejects_non_finite_scalars():
    rng = np.random.default_rng(2)
    u = problems.random_stiefel(rng, 6, 2)
    d = random_tangent(rng, u)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            bad * d
        with pytest.raises(ValueError):
            d * bad
    assert np.array_equal((2.0 * d).mat, 2.0 * d.mat)


def test_tangent_vector_equality_and_hash_are_by_identity():
    # comparing by the arrays has no truth value, and read-only arrays
    # have no hash
    rng = np.random.default_rng(0)
    u = problems.random_stiefel(rng, 6, 2)
    d = random_tangent(rng, u)
    copy = TangentVector(u, d.mat)
    assert d == d and d != copy
    assert len({d, copy, d}) == 2
    assert hash(d) == hash(d)


def test_tangent_difference_of_large_vectors():
    # roundoff in (x + e) - x scales with ||x||, not with the small result
    rng = np.random.default_rng(3)
    u = problems.random_stiefel(rng, 50, 4)
    d1 = random_tangent(rng, u)
    e = random_tangent(rng, u)
    x = (1e7 / d1.norm()) * d1
    diff = (x + 1e-3 * e) - x
    np.testing.assert_array_equal(diff.mat, (x.mat + 1e-3 * e.mat) - x.mat)
    assert np.linalg.norm(diff.mat - 1e-3 * e.mat) <= 1e-8


def test_project_tangent_fixed_point_and_kernel():
    rng = np.random.default_rng(1)
    u = problems.random_stiefel(rng, 9, 3)
    d = random_tangent(rng, u)
    again = retractions.project_tangent(u, d.mat)
    assert np.linalg.norm(again.mat - d.mat) <= 1e-12
    zero = retractions.project_tangent(u, u)
    assert np.linalg.norm(zero.mat) <= 1e-14
    # X = U S + T with a normal part U S (S symmetric) of any size and a
    # tangent part T far smaller than it: one pass would leave a coupling
    # defect of roundoff in ||S||, so the result passes the public
    # tangency check only because of the second pass
    for n, p in ((6, 1), (9, 3), (50, 5), (200, 10), (40, 40)):
        u = problems.random_stiefel(rng, n, p)
        for s_norm in 10.0 ** np.arange(-8, 13, 4):
            s = rng.standard_normal((p, p))
            s = (s_norm / np.linalg.norm(s + s.T)) * (s + s.T)
            for ratio in (1e-14, 1e-7, 1.0):
                t = random_tangent(rng, u, norm=ratio * s_norm)
                TangentVector(u, retractions.project_tangent(u, u @ s + t.mat).mat)


def test_project_tangent_residual_orthogonality():
    rng = np.random.default_rng(2)
    u = problems.random_stiefel(rng, 10, 4)
    x = rng.standard_normal((10, 4))
    proj = retractions.project_tangent(u, x)
    resid = x - proj.mat
    for _ in range(20):
        t = random_tangent(rng, u)
        assert abs(np.tensordot(resid, t.mat)) <= 1e-10 * t.norm()
    # idempotence
    twice = retractions.project_tangent(u, proj.mat)
    assert np.linalg.norm(twice.mat - proj.mat) <= 1e-12
    # the result is read-only and its base a copy of the caller's frame
    base = u.copy()
    for arr in (proj.mat, proj.base):
        with pytest.raises(ValueError):
            arr[0, 0] = 5.0
    u[0, 0] = 5.0
    np.testing.assert_array_equal(proj.base, base)


def test_project_tangent_rejects_mismatched_shapes():
    u = problems.random_stiefel(np.random.default_rng(4), 8, 3)
    for x in (np.ones((8, 2)), np.ones((7, 3)), np.ones(8)):
        with pytest.raises(linalg.DimensionError, match="shape"):
            retractions.project_tangent(u, x)


def counting_passes(monkeypatch):
    """A list that gains one entry per ``retractions._tangent_pass`` call."""
    tangent_pass, calls = retractions._tangent_pass, []
    monkeypatch.setattr(retractions, "_tangent_pass",
                        lambda u, x: calls.append(1) or tangent_pass(u, x))
    return calls


def normal_plus_tangent(rng, u, ratio):
    """``X = U S + T``, ``S`` symmetric and ``T`` tangent of norm 1, with
    ``||X||_F / ||P(X)||_F = ratio``."""
    t = random_tangent(rng, u, norm=1.0)
    s = rng.standard_normal((u.shape[1], u.shape[1]))
    s += s.T
    s *= np.sqrt(ratio**2 - 1.0) / np.linalg.norm(s)  # ||U S||_F = ||S||_F
    return u @ s + t.mat


@pytest.mark.parametrize("n, p", [(500, 10), (2000, 40), (120, 80)])
def test_project_tangent_takes_its_second_pass_only_above_the_bound(monkeypatch, n, p):
    # One pass leaves a defect of about 1.5e-15 ||X|| (the table at
    # retractions._TANGENT_PASS_BOUND): a random ambient X, and an X whose
    # normal part brings ||X|| / ||P(X)|| just under the bound, take one
    # pass and keep the defect within a few eps times the bound of the
    # result; just over the bound, and far over it, the second pass runs.
    rng = np.random.default_rng(n + p)
    u = problems.random_stiefel(rng, n, p)
    bound = retractions._TANGENT_PASS_BOUND
    cases = [(rng.standard_normal((n, p)), 1)]
    for scale in (1e-8, 1.0, 1e12):
        cases += [(scale * normal_plus_tangent(rng, u, 0.9 * bound), 1),
                  (scale * normal_plus_tangent(rng, u, 1.1 * bound), 2),
                  (scale * normal_plus_tangent(rng, u, 1e6), 2)]
    calls = counting_passes(monkeypatch)
    for x, passes in cases:
        calls.clear()
        mat = retractions.project_tangent(u, x).mat
        assert len(calls) == passes
        TangentVector(u, mat)
        coupling = u.T @ mat
        assert np.linalg.norm(coupling + coupling.T) <= 1e-13 * np.linalg.norm(mat)


def test_riemannian_grad():
    inst = problems.make_eigen_instance(14, 3, seed=3)
    f = problems.eigen_cost(inst)
    g = retractions.riemannian_grad(inst.optimum_basis, f)
    assert g.norm() <= 1e-10

    assert retractions.riemannian_grad(
        np.eye(5)[:, :2], constant_cost(5, 2)).norm() == 0.0

    a = np.diag([3.0, 1.0])
    f2 = CostFunction(dim_n=2, dim_p=1,
                      eval=lambda u: -float((u.T @ a @ u).item()),
                      grad=lambda u: -2.0 * a @ u)
    e1 = np.array([[1.0], [0.0]])
    assert retractions.riemannian_grad(e1, f2).norm() == 0.0


# ------------------------------------------------------------- retractions


RETRACTIONS = [
    ("qr", retractions.retract_qr),
    ("polar", retractions.retract_polar),
    ("cayley", retractions.retract_cayley),
]


@pytest.mark.parametrize("name,retract", RETRACTIONS)
def test_retraction_axioms(name, retract):
    rng = np.random.default_rng(4)
    for n, p in ((7, 2), (12, 5), (20, 3)):
        u = problems.random_stiefel(rng, n, p)
        # axiom (i): zero step is the identity
        out0 = retract(u, TangentVector(u, np.zeros((n, p))))
        assert np.linalg.norm(out0 - u) <= 1e-13
        # axiom (ii): first-order rigidity by finite differences
        d = random_tangent(rng, u, norm=1.0)
        t = 1e-6
        fd = (retract(u, t * d) - u) / t
        assert np.linalg.norm(fd - d.mat) <= 1e-5
        # output stays feasible
        out = retract(u, random_tangent(rng, u, norm=1.5))
        assert linalg.feasibility(out) <= 1e-12


def test_retract_cayley_matches_dense_kernel():
    rng = np.random.default_rng(5)
    for n, p in ((6, 1), (15, 4), (50, 7)):
        u = problems.random_stiefel(rng, n, p)
        d = random_tangent(rng, u, norm=2.0)
        y = d.mat - 0.5 * u @ (u.T @ d.mat)
        w = 0.5 * (u @ y.T - y @ u.T)
        dense = 2.0 * np.linalg.solve(np.eye(n) + w, u) - u
        fast = retractions.retract_cayley(u, d)
        assert np.linalg.norm(fast - dense) <= 1e-10


def test_retract_cayley_takes_huge_step():
    # A step of norm 1e8 is inside the inverse map's range, so the frame
    # comes back orthonormal and matches the dense kernel
    u = np.array([[1.0], [0.0]])
    d = TangentVector(u, np.array([[0.0], [1e8]]))
    frame = retractions.retract_cayley(u, d)
    assert linalg.feasibility(frame) <= 1e-12
    y = d.mat - 0.5 * u @ (u.T @ d.mat)
    dense = 2.0 * np.linalg.solve(np.eye(2) + 0.5 * (u @ y.T - y @ u.T), u) - u
    assert np.linalg.norm(frame - dense) <= 1e-10


@pytest.mark.parametrize("retract", [retractions.retract_qr, retractions.retract_polar])
def test_qr_and_polar_retractions_raise_on_bad_steps(retract):
    rng = np.random.default_rng(8)
    u = problems.random_stiefel(rng, 9, 3)
    # a step of norm 1e160 overflows the Gram matrix (numpy's Cholesky
    # would return inf without an error): refused, so a line search shrinks it
    with pytest.raises(linalg.RankError), np.errstate(over="ignore"):
        retract(u, random_tangent(rng, u, norm=1e160))
    # NaN or Inf in U + D is bad input
    d = random_tangent(rng, u)
    for bad in (np.nan, np.inf):
        broken = u.copy()
        broken[4, 1] = bad
        with pytest.raises(ValueError):
            retract(broken, d)
    # rank-deficient U + D: a Gram matrix Cholesky refuses, and a column
    # below 1e-12 ||U + D||_F
    for base in (np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
                 np.array([[1.0, 0.0], [0.0, 1e-14], [0.0, 0.0]])):
        with pytest.raises(linalg.RankError):
            retract(base, TangentVector(base, np.zeros_like(base)))


def rank_one_step(rng, u, norm):
    """The tangent step ``norm w v^T`` with unit ``v`` and a unit ``w``
    orthogonal to ``range(U)``: ``cond(U + D)^2 = 1 + norm^2`` for p > 1."""
    w = rng.standard_normal((u.shape[0], 1))
    w -= u @ (u.T @ w)
    w -= u @ (u.T @ w)
    v = rng.standard_normal((1, u.shape[1]))
    return TangentVector(u, norm * (w / np.linalg.norm(w)) @ (v / np.linalg.norm(v)))


@pytest.mark.parametrize("retract", [retractions.retract_qr, retractions.retract_polar])
@pytest.mark.parametrize("n, p", [(50, 1), (500, 10), (120, 80)])
def test_cholesky_qr_takes_its_second_pass_only_above_the_bound(monkeypatch, retract, n, p):
    # One Cholesky QR pass leaves a defect of order eps cond(U + D)^2: a
    # small step takes one pass, a rank-one step of norm 1e3 (cond^2 = 1e6)
    # takes two, where one alone leaves about 1e-10.  At p = 1 cond(U + D)
    # is 1 and every step takes one.  The polar retraction factors nothing
    # by Cholesky under linalg.ONE_PASS_BOUND, where it takes the Gram
    # matrix's eigendecomposition (at p = 1 on every step), and past it
    # takes both passes and the p-by-p SVD of R, which adds roundoff of its
    # own (2.3e-14 at p = 80).
    rng = np.random.default_rng(n + p)
    u = problems.random_stiefel(rng, n, p)
    chol, calls = linalg._cholesky_r, []
    monkeypatch.setattr(linalg, "_cholesky_r", lambda *args: calls.append(1) or chol(*args))
    polar = retract is retractions.retract_polar
    bar, reference = (5e-14, linalg.polar_factor) if polar else (1e-14, linalg.qr_orthonormalize)
    large = 1 if p == 1 else 2
    for d, passes in ((random_tangent(rng, u, norm=0.1), 0 if polar else 1),
                      (rank_one_step(rng, u, 1e3), 0 if polar and p == 1 else large)):
        calls.clear()
        frame = retract(u, d)
        assert len(calls) == passes
        assert linalg.feasibility(frame) <= bar
        assert np.linalg.norm(frame - reference(u + d.mat)) <= 1e-12


@pytest.mark.parametrize("n, p", [(500, 10), (120, 80), (50, 1), (6, 6)])
@pytest.mark.parametrize("cond2", [9.4, 11.2])
def test_polar_retraction_takes_the_eigendecomposition_only_under_the_bound(monkeypatch, n, p, cond2):
    # Steps at cond(U + D)^2 = 9.4 and 11.2, on either side of
    # linalg.ONE_PASS_BOUND = 10: rank one (cond^2 = 1 + norm^2 for
    # 1 < p < N); at p = N, where no rank-one step is tangent, a rotation
    # in one coordinate plane of U^T D, whose singular values are
    # sqrt(1 + norm^2) and 1.  At p = 1 cond(U + D) is 1, so both take the
    # eigendecomposition.  Past the bound the route is Cholesky QR and the
    # SVD of R, and the Cholesky QR factors the very Gram matrix the
    # eigendecomposition took: X^T X is formed once.  Both meet the bar of
    # the property test against the SVD's polar factor.
    rng = np.random.default_rng(10 * n + p)
    u = problems.random_stiefel(rng, n, p)
    norm = math.sqrt(cond2 - 1.0)
    if p == n:
        omega = np.zeros((p, p))
        omega[0, 1], omega[1, 0] = norm, -norm
        d = TangentVector(u, u @ omega)
    else:
        d = rank_one_step(rng, u, norm)
    x = u + d.mat
    if p > 1:
        assert np.linalg.cond(x) ** 2 == pytest.approx(cond2, rel=1e-12)
    chol, polar, factors, svds = linalg._cholesky_r, linalg.polar_factor, [], []
    eigh, grams = np.linalg.eigh, []
    monkeypatch.setattr(linalg, "_cholesky_r", lambda *args: factors.append(args[0]) or chol(*args))
    monkeypatch.setattr(linalg, "polar_factor", lambda *args: svds.append(1) or polar(*args))
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: grams.append(args[0]) or eigh(*args))
    frame = retractions.retract_polar(u, d)
    if cond2 < linalg.ONE_PASS_BOUND or p == 1:
        assert factors == [] and svds == []
    else:
        assert len(factors) >= 1 and svds == [1]
        assert len(grams) == 1 and factors[0] is grams[0]
    assert linalg.feasibility(frame) <= 5e-14
    bar = 1e-14 * (math.sqrt(n * p) + np.linalg.cond(x))
    assert np.linalg.norm(frame - polar(x)) <= bar


def test_cayley_retraction_equals_transform_of_bridge():
    # the sampled equivalence between the retraction and the inverse
    # transform applied to the bridged parameter, across many shapes
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 61))
        p = int(rng.integers(1, min(8, n - 1) + 1))
        u = problems.random_stiefel(rng, n, p)
        uperp = retractions.orth_complement(u)
        d = random_tangent(rng, u, norm=float(rng.uniform(0.1, 3.0)))
        v = retractions.psi_map(u, uperp, d)
        via_transform = cayley.inverse(Center.general(np.hstack([u, uperp])), v)
        direct = retractions.retract_cayley(u, d)
        worst = max(worst, float(np.linalg.norm(via_transform - direct)))
    assert worst <= 1e-10


def test_psi_map_round_trip_and_linearity():
    rng = np.random.default_rng(7)
    u = problems.random_stiefel(rng, 11, 3)
    uperp = retractions.orth_complement(u)
    zero = retractions.psi_map(u, uperp, TangentVector(u, np.zeros((11, 3))))
    assert zero.norm() == 0.0
    d1 = random_tangent(rng, u)
    d2 = random_tangent(rng, u)
    v1 = retractions.psi_map(u, uperp, d1)
    v2 = retractions.psi_map(u, uperp, d2)
    lin = retractions.psi_map(u, uperp, d1 + 2.0 * d2)
    assert (lin - (v1 + 2.0 * v2)).norm() <= 1e-13
    back = -2.0 * (u @ v1.a + uperp @ v1.b)
    assert np.linalg.norm(back - d1.mat) <= 1e-12


def test_inverse_retract_cayley():
    rng = np.random.default_rng(8)
    n, p = 13, 4
    u = problems.random_stiefel(rng, n, p)
    assert retractions.inverse_retract_cayley(u, u).norm() <= 1e-14
    # round trips: small steps and steps up to the documented norm budget
    for norm in (0.3, 2.0, 10.0):
        d = random_tangent(rng, u, norm=norm)
        ufrak = retractions.retract_cayley(u, d)
        rec = retractions.inverse_retract_cayley(u, ufrak)
        assert np.linalg.norm(rec.mat - d.mat) <= 1e-9 * max(1.0, norm)
        # and the other direction: retracting the recovered step lands back
        assert np.linalg.norm(retractions.retract_cayley(u, rec) - ufrak) <= 1e-10
    # a frame from an arbitrary far start is still recovered exactly
    other = problems.random_stiefel(rng, n, p)
    rec = retractions.inverse_retract_cayley(u, other)
    assert np.linalg.norm(retractions.retract_cayley(u, rec) - other) <= 1e-9


def test_inverse_retract_cayley_singular_antipode():
    u = np.array([[1.0], [0.0]])
    with pytest.raises(SingularPointError):
        retractions.inverse_retract_cayley(u, -u)


# ------------------------------------------------- retraction-path gradient


def test_grad_retraction_pullback_constant():
    rng = np.random.default_rng(9)
    u = problems.random_stiefel(rng, 8, 2)
    d = random_tangent(rng, u, norm=1.0)
    assert retractions.grad_retraction_pullback(u, d, constant_cost(8, 2)).norm() == 0.0


def test_grad_retraction_pullback_at_zero_step():
    rng = np.random.default_rng(10)
    n, p = 12, 3
    f = problems.eigen_cost(problems.make_eigen_instance(n, p, seed=10))
    u = problems.random_stiefel(rng, n, p)
    g = retractions.grad_retraction_pullback(u, TangentVector(u, np.zeros((n, p))), f)
    rg = retractions.riemannian_grad(u, f)
    assert np.linalg.norm(g.mat - rg.mat) <= 1e-13 * max(1.0, rg.norm())
    # dense form of the same quantity
    amb = f.grad(u)
    skew = 0.5 * (u @ amb.T - amb @ u.T)
    dense = -2.0 * (np.eye(n) - 0.5 * u @ u.T) @ skew @ u
    assert np.linalg.norm(g.mat - dense) <= 1e-12


def test_grad_retraction_pullback_finite_difference():
    rng = np.random.default_rng(11)
    n, p = 10, 3
    inst = problems.make_eigen_instance(n, p, seed=11)
    for f in (problems.eigen_cost(inst),
              problems.distance_cost(problems.random_stiefel(rng, n, p))):
        u = problems.random_stiefel(rng, n, p)
        d = random_tangent(rng, u, norm=1.5)
        g = retractions.grad_retraction_pullback(u, d, f)
        g_given = f.grad(retractions.retract_cayley(u, d))
        assert np.array_equal(retractions.grad_retraction_pullback(u, d, f, g=g_given).mat, g.mat)
        worst = 0.0
        for _ in range(30):
            e = random_tangent(rng, u, norm=1.0)
            h = 1e-6
            fd = (f.eval(retractions.retract_cayley(u, d + h * e))
                  - f.eval(retractions.retract_cayley(u, d - h * e))) / (2.0 * h)
            worst = max(worst, abs(fd - g.inner(e)) / max(1.0, abs(fd)))
        assert worst <= 1e-5


def test_grad_retraction_pullback_takes_huge_step():
    # The step of norm 1e8 is taken, and its pullback meets the panel
    # oracle's bar for large steps, eps * cond against the ambient gradient
    u = np.array([[1.0], [0.0]])
    d = TangentVector(u, np.array([[0.0], [1e8]]))
    f = problems.distance_cost(np.array([[0.0], [1.0]]))
    grad = retractions.grad_retraction_pullback(u, d, f)
    _, _, cond, g_ref, grad_ref = panel_reference(u, d, f)
    assert (np.linalg.norm(grad.mat - grad_ref)
            <= np.finfo(float).eps * cond * np.linalg.norm(g_ref))
    TangentVector(u, grad.mat)


#: p = 1, 4 and 40, with N - p at, below and above p; step norms from 1e-3
#: to 1e8
KERNEL_SHAPES = ((2, 1), (30, 1), (6, 4), (50, 4), (60, 40), (200, 40))
KERNEL_NORMS = (1e-3, 1e-1, 1.0, 10.0, 1e3, 1e5, 1e6, 1e7, 1e8)


def test_cayley_kernel_matches_panel_reference():
    rng = np.random.default_rng(12)
    eps = np.finfo(float).eps
    for n, p in KERNEL_SHAPES:
        u = problems.random_stiefel(rng, n, p)
        f = problems.distance_cost(problems.random_stiefel(rng, n, p))
        direction = random_tangent(rng, u)
        for norm in KERNEL_NORMS:
            d = (norm / direction.norm()) * direction
            frame_ref, _, cond, g_ref, grad_ref = panel_reference(u, d, f)
            # Up to ||D|| = 10 the panel system's condition number stays
            # below 100.  Past that the panel form carries roundoff of order
            # eps * cond, and the pullback shrinks far below the ambient
            # gradient it is built from, so its error is measured against
            # that gradient.
            if norm <= 10.0:
                tol, grad_scale = 1e-13, np.linalg.norm(grad_ref)
            else:
                tol, grad_scale = eps * cond, np.linalg.norm(g_ref)
            frame, kernel = retractions.retract_cayley(u, d, return_kernel=True)
            assert np.array_equal(retractions.retract_cayley(u, d), frame)
            assert linalg.feasibility(frame) <= 1e-12, (n, p, norm)
            assert np.linalg.norm(frame - frame_ref) <= tol * np.linalg.norm(frame_ref)
            grad = retractions.grad_retraction_pullback(u, d, f)
            assert np.linalg.norm(grad.mat - grad_ref) <= tol * grad_scale
            carried = retractions.grad_retraction_pullback(u, d, f, kernel=kernel)
            assert np.array_equal(carried.mat, grad.mat)
            # the kernel's M^{-1} inverts M = I + a + B^T B of psi_map(D)
            v = retractions.psi_map(u, retractions.orth_complement(u), d)
            m = np.eye(p) + v.a + v.b.T @ v.b
            assert (np.linalg.norm(m @ kernel.m_inv - np.eye(p))
                    <= 100.0 * eps * np.linalg.cond(m)), (n, p, norm)
    # a step whose Gram matrix overflows is outside the inverse map's range
    d = random_tangent(rng, u, norm=1e160)
    for call in (lambda: retractions.retract_cayley(u, d),
                 lambda: retractions.grad_retraction_pullback(u, d, f)):
        with pytest.raises(linalg.RankError), np.errstate(over="ignore", invalid="ignore"):
            call()


def test_cayley_frame_is_the_kernels_frame_and_feasible():
    # The frame is assembled in the [U, D] basis as U + U C + D M^{-1}; the
    # plain retraction and the kernel's frame must be that one array's
    # values, orthonormal to 1e-12 on the whole grid.
    rng = np.random.default_rng(13)
    for n, p in KERNEL_SHAPES:
        u = problems.random_stiefel(rng, n, p)
        direction = random_tangent(rng, u)
        for norm in KERNEL_NORMS:
            d = (norm / direction.norm()) * direction
            frame, kernel = retractions.retract_cayley(u, d, return_kernel=True)
            assert frame is kernel.frame and kernel.dmat is d.mat
            assert np.array_equal(retractions.retract_cayley(u, d), frame)
            assert linalg.feasibility(frame) <= 1e-12, (n, p, norm)


@pytest.mark.parametrize("n, p", [(6, 4), (60, 40), (120, 80)])
def test_cayley_frames_stay_orthonormal_when_n_minus_p_is_below_p(n, p):
    # With N - p < p, B has fewer rows than columns and B^T B is singular;
    # every frame must still be within 1e-12 of orthonormal, at every step
    # norm up to 1e8 (with 2p - N odd the kernel loses about eps ||D||,
    # see _cayley_kernel)
    rng = np.random.default_rng(n)
    u = problems.random_stiefel(rng, n, p)
    for _ in range(3):
        direction = random_tangent(rng, u)
        for norm in 10.0 ** np.arange(-3, 9):
            frame = retractions.retract_cayley(u, (norm / direction.norm()) * direction)
            assert linalg.feasibility(frame) <= 1e-12, norm


@pytest.mark.parametrize("n, p", [(500, 10), (2000, 40)])
def test_cayley_random_walk_keeps_its_frame_orthonormal(n, p):
    # 300 small steps, each from the last frame: the frame is built as U
    # plus corrections that vanish with D, so roundoff does not pile up
    # (M^{-1} - I from the difference alone reached 1.2e-13 at 2000 x 40)
    rng = np.random.default_rng(0)
    u = problems.random_stiefel(rng, n, p)
    for _ in range(300):
        u = retractions.retract_cayley(u, random_tangent(rng, u, norm=0.05))
        assert linalg.feasibility(u) <= 1e-14


@pytest.mark.parametrize("n, p", [(2000, 40), (632, 40)])
def test_kernels_above_the_small_product_limit(monkeypatch, n, p):
    # Above N p^2 = 100^3 every step-path kernel takes linalg._mm's blocks;
    # they must agree with plain products (no blocks at any size) to the
    # bars of the kernel tests and keep the frames orthonormal.
    rng = np.random.default_rng(n)
    u = problems.random_stiefel(rng, n, p)
    f = problems.distance_cost(problems.random_stiefel(rng, n, p))
    x = rng.standard_normal((n, p))
    d = random_tangent(rng, u, norm=1.0)
    center = cayley.construct_center(u)
    v = problems.random_skew_param(rng, n, p, norm=1.0)

    def kernels():
        w = cayley.inverse(center, v)
        pulled = gradients.pullback_from_euclidean(center, v, f.grad(w))
        return {
            "project_tangent": retractions.project_tangent(u, x).mat,
            "retract_qr": retractions.retract_qr(u, d),
            "retract_polar": retractions.retract_polar(u, d),
            "retract_cayley": retractions.retract_cayley(u, d),
            "grad_retraction_pullback": retractions.grad_retraction_pullback(u, d, f).mat,
            "inverse": w,
            "pullback a": pulled.a,
            "pullback b": pulled.b,
        }

    assert linalg._block_size(n, p, p) > 0 and linalg._block_size(p, n, p) > 0
    blocked = kernels()
    monkeypatch.setattr(linalg, "SMALL_PRODUCT_MAX", 10**18)
    plain = kernels()
    for name, out in blocked.items():
        assert np.linalg.norm(out - plain[name]) <= 1e-13 * np.linalg.norm(plain[name]), name
    for name in ("retract_qr", "retract_polar", "retract_cayley", "inverse"):
        assert linalg.feasibility(blocked[name]) <= 1e-13, name
    frame_ref, _, _, _, grad_ref = panel_reference(u, d, f)
    frame = blocked["retract_cayley"]
    assert np.linalg.norm(frame - frame_ref) <= 1e-13 * np.linalg.norm(frame_ref)
    grad = blocked["grad_retraction_pullback"]
    assert np.linalg.norm(grad - grad_ref) <= 1e-13 * np.linalg.norm(grad_ref)
    qr_ref = linalg.qr_orthonormalize(u + d.mat)
    assert np.linalg.norm(blocked["retract_qr"] - qr_ref) <= 1e-13 * np.linalg.norm(qr_ref)


def scaled(f, s):
    """The cost ``s f``."""
    return CostFunction(dim_n=f.dim_n, dim_p=f.dim_p,
                        eval=lambda u: s * f.eval(u), grad=lambda u: s * f.grad(u))


def test_grad_retraction_pullback_is_tangent_at_every_scale():
    # One correcting pass, not project_tangent's two: the assembly's
    # roundoff scales with ||g||, and the pass must take the tangency
    # defect down to the result's own scale for ||g|| from 1e-8 to 1e12.
    # Without the pass the steps of norm 1e5 fail the public check: there
    # the pullback is far smaller than g.
    rng = np.random.default_rng(14)
    eps = np.finfo(float).eps
    for n, p in KERNEL_SHAPES:
        u = problems.random_stiefel(rng, n, p)
        target = problems.random_stiefel(rng, n, p)
        direction = random_tangent(rng, u)
        for norm in KERNEL_NORMS:
            d = (norm / direction.norm()) * direction
            frame = retractions.retract_cayley(u, d)
            assert linalg.feasibility(frame) <= 1e-12, (n, p, norm)
            for s in 10.0 ** np.arange(-8, 13, 4):
                f = scaled(problems.distance_cost(target), s)
                _, _, cond, g_ref, grad_ref = panel_reference(u, d, f)
                grad = retractions.grad_retraction_pullback(u, d, f)
                TangentVector(u, grad.mat)
                coupling = u.T @ grad.mat
                assert (np.linalg.norm(coupling + coupling.T)
                        <= 1e-14 * max(1.0, grad.norm())), (n, p, norm, s)
                # the bars of test_cayley_kernel_matches_panel_reference
                if norm <= 10.0:
                    bar = 1e-13 * np.linalg.norm(grad_ref)
                else:
                    bar = eps * cond * np.linalg.norm(g_ref)
                assert np.linalg.norm(grad.mat - grad_ref) <= bar, (n, p, norm, s)
                given = retractions.grad_retraction_pullback(u, d, f, g=f.grad(frame))
                assert np.array_equal(given.mat, grad.mat)


def recording_ratios(monkeypatch):
    """A list that gains ``scale / ||y||_F`` per ``retractions._pass_needed``
    call."""
    pass_needed, ratios = retractions._pass_needed, []

    def recording(scale, y):
        ratios.append(scale / np.linalg.norm(y))
        return pass_needed(scale, y)

    monkeypatch.setattr(retractions, "_pass_needed", recording)
    return ratios


@pytest.mark.parametrize("n, p, norm, passes", [
    (500, 10, 1.0, 0), (200, 40, 1.0, 0), (6, 4, 1e3, 1), (60, 40, 1e5, 1)])
def test_grad_retraction_pullback_takes_its_pass_only_above_the_bound(monkeypatch, n, p,
                                                                      norm, passes):
    # On the distance cost at a moderate step the terms the pullback sums
    # stay within the bound of the result (3.5-16.7 on distance-tall's
    # inputs), so its correcting pass does not run; at a large step the
    # result is far smaller than those terms and the pass runs.  Either way
    # the result meets the tangency bar of the scale test above.
    rng = np.random.default_rng(n + p)
    u = problems.random_stiefel(rng, n, p)
    d = random_tangent(rng, u, norm=norm)
    calls = counting_passes(monkeypatch)
    ratios = recording_ratios(monkeypatch)
    for s in (1e-8, 1.0, 1e12):
        calls.clear()
        f = scaled(problems.distance_cost(problems.random_stiefel(rng, n, p)), s)
        grad = retractions.grad_retraction_pullback(u, d, f)
        assert len(calls) == passes, (s, ratios[-1])
        coupling = u.T @ grad.mat
        assert np.linalg.norm(coupling + coupling.T) <= 1e-14 * max(1.0, grad.norm())


def test_grad_retraction_pullback_meets_its_bars_just_under_the_bound(monkeypatch):
    # Steps whose ratio of summed terms to result lies just under the bound
    # take no correcting pass and still meet the bars that the result with
    # the pass meets in the scale test above: tangency to 1e-14 of its norm
    # and agreement with the panel reference to 1e-13.
    rng = np.random.default_rng(15)
    bound = retractions._TANGENT_PASS_BOUND
    calls = counting_passes(monkeypatch)
    ratios = recording_ratios(monkeypatch)
    near = 0
    for n, p, norm in ((60, 40, 3.0), (200, 40, 10.0), (120, 80, 1.0)):
        u = problems.random_stiefel(rng, n, p)
        d = random_tangent(rng, u, norm=norm)
        for s in (1e-8, 1.0, 1e12):
            f = scaled(problems.distance_cost(problems.random_stiefel(rng, n, p)), s)
            _, _, _, _, grad_ref = panel_reference(u, d, f)
            calls.clear()
            grad = retractions.grad_retraction_pullback(u, d, f)
            assert len(calls) == 0 and 0.5 * bound < ratios[-1] <= bound, (n, p, s, ratios[-1])
            near += ratios[-1] > 0.8 * bound
            coupling = u.T @ grad.mat
            assert np.linalg.norm(coupling + coupling.T) <= 1e-14 * max(1.0, grad.norm())
            assert np.linalg.norm(grad.mat - grad_ref) <= 1e-13 * np.linalg.norm(grad_ref)
    assert near >= 3
