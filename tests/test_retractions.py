"""Retraction-suite tests: tangent projection, the three retractions and
their axioms, the skew-parameter bridge, the inverse Cayley retraction,
and the retraction-pullback gradient."""

import numpy as np
import pytest

from stiefel_cayley import cayley, linalg, problems, retractions
from stiefel_cayley.cayley import Center, SingularPointError
from stiefel_cayley.gradients import CostFunction
from stiefel_cayley.retractions import StepTooLargeError, TangentVector

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


def test_retract_cayley_rejects_huge_step():
    u = np.array([[1.0], [0.0]])
    d = TangentVector(u, np.array([[0.0], [1e8]]))
    with pytest.raises(StepTooLargeError) as exc:
        retractions.retract_cayley(u, d)
    assert exc.value.cond > 1e14


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


def test_grad_retraction_pullback_rejects_huge_step():
    u = np.array([[1.0], [0.0]])
    d = TangentVector(u, np.array([[0.0], [1e8]]))
    f = problems.distance_cost(np.array([[0.0], [1.0]]))
    with pytest.raises(StepTooLargeError):
        retractions.grad_retraction_pullback(u, d, f)


def test_cayley_kernel_matches_panel_reference(monkeypatch):
    rng = np.random.default_rng(12)
    eps = np.finfo(float).eps
    accepted = refused = 0
    # p = 1, 4 and 40, with N - p at, below and above p; step norms from
    # 1e-3 up to just under the condition bar (cond grows like ||D||^2 / 4)
    # and past it
    for n, p in ((2, 1), (30, 1), (6, 4), (50, 4), (60, 40), (200, 40)):
        u = problems.random_stiefel(rng, n, p)
        f = problems.distance_cost(problems.random_stiefel(rng, n, p))
        direction = random_tangent(rng, u)
        for norm in (1e-3, 1e-1, 1.0, 10.0, 1e3, 1e5, 1e6, 1e7):
            d = (norm / direction.norm()) * direction
            frame_ref, inner, cond, g_ref, grad_ref = panel_reference(u, d, f)
            if cond > linalg.COND_LIMIT:
                refused += 1
                for call in (lambda: retractions.retract_cayley(u, d),
                             lambda: retractions.grad_retraction_pullback(u, d, f)):
                    with pytest.raises(StepTooLargeError) as exc:
                        call()
                    assert abs(exc.value.cond - cond) <= 1e-8 * cond
                continue
            accepted += 1
            # Up to ||D|| = 10 the condition number stays below 100.  Past
            # that both forms carry roundoff of order eps * cond, and the
            # pullback shrinks far below the ambient gradient it is built
            # from, so its error is measured against that gradient.
            if norm <= 10.0:
                tol, grad_scale = 1e-13, np.linalg.norm(grad_ref)
            else:
                tol, grad_scale = eps * cond, np.linalg.norm(g_ref)
            frame, kernel = retractions.retract_cayley(u, d, return_kernel=True)
            assert np.array_equal(retractions.retract_cayley(u, d), frame)
            assert np.linalg.norm(frame - frame_ref) <= tol * np.linalg.norm(frame_ref)
            grad = retractions.grad_retraction_pullback(u, d, f)
            assert np.linalg.norm(grad.mat - grad_ref) <= tol * grad_scale
            carried = retractions.grad_retraction_pullback(u, d, f, kernel=kernel)
            assert np.array_equal(carried.mat, grad.mat)
            # the condition number is ||K||_1 ||K^{-1}||_1 with the kernel's inverse
            k_inv = kernel[1]
            kernel_cond = np.linalg.norm(inner, 1) * np.linalg.norm(k_inv, 1)
            assert abs(kernel_cond - cond) <= 1e-8 * cond
    assert accepted >= 40 and refused >= 4

    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    d = random_tangent(rng, u, norm=1.0)
    for call in (lambda: retractions.retract_cayley(u, d),
                 lambda: retractions.grad_retraction_pullback(u, d, f)):
        with pytest.raises(StepTooLargeError) as exc:
            call()
        assert exc.value.cond == np.inf
