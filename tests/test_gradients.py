"""Gradient-engine tests: pullback formulas, finite-difference oracles,
and the sampled bound report."""

import math

import numpy as np
import pytest

from stiefel_cayley import cayley, gradients, linalg, problems
from stiefel_cayley.cayley import Center, SkewParam
from stiefel_cayley.gradients import CostFunction

from oracles import embed, stationarity_residual


def fd_directional(f, center, v, delta, step=1e-6):
    up = f.eval(cayley.inverse(center, v + step * delta))
    dn = f.eval(cayley.inverse(center, v - step * delta))
    return (up - dn) / (2.0 * step)


def constant_cost(n, p, value=3.0):
    return CostFunction(dim_n=n, dim_p=p,
                        eval=lambda u: value,
                        grad=lambda u: np.zeros((n, p)))


def test_cost_function_fused_path_agrees():
    inst = problems.make_eigen_instance(12, 3, seed=0)
    rng = np.random.default_rng(0)
    u = problems.random_stiefel(rng, 12, 3)
    for f in (problems.eigen_cost(inst),
              problems.distance_cost(problems.random_stiefel(rng, 12, 3)),
              problems.stochastic_eigen_family(inst, 1.0, seed=4).draw(2)):
        fval, g = f.value_and_grad(u)
        assert fval == f.eval(u)
        assert np.array_equal(g, f.grad(u))


def test_grad_at_zero_matches_literal_blocks():
    # At V = 0 the frame is S_le and the pullback collapses to
    # a = g^T S_le - S_le^T g, b = -S_ri^T g with g = grad f(S_le).
    rng = np.random.default_rng(1)
    n, p = 13, 4
    inst = problems.make_eigen_instance(n, p, seed=1)
    f = problems.eigen_cost(inst)
    for structured in (True, False):
        center = problems.random_center(rng, n, p, structured=structured)
        zero = SkewParam(np.zeros((p, p)), np.zeros((n - p, p)))
        g = gradients.grad_pullback(center, zero, f)
        s = embed(center)
        s_le, s_ri = s[:, :p], s[:, p:]
        ambient = f.grad(s_le)
        np.testing.assert_allclose(g.a, ambient.T @ s_le - s_le.T @ ambient, atol=1e-13)
        np.testing.assert_allclose(g.b, -s_ri.T @ ambient, atol=1e-13)


def test_grad_at_zero_eigenvector_start_is_stationary():
    a = np.diag([2.0, 1.0])
    f = CostFunction(dim_n=2, dim_p=1,
                     eval=lambda u: -float((u.T @ a @ u).item()),
                     grad=lambda u: -2.0 * a @ u)
    zero = SkewParam(np.zeros((1, 1)), np.zeros((1, 1)))
    g = gradients.grad_pullback(Center.structured(np.eye(1), 2), zero, f)
    assert g.norm() == 0.0


def test_grad_at_zero_off_diagonal_hand_case():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = CostFunction(dim_n=2, dim_p=1,
                     eval=lambda u: -float((u.T @ a @ u).item()),
                     grad=lambda u: -2.0 * a @ u)
    zero = SkewParam(np.zeros((1, 1)), np.zeros((1, 1)))
    g = gradients.grad_pullback(Center.structured(np.eye(1), 2), zero, f)
    np.testing.assert_allclose(g.a, [[0.0]], atol=0.0)
    np.testing.assert_allclose(g.b, [[2.0]], atol=0.0)


def test_grad_pullback_constant_cost_is_zero():
    rng = np.random.default_rng(3)
    center = problems.random_center(rng, 9, 2)
    v = problems.random_skew_param(rng, 9, 2, norm=2.0)
    assert gradients.grad_pullback(center, v, constant_cost(9, 2)).norm() == 0.0


def test_grad_pullback_finite_difference_agreement():
    rng = np.random.default_rng(4)
    n, p = 12, 3
    inst = problems.make_eigen_instance(n, p, seed=4)
    costs = [problems.eigen_cost(inst),
             problems.distance_cost(problems.random_stiefel(rng, n, p))]
    worst = 0.0
    for f in costs:
        for structured in (True, False):
            center = problems.random_center(rng, n, p, structured=structured)
            v = problems.random_skew_param(rng, n, p, norm=2.5)
            g = gradients.grad_pullback(center, v, f)
            for _ in range(50):
                delta = problems.random_skew_param(rng, n, p, norm=1.0)
                fd = fd_directional(f, center, v, delta)
                worst = max(worst, abs(fd - g.inner(delta)) / max(1.0, abs(fd)))
    assert worst <= 1e-5


def test_grad_pullback_structured_equals_general_path():
    rng = np.random.default_rng(5)
    n, p = 14, 4
    center = problems.random_center(rng, n, p, structured=True)
    general = Center.general(embed(center))
    f = problems.eigen_cost(problems.make_eigen_instance(n, p, seed=5))
    v = problems.random_skew_param(rng, n, p, norm=3.0)
    g1 = gradients.grad_pullback(center, v, f)
    g2 = gradients.grad_pullback(general, v, f)
    assert (g1 - g2).norm() <= 1e-12 * max(1.0, g1.norm())


def two_solve_pullback(center, v, g):
    """Reference pullback kernel: an LU right-solve for ``g^T X M^{-1}`` and
    one LU solve with the p-by-N right-hand side ``[gp, z^T]``."""
    p = v.p
    gle = center.leftT_mul(g, p)
    gri = center.riT_mul(g, p)
    m = np.eye(p) + v.a + v.b.T @ v.b
    gtx = gle.T - gri.T @ v.b
    gp = np.linalg.solve(m.T, gtx.T).T
    z = v.b @ gp.T + gri
    sol = np.linalg.solve(m, np.hstack([gp, z.T]))
    w11 = sol[:, :p]
    return w11 - w11.T, -v.b @ w11 - sol[:, p:].T


def test_pullback_matches_two_solve_reference():
    # The production kernel applies an explicit M^{-1}; cond(M) is at most
    # 1 + ||A||_2 + ||B||_2^2 (about 1e6 here), yet both kernels agree to a
    # few eps (at most 1.3e-15 relative seen), so 1e-13 leaves a wide margin.
    rng = np.random.default_rng(16)
    worst = 0.0
    for p in (1, 4, 40):
        n = 3 * p + 20
        for b_norm in (0.1, 1.0, 3.0, 10.0, 30.0, 100.0, 1e3):
            for structured in (True, False):
                center = problems.random_center(rng, n, p, structured=structured)
                b = rng.standard_normal((n - p, p))
                v = SkewParam(rng.standard_normal((p, p)), (b_norm / np.linalg.norm(b, 2)) * b)
                g = rng.standard_normal((n, p))
                got = gradients.pullback_from_euclidean(center, v, g)
                assert np.array_equal(got.a, -got.a.T)
                assert not got.a.flags.writeable and not got.b.flags.writeable
                ref = SkewParam(*two_solve_pullback(center, v, g))
                worst = max(worst, (got - ref).norm() / ref.norm())
    assert worst <= 1e-13


@pytest.mark.parametrize("n, p", [(23, 1), (32, 4), (140, 40), (2000, 40)])
def test_pullback_b_block_is_the_negated_product_bitwise(monkeypatch, n, p):
    # b is formed as B (-C) - S_ri^T g M^{-T}, subtracting in place; IEEE
    # negation is exact, so with plain products (no blocks at any size)
    # that is bitwise -B C - S_ri^T g M^{-T}
    monkeypatch.setattr(linalg, "SMALL_PRODUCT_MAX", 10**18)
    rng = np.random.default_rng(n + p)
    for structured in (True, False)[: 1 if n > 1000 else 2]:  # a general center is N-by-N
        center = problems.random_center(rng, n, p, structured=structured)
        v = problems.random_skew_param(rng, n, p, norm=3.0)
        g = rng.standard_normal((n, p))
        got = gradients.pullback_from_euclidean(center, v, g)
        gri = center.riT_mul(g, p)
        m_inv = cayley._inverse_core(v)[1]
        gp = (center.leftT_mul(g, p).T - gri.T @ v.b) @ m_inv
        w11 = m_inv @ gp
        assert np.array_equal(got.b, -v.b @ (w11 + gp.T @ m_inv.T) - gri @ m_inv.T)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pullback_rejects_non_finite_gradient():
    rng = np.random.default_rng(17)
    n, p = 12, 3
    center = problems.random_center(rng, n, p, structured=True)
    v = problems.random_skew_param(rng, n, p, norm=1.0)
    for bad in (np.nan, np.inf):
        g = rng.standard_normal((n, p))
        g[n - 1, 0] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            gradients.pullback_from_euclidean(center, v, g)


def test_bound_report_constant_cost_trivially_passes():
    n, p = 10, 2
    report = gradients.check_gradient_bounds(
        constant_cost(n, p), Center.structured(np.eye(p), n), samples=50,
        mu=0.0, lipschitz=0.0, grad_norm_max=0.0, seed=0)
    assert report.passed
    assert report.lipschitz_worst_ratio == 0.0
    assert report.norm_worst_ratio == 0.0
    assert report.variance_draws == 0


def eigen_constants(inst):
    """The eigen cost's analytic bound constants, as ``cmd_bounds`` builds them."""
    evals = np.linalg.eigvalsh(inst.a)
    mu = 2.0 * float(evals[-1])
    gmax = 2.0 * math.sqrt(float(np.sum(evals[-inst.p:] ** 2)))
    return dict(mu=mu, lipschitz=mu, grad_norm_max=gmax)


def test_bound_report_eigen_analytic_constants():
    n, p = 24, 3
    inst = problems.make_eigen_instance(n, p, seed=10)
    f = problems.eigen_cost(inst)
    report = gradients.check_gradient_bounds(
        f, Center.structured(np.eye(p), n), samples=300,
        **eigen_constants(inst), seed=1)
    assert report.lipschitz_violations == 0
    assert report.norm_violations == 0
    assert report.lipschitz_worst_ratio <= 1.0
    assert report.norm_worst_ratio <= 1.0


def test_bound_report_variance_scaling():
    n, p = 16, 2
    inst = problems.make_eigen_instance(n, p, seed=12)
    f = problems.eigen_cost(inst)
    family = problems.stochastic_eigen_family(inst, noise_sigma=1.3, seed=3)
    report = gradients.check_gradient_bounds(
        f, Center.structured(np.eye(p), n), samples=10, **eigen_constants(inst),
        family=family, variance_draws=2000, seed=3)
    assert report.variance_violations == 0
    # the pulled-back variance inherits the ambient scaling closely: the
    # ratio sits near 1, far inside the factor-4 budget
    assert 0.25 <= report.variance_ratio <= 4.0


def test_bound_report_degenerate_family():
    n, p = 12, 2
    inst = problems.make_eigen_instance(n, p, seed=13)
    family = problems.stochastic_eigen_family(inst, noise_sigma=0.0, seed=4)
    report = gradients.check_gradient_bounds(
        problems.eigen_cost(inst), Center.structured(np.eye(p), n), samples=5,
        **eigen_constants(inst), family=family, variance_draws=50, seed=5)
    assert report.variance_ratio == 0.0
    assert report.passed


def test_stationarity_residual():
    n, p = 20, 4
    inst = problems.make_eigen_instance(n, p, seed=14)
    f = problems.eigen_cost(inst)
    assert stationarity_residual(inst.optimum_basis, f) <= 1e-10
    rng = np.random.default_rng(14)
    u = problems.random_stiefel(rng, n, p)
    assert stationarity_residual(u, f) > 0.1


def test_stationarity_residual_tracks_pullback_norm():
    # both optimality characterizations vanish together and stay apart together
    n, p = 15, 3
    inst = problems.make_eigen_instance(n, p, seed=15)
    f = problems.eigen_cost(inst)
    for u, should_be_small in ((inst.optimum_basis, True),
                               (problems.random_stiefel(np.random.default_rng(15), n, p), False)):
        center = cayley.construct_center(u)
        g = gradients.grad_pullback(center, cayley.forward(center, u), f)
        res = stationarity_residual(u, f)
        if should_be_small:
            assert res <= 1e-8 and g.norm() <= 1e-8
        else:
            assert res > 1e-2 and g.norm() > 1e-2
