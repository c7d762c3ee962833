"""Optimizer tests: Armijo backtracking, the parametrization solvers,
retraction-based steepest descent, stopping rules, and run records."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from stiefel_cayley import cayley, linalg, optimize, problems, retractions
from stiefel_cayley.cayley import Center, SingularPointError, SkewParam, construct_center
from stiefel_cayley.gradients import CostFunction
from stiefel_cayley.optimize import (
    STOP_FVAL_CHANGE,
    STOP_GRAD_RATIO,
    STOP_MAX_ITERS,
    STOP_STALL,
    STOP_STATIONARY,
    RECENTER_B_NORM,
    BacktrackingConfig,
    RunRecord,
    StoppingConfig,
    _backtrack_full,
    run_gdm_cp,
    run_gdm_cp_retraction,
    run_gdm_retraction,
)


def constant_cost(n, p, value=7.0):
    return CostFunction(dim_n=n, dim_p=p,
                        eval=lambda u: value,
                        grad=lambda u: np.zeros((n, p)))


def two_by_one_eigen():
    """The 1-parameter problem: largest eigenvector of diag(2, 1)."""
    a = np.diag([2.0, 1.0])
    f = CostFunction(dim_n=2, dim_p=1,
                     eval=lambda u: -float((u.T @ a @ u).item()),
                     grad=lambda u: -2.0 * a @ u)
    theta = math.pi / 4.0
    u0 = np.array([[math.cos(theta)], [math.sin(theta)]])
    return f, u0


def assert_monotone(rec):
    for prev, cur in zip(rec.fvals, rec.fvals[1:]):
        assert cur <= prev


# -------------------------------------------------------------- configs


def test_config_validation():
    for bad in (dict(gamma_initial=0.0), dict(gamma_initial=-1.0),
                dict(gamma_initial=math.inf), dict(gamma_initial=math.nan)):
        with pytest.raises(ValueError):
            BacktrackingConfig(**bad)
    for bad in (dict(max_iters=0), dict(grad_ratio_tol=0.0),
                dict(fval_rel_tol=-1e-3),
                dict(grad_ratio_tol=math.nan), dict(grad_ratio_tol=math.inf),
                dict(fval_rel_tol=math.nan), dict(fval_rel_tol=math.inf)):
        with pytest.raises(ValueError):
            StoppingConfig(**bad)


def test_config_counts_must_be_integers():
    # A NaN budget would never fire.
    for bad in (math.nan, 2.5, 3.0):
        with pytest.raises(TypeError):
            StoppingConfig(max_iters=bad)
    assert StoppingConfig(max_iters=np.int64(3)).max_iters == 3


def test_run_record_requires_increasing_iters():
    rec = RunRecord()
    rec.append(0, 1.0, 1.0, 0.0, 0.0)
    rec.append(3, 0.5, 0.5, 0.0, 0.1)
    with pytest.raises(ValueError):
        rec.append(3, 0.4, 0.4, 0.0, 0.2)


# ------------------------------------------------------------- backtrack


def descent_step(cost):
    """A line-search step ``x - gamma g`` scored by ``cost``."""
    def step(x, g, gamma):
        cand = x - gamma * g
        return cost(cand), cand, None
    return step


def test_backtrack_quadratic_accepts_initial_step():
    rng = np.random.default_rng(0)
    v = problems.random_skew_param(rng, 6, 2, norm=3.0)
    gamma, fval, cand, _ = _backtrack_full(descent_step(lambda w: 0.5 * w.norm() ** 2), v, v,
                                           0.5 * v.norm() ** 2, v.norm() ** 2,
                                           BacktrackingConfig())
    assert gamma == 0.1
    assert fval == 0.5 * cand.norm() ** 2


def test_backtrack_shrinks_into_descent_range(monkeypatch):
    # cost rises along the ray except for steps below ~1.2e-4, so the
    # first accepted candidate is 0.1 * 0.5^10
    v = SkewParam(np.zeros((1, 1)), np.ones((1, 1)))
    tried = []

    def cost(w):
        step = 1.0 - float(w.b[0, 0])
        if step == 0.0:
            return 0.0
        return -step if step <= 1.2e-4 else step

    scored = descent_step(cost)

    def step(x, g, gamma):
        tried.append(gamma)
        return scored(x, g, gamma)

    def line_search():
        tried.clear()
        return _backtrack_full(step, v, v, 0.0, v.norm() ** 2, BacktrackingConfig())

    assert line_search()[0] == 0.1 * 0.5**10
    monkeypatch.setattr(optimize, "MAX_HALVINGS", 9)
    assert line_search() is None
    assert tried == [0.1 * 0.5**k for k in range(10)]


# -------------------------------------------------------------- cp solver


def test_run_gdm_cp_stationary_start():
    rng = np.random.default_rng(1)
    u0 = problems.random_stiefel(rng, 7, 2)
    rec = run_gdm_cp(constant_cost(7, 2), u0)
    assert rec.stop_reason == STOP_STATIONARY
    assert rec.iters == [0]
    assert rec.fvals == [7.0]
    np.testing.assert_allclose(rec.final_u, u0, atol=1e-14)


def test_run_gdm_cp_small_eigen():
    f, u0 = two_by_one_eigen()
    rec = run_gdm_cp(f, u0)
    assert abs(rec.fvals[-1] + 2.0) <= 1e-8
    assert abs(abs(rec.final_u[0, 0]) - 1.0) <= 1e-4
    assert rec.stop_reason in (STOP_GRAD_RATIO, STOP_FVAL_CHANGE)
    assert_monotone(rec)
    assert max(rec.feasibilities) <= 1e-11


def test_run_gdm_cp_distance_to_half_turn():
    n, p = 10, 3
    center, target = problems.rotation_center(math.pi, n, p)
    _, u0 = problems.rotation_center(math.pi / 4.0, n, p)
    rec = run_gdm_cp(problems.distance_cost(target), u0, center=center)
    assert rec.fvals[-1] <= 1e-10
    assert rec.iters[-1] <= 5000
    assert max(rec.feasibilities) <= 1e-11


def test_run_gdm_cp_rejects_excluded_start():
    center = Center.structured(np.eye(1), 2)
    u0 = np.array([[-1.0], [0.0]])
    with pytest.raises(SingularPointError):
        run_gdm_cp(problems.distance_cost(np.array([[0.0], [1.0]])), u0,
                   center=center)


def test_run_gdm_cp_starts_at_its_own_center_for_large_p():
    # construct_center certifies sigma_min(K) >= 1 at the start frame (here
    # 1.0004, while log det K = 27.74 is below log(1e-12 2^p) = 27.82), so
    # the run must start and descend.
    n, p = 320, 80
    rng = np.random.default_rng(18)
    f = problems.distance_cost(problems.random_stiefel(rng, n, p))
    u0 = problems.random_stiefel(rng, n, p)
    rec = run_gdm_cp(f, u0, stop=StoppingConfig(max_iters=15))
    assert rec.iters[-1] == 15 and rec.stop_reason == STOP_MAX_ITERS
    assert_monotone(rec)
    assert rec.fvals[-1] < 0.5 * rec.fvals[0]
    assert max(rec.feasibilities) <= 1e-12


def test_run_gdm_cp_retries_steps_beyond_the_inverse_maps_range(monkeypatch):
    # A fixed center and gamma_0 = 1e12 put the first trials at ||B||_2 near
    # 1e12, where the inverse map raises RankError (B has fewer rows than
    # columns); the line search shrinks the step instead of aborting.
    n, p = 30, 20
    rng = np.random.default_rng(19)
    f = problems.distance_cost(problems.random_stiefel(rng, n, p))
    u0 = problems.random_stiefel(rng, n, p)
    center = construct_center(u0)
    refused = []
    inverse = optimize.inverse

    def counting(*args, **kwargs):
        try:
            return inverse(*args, **kwargs)
        except linalg.RankError:
            refused.append(args[1].norm())
            raise

    monkeypatch.setattr(optimize, "inverse", counting)
    rec = run_gdm_cp(f, u0, center=center, bt=BacktrackingConfig(gamma_initial=1e12),
                     stop=StoppingConfig(max_iters=5))
    assert refused and min(refused) >= 1e8
    assert rec.iters[-1] == 5
    assert_monotone(rec)
    assert max(rec.feasibilities) <= 1e-12


def test_run_gdm_cp_max_iters_stops_first():
    inst = problems.make_eigen_instance(8, 2, seed=2)
    rng = np.random.default_rng(2)
    u0 = problems.random_stiefel(rng, 8, 2)
    rec = run_gdm_cp(problems.eigen_cost(inst), u0,
                     stop=StoppingConfig(max_iters=1))
    assert rec.stop_reason == STOP_MAX_ITERS
    assert rec.iters == [0, 1]


def test_run_gdm_cp_deterministic():
    inst = problems.make_eigen_instance(12, 3, seed=3)
    rng = np.random.default_rng(3)
    u0 = problems.random_stiefel(rng, 12, 3)
    stop = StoppingConfig(max_iters=40)
    r1 = run_gdm_cp(problems.eigen_cost(inst), u0, stop=stop)
    r2 = run_gdm_cp(problems.eigen_cost(inst), u0, stop=stop)
    assert r1.fvals == r2.fvals
    assert r1.iters == r2.iters
    assert r1.grad_norms == r2.grad_norms
    assert np.array_equal(r1.final_u, r2.final_u)


def _gdm_cp_b_norms(monkeypatch):
    """Record ||B||_2 of every parameter run_gdm_cp takes a gradient at."""
    norms = []
    pullback = optimize.pullback_from_euclidean

    def spy(center, v, g, **kwargs):
        norms.append(float(np.linalg.norm(v.b, 2)))
        return pullback(center, v, g, **kwargs)

    monkeypatch.setattr(optimize, "pullback_from_euclidean", spy)
    return norms


def test_run_gdm_cp_recenters_after_overshoot(monkeypatch):
    # At gamma=0.1 the first steps throw B far from the start's center; the
    # fixed-center run then stalls, the re-centered one converges.
    n, p = 200, 10
    inst = problems.make_eigen_instance(n, p, seed=7)
    f = problems.eigen_cost(inst)
    bt = BacktrackingConfig(gamma_initial=0.1)
    stop = StoppingConfig(max_iters=200)
    for t in range(3):
        u0 = problems.random_stiefel(np.random.default_rng([7, 211, t]), n, p)

        norms = _gdm_cp_b_norms(monkeypatch)
        adaptive = run_gdm_cp(f, u0, bt=bt, stop=stop)
        assert adaptive.recenter_iters, t
        assert len(norms) == len(adaptive.iters)
        assert max(norms) <= RECENTER_B_NORM, t
        assert_monotone(adaptive)
        assert max(adaptive.feasibilities) <= 1e-12
        assert adaptive.fvals[-1] - inst.optimum_value <= 1e-3, t

        norms = _gdm_cp_b_norms(monkeypatch)
        fixed = run_gdm_cp(f, u0, center=construct_center(u0), bt=bt, stop=stop)
        assert fixed.recenter_iters == []
        assert max(norms) > RECENTER_B_NORM, t
        # identical up to the first rebuild, then the old fixed-center stall
        first = adaptive.recenter_iters[0]
        assert fixed.fvals[: first + 1] == adaptive.fvals[: first + 1]
        assert fixed.fvals[-1] - inst.optimum_value > 1e2, t


def test_run_gdm_cp_carries_the_gram_matrix_into_its_pullback(monkeypatch):
    # The accepted trial's inverse map formed B^T B and M^{-1}, and the
    # pullback takes M^{-1} from that kernel instead of forming B^T B and
    # factoring again; not at the start, and not after a re-centering, whose
    # re-mapped parameter has another B.  A carried M^{-1} is bitwise the
    # one the pullback rebuilds, and so is each pullback and the whole
    # record.
    n, p = 200, 10
    f = problems.eigen_cost(problems.make_eigen_instance(n, p, seed=7))
    u0 = problems.random_stiefel(np.random.default_rng([7, 211, 0]), n, p)
    kw = dict(bt=BacktrackingConfig(gamma_initial=0.1), stop=StoppingConfig(max_iters=60))
    pullback, carried = optimize.pullback_from_euclidean, []

    def checked_pullback(center, v, g, kernel=None):
        out = pullback(center, v, g, kernel=kernel)
        carried.append(kernel is not None)
        if kernel is not None:
            btb, m_inv, _, _ = cayley._inverse_core(v)
            assert np.array_equal(kernel.btb, btb) and np.array_equal(kernel.m_inv, m_inv)
            assert np.array_equal(kernel.frame, cayley.inverse(center, v))
            rebuilt = pullback(center, v, g)
            assert np.array_equal(out.a, rebuilt.a) and np.array_equal(out.b, rebuilt.b)
        return out

    monkeypatch.setattr(optimize, "pullback_from_euclidean", checked_pullback)
    rec = run_gdm_cp(f, u0, **kw)
    assert rec.recenter_iters
    assert carried == [False] + [it not in rec.recenter_iters for it in rec.iters[1:]]

    def rebuilding_pullback(center, v, g, kernel=None):
        return pullback(center, v, g)

    monkeypatch.setattr(optimize, "pullback_from_euclidean", rebuilding_pullback)
    ref = run_gdm_cp(f, u0, **kw)
    for name in ("iters", "fvals", "grad_norms", "feasibilities", "recenter_iters", "stop_reason"):
        assert getattr(rec, name) == getattr(ref, name), name
    assert np.array_equal(rec.final_u, ref.final_u)


@pytest.mark.parametrize("n, p", [(500, 10), (60, 40), (120, 80), (11, 10)])
def test_recenter_screen_decides_as_the_gram_norm(n, p):
    # ||B^T B||_1 >= ||B||_2^2, so a 1-norm at or below RECENTER_B_NORM^2
    # rules a re-centering out without the eigenvalue problem; across
    # ||B||_2 in [2.5, 3.5], at the threshold to the last bits, and with
    # N - p < p, the screened test decides as _gram_norm alone.
    rng = np.random.default_rng(n + p)
    eps = np.finfo(float).eps
    norms = [*np.linspace(2.5, 3.5, 21), *(3.0 * (1.0 + k * eps) for k in range(-4, 5))]
    k = min(n - p, p)
    shapes = {
        "gaussian": lambda: rng.standard_normal((n - p, p)),
        "rank one": lambda: np.outer(rng.standard_normal(n - p), rng.standard_normal(p)),
        "coordinate": lambda: np.eye(n - p, p),
        "flat": lambda: (np.linalg.qr(rng.standard_normal((n - p, k)))[0]
                         @ np.linalg.qr(rng.standard_normal((p, k)))[0].T),
    }
    wide = 0
    for b_norm in norms:
        for kind, draw in shapes.items():
            b = draw()
            b *= b_norm / np.linalg.norm(b, 2)
            btb = b.T @ b
            expected = cayley._gram_norm(btb) > RECENTER_B_NORM
            assert optimize._recenter_needed(btb) == expected, (kind, b_norm)
            wide += np.abs(btb).sum(axis=0).max() > RECENTER_B_NORM**2 and not expected
    assert wide  # some B^T B's 1-norm exceeds 9 while ||B||_2 <= 3


def test_recenter_screen_leaves_a_recentering_record_bit_identical(monkeypatch):
    n, p = 200, 10
    f = problems.eigen_cost(problems.make_eigen_instance(n, p, seed=7))
    u0 = problems.random_stiefel(np.random.default_rng([7, 211, 0]), n, p)
    kw = dict(bt=BacktrackingConfig(gamma_initial=0.1), stop=StoppingConfig(max_iters=60))
    rec = run_gdm_cp(f, u0, **kw)
    assert rec.recenter_iters
    monkeypatch.setattr(optimize, "_recenter_needed",
                        lambda btb: cayley._gram_norm(btb) > RECENTER_B_NORM)
    ref = run_gdm_cp(f, u0, **kw)
    for name in ("iters", "fvals", "grad_norms", "feasibilities", "recenter_iters", "stop_reason"):
        assert getattr(rec, name) == getattr(ref, name), name
    assert np.array_equal(rec.final_u, ref.final_u)


# ------------------------------------------------- anchored retraction solver


def test_run_gdm_cp_retraction_stationary_start():
    rng = np.random.default_rng(4)
    u0 = problems.random_stiefel(rng, 6, 2)
    rec = run_gdm_cp_retraction(constant_cost(6, 2), u0, u0)
    assert rec.stop_reason == STOP_STATIONARY
    assert rec.iters == [0]


def test_run_gdm_cp_retraction_first_iteration_matches_cayley_descent():
    inst = problems.make_eigen_instance(12, 3, seed=5)
    f = problems.eigen_cost(inst)
    rng = np.random.default_rng(5)
    u0 = problems.random_stiefel(rng, 12, 3)
    stop = StoppingConfig(max_iters=1)
    anchored = run_gdm_cp_retraction(f, u0, u0, stop=stop)
    plain = run_gdm_retraction(f, u0, "cayley", stop=stop)
    assert anchored.fvals[0] == plain.fvals[0]
    assert abs(anchored.fvals[1] - plain.fvals[1]) <= 1e-12


def test_run_gdm_cp_retraction_small_eigen():
    f, u0 = two_by_one_eigen()
    rec = run_gdm_cp_retraction(f, u0, u0)
    assert abs(rec.fvals[-1] + 2.0) <= 1e-6
    assert_monotone(rec)


# ------------------------------------------------- retraction-based descent


def test_run_gdm_retraction_all_kinds_small_eigen():
    f, u0 = two_by_one_eigen()
    for kind in ("qr", "polar", "cayley"):
        rec = run_gdm_retraction(f, u0, kind)
        assert abs(rec.fvals[-1] + 2.0) <= 1e-6, kind
        assert_monotone(rec)
        if kind in ("qr", "polar"):
            assert max(rec.feasibilities) <= 1e-10


def test_run_gdm_retraction_stationary_start():
    rec = run_gdm_retraction(constant_cost(5, 2), np.eye(5)[:, :2], "qr")
    assert rec.stop_reason == STOP_STATIONARY
    assert rec.iters == [0]


def test_run_gdm_retraction_unknown_kind():
    f, u0 = two_by_one_eigen()
    with pytest.raises(ValueError):
        run_gdm_retraction(f, u0, "exponential")


def test_solvers_reject_bad_frames():
    # fixed or adaptive, gdm-cp used to take a Gaussian start and "stall" at
    # iteration 0 with f = -840.8 (optimum -151.7) and feasibility 28.1
    f = problems.eigen_cost(problems.make_eigen_instance(20, 3, seed=1))
    good = problems.random_stiefel(np.random.default_rng(2), 20, 3)
    gaussian = np.random.default_rng(1).standard_normal((20, 3))
    with_nan = good.copy()
    with_nan[4, 1] = np.nan
    wrong_n = problems.random_stiefel(np.random.default_rng(1), 21, 3)
    solvers = {
        "gdm-cp": lambda u: run_gdm_cp(f, u),
        "gdm-cp-retraction": lambda u: run_gdm_cp_retraction(f, u, u),
        "gdm-cp-retraction start": lambda u: run_gdm_cp_retraction(f, good, u),
        "gdm-cp-retraction anchor": lambda u: run_gdm_cp_retraction(f, u, good),
        **{f"gdm-{kind}": (lambda u, kind=kind: run_gdm_retraction(f, u, kind))
           for kind in ("qr", "polar", "cayley")},
    }
    for name, solve in solvers.items():
        for bad in (gaussian, with_nan):
            with pytest.raises(ValueError) as exc:
                solve(bad)
            assert type(exc.value) is ValueError, name
        with pytest.raises(linalg.DimensionError):
            solve(wrong_n)
        assert solve(good).iters[0] == 0


SOLVERS = {
    "gdm-cp": lambda f, u0, **kw: run_gdm_cp(f, u0, **kw),
    "gdm-cp-retraction": lambda f, u0, **kw: run_gdm_cp_retraction(f, u0, u0, **kw),
    **{f"gdm-{kind}": (lambda f, u0, kind=kind, **kw: run_gdm_retraction(f, u0, kind, **kw))
       for kind in ("qr", "polar", "cayley")},
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("good_calls", [0, 1])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_every_solver_rejects_non_finite_gradient(solver, good_calls):
    # Every solver takes one gradient at the start frame (from grad or
    # eval_grad) and one per trial.  The gradient turns NaN at the start
    # frame (good_calls=0) or from the first trial on, so at the first
    # accepted step, which is also the last one allowed: either way the run
    # raises instead of recording a NaN gradient norm.
    inst = problems.make_eigen_instance(10, 2, seed=3)
    f = problems.eigen_cost(inst)
    calls = []

    def grad(u):
        calls.append(None)
        g = f.grad(u)
        return g if len(calls) <= good_calls else np.full_like(g, np.nan)

    def value_and_grad(u):
        return f.eval(u), grad(u)

    bad = CostFunction(dim_n=10, dim_p=2, eval=f.eval, grad=grad, eval_grad=value_and_grad)
    u0 = problems.random_stiefel(np.random.default_rng(3), 10, 2)
    with pytest.raises(ValueError, match="NaN or Inf"):
        SOLVERS[solver](bad, u0, stop=StoppingConfig(max_iters=1))
    assert len(calls) >= good_calls + 1


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_every_solver_stops_on_stall_at_last_accepted_frame(monkeypatch, solver):
    # With the gradient's sign flipped, small steps go uphill, so the short
    # halving budget soon runs out: the run ends on the stall clause and
    # keeps the last frame it accepted.
    plain = problems.eigen_cost(problems.make_eigen_instance(30, 3, seed=1))
    f = CostFunction(dim_n=30, dim_p=3, eval=plain.eval, grad=lambda u: -plain.grad(u))
    u0 = problems.random_stiefel(np.random.default_rng(1), 30, 3)
    monkeypatch.setattr(optimize, "MAX_HALVINGS", 3)
    rec = SOLVERS[solver](f, u0, bt=BacktrackingConfig(gamma_initial=0.1))
    assert rec.stop_reason == STOP_STALL
    assert_monotone(rec)
    assert max(rec.feasibilities) <= 1e-12
    assert f.eval(rec.final_u) == rec.fvals[-1]


@pytest.mark.parametrize("solver", ["gdm-cayley", "gdm-cp-retraction"])
def test_line_search_retries_after_step_too_large(monkeypatch, solver):
    # A first trial step of 1e8 overshoots: the line search must count each
    # such trial as failed (an f increase, or a RankError past the inverse
    # map's range) and keep halving instead of ending the run.  Every frame
    # the kernel returns, the huge trials' included, is orthonormal.
    f = problems.eigen_cost(problems.make_eigen_instance(30, 3, seed=1))
    u0 = problems.random_stiefel(np.random.default_rng(1), 30, 3)
    kernel, steps = retractions._cayley_kernel, []

    def recording_kernel(u, dmat):
        out = kernel(u, dmat)
        steps.append(np.linalg.norm(dmat))
        assert linalg.feasibility(out.frame) <= 1e-12
        return out

    monkeypatch.setattr(retractions, "_cayley_kernel", recording_kernel)
    rec = SOLVERS[solver](f, u0, bt=BacktrackingConfig(gamma_initial=1e8),
                          stop=StoppingConfig(max_iters=20))
    assert max(steps) >= 1e6
    assert rec.stop_reason == STOP_MAX_ITERS
    assert_monotone(rec)
    assert max(rec.feasibilities) <= 1e-12


#: The kernel each solver's line-search trial calls: a name in ``optimize``,
#: or a key of ``RETRACTION_KINDS``.
STEP_KERNELS = {"gdm-cp": "inverse", "gdm-cp-retraction": "retract_cayley",
                **{f"gdm-{kind}": kind for kind in ("qr", "polar", "cayley")}}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_every_solver_counts_both_errors_as_failed_trials(monkeypatch, solver):
    # The step kernel refuses the first trial with a RankError and the
    # second with the one a failed Cholesky factor raises past the inverse
    # map's range; both are failed trials, so every solver halves twice and
    # accepts a later trial.
    f = problems.eigen_cost(problems.make_eigen_instance(30, 3, seed=1))
    u0 = problems.random_stiefel(np.random.default_rng(1), 30, 3)
    with pytest.raises(linalg.RankError) as out_of_range:
        linalg._cholesky_r(-np.eye(3), "I + B^T B")
    refusals = [linalg.RankError("refused"), out_of_range.value]
    calls = []

    def refusing(kernel):
        def trial(*args, **kwargs):
            calls.append(None)
            if len(calls) <= len(refusals):
                raise refusals[len(calls) - 1]
            return kernel(*args, **kwargs)
        return trial

    name = STEP_KERNELS[solver]
    if name in optimize.RETRACTION_KINDS:
        monkeypatch.setitem(optimize.RETRACTION_KINDS, name,
                            refusing(optimize.RETRACTION_KINDS[name]))
    else:
        monkeypatch.setattr(optimize, name, refusing(getattr(optimize, name)))
    rec = SOLVERS[solver](f, u0, stop=StoppingConfig(max_iters=5))
    assert len(calls) > len(refusals)
    assert rec.iters[-1] == 5 and rec.stop_reason == STOP_MAX_ITERS
    assert_monotone(rec)
    assert rec.fvals[-1] < rec.fvals[0]
    assert max(rec.feasibilities) <= 1e-12


_ULP_ABOVE_ONE = math.nextafter(1.0, 2.0)


@pytest.mark.parametrize("n, d_cur, d0, f_cur, f_prev, stop, expected", [
    # a stationary start wins over every other clause, the budget included
    (5, 0.0, 0.0, 1.0, math.nan, StoppingConfig(max_iters=5), STOP_STATIONARY),
    (0, 0.0, 0.0, 0.0, math.nan, StoppingConfig(), STOP_STATIONARY),
    # then the budget, then the gradient ratio
    (5, 1.0, 1.0, 1.0, 1.0, StoppingConfig(max_iters=5), STOP_MAX_ITERS),
    (1, 1e-11, 1.0, 1.0, 2.0, StoppingConfig(), STOP_GRAD_RATIO),
    # the first iterate has no previous f, so the f-change clause never fires
    (0, 1.0, 1.0, 1.0, math.nan, StoppingConfig(), None),
    (0, 1.0, 1.0, 0.0, math.nan, StoppingConfig(), None),
    (0, 1.0, 1.0, 1.0, math.nan, StoppingConfig(fval_rel_tol=1e300), None),
    # at f = 0 it fires only when f is unchanged, whatever the tolerance
    (1, 1.0, 1.0, 0.0, 0.0, StoppingConfig(fval_rel_tol=1e300), STOP_FVAL_CHANGE),
    (1, 1.0, 1.0, 0.0, 1e-300, StoppingConfig(fval_rel_tol=1e300), None),
    # negative f: the change is relative to |f|
    (1, 1.0, 1.0, -2.0, -2.1, StoppingConfig(fval_rel_tol=0.1), STOP_FVAL_CHANGE),
    (1, 1.0, 1.0, -2.0, -3.0, StoppingConfig(fval_rel_tol=0.1), None),
    (1, 1.0, 1.0, -2.0, -2.0, StoppingConfig(), STOP_FVAL_CHANGE),
    # the default tolerance fires only on a zero change, at any scale of f
    (1, 1.0, 1.0, 1.0, 1.0, StoppingConfig(), STOP_FVAL_CHANGE),
    (1, 1.0, 1.0, 1.0, _ULP_ABOVE_ONE, StoppingConfig(), None),
    (1, 1.0, 1.0, -1e300, math.nextafter(-1e300, 0.0), StoppingConfig(), None),
    (1, 1.0, 1.0, 5e-324, 1e-323, StoppingConfig(), None),
])
def test_check_stop_table(n, d_cur, d0, f_cur, f_prev, stop, expected):
    assert optimize._check_stop(n, d_cur, d0, f_cur, f_prev, stop) == expected


def test_check_stop_at_zero_cost():
    # At f = 0 the relative change is undefined: the clause fires only when
    # f is unchanged.
    stop = StoppingConfig()
    assert optimize._check_stop(1, 1.0, 1.0, 0.0, 0.0, stop) == STOP_FVAL_CHANGE
    assert optimize._check_stop(1, 1.0, 1.0, 0.0, 1e-3, stop) is None


@pytest.mark.parametrize("fused", [True, False], ids=["eval_grad", "no-eval_grad"])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_one_cost_call_per_trial_and_none_after_acceptance(monkeypatch, solver, fused):
    inst = problems.make_eigen_instance(50, 4, seed=3)
    plain = problems.eigen_cost(inst)
    calls, trials = [], []

    def counted(name, fn):
        def call(u):
            calls.append(name)
            return fn(u)
        return call

    f = CostFunction(dim_n=50, dim_p=4,
                     eval=counted("eval", plain.eval), grad=counted("grad", plain.grad),
                     eval_grad=counted("eval_grad", plain.eval_grad) if fused else None)
    backtrack = optimize._backtrack_full
    setup_calls = []

    def counting_backtrack(step, *args, **kwargs):
        def counted_step(*step_args):
            if not trials:
                setup_calls.extend(calls)
                calls.clear()
            start = len(calls)
            try:
                return step(*step_args)
            finally:
                trials.append(calls[start:])
                del calls[start:]
        return backtrack(counted_step, *args, **kwargs)

    monkeypatch.setattr(optimize, "_backtrack_full", counting_backtrack)
    u0 = problems.random_stiefel(np.random.default_rng(3), 50, 4)
    kw = dict(bt=BacktrackingConfig(gamma_initial=0.1), stop=StoppingConfig(max_iters=30))
    rec = SOLVERS[solver](f, u0, **kw)
    assert rec.iters[-1] == 30
    assert len(trials) > 30  # the line search backtracked
    assert setup_calls.count("eval") <= 1 and setup_calls.count("grad") <= 1
    assert setup_calls.count("eval_grad") <= 1
    assert calls == []  # nothing outside the trials after setup
    per_trial = ["eval_grad"] if fused else ["eval", "grad"]
    assert all(t == per_trial for t in trials)

    monkeypatch.setattr(optimize, "_backtrack_full", backtrack)
    ref = SOLVERS[solver](plain, u0, **kw)
    for name in ("iters", "fvals", "grad_norms", "feasibilities", "recenter_iters", "stop_reason"):
        assert getattr(rec, name) == getattr(ref, name), name
    assert np.array_equal(rec.final_u, ref.final_u)


def test_gdm_cp_retraction_builds_one_kernel_per_trial(monkeypatch):
    f = problems.eigen_cost(problems.make_eigen_instance(50, 4, seed=3))
    u0 = problems.random_stiefel(np.random.default_rng(3), 50, 4)
    kw = dict(bt=BacktrackingConfig(gamma_initial=0.1), stop=StoppingConfig(max_iters=30))
    kernel, retract, pullback = (retractions._cayley_kernel, optimize.retract_cayley,
                                 optimize.grad_retraction_pullback)
    builds, trials, per_pullback = [], [], []

    def counting_kernel(u, dmat):
        builds.append(1)
        return kernel(u, dmat)

    def counting_retract(u, d, **kwargs):
        trials.append(1)
        return retract(u, d, **kwargs)

    def watched_pullback(*args, **kwargs):
        before = len(builds)
        out = pullback(*args, **kwargs)
        per_pullback.append(len(builds) - before)
        return out

    monkeypatch.setattr(retractions, "_cayley_kernel", counting_kernel)
    monkeypatch.setattr(optimize, "retract_cayley", counting_retract)
    monkeypatch.setattr(optimize, "grad_retraction_pullback", watched_pullback)
    rec = run_gdm_cp_retraction(f, u0, u0, **kw)
    assert rec.iters[-1] == 30
    assert len(trials) > 30  # the line search backtracked
    assert len(builds) == len(trials) + 1
    assert per_pullback == [1] + [0] * 30  # one in setup, none in reanchor

    def rebuilding_pullback(*args, **kwargs):
        return pullback(*args, **{**kwargs, "kernel": None})

    monkeypatch.setattr(optimize, "grad_retraction_pullback", rebuilding_pullback)
    ref = run_gdm_cp_retraction(f, u0, u0, **kw)
    for name in ("iters", "fvals", "grad_norms", "feasibilities", "recenter_iters", "stop_reason"):
        assert getattr(rec, name) == getattr(ref, name), name
    assert np.array_equal(rec.final_u, ref.final_u)


#: linalg._mm calls in one step whose first trial is accepted, as (the
#: trial's retraction or inverse map, the accepted frame's gradient), with
#: Cholesky QR in one pass (a small step keeps cond(U + D)^2 under
#: linalg.ONE_PASS_BOUND) and no correcting tangent pass (the distance
#: cost's gradients keep their ratios under retractions._TANGENT_PASS_BOUND).
#: README's product table states the same pairs.
BLOCKED_PRODUCTS_PER_STEP = {"gdm-qr": (1, 2), "gdm-polar": (1, 2), "gdm-cayley": (3, 2),
                             "gdm-cp-retraction": (3, 5), "gdm-cp": (1, 3)}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_every_step_product_takes_the_blocked_helper(monkeypatch, solver):
    # Counted on the distance cost, which forms no product of its own, at a
    # shape just above N p^2 = 100^3, so that no later edit puts an N-row
    # product of the step back on OpenBLAS's packed path unnoticed.  The
    # products after the last trial's cost call are the accepted frame's
    # gradient.
    n, p = 632, 40
    rng = np.random.default_rng(21)
    plain = problems.distance_cost(problems.random_stiefel(rng, n, p))
    u0 = problems.random_stiefel(rng, n, p)
    mm, products, trials = linalg._mm, [], []

    def counting_mm(*args, **kwargs):
        products.append(1)
        return mm(*args, **kwargs)

    def counting_eval_grad(u):
        trials.append(len(products))
        return plain.eval_grad(u)

    f = CostFunction(dim_n=n, dim_p=p, eval=plain.eval, grad=plain.grad,
                     eval_grad=counting_eval_grad)
    monkeypatch.setattr(linalg, "_mm", counting_mm)
    counts, trial_counts, after_last_trial = [], [], []
    for steps in (1, 2, 3):
        products.clear()
        trials.clear()
        assert SOLVERS[solver](f, u0, stop=StoppingConfig(max_iters=steps)).iters[-1] == steps
        counts.append(len(products))
        trial_counts.append(len(trials))
        after_last_trial.append(len(products) - trials[-1])
    per_trial, per_step = BLOCKED_PRODUCTS_PER_STEP[solver]
    assert np.diff(trial_counts).tolist() == [1, 1]  # each step took its first trial
    assert np.diff(counts).tolist() == [per_trial + per_step] * 2
    assert after_last_trial == [per_step] * 3


def test_readme_product_table_matches_the_measured_counts():
    """README's product table states BLOCKED_PRODUCTS_PER_STEP, row for row,
    so neither changes alone."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(gdm-[a-z-]+)` \| (\d+) \| (\d+) \|$", readme, flags=re.MULTILINE)
    table = {solver: (int(trial), int(step)) for solver, trial, step in rows}
    assert len(rows) == len(table)
    assert table == BLOCKED_PRODUCTS_PER_STEP


@pytest.mark.parametrize("solver", ["gdm-cp", "gdm-qr", "gdm-polar"])
def test_cholesky_qr_trials_take_one_pass(monkeypatch, solver):
    # A line-search trial's step keeps cond(X)^2 of its Cholesky QR under
    # linalg.ONE_PASS_BOUND (X = [I; B] for gdm-cp's inverse map, U + D
    # for the retractions), so each trial factors one Gram matrix before it
    # evaluates the cost: the count of factors seen at each evaluation
    # climbs by one.  gdm-cp also evaluates its start, before any factor,
    # and then factors once more for the start's pullback, which builds
    # M^{-1} by the inverse map's Cholesky QR.  gdm-polar's trials take
    # one Gram eigendecomposition each under the same bound, and none
    # falls back to Cholesky QR.
    n, p = 100, 5
    plain = problems.eigen_cost(problems.make_eigen_instance(n, p, 7))
    chol, factors, seen = linalg._cholesky_r, [], []
    monkeypatch.setattr(linalg, "_cholesky_r", lambda *args: factors.append(1) or chol(*args))
    eigh, eighs = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: eighs.append(1) or eigh(*args))
    kernels = eighs if solver == "gdm-polar" else factors
    f = CostFunction(dim_n=n, dim_p=p, eval=plain.eval, grad=plain.grad,
                     eval_grad=lambda u: seen.append(len(kernels)) or plain.eval_grad(u))
    rec = SOLVERS[solver](f, problems.random_stiefel(np.random.default_rng(5), n, p),
                          bt=BacktrackingConfig(gamma_initial=0.01), stop=StoppingConfig(max_iters=30))
    trials = [k for k in seen if k > 0]
    assert rec.iters[-1] == 30 and len(trials) > 60  # rejected trials among them
    first = 2 if solver == "gdm-cp" else 1
    assert trials == list(range(first, len(kernels) + 1))
    if solver == "gdm-polar":
        assert factors == []


def test_gdm_cp_retraction_compares_no_frames(monkeypatch):
    # The anchor is held as the start vector's base and every pulled-back
    # gradient shares it, so V - gamma G never compares two frames.
    f = problems.distance_cost(problems.random_stiefel(np.random.default_rng(22), 200, 20))
    u0 = problems.random_stiefel(np.random.default_rng(23), 200, 20)
    array_equal, compared = np.array_equal, []

    def counting_array_equal(*args, **kwargs):
        compared.append(1)
        return array_equal(*args, **kwargs)

    monkeypatch.setattr(np, "array_equal", counting_array_equal)
    rec = run_gdm_cp_retraction(f, u0, u0.copy(), stop=StoppingConfig(max_iters=20))
    assert rec.iters[-1] == 20 and compared == []


def test_solvers_agree_on_medium_eigen():
    # all strategies drive the same instance to the known optimum
    n, p = 16, 3
    inst = problems.make_eigen_instance(n, p, seed=6)
    f = problems.eigen_cost(inst)
    rng = np.random.default_rng(6)
    u0 = problems.random_stiefel(rng, n, p)
    stop = StoppingConfig(max_iters=3000, fval_rel_tol=1e-14)
    finals = [
        run_gdm_cp(f, u0, stop=stop).fvals[-1],
        run_gdm_cp_retraction(f, u0, u0, stop=stop).fvals[-1],
        run_gdm_retraction(f, u0, "qr", stop=stop).fvals[-1],
        run_gdm_retraction(f, u0, "polar", stop=stop).fvals[-1],
        run_gdm_retraction(f, u0, "cayley", stop=stop).fvals[-1],
    ]
    for fv in finals:
        assert abs(fv - inst.optimum_value) <= 1e-6 * abs(inst.optimum_value)
