"""Problem-library tests: instance generation, the two cost functions,
rotation centers and the stochastic family."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from stiefel_cayley import linalg, problems

from oracles import embed, stationarity_residual


def fd_check(f, u, rng, dirs=20, step=1e-6):
    """Worst relative error of grad against central differences."""
    g = f.grad(u)
    worst = 0.0
    for _ in range(dirs):
        e = rng.standard_normal(u.shape)
        e /= np.linalg.norm(e)
        fd = (f.eval(u + step * e) - f.eval(u - step * e)) / (2.0 * step)
        worst = max(worst, abs(fd - np.tensordot(g, e)) / max(1.0, abs(fd)))
    return worst


# ------------------------------------------------------------- instances


def test_make_eigen_instance_takes_integer_sizes():
    for n, p in ((10, 2.5), (10.0, 2), (10, math.nan)):
        with pytest.raises(TypeError):
            problems.make_eigen_instance(n, p, 0)
    inst = problems.make_eigen_instance(np.int64(10), np.int64(2), 0)
    assert (inst.n, inst.p) == (10, 2) and inst.a.shape == (10, 10)


def test_make_eigen_instance_deterministic():
    a = problems.make_eigen_instance(20, 4, seed=42)
    b = problems.make_eigen_instance(20, 4, seed=42)
    assert np.array_equal(a.a, b.a)
    assert a.optimum_value == b.optimum_value
    assert np.array_equal(a.optimum_basis, b.optimum_basis)
    c = problems.make_eigen_instance(20, 4, seed=43)
    assert not np.array_equal(a.a, c.a)


def test_eigen_instance_is_the_same_at_every_blas_thread_count():
    # Split across threads, the n^3 Gram product sums in another order; the
    # instance is built at one OpenBLAS thread, and the count is restored.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if blas != "scipy-openblas":
        pytest.skip(f"numpy links {blas}, not the OpenBLAS it bundles")
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps its threads at the core count")
    script = ("import ctypes, hashlib; from stiefel_cayley import linalg, problems; "
              "inst = problems.make_eigen_instance(500, 10, 7); "
              "print(hashlib.sha256(inst.a.tobytes()).hexdigest(), "
              "hashlib.sha256(inst.optimum_basis.tobytes()).hexdigest(), "
              "linalg._openblas_function('get_num_threads', ctypes.c_int)())")
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.dirname(os.path.dirname(problems.__file__)))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        *digests, after = run.stdout.split()
        assert after == threads
        out[threads] = digests
    assert out["1"] == out["2"]


def test_instance_shape_and_spectrum():
    inst = problems.make_eigen_instance(15, 3, seed=0)
    assert np.linalg.norm(inst.a - inst.a.T) <= 1e-12 * np.linalg.norm(inst.a)
    evals = np.linalg.eigvalsh(inst.a)
    assert evals.min() >= -1e-10  # Gram construction is PSD
    assert abs(inst.optimum_value + float(np.sum(evals[-3:]))) <= 1e-10
    assert linalg.feasibility(inst.optimum_basis) <= 1e-13


def test_optimum_basis_is_stationary_and_optimal():
    inst = problems.make_eigen_instance(18, 4, seed=1)
    f = problems.eigen_cost(inst)
    assert stationarity_residual(inst.optimum_basis, f) <= 1e-8
    assert abs(f.eval(inst.optimum_basis) - inst.optimum_value) <= 1e-10
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = problems.random_stiefel(rng, 18, 4)
        assert f.eval(u) >= inst.optimum_value - 1e-10


# ------------------------------------------------------------------ costs


def test_eigen_cost_identity_matrix():
    n, p = 9, 3
    inst = problems.EigenInstance(
        n=n, p=p, a=np.eye(n),
        optimum_value=-float(p), optimum_basis=np.eye(n)[:, :p])
    f = problems.eigen_cost(inst)
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = problems.random_stiefel(rng, n, p)
        assert abs(f.eval(u) + p) <= 1e-12


def test_eigen_cost_right_invariance():
    inst = problems.make_eigen_instance(12, 4, seed=3)
    f = problems.eigen_cost(inst)
    rng = np.random.default_rng(3)
    u = problems.random_stiefel(rng, 12, 4)
    for _ in range(10):
        q = problems.random_stiefel(rng, 4, 4)
        assert abs(f.eval(u @ q) - f.eval(u)) <= 1e-12 * max(1.0, abs(f.eval(u)))


def test_cost_gradients_pass_finite_differences():
    rng = np.random.default_rng(4)
    inst = problems.make_eigen_instance(10, 3, seed=4)
    target = problems.random_stiefel(rng, 10, 3)
    for f in (problems.eigen_cost(inst), problems.distance_cost(target)):
        u = problems.random_stiefel(rng, 10, 3)
        assert fd_check(f, u, rng) <= 1e-5


def _eigen_costs():
    """Eigen costs on either side of the A U size rule's p N^2 = 100^3 at
    p = 10, and one stochastic draw above it."""
    small = problems.make_eigen_instance(200, 10, seed=10)
    large = problems.make_eigen_instance(500, 10, seed=11)
    fam = problems.stochastic_eigen_family(large, noise_sigma=1.0, seed=12)
    return {"n200": problems.eigen_cost(small), "n500": problems.eigen_cost(large),
            "n500-draw": fam.draw(3)}


def _matrix_of(f):
    """The matrix of a trace cost, read off its gradient at blocks of
    identity columns (products with 0 and 1 are exact)."""
    eye = np.eye(f.dim_n)
    cols = [-0.5 * f.grad(eye[:, j:j + f.dim_p]) for j in range(0, f.dim_n, f.dim_p)]
    return np.hstack(cols)


def _gram(n, seed):
    """An exactly symmetric PSD matrix built like an eigen instance's."""
    g = np.random.default_rng(seed).standard_normal((n, n))
    a = g.T @ g
    return (a + a.T) / 2.0


def _a_u_bits(a, u):
    """``A U`` summed in the order :func:`linalg._mm` uses."""
    n, p = u.shape
    rows = linalg.SMALL_PRODUCT_MAX // (n * p)
    if rows >= n or rows == 0:
        return a @ u
    assert rows * n * p <= linalg.SMALL_PRODUCT_MAX
    return np.vstack([a[i:i + rows] @ u for i in range(0, n, rows)])


# (n, p) on both sides of p N^2 = 100^3 at p = 1, 2, 10, 20 and 30, and two
# more shapes with several row blocks above it
SIZE_RULE_SIDES = [
    (1000, 1), (1001, 1), (707, 2), (708, 2), (316, 10), (317, 10),
    (223, 20), (224, 20), (182, 30), (183, 30), (500, 10), (1000, 2),
]


def test_eigen_cost_members_agree_bitwise_and_with_the_formulas(monkeypatch):
    cases = [(name, f, _matrix_of(f)) for name, f in _eigen_costs().items()]
    for n, p in SIZE_RULE_SIDES:
        a = _gram(n, seed=n * p)
        cases.append((f"{n}x{p}", problems._trace_cost(a, n, p), a))
    for name, f, a in cases:
        rng = np.random.default_rng(13)
        for _ in range(3):
            u = problems.random_stiefel(rng, f.dim_n, f.dim_p)
            value, grad = f.value_and_grad(u)
            assert value == f.eval(u), name
            assert np.array_equal(grad, f.grad(u)) and grad.flags.c_contiguous, name
            ref_value = -float(np.trace(u.T @ a @ u))
            assert abs(value - ref_value) <= 1e-14 * abs(ref_value), name
            ref_grad = -2.0 * (a @ u)
            assert np.linalg.norm(grad - ref_grad) <= 1e-14 * np.linalg.norm(ref_grad), name
            # plain A @ U at or below the limit, row blocks above it
            assert np.array_equal(grad, -2.0 * _a_u_bits(a, u)), name
    # a single row over the limit is a plain A @ U
    monkeypatch.setattr(linalg, "SMALL_PRODUCT_MAX", 99)
    a = _gram(20, seed=18)
    u = problems.random_stiefel(np.random.default_rng(19), 20, 5)
    assert np.array_equal(problems._trace_cost(a, 20, 5).grad(u), -2.0 * (a @ u))


def test_blocked_product_needs_no_symmetry():
    # the row blocks are A U for any A
    n, p = 500, 10
    a = np.random.default_rng(15).standard_normal((n, n))
    assert not np.array_equal(a, a.T)
    f = problems._trace_cost(a, n, p)
    u = problems.random_stiefel(np.random.default_rng(16), n, p)
    value, grad = f.value_and_grad(u)
    ref_grad = -2.0 * (a @ u)
    assert np.linalg.norm(grad - ref_grad) <= 1e-14 * np.linalg.norm(ref_grad)
    ref_value = -float(np.vdot(u, a @ u))
    assert abs(value - ref_value) <= 1e-14 * np.linalg.norm(a @ u)
    assert np.array_equal(grad, -2.0 * _a_u_bits(a, u))


def test_eigen_matrices_are_exactly_symmetric():
    # eigh reads one triangle, so the instance's optimum is the optimum of
    # the cost's A only when A is exactly symmetric
    for n in (15, 500):
        a = problems.make_eigen_instance(n, 3, seed=n).a
        assert np.array_equal(a, a.T)
    a = _matrix_of(_eigen_costs()["n500-draw"])
    assert np.array_equal(a, a.T)


def test_distance_cost_at_target():
    rng = np.random.default_rng(5)
    target = problems.random_stiefel(rng, 8, 2)
    f = problems.distance_cost(target)
    assert f.eval(target) == 0.0
    assert np.all(f.grad(target) == 0.0)
    u = problems.random_stiefel(rng, 8, 2)
    assert f.eval(u) == pytest.approx(0.5 * np.linalg.norm(u - target) ** 2)


def test_distance_cost_checks_its_target():
    target = problems.random_stiefel(np.random.default_rng(5), 8, 2)
    for bad in (math.nan, math.inf):
        corrupt = target.copy()
        corrupt[3, 1] = bad
        with pytest.raises(ValueError, match="target contains NaN or Inf"):
            problems.distance_cost(corrupt)
    with pytest.raises(linalg.DimensionError):
        problems.distance_cost(target[:, 0])


# ------------------------------------------------------------ rotations


def test_rotation_center_identity_at_zero():
    center, left = problems.rotation_center(0.0, 7, 3)
    assert np.array_equal(embed(center), np.eye(7))
    assert np.array_equal(left, np.eye(7)[:, :3])
    with pytest.raises(linalg.DimensionError):
        problems.rotation_center(1.0, 5, 1)


def test_rotation_center_overlap_determinant():
    # det(I_p + S(theta)_le^T S(pi)_le) = 2^(p-1) (1 - cos theta)
    for n, p in ((6, 2), (9, 3), (12, 5)):
        _, target = problems.rotation_center(math.pi, n, p)
        for theta in (math.pi / 1000, math.pi / 7, math.pi / 4, math.pi / 2,
                      2.0, math.pi):
            _, left = problems.rotation_center(theta, n, p)
            det = float(np.linalg.det(np.eye(p) + left.T @ target))
            expected = 2.0 ** (p - 1) * (1.0 - math.cos(theta))
            assert abs(det - expected) <= 1e-12 * max(1.0, expected)
        # at the target itself the overlap determinant peaks at 2^p
        det = float(np.linalg.det(np.eye(p) + target.T @ target))
        assert abs(det - 2.0**p) <= 1e-12 * 2.0**p


# ------------------------------------------------------------- stochastic


def test_stochastic_family_degenerate_and_seeded():
    inst = problems.make_eigen_instance(10, 2, seed=6)
    fam0 = problems.stochastic_eigen_family(inst, noise_sigma=0.0, seed=0)
    rng = np.random.default_rng(6)
    u = problems.random_stiefel(rng, 10, 2)
    assert fam0.draw(3).eval(u) == fam0.mean_cost.eval(u)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            problems.stochastic_eigen_family(inst, noise_sigma=bad, seed=0)
    fam = problems.stochastic_eigen_family(inst, noise_sigma=1.0, seed=7)
    assert fam.draw(5).eval(u) == fam.draw(5).eval(u)
    assert fam.draw(5).eval(u) != fam.draw(6).eval(u)


def test_stochastic_family_takes_integer_seeds_and_draws():
    inst = problems.make_eigen_instance(10, 2, seed=6)
    u = problems.random_stiefel(np.random.default_rng(6), 10, 2)
    fam = problems.stochastic_eigen_family(inst, noise_sigma=1.0, seed=np.int64(7))
    assert type(fam.seed) is int and fam.seed == 7
    assert fam.draw(np.int64(1)).eval(u) == fam.draw(1).eval(u)
    with pytest.raises(TypeError):
        problems.stochastic_eigen_family(inst, noise_sigma=1.0, seed=2.5)
    with pytest.raises(TypeError):
        fam.draw(1.7)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        problems.stochastic_eigen_family(inst, noise_sigma=1.0, seed=-1)


def test_stochastic_family_moments():
    n, p = 12, 2
    sigma = 1.7
    inst = problems.make_eigen_instance(n, p, seed=8)
    fam = problems.stochastic_eigen_family(inst, noise_sigma=sigma, seed=9)
    rng = np.random.default_rng(8)
    u = problems.random_stiefel(rng, n, p)
    g_mean = fam.mean_cost.grad(u)
    draws = 4000
    acc = np.zeros_like(g_mean)
    sq = np.empty(draws)
    for k in range(draws):
        diff = fam.draw(k).grad(u) - g_mean
        acc += diff
        sq[k] = np.sum(diff * diff)
    # empirical mean of the gradient within 3 standard errors, entrywise
    se_mean = sigma / math.sqrt(draws * g_mean.size)
    assert np.max(np.abs(acc / draws)) <= 3.0 * se_mean * math.sqrt(g_mean.size)
    # empirical variance matches the calibrated sigma^2
    var = float(np.mean(sq))
    se_var = float(np.std(sq, ddof=1)) / math.sqrt(draws)
    assert abs(var - sigma**2) <= 4.0 * se_var
