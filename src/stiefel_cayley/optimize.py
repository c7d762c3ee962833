"""Gradient descent on the parametrized manifold and its baselines.

Five solvers share one descent loop (:func:`_descend`), one Armijo
backtracking rule and one three-clause stopping test.  Each solver
supplies its own trial step at a step size gamma; they differ only in the
variable that step updates and how:

* :func:`run_gdm_cp` -- the variable is a skew parameter at a center and
  the step is plain vector arithmetic, ``V - gamma G``; every iterate is
  mapped back through the inverse transform, so feasibility holds to
  roundoff by construction.
* :func:`run_gdm_cp_retraction` -- the variable is a tangent vector at a
  fixed anchor frame, again stepped as ``V - gamma G``, and each trial
  frame comes from the Cayley retraction at the anchor; the gradient is
  the retraction's pullback.
* :func:`run_gdm_retraction` -- classic retraction-based steepest descent
  (QR, polar, or Cayley): the variable is the frame itself and the step is
  ``R_U(-gamma G)`` with the Riemannian gradient ``G`` at ``U``.

Every line-search trial makes one fused call to the cost,
:meth:`CostFunction.value_and_grad`.  The next descent gradient is built
from the accepted trial's ambient gradient and, for the Cayley solvers,
its kernel (inverse map or Cayley retraction), so an accepted step makes
no further call to the cost.

Every solver checks its start frame once, on entry: it must have the
cost's shape and orthonormal columns.  A trial that raises
:class:`linalg.RankError` is a failed trial.  :func:`_check_stop` picks
every stop reason but one: a line search that finds no sufficient
decrease ends the run at the last accepted frame.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from . import linalg
from .cayley import (
    Center,
    SkewParam,
    _gram_norm,
    check_stiefel,
    construct_center,
    forward,
    inverse,
)
from .gradients import CostFunction, pullback_from_euclidean
from .retractions import (
    TangentVector,
    inverse_retract_cayley,
    grad_retraction_pullback,
    project_tangent,
    retract_cayley,
    retract_polar,
    retract_qr,
    riemannian_grad,
)

__all__ = [
    "BacktrackingConfig",
    "StoppingConfig",
    "RunRecord",
    "run_gdm_cp",
    "run_gdm_cp_retraction",
    "run_gdm_retraction",
    "RETRACTION_KINDS",
]

#: Stop reasons a run can record.
STOP_STATIONARY = "stationary start"
STOP_MAX_ITERS = "max iterations"
STOP_GRAD_RATIO = "gradient ratio"
STOP_FVAL_CHANGE = "relative f-value change"
STOP_STALL = "line-search stall"

#: ``run_gdm_cp`` without a caller-supplied center rebuilds its center when
#: an accepted parameter has ``||B||_2`` above this value.
#: :func:`construct_center` guarantees ``||B||_2 <= 1`` at the frame it is
#: built from, but slow runs drift to about 1.0-1.24 without harm, while
#: large early steps overshoot to 4-11, where the inverse map barely moves
#: the frame.  On the eigen-race run a threshold of 1 took 288 steps to
#: tolerance against 255 at 3; see CHANGES.md, the entry
#: "Criterion 9 mended in the program".
RECENTER_B_NORM = 3.0


def _recenter_needed(btb: np.ndarray) -> bool:
    """Whether ``||B||_2 > RECENTER_B_NORM``, from the Gram matrix
    ``B^T B``.

    The 1-norm of ``B^T B`` bounds its largest eigenvalue ``||B||_2^2``
    from above, so a 1-norm at or below ``RECENTER_B_NORM^2`` settles the
    question for three p-by-p reductions, and only a larger one takes the
    eigenvalue problem of :func:`cayley._gram_norm`.  The screen keeps a
    margin of 1e-8 relative, far beyond the rounding of either side, so
    every decision is the one ``_gram_norm`` alone would make.
    """
    bound = RECENTER_B_NORM**2
    if np.abs(btb).sum(axis=0).max() <= bound * (1.0 - 1e-8):
        return False
    return _gram_norm(btb) > RECENTER_B_NORM


#: The Armijo line search's constants (:func:`_backtrack_full`): a trial at
#: step ``gamma`` passes when ``f <= f0 - ARMIJO_C gamma ||g||^2``, each
#: failed one multiplies ``gamma`` by ``ARMIJO_RHO``, and after
#: ``MAX_HALVINGS + 1`` failed trials the run ends on the stall clause.  At
#: 1/2 every ``gamma_initial ARMIJO_RHO^k`` is exact in binary, so an
#: accepted step ``gamma`` took ``1 + log2(gamma_initial / gamma)`` trials.
ARMIJO_C = 2.0**-13
ARMIJO_RHO = 0.5
MAX_HALVINGS = 60


@dataclass(frozen=True)
class BacktrackingConfig:
    """The Armijo line search's one setting: the step starts at
    ``gamma_initial`` every iteration and is multiplied by
    :data:`ARMIJO_RHO` until the sufficient-decrease test with slope
    fraction :data:`ARMIJO_C` passes, for at most :data:`MAX_HALVINGS`
    shrinkages."""

    gamma_initial: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.gamma_initial < math.inf:
            raise ValueError(f"gamma_initial must be positive and finite, got {self.gamma_initial}")


@dataclass(frozen=True)
class StoppingConfig:
    """Three-clause stopping rule, checked in declaration order."""

    max_iters: int = 5000
    grad_ratio_tol: float = 1e-10
    fval_rel_tol: float = 1e-20

    def __post_init__(self):
        if operator.index(self.max_iters) <= 0:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if not 0.0 < self.grad_ratio_tol < math.inf:
            raise ValueError(
                f"grad_ratio_tol must be positive and finite, got {self.grad_ratio_tol}")
        if not 0.0 < self.fval_rel_tol < math.inf:
            raise ValueError(f"fval_rel_tol must be positive and finite, got {self.fval_rel_tol}")


@dataclass
class RunRecord:
    """Per-iteration trajectory of one solver run.

    Parallel lists indexed by recorded iterate (entry 0 is the starting
    point): iteration number, cost value, gradient norm in the geometry the
    algorithm descends in, orthonormality defect of the frame, and
    cumulative wall-clock seconds since the algorithm body started.
    ``recenter_iters`` lists the iterations after whose step ``run_gdm_cp``
    rebuilt its center (always empty for the other solvers).
    """

    iters: List[int] = field(default_factory=list)
    fvals: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)
    feasibilities: List[float] = field(default_factory=list)
    times: List[float] = field(default_factory=list)
    recenter_iters: List[int] = field(default_factory=list)
    final_u: Optional[np.ndarray] = None
    stop_reason: str = ""

    def append(self, it: int, fval: float, gnorm: float, feasi: float, t: float):
        if self.iters and it <= self.iters[-1]:
            raise ValueError("iteration numbers must be strictly increasing")
        self.iters.append(int(it))
        self.fvals.append(float(fval))
        self.grad_norms.append(float(gnorm))
        self.feasibilities.append(float(feasi))
        self.times.append(float(t))


def _backtrack_full(
    step: Callable,
    x,
    g,
    f0: float,
    g_norm_sq: float,
    cfg: BacktrackingConfig,
):
    """Armijo backtracking over ``gamma_initial ARMIJO_RHO^k``, largest first.

    ``step(x, g, gamma)`` is the solver's trial at step size ``gamma``: it
    returns ``(fval, candidate, payload)``, and raising
    :class:`linalg.RankError` counts as a failed trial (the step was too
    large to evaluate at all).  Returns ``(gamma, fval, candidate,
    payload)`` for the first trial with sufficient decrease, or ``None``
    when none of the ``MAX_HALVINGS + 1`` trials has it.
    """
    gamma = cfg.gamma_initial
    for _ in range(MAX_HALVINGS + 1):
        try:
            f_new, cand, payload = step(x, g, gamma)
        except linalg.RankError:
            pass
        else:
            if f_new <= f0 - ARMIJO_C * gamma * g_norm_sq:
                return gamma, f_new, cand, payload
        gamma *= ARMIJO_RHO
    return None


def _check_stop(
    n: int,
    d_cur: float,
    d0: float,
    f_cur: float,
    f_prev: float,
    stop: StoppingConfig,
) -> Optional[str]:
    """First stopping clause that fires at iterate ``n``, if any;
    ``f_prev`` is NaN before the first step."""
    if d0 == 0.0:
        return STOP_STATIONARY
    if n >= stop.max_iters:
        return STOP_MAX_ITERS
    if d_cur <= stop.grad_ratio_tol * d0:
        return STOP_GRAD_RATIO
    if abs(f_cur - f_prev) <= stop.fval_rel_tol * abs(f_cur):
        return STOP_FVAL_CHANGE
    return None


def _check_frame(f: CostFunction, u, what: str) -> np.ndarray:
    """``u`` as a float64 frame of the cost's shape with orthonormal columns.

    Raises
    ------
    DimensionError
        If ``u`` is not ``f.dim_n``-by-``f.dim_p``.
    ValueError
        If its columns are not orthonormal (see :func:`check_stiefel`).
    """
    if np.shape(u) != (f.dim_n, f.dim_p):
        raise linalg.DimensionError(
            f"{what} has shape {np.shape(u)}, the cost expects {(f.dim_n, f.dim_p)}"
        )
    return check_stiefel(u)


def _descend(
    f: CostFunction,
    u0: np.ndarray,
    bt: Optional[BacktrackingConfig],
    stop: Optional[StoppingConfig],
    setup: Callable,
) -> RunRecord:
    """The descent loop every solver runs.

    Checks the start frame (:func:`_check_frame`), fills in the default
    configurations, starts the clock and the record, and calls
    ``setup(u0, record)``, which returns ``(x0, g0, f0, step, reanchor)``:

    * ``x0`` is the start variable, ``g0`` its gradient in the descent
      geometry and ``f0`` the cost at ``u0``;
    * ``step(x, g, gamma)`` is the line-search trial at step size
      ``gamma`` (see :func:`_backtrack_full`): it forms the candidate
      variable, makes one fused call to the cost
      (:meth:`CostFunction.value_and_grad`) at the candidate's frame and
      returns ``(fval, candidate, payload)``, with the ambient gradient in
      the payload; a :class:`linalg.RankError` it raises is a failed trial;
    * ``reanchor(n, x, payload)`` runs after each accepted step ``n`` and
      returns ``(x, u, g)``: the variable to continue from (it may
      re-express the same frame in new coordinates), the frame, and the
      gradient at ``x``, built from the payload's ambient gradient without
      another call to the cost.
    """
    bt = bt or BacktrackingConfig()
    stop = stop or StoppingConfig()
    u = _check_frame(f, u0, "start frame")
    t0 = time.perf_counter()
    record = RunRecord()
    x, g, f_cur, step, reanchor = setup(u, record)
    f_cur = float(f_cur)
    d0 = g_norm = g.norm()
    record.append(0, f_cur, d0, linalg.feasibility(u), time.perf_counter() - t0)
    f_prev = math.nan
    n = 0
    while True:
        reason = _check_stop(n, g_norm, d0, f_cur, f_prev, stop)
        if reason is not None:
            record.stop_reason = reason
            break
        accepted = _backtrack_full(step, x, g, f_cur, g_norm**2, bt)
        if accepted is None:
            record.stop_reason = STOP_STALL
            break
        _, f_new, x, payload = accepted
        n += 1
        f_prev, f_cur = f_cur, f_new
        x, u, g = reanchor(n, x, payload)
        g_norm = g.norm()
        record.append(n, f_cur, g_norm, linalg.feasibility(u), time.perf_counter() - t0)
    record.final_u = u
    return record


def run_gdm_cp(
    f: CostFunction,
    u0: np.ndarray,
    center: Optional[Center] = None,
    bt: Optional[BacktrackingConfig] = None,
    stop: Optional[StoppingConfig] = None,
) -> RunRecord:
    """Gradient descent in the skew parameter space of a center.

    Each iteration updates ``V <- V - gamma * grad`` with an Armijo step and
    maps back through the inverse transform, so every recorded frame is
    orthonormal to roundoff.

    A supplied center stays fixed for the whole run.  Without one,
    :func:`construct_center` builds one from the start frame (so
    ``||B||_2 <= 1`` there) and rebuilds it from the current frame after
    any accepted step whose parameter has ``||B||_2 > RECENTER_B_NORM``,
    re-mapping the parameter with :func:`forward`.  A rebuild leaves the
    frame and the cost value unchanged, so descent stays monotone and
    feasible; ``RunRecord.recenter_iters`` lists the iterations it
    followed.  The accepted trial's inverse-map kernel gives ``B^T B`` to
    the re-centering test (:func:`_recenter_needed`) and ``M^{-1}`` to the
    pullback, unless a rebuild re-mapped the parameter.

    Raises
    ------
    DimensionError, ValueError
        If the start frame has the wrong shape or is not orthonormal.
    SingularPointError
        If the start frame is on the excluded set of the supplied center
        (a configuration error: pick another center).
    """

    def setup(u0: np.ndarray, record: RunRecord):
        s = construct_center(u0) if center is None else center

        def step(v: SkewParam, g: SkewParam, gamma: float):
            v_cand = v._minus_scaled(gamma, g)
            kernel = inverse(s, v_cand, _return_kernel=True)
            fval, g_euclid = f.value_and_grad(kernel.frame)
            return fval, v_cand, (kernel, g_euclid)

        def reanchor(n: int, v: SkewParam, payload):
            nonlocal s
            kernel, g_euclid = payload
            u = kernel.frame
            if center is None and _recenter_needed(kernel.btb):
                s = construct_center(u)
                v = forward(s, u)
                record.recenter_iters.append(n)
                kernel = None  # the new parameter has another B and M
            return v, u, pullback_from_euclidean(s, v, g_euclid, kernel=kernel)

        v0 = forward(s, u0)
        f0, g_euclid = f.value_and_grad(u0)
        g0 = pullback_from_euclidean(s, v0, g_euclid)
        return v0, g0, f0, step, reanchor

    return _descend(f, u0, bt, stop, setup)


def run_gdm_cp_retraction(
    f: CostFunction,
    u_anchor: np.ndarray,
    u0: np.ndarray,
    bt: Optional[BacktrackingConfig] = None,
    stop: Optional[StoppingConfig] = None,
) -> RunRecord:
    """Gradient descent in the tangent space at a fixed anchor frame.

    The start frame is lifted through the inverse Cayley retraction at the
    anchor (zero when they coincide, in which case the first iteration
    matches plain Cayley-retraction steepest descent); updates move the
    tangent coordinate and re-retract.

    Raises
    ------
    DimensionError, ValueError
        If the anchor or the start frame has the wrong shape or is not
        orthonormal.
    SingularPointError
        If the start frame is outside the retraction's range from the
        anchor.
    """
    u_anchor = _check_frame(f, u_anchor, "anchor frame")

    def step(v: TangentVector, g: TangentVector, gamma: float):
        v_cand = v - gamma * g
        kernel = retract_cayley(u_anchor, v_cand, _return_kernel=True)
        fval, g_euclid = f.value_and_grad(kernel.frame)
        return fval, v_cand, (kernel, g_euclid)

    def reanchor(n: int, v: TangentVector, payload):
        kernel, g_euclid = payload
        return v, kernel.frame, grad_retraction_pullback(u_anchor, v, f, g=g_euclid, kernel=kernel)

    def setup(u0: np.ndarray, record: RunRecord):
        v0 = inverse_retract_cayley(u_anchor, u0)
        g0 = grad_retraction_pullback(u_anchor, v0, f)
        return v0, g0, f.eval(u0), step, reanchor

    return _descend(f, u0, bt, stop, setup)


#: Retraction dispatch for :func:`run_gdm_retraction`.
RETRACTION_KINDS = {
    "qr": retract_qr,
    "polar": retract_polar,
    "cayley": retract_cayley,
}


def run_gdm_retraction(
    f: CostFunction,
    u0: np.ndarray,
    kind: str,
    bt: Optional[BacktrackingConfig] = None,
    stop: Optional[StoppingConfig] = None,
) -> RunRecord:
    """Retraction-based steepest descent with the chosen retraction.

    Each iteration projects the ambient gradient onto the tangent space at
    the current frame and retracts along its negative, with the Armijo test
    ``f(R_U(-gamma D)) <= f(U) - ARMIJO_C gamma ||D||_F^2``.

    Raises
    ------
    DimensionError, ValueError
        If the start frame has the wrong shape or is not orthonormal, or
        ``kind`` is not a key of :data:`RETRACTION_KINDS`.
    """
    if kind not in RETRACTION_KINDS:
        raise ValueError(f"unknown retraction kind {kind!r}; choose from {sorted(RETRACTION_KINDS)}")
    retraction = RETRACTION_KINDS[kind]

    def step(u: np.ndarray, g: TangentVector, gamma: float):
        u_cand = retraction(u, -gamma * g)
        fval, g_euclid = f.value_and_grad(u_cand)
        return fval, u_cand, g_euclid

    def reanchor(n: int, u: np.ndarray, g_euclid: np.ndarray):
        return u, u, project_tangent(u, g_euclid)

    def setup(u0: np.ndarray, record: RunRecord):
        f0 = f.eval(u0)
        return u0, riemannian_grad(u0, f), f0, step, reanchor

    return _descend(f, u0, bt, stop, setup)
