"""Cayley-parametrized optimization on the Stiefel manifold.

The package turns orthonormality-constrained minimization into
unconstrained descent: a left-localized Cayley transform maps a dense
subset of the feasible set onto a vector space of structured
skew-symmetric parameters, where plain gradient methods apply and every
iterate maps back to a frame that is orthonormal to roundoff.
Retraction-based baselines (QR, polar, Cayley) and a benchmark
CLI round out the toolkit.

README.md, section "Layout", says what each module holds.
"""

from .cayley import (
    Center,
    SingularPointError,
    SkewParam,
    align_right_invariant,
    check_stiefel,
    construct_center,
    forward,
    inverse,
    mobility,
    singular_diagnostic,
)
from .gradients import (
    BoundReport,
    CostFunction,
    check_gradient_bounds,
    grad_pullback,
)
from .linalg import (
    DimensionError,
    FactorizationError,
    RankError,
    SingularMatrixError,
    feasibility,
)
from .optimize import (
    BacktrackingConfig,
    RunRecord,
    StoppingConfig,
    run_gdm_cp,
    run_gdm_cp_retraction,
    run_gdm_retraction,
)
from .problems import (
    EigenInstance,
    distance_cost,
    eigen_cost,
    make_eigen_instance,
    rotation_center,
    stochastic_eigen_family,
)
from .retractions import (
    TangentVector,
    grad_retraction_pullback,
    inverse_retract_cayley,
    project_tangent,
    retract_cayley,
    retract_polar,
    retract_qr,
    riemannian_grad,
)

__version__ = "0.1.0"

__all__ = [
    "BacktrackingConfig",
    "BoundReport",
    "Center",
    "CostFunction",
    "DimensionError",
    "EigenInstance",
    "FactorizationError",
    "RankError",
    "RunRecord",
    "SingularMatrixError",
    "SingularPointError",
    "SkewParam",
    "StoppingConfig",
    "TangentVector",
    "align_right_invariant",
    "check_gradient_bounds",
    "check_stiefel",
    "construct_center",
    "distance_cost",
    "eigen_cost",
    "feasibility",
    "forward",
    "grad_pullback",
    "grad_retraction_pullback",
    "inverse",
    "inverse_retract_cayley",
    "make_eigen_instance",
    "mobility",
    "project_tangent",
    "retract_cayley",
    "retract_polar",
    "retract_qr",
    "riemannian_grad",
    "rotation_center",
    "run_gdm_cp",
    "run_gdm_cp_retraction",
    "run_gdm_retraction",
    "singular_diagnostic",
    "stochastic_eigen_family",
    "__version__",
]
