"""Saddle-point splitting solvers that tolerate an inexact adjoint.

The package carries a forward operator and a surrogate backward operator as
an explicit pair, quantifies the mismatch, certifies existence of a
perturbed fixed point, selects step sizes with a linear-rate certificate,
and runs matched, mismatched, and adapted Douglas-Rachford-type iterations
side by side with a primal-dual hybrid gradient baseline.
"""

from .operators import (
    FunctionOperator,
    InnerSystemSolver,
    MatrixOperator,
    MismatchPair,
    PowerIterationError,
    ScaledIdentity,
    SingularInnerSystemError,
    VStackMap,
    estimate_operator_norm,
    estimate_sigma_min,
    load_operator_csv,
)
from .proximal import (
    ProxFn,
    prox_box_dual,
    prox_convex_shifted,
    prox_identity,
    prox_scaled_quadratic,
)
from .solvers import (
    CPStepper,
    PDDRStepper,
    RunResult,
    SaddleProblem,
    SolverState,
    StoppingRule,
    gaussian_state,
    run,
    zero_state,
)
from .stepsize import (
    CertificateError,
    ConvexityProfile,
    StepPlan,
    certify_weak,
    compute_plan,
    monotonicity_c,
    select_mus,
)
from .analysis import (
    FixedPointReport,
    error_bound,
    fixed_point_report,
    inclusion_residual,
    quadratic_reference,
)
from .experiments import (
    QuadraticConfig,
    RunReport,
    TomoConfig,
    emit_report,
    run_counterexample,
    run_quadratic,
    run_tomography,
)
from .tomo import (
    NeumannGradient,
    ParallelGeometry,
    ProjectorPair,
    build_projector_pair,
    gradient_matrix,
    make_sinogram,
    pixel_driven_matrix,
    ray_driven_matrix,
    shepp_logan_phantom,
)

__version__ = "0.1.0"
