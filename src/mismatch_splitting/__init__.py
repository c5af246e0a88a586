"""Saddle-point splitting solvers that tolerate an inexact adjoint.

The package carries a forward operator and a surrogate backward operator as
an explicit pair, quantifies the mismatch, certifies existence of a
perturbed fixed point, selects step sizes with a linear-rate certificate,
and runs matched, mismatched, and adapted Douglas-Rachford-type iterations
side by side with a primal-dual hybrid gradient baseline.
"""

from .operators import (
    BlockSkewOperator,
    DifferenceMap,
    FunctionOperator,
    InnerSystemSolver,
    LinearMap,
    MatrixOperator,
    MismatchPair,
    PowerIterationError,
    ScaledIdentity,
    SingularInnerSystemError,
    VStackMap,
    ZeroOperator,
    adjoint_defect,
    estimate_operator_norm,
    estimate_sigma_min,
    load_operator_csv,
    save_operator_csv,
)
from .proximal import (
    ProxFn,
    firm_nonexpansiveness_defect,
    project_linf2,
    prox_box_dual,
    prox_convex_shifted,
    prox_identity,
    prox_l1,
    prox_linf2_ball,
    prox_scaled_quadratic,
    soft_threshold,
)
from .solvers import (
    CPStepper,
    LiftedState,
    PDDRStepper,
    RunResult,
    SaddleProblem,
    SolverState,
    StoppingRule,
    gaussian_state,
    run,
    step_lifted_ppp,
    zero_state,
)
from .stepsize import (
    CertificateError,
    ConvexityProfile,
    StepPlan,
    certify_weak,
    compute_plan,
    monotonicity_c,
    predicted_rate,
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
