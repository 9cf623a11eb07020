"""saddleflow: saddle flow dynamics for convex-concave problems.

Saddle problems and their transformations (augmented, proximal,
preconditioned, reduced, and the Lasso pipeline), one flow constructor for
all of them (``standard_flow``, projected onto the problem's domain) plus
one flow with a field of its own, observable convergence certificates and
exponential-rate bounds, a fixed-step integrator with empirical rate
fitting, and desk-scale problem builders with independent oracles.
"""

from .core import (
    ConstraintMap,
    ConvexityMeta,
    ConvexObjective,
    DimensionMismatchError,
    PointZ,
    SaddleProblem,
    full_domain,
    grad,
    saddle_inequality_check,
    stationarity_residual,
)
from .projection import FeasibleSet, project_point, project_vector_field
from .transforms import (
    AugmentedProblem,
    InnerSolveError,
    LassoDualProx,
    PreconditionedProblem,
    ProximalSurrogate,
    ReducedProblem,
    augment,
    lasso_dual_prox,
    lasso_reformulate,
    precondition,
    proximal_surrogate,
    reduce,
)
from .flows import (
    Flow,
    projected_flow,
    proximal_primal_dual,
    standard_flow,
)
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    RateReport,
    Trajectory,
    detect_equilibrium,
    distance_series,
    envelope_check,
    fit_rate,
    integrate,
    lyapunov_series,
    max_increment,
)
from .certificates import (
    Certificate,
    CertificateReport,
    cert_augmented,
    cert_proximal,
    cert_strict_cc,
    eval_certificate,
    max_dual_norm,
    optimal_rho,
    precond_K,
    precond_params_pick,
    rate_bound_precond,
    rate_bound_proximal,
    rate_bound_reduced,
    rate_bound_semiglobal,
    rate_bound_strong,
)
from .problems import (
    FlowNetwork,
    LassoBundle,
    LinearProgram,
    LpSolution,
    QpBundle,
    SeparableProblem,
    demo_network,
    lasso_oracle,
    lp_oracle,
    make_bilinear,
    make_lasso,
    make_lp,
    make_min_cost_flow,
    make_qp_affine,
    make_quadratic_saddle,
    make_separable_qp,
    min_cost_flow_lp,
    parse_network,
    parse_network_text,
    qp_lagrangian,
    separable_lagrangian,
    separable_qp_bundle,
)

__version__ = "0.1.0"
