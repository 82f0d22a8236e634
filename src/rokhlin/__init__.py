"""Exact Rokhlin-tower and orbit-breaking-subalgebra workbench for
substitution subshifts."""

from .errors import (
    BaseMismatch,
    BoundSearchExceeded,
    InvariantViolated,
    NonPrimitive,
    NotHermitian,
    NotInStageAlgebra,
    NotProductWindowSet,
    PathMismatch,
    PeriodicSystem,
    PreconditionViolated,
    RokhlinError,
    WindowTooSmall,
    ZeroElement,
)
from .subshift import (
    ClopenSet,
    PointWindow,
    SubstitutionSystem,
    Window,
    fibonacci,
    period_doubling,
    thue_morse,
)
from .towers import (
    AdmissiblePath,
    ReturnProfile,
    RokhlinSystem,
    admissible_sequences,
    boundary_path_cover,
    build_towers,
    partition_identities,
    return_profile,
    return_time_bound,
    verify_rokhlin_axioms,
)
from .matrixfn import MatrixCylinderFunction
from .crossed import (
    CylinderFunction,
    FormalElement,
    HomomorphismReport,
    InjectivityWitness,
    approximate_by_window_constant,
    approximate_with_vanishing,
    gamma_component,
    gamma_eval,
    gamma_symbolic,
    homomorphism_check,
    in_ob_subalgebra,
    injectivity_witness,
    project_to_subalgebra,
    sample_point,
    sample_subalgebra_element,
)
from .rsh import (
    ApproximatingSystem,
    PhiRangeResult,
    PullbackReport,
    StageElement,
    beta_boundary,
    beta_path,
    build_approximating_system,
    in_stage_algebra,
    lift,
    phi_range_check,
    pullback_isomorphism_check,
    sample_stage_element,
    stage_basis_elements,
    stage_from_gamma,
    stage_violations,
)
from .cuntz import (
    CuntzClass,
    PositiveElement,
    RCBoundReport,
    cuntz_leq,
    eps_cut,
    headline_bound,
    matrix_rank,
    per_level_value,
    rc_upper_bound,
    rc_witness_test,
    window_disjointness,
)

__version__ = "0.1.0"
