"""mfland: the critical-point landscape of J(W, S) = 0.5 ||X - W S||_F^2.

Construct canonical / balanced / zero-family critical points from the SVD of
X, read off closed-form Hessian spectra, move points along GL(k) orbits,
integrate gradient flow, and cross-check everything against a dense
numerical Hessian.
"""

from .calculus import (
    gradient,
    gradient_norm,
    hessian_apply,
    second_derivative,
)
from .canonical import (
    CanonicalPoint,
    ClassificationResult,
    Selection,
    build_balanced,
    build_canonical,
    classify_canonical,
    first_defect,
    reduce_to_canonical,
    uniform_saddle_bound,
    zero_family_point,
)
from .errors import (
    DimensionError,
    InvalidInput,
    InvalidSelection,
    MflandError,
    NotASaddle,
    NotCritical,
    NumericalFailure,
    RankAmbiguous,
    SingularGroupElement,
    StiffnessFailure,
    TooLarge,
)
from .flow import (
    FlowSample,
    FlowTrajectory,
    LimitDiagnosis,
    classify_limit,
    integrate_flow,
    random_balanced_pair,
    random_pair,
)
from .model import (
    DataMatrixSVD,
    FactorPair,
    TangentPair,
    evaluate_J,
    inertia_at_nullity,
    inertia_from_values,
    inner,
    load_data_matrix,
    read_matrix_csv,
    residual,
    write_matrix_csv,
)
from .oracle import (
    DenseHessian,
    FDReport,
    action_matrix,
    balanced_flow_exact,
    block_spectrum,
    dense_hessian,
    fd_validate,
    flatten_tangent,
    numeric_spectrum,
    unflatten_tangent,
)
from .orbit import (
    GroupElement,
    apply_group_action,
    balance_residual,
    induced_norm,
    inertia_of,
    intersect_M0,
    push_gradient,
    transported_lambda_min_bound,
)
from .spectrum import (
    EigPair,
    SpectrumReport,
    canonical_spectrum,
    lambda_min_balanced,
    lambda_min_closed_form,
    spectrum_balanced,
    spectrum_deficient_rank,
    spectrum_full_rank_scaled,
    spectrum_zero_family,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
