"""Certify lower bounds on the Schmidt number of bipartite states.

The Schmidt number of a density matrix is the smallest Schmidt rank
needed among the pure states of any decomposition; it counts the
entangled dimensions that must have been present. This package bounds it
from below two ways: exactly, from the full density matrix, through a
family of correlation-matrix criteria, and statistically, from simulated
randomized local measurements, through second and fourth correlation
moments compared against closed-form boundary curves in the moment
plane.

Start with :func:`compare_all` for exact certificates,
:func:`estimate_moments` / :func:`detect_with_confidence` for the
randomized route, and :func:`boundary_curve` for the geometry behind it.
"""

from .errors import DimcertError, InvalidInputError, NumericalConsistencyError
from .states import (
    DensityMatrix,
    PureState,
    family_state,
    isotropic,
    max_entangled,
    partial_trace,
    purity,
    random_mixed,
    random_pure,
    read_state_json,
    rho_w,
    schmidt_coefficients,
    write_state_json,
)
from .correlations import (
    CorrelationData,
    correlation_data,
    trace_norm,
)
from .criteria import (
    CertificateReport,
    SchmidtCertificate,
    compare_all,
    sn_ccnr,
    sn_covariance,
    sn_fidelity,
    sn_reduction_map,
    sn_trace_norm,
    sn_two_norm,
)
from .moments import (
    MomentPair,
    exact_moments,
    moments_from_spectrum,
    observable_m,
    scaling_constants,
)
from .boundary import (
    BoundaryCurve,
    boundary_curve,
    classify_point,
    endpoint,
    lower_boundary,
    numeric_min_oracle,
    outer_boundary_d3,
    region_scatter,
    two_norm_line,
)
from .randsim import (
    DetectionResult,
    EstimatorResult,
    NoiseToleranceResult,
    PredictedVariance,
    analytic_noise_threshold,
    detect_with_confidence,
    estimate_moments,
    haar_unitary,
    noise_tolerance,
    predicted_variance,
)

__version__ = "0.1.0"

__all__ = [
    "DimcertError", "InvalidInputError", "NumericalConsistencyError",
    "DensityMatrix", "PureState", "family_state", "isotropic",
    "max_entangled", "partial_trace", "purity", "random_mixed",
    "random_pure", "read_state_json", "rho_w", "schmidt_coefficients",
    "write_state_json",
    "CorrelationData", "correlation_data", "trace_norm",
    "CertificateReport", "SchmidtCertificate", "compare_all",
    "sn_ccnr", "sn_covariance", "sn_fidelity", "sn_reduction_map",
    "sn_trace_norm", "sn_two_norm",
    "MomentPair", "exact_moments", "moments_from_spectrum",
    "observable_m", "scaling_constants",
    "BoundaryCurve", "boundary_curve", "classify_point", "endpoint",
    "lower_boundary", "numeric_min_oracle", "outer_boundary_d3",
    "region_scatter", "two_norm_line",
    "DetectionResult", "EstimatorResult", "NoiseToleranceResult",
    "PredictedVariance", "analytic_noise_threshold",
    "detect_with_confidence", "estimate_moments", "haar_unitary",
    "noise_tolerance", "predicted_variance",
    "__version__",
]
