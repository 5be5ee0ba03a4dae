"""Certify lower bounds on the Schmidt number of bipartite states.

The Schmidt number of a density matrix is the smallest Schmidt rank
needed among the pure states of any decomposition; it counts the
entangled dimensions that must have been present. This package bounds it
from below two ways: exactly, from the full density matrix, through a
family of correlation-matrix criteria, and statistically, from simulated
randomized local measurements, through second and fourth correlation
moments compared against closed-form boundary curves in the moment
plane.

The entry points are :func:`compare_all` for exact certificates,
:func:`exact_moments`, :func:`lower_boundary` and :func:`classify_point`
for the moment plane, and :func:`detect_with_confidence` for the
randomized route. The package namespace holds them, the named states,
the functions the demos call, the two state containers,
``SchmidtCertificate`` and the exception classes; everything else is
importable from its module, :func:`estimate_moments` and
:func:`haar_unitary` from ``dimcert.randsim``.
"""

from .errors import DimcertError, InvalidInputError, NumericalConsistencyError
from .states import DensityMatrix, PureState, isotropic, max_entangled, rho_w
from .criteria import SchmidtCertificate, compare_all
from .moments import exact_moments
from .boundary import (
    classify_point,
    endpoint,
    lower_boundary,
    outer_boundary_d3,
    region_scatter,
    two_norm_line,
)
from .randsim import (
    analytic_noise_threshold,
    detect_with_confidence,
    noise_tolerance,
    predicted_variance,
)

__version__ = "0.1.0"

__all__ = [
    "DimcertError", "InvalidInputError", "NumericalConsistencyError",
    "DensityMatrix", "PureState", "isotropic", "max_entangled", "rho_w",
    "SchmidtCertificate", "compare_all", "exact_moments",
    "classify_point", "endpoint", "lower_boundary", "outer_boundary_d3",
    "region_scatter", "two_norm_line",
    "analytic_noise_threshold", "detect_with_confidence",
    "noise_tolerance", "predicted_variance",
    "__version__",
]
