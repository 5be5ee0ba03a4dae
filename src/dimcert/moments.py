"""Second and fourth correlation moments and the measurement observable.

The moments condense the su-block correlation spectrum {eps_k} into two
rotation-invariant numbers,

    S2 = d^2/(d-1)^2 * sum eps_k^2
    S4 = 2 d^4 / (3 (d-1)^4) * sum eps_k^4 + S2^2 / 3,

normalised so a product of pure states gives (1, 1) and a maximally
entangled pair of qutrits gives (2, 5/3). Any spectrum lands inside the
cone S2^2/3 <= S4 <= S2^2.

``observable_m`` builds the spectrum of the single traceless observable,
unique up to conjugation, whose Haar-random local rotations estimate both
moments: measuring A (x) B with A = U M U^dag, B = V M V^dag and averaging
powers of x = tr(rho (A (x) B)) recovers S2 and S4 through fixed
constants. The construction needs tr M = 0, tr M^2 = d and a closed-form
eigenvalue triple that only exists for odd d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError, NumericalConsistencyError, _check_int, _check_real)
from .correlations import correlation_data
from .states import as_density

CONE_TOL = 1e-9

__all__ = [
    "CONE_TOL",
    "MomentPair",
    "exact_moments",
    "moments_from_spectrum",
    "observable_m",
    "scaling_constants",
]


@dataclass(frozen=True)
class MomentPair:
    """A (S2, S4) point, checked against the admissible cone on creation."""

    s2: float
    s4: float

    def __post_init__(self):
        s2, s4 = _check_real(self.s2, "S2"), _check_real(self.s4, "S4")
        if s2 < -CONE_TOL:
            raise InvalidInputError(f"S2 must be nonnegative, got {s2}")
        slack = CONE_TOL * max(1.0, s2 ** 2)
        if not (s2 ** 2 / 3 - slack <= s4 <= s2 ** 2 + slack):
            raise InvalidInputError(
                f"({s2}, {s4}) lies outside the cone S2^2/3 <= S4 <= S2^2")


def moments_from_spectrum(epsilon, d):
    """Map an su-block singular spectrum to the (S2, S4) pair."""
    d = _check_int(d, "d", 2)
    eps = np.asarray(epsilon, dtype=float)
    scale = d * d / (d - 1) ** 2
    s2 = scale * float(np.sum(eps ** 2))
    s4 = 2 * d ** 4 / (3 * (d - 1) ** 4) * float(np.sum(eps ** 4)) + s2 ** 2 / 3
    return MomentPair(s2, s4)


def exact_moments(rho):
    """Exact (S2, S4) of a state from its correlation spectrum."""
    rho = as_density(rho, equal_dims_for="exact moment evaluation")
    return moments_from_spectrum(correlation_data(rho).epsilon, rho.dim_a)


def scaling_constants(d, path):
    """Estimator prefactors (c2, c4) with s2_hat = c2 mean(x^2) etc.

    ``path`` selects the sampling route: "haar" rotates the fixed
    observable by Haar unitaries, "bloch" contracts the su block with
    unit vectors drawn uniformly from the (d^2-1)-sphere. A Haar-rotated
    observable has a local Bloch vector of squared norm tr M^2 = d, so
    each Bloch constant is d^2 times (c2) or d^4 times (c4) its Haar one.
    """
    d = _check_int(d, "d", 2)
    if path == "haar":
        c2 = (d + 1) ** 2
        c4 = (d + 1) ** 2 * (d * d + 1) ** 2 / (9 * (d - 1) ** 2)
    elif path == "bloch":
        c2 = d * d * (d + 1) ** 2
        c4 = d ** 4 * (d + 1) ** 2 * (d * d + 1) ** 2 / (9 * (d - 1) ** 2)
    else:
        raise InvalidInputError(f"unknown path {path!r}; use 'haar' or 'bloch'")
    return float(c2), float(c4)


def observable_m(d):
    """Spectrum of the probing observable M as a read-only array; odd d >= 3.

    Only Haar rotations U M U^dag are ever measured, so the eigenvalues
    are all there is to store. They are (d-1)/2 copies of alpha_plus, one
    beta and (d-1)/2 copies of alpha_minus, built from the positive root y
    of a quartic trace condition. tr M = 0 and tr M^2 = d hold by
    construction and are re-checked to 1e-10.
    """
    d = _check_int(d, "odd d", 3)
    if d % 2 == 0:
        raise InvalidInputError(
            f"the probing observable exists only for odd d >= 3, got {d!r}")
    y = 0.5 * (1 - math.sqrt(
        1 + (d + 3 + math.sqrt(d ** 3 + 3 * d * d + d + 3)) / (d - 2)))
    t = (2 * y - 1) ** 2
    denom = math.sqrt((d - 1) * (t + d))
    alpha_p = (d - 2 * y + 1) / denom
    alpha_m = (-d - 2 * y + 1) / denom
    beta = -math.sqrt((d - 1) * t / (t + d))
    half = (d - 1) // 2
    eigs = np.array([alpha_p] * half + [beta] + [alpha_m] * half)
    if abs(eigs.sum()) > 1e-10 or abs(np.sum(eigs ** 2) - d) > 1e-10:
        raise NumericalConsistencyError(
            "probing observable failed its trace normalisation checks")
    eigs.flags.writeable = False
    return eigs
