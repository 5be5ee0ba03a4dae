"""Exact second and fourth correlation moments and their admissible cone.

The moments condense the su-block correlation spectrum {eps_k} into two
rotation-invariant numbers,

    S2 = d^2/(d-1)^2 * sum eps_k^2
    S4 = 2 d^4 / (3 (d-1)^4) * sum eps_k^4 + S2^2 / 3,

normalised so a product of pure states gives (1, 1) and a maximally
entangled pair of qutrits gives (2, 5/3). ``exact_moments`` reads both
sums off the su block X_su without an SVD: sum eps_k^2 = ||X_su||_F^2
and sum eps_k^4 = ||X_su^T X_su||_F^2. Any spectrum lands inside the
cone S2^2/3 <= S4 <= S2^2, which ``MomentPair`` checks with a slack of
``DERIVED_TOL`` (1e-9) times max(1, S2^2). The sampling paths that
estimate both moments from random local measurements live in ``randsim``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _check_real
from .correlations import correlation_data
from .states import DERIVED_TOL, as_density

__all__ = [
    "MomentPair",
    "exact_moments",
]


@dataclass(frozen=True)
class MomentPair:
    """A (S2, S4) point, checked against the admissible cone on creation."""

    s2: float
    s4: float

    def __post_init__(self):
        s2 = _check_real(self.s2, "S2", -DERIVED_TOL)
        s4 = _check_real(self.s4, "S4")
        slack = DERIVED_TOL * max(1.0, s2 ** 2)
        if not (s2 ** 2 / 3 - slack <= s4 <= s2 ** 2 + slack):
            raise InvalidInputError(
                f"({s2}, {s4}) lies outside the cone S2^2/3 <= S4 <= S2^2")


def exact_moments(rho):
    """Exact (S2, S4) of a state from its su correlation block, without an SVD."""
    rho = as_density(rho, equal_dims_for="exact moment evaluation")
    d = rho.dim_a
    su = correlation_data(rho).su
    gram = su.T @ su
    scale = d * d / (d - 1) ** 2
    s2 = scale * float(np.vdot(su, su))
    s4 = 2 * d ** 4 / (3 * (d - 1) ** 4) * float(np.vdot(gram, gram)) + s2 ** 2 / 3
    return MomentPair(s2, s4)
