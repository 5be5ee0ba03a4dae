"""Boundary curves of Schmidt-number regions in the moment plane.

For fixed local dimension d, the set of (S2, S4) pairs reachable by
states of Schmidt number at most r occupies a region whose lower edge is
a piecewise curve f_{d,r} obtained by minimising sum eps_k^4 at fixed
sum eps_k^2 over admissible correlation spectra. The minimiser puts the
weight on n equal singular values plus at most one smaller one, which
gives one quadratic piece near the origin and a family of quartic pieces
up to the right endpoint B_r^2 with B_r = (d r - 1)/(d - 1). One scalar
kernel returns the value of f and its closed-form slope. f is continuous
but has a kink at every breakpoint between pieces, where the two
one-sided slopes differ.

A measured (S2, S4) point below the curve for r, or to the right of its
endpoint, is unreachable by Schmidt number r and certifies a lower bound
of r + 1. ``classify_point`` applies that test either exactly or with a
statistical back-off for noisy estimates; ``numeric_min_oracle`` is an
independent implementation of the same minimisation used to cross-check
the closed form; ``outer_boundary_d3`` gives the top edge of the full
qutrit region, traced by explicit one-parameter families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _check_int, _check_real
from .criteria import VIOLATION_TOL, SchmidtCertificate

G_CLAMP = -1e-12
DOMAIN_SLACK = 1e-12

__all__ = [
    "BoundaryCurve",
    "endpoint",
    "lower_boundary",
    "boundary_curve",
    "numeric_min_oracle",
    "two_norm_line",
    "classify_point",
    "outer_boundary_d3",
    "region_scatter",
]


def _check_dr(d, r):
    d = _check_int(d, "d", 2)
    return d, _check_int(r, "r", 1, d)


def endpoint(d, r):
    """B_r = (d r - 1)/(d - 1), the largest S2 at Schmidt number r, squared."""
    d, r = _check_dr(d, r)
    b = (d * r - 1) / (d - 1)
    return b * b


def lower_boundary(d, r, s2):
    """Minimum S4 compatible with Schmidt number r at the given S2.

    Defined for 0 <= s2 <= B_r^2; outside that range no such state exists
    and the call is rejected. Piece n covers [B_r^2/(n+1), B_r^2/n]; the
    innermost quadratic piece covers [0, B_r^2/(d^2-1)].
    """
    d, r = _check_dr(d, r)
    b2 = endpoint(d, r)
    return _curve(d, b2, _check_s2(d, r, b2, s2))[0]


def _check_s2(d, r, b2, s2):
    """``s2`` clamped into [0, b2], or InvalidInputError outside it."""
    s2 = _check_real(s2, "s2")
    if s2 < -DOMAIN_SLACK or s2 > b2 * (1 + DOMAIN_SLACK) + DOMAIN_SLACK:
        raise InvalidInputError(
            f"s2={s2} outside [0, {b2}], the S2 range reachable at "
            f"Schmidt number {r} in dimension {d}")
    return min(max(s2, 0.0), b2)


def _curve(d, b2, x):
    """Value and slope of f_{d,r} at 0 <= x <= b2 = B_r^2.

    f is continuous but has a kink at every breakpoint between pieces:
    the one-sided slopes there differ. At a breakpoint the slope is that
    of the piece the value is taken from.
    """
    if x * (d * d - 1) <= b2 * (1 + DOMAIN_SLACK):
        c = (d * d + 1) / (3 * (d * d - 1))
        return c * x * x, 2 * c * x
    n = min(d * d - 2, max(1, int(b2 / x)))
    b = math.sqrt(b2)
    g = n * (n + 1) * x - n * b2
    # at the lower edge of a piece g can dip to about -1e-12 in floating point
    if g < 0:
        if g < G_CLAMP * max(1.0, b2):
            raise InvalidInputError(
                f"s2={x} falls outside piece n={n} of the boundary curve")
        g = 0.0
    sq = math.sqrt(g)
    # -lo and hi are the minimiser's small value and its n equal large
    # values, scaled by (n + 1) d / (d - 1); the slope written through them
    # cancels the 1/sq of d sq / dx against lo + hi = (n + 1) sq / n
    lo, hi = sq - b, sq / n + b
    quart = lo ** 4 + (sq + n * b) ** 4 / n ** 3
    value = 2 * quart / (3 * (n + 1) ** 4) + x * x / 3
    slope = 4 * (lo * lo - lo * hi + hi * hi) / (3 * (n + 1) ** 2) + 2 * x / 3
    return value, slope


@dataclass(frozen=True)
class BoundaryCurve:
    """Callable lower boundary for one (d, r), with its piece breakpoints."""

    d: int
    r: int
    b_r: float
    breakpoints: np.ndarray

    def __call__(self, s2):
        b2 = endpoint(self.d, self.r)
        arr = np.asarray(s2, dtype=float)
        out = np.empty(arr.shape)
        for idx, val in np.ndenumerate(arr):
            x = _check_s2(self.d, self.r, b2, float(val))
            out[idx] = _curve(self.d, b2, x)[0]
        return out if arr.shape else float(out)

    @property
    def domain(self):
        return (0.0, self.b_r ** 2)


def boundary_curve(d, r):
    """Bundle lower_boundary with the breakpoints of its pieces."""
    d, r = _check_dr(d, r)
    b2 = endpoint(d, r)
    pts = [0.0, b2 / (d * d - 1)]
    pts += [b2 / n for n in range(d * d - 2, 0, -1)]
    bp = np.array(pts)
    bp.flags.writeable = False
    return BoundaryCurve(d, r, math.sqrt(b2), bp)


def numeric_min_oracle(d, r, s2):
    """Minimum S4 at fixed S2 by direct enumeration of stationary spectra.

    Candidate minimisers of sum eps^4 under sum eps = A, sum eps^2 = B
    with at most d^2-1 nonzero values take one of two shapes: n equal
    values, or one small value plus n equal large ones. Enumerating both
    families and taking the smallest result reproduces the closed-form
    curve without sharing any of its algebra.
    """
    d, r = _check_dr(d, r)
    s2 = _check_real(s2, "s2")
    if s2 < -DOMAIN_SLACK:
        raise InvalidInputError(f"s2 must be a nonnegative number, got {s2!r}")
    s2 = max(s2, 0.0)
    a_con = r - 1 / d
    b_con = (d - 1) ** 2 * s2 / (d * d)
    if b_con > a_con * a_con * (1 + DOMAIN_SLACK) + DOMAIN_SLACK:
        raise InvalidInputError(
            f"s2={s2} exceeds the S2 range reachable at Schmidt number {r} "
            f"in dimension {d}")
    b_con = min(b_con, a_con * a_con)
    best = None
    for n in range(1, d * d):
        # n equal values eps = sqrt(B/n); the sum constraint is an
        # inequality (sum eps <= A), so feasibility is sqrt(n B) <= A
        if n * b_con <= a_con * a_con * (1 + DOMAIN_SLACK) + DOMAIN_SLACK:
            cand = b_con * b_con / n
            best = cand if best is None else min(best, cand)
    for n in range(1, d * d - 1):
        disc = n * ((n + 1) * b_con - a_con * a_con)
        if disc < -DOMAIN_SLACK * max(1.0, a_con * a_con):
            continue
        root = math.sqrt(max(disc, 0.0))
        large = (a_con * n + root) / (n * (n + 1))
        small = (a_con - root) / (n + 1)
        if small < -DOMAIN_SLACK or large < 0:
            continue
        small = max(small, 0.0)
        cand = small ** 4 + n * large ** 4
        best = cand if best is None else min(best, cand)
    s2_norm = d * d / (d - 1) ** 2 * b_con
    return 2 * d ** 4 / (3 * (d - 1) ** 4) * best + s2_norm * s2_norm / 3


def two_norm_line(d, r):
    """S2 threshold of the two-norm criterion, for overlaying on the plane."""
    d, r = _check_dr(d, r)
    return d * d / (d - 1) ** 2 * (1 + (r - 2 * d) / (d * d * r))


def classify_point(s2, s4, d, std_s2=None, std_s4=None, cov_s2s4=0.0,
                   k_sigma=0.0):
    """Certify a Schmidt-number lower bound from a moment-plane point.

    With no uncertainties the test is exact: Schmidt number r is excluded
    when s2 exceeds B_r^2 or s4 falls below the boundary curve, each by
    more than 1e-9. With ``std_s2``/``std_s4`` given, every comparison
    backs off by k_sigma standard deviations of the compared quantity;
    for the curve test the deviation of f(s2_hat) - s4_hat is propagated
    through the closed-form slope of the curve, including the covariance
    of the two estimates, so correlated errors are not double counted.
    ``k_sigma`` must be nonnegative in either mode.
    """
    d = _check_int(d, "d", 2)
    s2, s4 = _check_real(s2, "s2"), _check_real(s4, "s4")
    for name, val in (("s2", s2), ("s4", s4)):
        if val < -DOMAIN_SLACK:
            raise InvalidInputError(
                f"{name} must be a nonnegative number, got {val!r}")
    std_s2, std_s4 = (v if v is None else _check_real(v, n)
                      for n, v in (("std_s2", std_s2), ("std_s4", std_s4)))
    cov_s2s4 = _check_real(cov_s2s4, "cov_s2s4")
    k_sigma = _check_real(k_sigma, "k_sigma")
    s2 = max(s2, 0.0)
    s4 = max(s4, 0.0)
    conservative = std_s2 is not None or std_s4 is not None
    if conservative and (std_s2 is None or std_s4 is None):
        raise InvalidInputError("provide both std_s2 and std_s4 or neither")
    if not conservative:
        std_s2 = std_s4 = cov_s2s4 = 0.0
    if std_s2 < 0 or std_s4 < 0 or k_sigma < 0:
        raise InvalidInputError(
            "standard deviations and k_sigma must be nonnegative")
    per_r = []
    decided = None
    for r in range(1, d + 1):
        b = (d * r - 1) / (d - 1)
        b2 = b * b
        f_val, slope = _curve(d, b2, min(s2, b2))
        var_v = (slope * slope * std_s2 * std_s2 + std_s4 * std_s4
                 - 2 * slope * cov_s2s4)
        sigma_v = math.sqrt(max(var_v, 0.0))
        cap_margin = s2 - b2 - k_sigma * std_s2
        curve_margin = f_val - s4 - k_sigma * sigma_v
        violated = cap_margin > VIOLATION_TOL or curve_margin > VIOLATION_TOL
        per_r.append({
            "r": r, "endpoint": b2, "curve_value": f_val,
            "cap_margin": cap_margin, "curve_margin": curve_margin,
            "sigma_curve": sigma_v, "violated": violated,
        })
        if violated:
            decided = per_r[-1]
    if decided is None:
        bound, margin = 1, 0.0
    else:
        bound = min(decided["r"] + 1, d)
        margin = max(decided["cap_margin"], decided["curve_margin"])
    details = {
        "mode": "conservative" if conservative else "exact",
        "k_sigma": k_sigma,
        "per_r": per_r,
    }
    return SchmidtCertificate("moments", bound, margin, details)


_D3_FAMILIES = {
    "A": (0.0, 1.0, lambda x: x * x),
    "B": (1.0, 1.75, lambda x: 7 * x * x / 6 - 7 * x / 3 + 13 / 6),
    "C": (1.75, 2.0,
          lambda x: 7 * x * x / 6 + max(2 - x, 0.0) ** 1.5 - 23 * x / 6 + 14 / 3),
    "D": (0.0, 2.0, lambda x: 5 * x * x / 12),
}


def outer_boundary_d3(x, family=None):
    """Upper edge of the full qutrit moment region, or one named family.

    Families A (pure-plus-white-noise), B and C (two-term pure states)
    tile the top edge over S2 in [0, 1], [1, 7/4] and [7/4, 2]; family D
    (isotropic mixtures) traces the lower parabola 5 x^2 / 12. With no
    family the envelope value and the family that attains it are
    returned.
    """
    x = _check_real(x, "x")
    if family is not None:
        if family not in _D3_FAMILIES:
            raise InvalidInputError(
                f"unknown family {family!r}; use one of A, B, C, D")
        lo, hi, fn = _D3_FAMILIES[family]
        if not lo - VIOLATION_TOL <= x <= hi + VIOLATION_TOL:
            raise InvalidInputError(
                f"x={x} outside family {family} range [{lo}, {hi}]")
        return float(fn(min(max(x, lo), hi))), family
    if not -VIOLATION_TOL <= x <= 2.0 + VIOLATION_TOL:
        raise InvalidInputError(
            f"x={x} outside [0, 2], the qutrit S2 range")
    x = min(max(x, 0.0), 2.0)
    label = "A" if x <= 1.0 else ("B" if x <= 1.75 else "C")
    return float(_D3_FAMILIES[label][2](x)), label


def region_scatter(d, n_states, seed):
    """Exact moment-plane points of a deterministic menagerie of states.

    Cycles through random pure states of every Schmidt rank and random
    mixed states of several ranks, one independent generator per sample
    seeded by (seed, index), so any slice of the output is reproducible
    in isolation. Returns rows (s2, s4, kind, rank).
    """
    from .moments import exact_moments
    from .states import random_mixed, random_pure

    d = _check_int(d, "d", 2)
    n_states = _check_int(n_states, "n_states")
    seed = _check_int(seed, "seed", 0)
    mixed_ranks = sorted({2, 3, d, max(2, d * d // 2), d * d})
    pattern = [("pure", r) for r in range(1, d + 1)]
    pattern += [("mixed", k) for k in mixed_ranks]
    rows = []
    for i in range(n_states):
        kind, rank = pattern[i % len(pattern)]
        sub = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        if kind == "pure":
            state = random_pure(d, d, sub, schmidt_rank=rank)
        else:
            state = random_mixed(d, d, rank, sub)
        pair = exact_moments(state)
        rows.append((pair.s2, pair.s4, kind, rank))
    return rows
