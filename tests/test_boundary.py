"""Boundary curves, the KKT oracle, classification, and the d=3 region."""

import numpy as np
import pytest

from dimcert.boundary import (
    _curve,
    classify_point,
    endpoint,
    lower_boundary,
    numeric_min_oracle,
    outer_boundary_d3,
    region_scatter,
    two_norm_line,
)
from dimcert.errors import InvalidInputError
from dimcert.moments import exact_moments
from dimcert.states import family_state, max_entangled, rho_w


def _breakpoints(d, r):
    """0, then B_r^2/n for n = d^2 - 1 down to 1: the ends of the pieces."""
    return [0.0] + [endpoint(d, r) / n for n in range(d * d - 1, 0, -1)]


# --- closed-form fixtures -------------------------------------------------

def test_curve_fixtures():
    assert abs(lower_boundary(3, 3, 2.0) - 5 / 3) < 1e-12
    assert abs(lower_boundary(3, 2, 1.75) - 53 / 32) < 1e-12
    assert abs(lower_boundary(3, 2, 2.0) - 2.21981) < 1e-4
    assert abs(lower_boundary(3, 2, 1.7755) - 1.713564) < 1e-5
    assert lower_boundary(3, 2, 0.0) == 0.0


@pytest.mark.parametrize("d,r", [(3, 1), (3, 2), (3, 3), (4, 2), (5, 4)])
def test_curve_endpoint_value(d, r):
    b2 = endpoint(d, r)
    assert abs(lower_boundary(d, r, b2) - b2 * b2) < 1e-9 * max(1, b2 * b2)


def test_domain_and_argument_validation():
    with pytest.raises(InvalidInputError, match="range|domain|reachable"):
        lower_boundary(3, 1, 1.5)
    with pytest.raises(InvalidInputError):
        lower_boundary(3, 2, -0.5)
    with pytest.raises(InvalidInputError):
        lower_boundary(3, 4, 1.0)
    with pytest.raises(InvalidInputError):
        lower_boundary(1, 1, 0.5)
    with pytest.raises(InvalidInputError):
        lower_boundary(3, 2, float("nan"))
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="finite"):
            lower_boundary(3, 2, np.array([0.5, bad]))
    for bad in (['0.5'], [0.5, True], [[0.5], [None]]):
        with pytest.raises(InvalidInputError):
            lower_boundary(3, 2, bad)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_piece_continuity(d):
    # evaluate immediately left and right of every breakpoint
    for r in range(1, d + 1):
        for bp in _breakpoints(d, r)[1:-1]:
            h = 1e-11 * max(1.0, bp)
            left = lower_boundary(d, r, bp - h)
            right = lower_boundary(d, r, min(bp + h, endpoint(d, r)))
            assert abs(left - right) < 1e-9 * max(1.0, abs(left))


def _oracle_slopes(d, r, x, h):
    """One-sided difference quotients of the oracle, left and right of x."""
    mid = numeric_min_oracle(d, r, x)
    return ((mid - numeric_min_oracle(d, r, x - h)) / h,
            (numeric_min_oracle(d, r, x + h) - mid) / h)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_closed_form_slope_matches_oracle_inside_every_piece(d):
    for r in range(1, d + 1):
        b2 = endpoint(d, r)
        bp = _breakpoints(d, r)
        for lo, hi in zip(bp[:-1], bp[1:]):
            for t in (0.25, 0.5, 0.75):
                x = lo + t * (hi - lo)
                slope = _curve(d, b2, x)[1]
                # both quotients stay inside the piece; their truncation
                # error is at most 2e-6 relative at this step
                for fd in _oracle_slopes(d, r, x, 1e-6 * (hi - lo)):
                    assert abs(fd - slope) < 1e-5 * slope, (d, r, x, fd, slope)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_slope_jumps_at_every_interior_breakpoint(d):
    # f is continuous but not C1: the right slope exceeds the left one,
    # in the closed form and in the oracle alike
    for r in range(1, d + 1):
        b2 = endpoint(d, r)
        for x in _breakpoints(d, r)[1:-1]:
            h = 1e-9 * x
            left, right = _curve(d, b2, x - h)[1], _curve(d, b2, x + h)[1]
            assert right - left > 0.05 * left, (d, r, x, left, right)
            o_left, o_right = _oracle_slopes(d, r, x, h)
            assert o_right - o_left > 0.05 * o_left, (d, r, x, o_left, o_right)


def test_curve_object_vectorizes():
    grid = np.linspace(0, 2, 7)
    vals = lower_boundary(3, 3, grid)
    assert vals.shape == grid.shape
    assert abs(vals[-1] - 5 / 3) < 1e-12
    assert vals.tolist() == [lower_boundary(3, 3, x) for x in grid.tolist()]
    square = lower_boundary(3, 3, grid[:6].reshape(2, 3).tolist())
    assert square.shape == (2, 3)
    assert square.ravel().tolist() == vals[:6].tolist()
    assert type(lower_boundary(3, 3, 1.0)) is float
    assert type(lower_boundary(3, 3, np.float64(1.0))) is float
    assert lower_boundary(3, 3, []).shape == (0,)


# --- oracle cross-check ---------------------------------------------------

@pytest.mark.parametrize("d", [3, 4, 5])
def test_oracle_matches_closed_form(d):
    for r in range(1, d + 1):
        b2 = endpoint(d, r)
        for s2 in np.linspace(0.0, b2, 100):
            a = lower_boundary(d, r, float(s2))
            b = numeric_min_oracle(d, r, float(s2))
            assert abs(a - b) < 1e-6, (d, r, s2, a, b)


def test_oracle_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        numeric_min_oracle(3, 1, 1.5)


def test_oracle_rejects_negative_s2():
    with pytest.raises(InvalidInputError, match="nonnegative"):
        numeric_min_oracle(3, 2, -0.1)


def test_curve_rejects_a_piece_that_does_not_hold_x():
    # piece 1 covers [b2/2, b2] = [8, 16]; x = 0.1 lies on the quadratic
    with pytest.raises(InvalidInputError, match="outside piece n=1"):
        _curve(3, 16.0, 0.1, 1)


# --- geometry relations ---------------------------------------------------

@pytest.mark.parametrize("d", [3, 4])
def test_curves_nest_downward_in_r(d):
    for r in range(1, d):
        hi = endpoint(d, r)
        for s2 in np.linspace(0, hi, 50):
            assert (lower_boundary(d, r + 1, float(s2))
                    <= lower_boundary(d, r, float(s2)) + 1e-12)


@pytest.mark.parametrize("d,r", [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 3)])
def test_embedded_max_entangled_states_sit_on_their_curve(d, r):
    pair = exact_moments(max_entangled(r, d))
    assert abs(lower_boundary(d, r, pair.s2) - pair.s4) < 1e-9


def test_two_norm_line_fixtures():
    assert abs(two_norm_line(3, 1) - 1.0) < 1e-12
    assert abs(two_norm_line(3, 3) - 2.0) < 1e-12
    for d in (3, 4, 5):
        # at r = d the two-norm threshold reaches the physical maximum
        assert abs(two_norm_line(d, d) - (d + 1) / (d - 1)) < 1e-12


# --- classification -------------------------------------------------------

def test_classify_exact_fixtures():
    assert classify_point(2.0, 5 / 3, 3).certified_lower_bound == 3
    assert classify_point(1.0, 1.0, 3).certified_lower_bound == 1
    pair = exact_moments(rho_w())
    assert classify_point(pair.s2, pair.s4, 4).certified_lower_bound == 3


def test_classify_margin_positive_for_certified_points():
    cert = classify_point(2.0, 5 / 3, 3)
    assert cert.margin > 0
    assert cert.criterion_id == "moments"
    assert cert.details["mode"] == "exact"


def test_classify_validation():
    with pytest.raises(InvalidInputError):
        classify_point(-1.0, 0.5, 3)
    with pytest.raises(InvalidInputError):
        classify_point(1.0, 0.5, 3, std_s2=0.1, k_sigma=2.0)
    with pytest.raises(InvalidInputError):
        classify_point(1.0, 0.5, 3, std_s2=0.1, std_s4=-0.1, k_sigma=2.0)


@pytest.mark.parametrize("bad", [
    {"std_s2": np.nan}, {"std_s4": np.inf}, {"cov_s2s4": np.nan},
    {"k_sigma": np.inf}, {"k_sigma": np.nan},
], ids=["std_s2-nan", "std_s4-inf", "cov-nan", "k-inf", "k-nan"])
def test_classify_rejects_non_finite_uncertainties(bad):
    # (1.8, 1.4) lies between f_{3,3} and f_{3,2}, inside the qutrit region
    ok = {"std_s2": 0.01, "std_s4": 0.01, "cov_s2s4": 0.0, "k_sigma": 3.0}
    assert classify_point(1.8, 1.4, 3, **ok).certified_lower_bound == 3
    with pytest.raises(InvalidInputError, match="finite"):
        classify_point(1.8, 1.4, 3, **{**ok, **bad})


def test_classify_conservative_never_beats_exact():
    rng = np.random.default_rng(2)
    for _ in range(50):
        s2 = rng.uniform(0, 2)
        lo = s2 * s2 / 3
        s4 = rng.uniform(lo, s2 * s2) if s2 > 0 else 0.0
        exact = classify_point(s2, s4, 3)
        cons = classify_point(s2, s4, 3, std_s2=0.02, std_s4=0.03,
                              cov_s2s4=0.0004, k_sigma=2.0)
        # the back-off only shrinks margins: every row it violates, the
        # exact test violates too
        for e_row, c_row in zip(exact.details["per_r"],
                                cons.details["per_r"]):
            assert e_row["violated"] or not c_row["violated"]
        # so unless the exact point is void (below f_{3,3}, outside the
        # state space), the conservative bound is at most the exact one
        if "outside_state_space" not in exact.details:
            assert (cons.certified_lower_bound
                    <= exact.certified_lower_bound)
        assert cons.details["mode"] == "conservative"


@pytest.mark.parametrize("d", range(2, 8))
def test_classify_sigma_takes_the_larger_side_of_every_kink(d):
    # an error in s2 moves f along either piece at a breakpoint, so the
    # back-off there uses the larger of the two one-sided variances; the
    # slope has a square-root edge at the left end of a piece, so the
    # one-sided values 1e-9 x away agree with the limits to within 4e-5
    std2, std4, cov = 0.01, 0.02, 1e-4
    for r in range(1, d + 1):
        b2 = endpoint(d, r)
        for x in _breakpoints(d, r)[1:-1]:
            h = 1e-9 * x
            sides = [np.sqrt(s * s * std2 * std2 + std4 * std4 - 2 * s * cov)
                     for s in (_curve(d, b2, x - h)[1],
                               _curve(d, b2, x + h)[1])]
            row = classify_point(x, lower_boundary(d, r, x), d, std_s2=std2, std_s4=std4,
                                 cov_s2s4=cov, k_sigma=3.0).details["per_r"][r - 1]
            assert row["sigma_curve"] == pytest.approx(max(sides), rel=1e-4), (
                d, r, x, row["sigma_curve"], sides)


def test_classify_conservative_equals_exact_at_zero_sigma():
    for s2, s4 in ((2.0, 5 / 3), (1.0, 1.0), (1.125, 0.52734375)):
        a = classify_point(s2, s4, 3).certified_lower_bound
        b = classify_point(s2, s4, 3, std_s2=0.0, std_s4=0.0,
                           k_sigma=3.0).certified_lower_bound
        assert a == b


# --- d=3 outer region -----------------------------------------------------

def test_outer_boundary_junctions():
    y, label = outer_boundary_d3(1.0)
    assert abs(y - 1.0) < 1e-12 and label == "A"
    yb, _ = outer_boundary_d3(1.75, family="B")
    yc, _ = outer_boundary_d3(1.75, family="C")
    assert abs(yb - 53 / 32) < 1e-12
    assert abs(yc - 53 / 32) < 1e-12
    yc2, _ = outer_boundary_d3(2.0, family="C")
    yd2, _ = outer_boundary_d3(2.0, family="D")
    assert abs(yc2 - 5 / 3) < 1e-12
    assert abs(yd2 - 5 / 3) < 1e-12


def test_outer_boundary_envelope_labels():
    assert outer_boundary_d3(0.5)[1] == "A"
    assert outer_boundary_d3(1.5)[1] == "B"
    assert outer_boundary_d3(1.9)[1] == "C"


def test_outer_boundary_domain_checks():
    with pytest.raises(InvalidInputError):
        outer_boundary_d3(2.5)
    with pytest.raises(InvalidInputError):
        outer_boundary_d3(0.5, family="C")
    with pytest.raises(InvalidInputError):
        outer_boundary_d3(1.0, family="Q")


@pytest.mark.parametrize("family,grid", [
    ("A", np.linspace(0.0, 1.0, 9)),
    ("B", np.linspace(0.5, 1.0, 9)),
    ("C", np.linspace(1 / 3, 0.5, 9)),
    ("D", np.linspace(0.0, 1.0, 9)),
])
def test_families_trace_their_own_curves(family, grid):
    # exact moments of each one-parameter family reproduce its curve
    for param in grid:
        pair = exact_moments(family_state(family, float(param)))
        y, _ = outer_boundary_d3(pair.s2, family=family)
        assert abs(y - pair.s4) < 1e-9, (family, param, pair)


def test_envelope_dominates_lower_parabola():
    for x in np.linspace(0, 2, 101):
        env, _ = outer_boundary_d3(float(x))
        d_val, _ = outer_boundary_d3(float(x), family="D")
        assert env >= d_val - 1e-12


# --- scatter --------------------------------------------------------------

def test_region_scatter_deterministic_and_sliceable():
    rows_a = region_scatter(3, 12, seed=5)
    rows_b = region_scatter(3, 12, seed=5)
    assert rows_a == rows_b
    head = region_scatter(3, 5, seed=5)
    assert rows_a[:5] == head


def test_region_scatter_contains_points_in_region():
    rows = region_scatter(3, 300, seed=8)
    assert len(rows) == 300
    kinds = {k for _, _, k, _ in rows}
    assert kinds == {"pure", "mixed"}
    for s2, s4, kind, rank in rows:
        assert s4 >= 5 * s2 * s2 / 12 - 1e-9
        env, _ = outer_boundary_d3(min(s2, 2.0))
        assert s4 <= env + 1e-9


def test_region_scatter_pure_points_respect_their_rank_bound():
    # classification of a rank-r pure state's exact moments can never
    # certify more than its actual Schmidt number
    rows = region_scatter(3, 120, seed=13)
    for s2, s4, kind, rank in rows:
        if kind != "pure":
            continue
        cert = classify_point(s2, s4, 3)
        assert cert.certified_lower_bound <= rank


def test_region_scatter_validation():
    with pytest.raises(InvalidInputError):
        region_scatter(1, 10, seed=0)
    with pytest.raises(InvalidInputError):
        region_scatter(3, 0, seed=0)
