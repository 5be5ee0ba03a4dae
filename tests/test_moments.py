"""Moment pairs, their cone, and the sampling paths' observable and constants."""

import numpy as np
import pytest

from dimcert.errors import InvalidInputError
from dimcert.moments import MomentPair, exact_moments
from dimcert.randsim import _observable_m, _sampling_path
from dimcert.states import (
    isotropic,
    max_entangled,
    random_mixed,
    rho_w,
)


def test_max_entangled_qutrit_fixture():
    pair = exact_moments(max_entangled(3))
    assert abs(pair.s2 - 2.0) < 1e-9
    assert abs(pair.s4 - 5 / 3) < 1e-9


def test_product_state_fixture():
    vec = np.zeros(9, dtype=complex)
    vec[0] = 1.0
    from dimcert.states import PureState
    pair = exact_moments(PureState(3, 3, vec))
    assert abs(pair.s2 - 1.0) < 1e-12
    assert abs(pair.s4 - 1.0) < 1e-12


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.9])
def test_isotropic_closed_form(p):
    pair = exact_moments(isotropic(3, p))
    s2 = 2 * (1 - p) ** 2
    assert abs(pair.s2 - s2) < 1e-9
    assert abs(pair.s4 - 5 * s2 * s2 / 12) < 1e-9


def test_embedded_max_entangled_pair_fixture():
    pair = exact_moments(max_entangled(2, 3))
    assert abs(pair.s2 - 7 / 4) < 1e-9
    assert abs(pair.s4 - 53 / 32) < 1e-9


def test_unequal_dimensions_rejected():
    with pytest.raises(InvalidInputError, match="equal"):
        exact_moments(random_mixed(2, 3, 2, seed=1))


def test_moment_pair_cone_enforced():
    MomentPair(1.0, 1.0)
    MomentPair(2.0, 5 / 3)
    with pytest.raises(InvalidInputError, match="cone"):
        MomentPair(1.0, 1.5)
    with pytest.raises(InvalidInputError, match="cone"):
        MomentPair(1.0, 0.2)
    with pytest.raises(InvalidInputError):
        MomentPair(-1.0, 0.5)
    with pytest.raises(InvalidInputError):
        MomentPair(float("nan"), 0.5)


def test_cone_holds_on_random_states():
    # constructor re-validates, so surviving construction is the check;
    # sweep mixes of dimensions, ranks, and pure states
    idx = 0
    for d in (2, 3, 4):
        for rank in (1, 2, d * d):
            for seed in range(25):
                rho = random_mixed(d, d, rank, seed=1000 + idx)
                pair = exact_moments(rho)
                assert pair.s2 ** 2 / 3 - 1e-9 <= pair.s4 <= pair.s2 ** 2 + 1e-9
                idx += 1


def test_rank_one_su_blocks_touch_the_upper_cone_edge():
    # a single nonzero singular value forces s4 = s2^2; the noisy
    # projector family has exactly that structure for every p
    from dimcert.states import family_state
    for p in (0.1, 0.5, 0.9, 1.0):
        pair = exact_moments(family_state("A", p))
        assert abs(pair.s4 - pair.s2 ** 2) < 1e-9


def test_scaling_constants_fixtures():
    eigs, c2, c4 = _sampling_path(3, "haar")
    assert np.array_equal(eigs, _observable_m(3))
    assert c2 == 16.0
    assert abs(c4 - 400 / 9) < 1e-12
    eigs, c2b, c4b = _sampling_path(3, "bloch")
    assert eigs is None
    assert c2b == 144.0
    assert abs(c4b - 3600.0) < 1e-9
    with pytest.raises(InvalidInputError, match="unknown path"):
        _sampling_path(3, "fourier")
    with pytest.raises(InvalidInputError):
        _sampling_path(1, "haar")


def test_observable_m_qutrit_spectrum():
    eigs = _observable_m(3)
    expect = np.array([1.14813856, -1.28914507, 0.14100650])
    assert np.allclose(np.sort(eigs), np.sort(expect), atol=1e-7)
    assert not eigs.flags.writeable


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_observable_m_trace_conditions(d):
    eigs = _observable_m(d)
    assert len(eigs) == d
    assert abs(np.sum(eigs)) < 1e-10
    assert abs(np.sum(eigs ** 2) - d) < 1e-10


@pytest.mark.parametrize("d", [2, 4, 6, 1])
def test_observable_m_even_dimensions_rejected(d):
    with pytest.raises(InvalidInputError, match="odd"):
        _observable_m(d)


def test_rho_w_moments_inside_cone():
    pair = exact_moments(rho_w())
    assert pair.s2 ** 2 / 3 <= pair.s4 <= pair.s2 ** 2
