"""Correlation matrices, their singular spectra, and the norm helpers."""

import numpy as np
import pytest

from dimcert.correlations import correlation_data, trace_norm
from dimcert.criteria import sn_covariance
from dimcert.errors import InvalidInputError
from dimcert.states import (
    DensityMatrix,
    PureState,
    extended_basis,
    isotropic,
    max_entangled,
    partial_trace,
    purity,
    random_mixed,
    random_pure,
    rho_w,
    schmidt_coefficients,
)


def _zoo():
    return [
        max_entangled(3).to_density(),
        isotropic(3, 0.4),
        rho_w(),
        random_mixed(3, 3, 4, seed=2),
        random_mixed(2, 3, 2, seed=3),
        random_pure(3, 2, seed=7).to_density(),
    ]


def test_full_matrix_matches_kron_reference():
    # X[k, l] = Re tr(rho (g_k (x) g_l)), term by term
    for rho in _zoo():
        ga = extended_basis(rho.dim_a)
        gb = extended_basis(rho.dim_b)
        ref = np.array([[np.trace(rho.matrix @ np.kron(a, b)).real
                         for b in gb] for a in ga])
        assert np.max(np.abs(correlation_data(rho).full - ref)) < 1e-12


def test_corner_entry_is_inverse_sqrt_dims():
    for rho in _zoo():
        c = correlation_data(rho)
        expect = 1 / np.sqrt(rho.dim_a * rho.dim_b)
        assert abs(c.full[0, 0] - expect) < 1e-12


def test_xi_squares_sum_to_purity():
    for rho in _zoo():
        c = correlation_data(rho)
        pur = float(np.trace(rho.matrix @ rho.matrix).real)
        assert abs(np.sum(c.xi ** 2) - pur) < 1e-9


def test_epsilon_squares_match_block_removal():
    # sum eps^2 = sum xi^2 minus the first-row/column contribution,
    # recomputed directly from the matrix entries
    for rho in _zoo():
        c = correlation_data(rho)
        full_sq = np.sum(c.full ** 2)
        border = np.sum(c.full[0, :] ** 2) + np.sum(c.full[1:, 0] ** 2)
        assert abs(np.sum(c.epsilon ** 2) - (full_sq - border)) < 1e-9


def test_trace_ordering_against_xi_sum():
    # the trace of the full correlation matrix never exceeds its
    # singular-value sum
    for rho in _zoo():
        c = correlation_data(rho)
        assert np.trace(c.full) <= np.sum(c.xi) + 1e-12


def test_pure_state_operator_schmidt_values_are_pair_products():
    psi = random_pure(3, 3, seed=13)
    lam = schmidt_coefficients(psi)
    expect = np.sort(np.sqrt(np.outer(lam, lam)).ravel())[::-1]
    xi = correlation_data(psi.to_density()).xi
    assert np.allclose(np.sort(xi)[::-1], expect, atol=1e-9)
    # consequently the xi sum is the squared sum of root Schmidt coefficients
    assert abs(np.sum(xi) - np.sum(np.sqrt(lam)) ** 2) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_max_entangled_epsilon_spectrum(d):
    c = correlation_data(max_entangled(d).to_density())
    assert np.allclose(c.epsilon, np.full(d * d - 1, 1 / d), atol=1e-12)
    assert abs(np.sum(c.epsilon) - (d * d - 1) / d) < 1e-12


def test_product_state_has_rank_one_su_block():
    vec = np.zeros(9, dtype=complex)
    vec[0] = 1.0
    c = correlation_data(PureState(3, 3, vec).to_density())
    eps = np.sort(c.epsilon)[::-1]
    assert abs(eps[0] - 2 / 3) < 1e-12
    assert np.allclose(eps[1:], 0, atol=1e-12)


def test_local_vectors_are_marginal_bloch_components():
    rho = random_mixed(3, 3, 5, seed=21)
    c = correlation_data(rho)
    ra = partial_trace(rho, "a")
    rb = partial_trace(rho, "b")
    gens = extended_basis(3)[1:]
    va = np.array([np.trace(ra @ g).real for g in gens])
    vb = np.array([np.trace(rb @ g).real for g in gens])
    assert np.allclose(c.vector_a, va, atol=1e-9)
    assert np.allclose(c.vector_b, vb, atol=1e-9)


def test_covariance_cross_vanishes_for_product_states():
    rng = np.random.default_rng(31)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ra = z @ z.conj().T
    ra /= np.trace(ra).real
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rb = z @ z.conj().T
    rb /= np.trace(rb).real
    rho = DensityMatrix(3, 3, np.kron(ra, rb))
    details = sn_covariance(rho).details
    assert details["cross_trace_norm"] < 1e-9


def test_covariance_block_from_state_or_correlation_data():
    for rho in _zoo():
        details = sn_covariance(correlation_data(rho)).details
        assert details == sn_covariance(rho).details
        assert abs(details["purity_a"]
                   - purity(partial_trace(rho, "a"))) < 1e-12
        assert abs(details["purity_b"]
                   - purity(partial_trace(rho, "b"))) < 1e-12


def test_covariance_block_on_max_entangled_equals_su_block():
    # maximally mixed marginals make the subtracted outer product vanish
    rho = max_entangled(3).to_density()
    details = sn_covariance(rho).details
    c = correlation_data(rho)
    assert abs(details["cross_trace_norm"] - trace_norm(c.su)) < 1e-12
    assert abs(details["cross_trace_norm"] - 8 / 3) < 1e-9
    assert abs(details["purity_a"] - 1 / 3) < 1e-12
    assert abs(details["purity_b"] - 1 / 3) < 1e-12


def test_norm_helpers():
    m = np.diag([3.0, -4.0])
    assert abs(trace_norm(m) - 7.0) < 1e-12


def test_singular_values_sorted_descending():
    for rho in _zoo():
        c = correlation_data(rho)
        assert np.all(np.diff(c.epsilon) <= 1e-15)
        assert np.all(np.diff(c.xi) <= 1e-15)


def test_local_unitary_invariance_of_spectra():
    from dimcert.randsim import haar_unitary
    rho = rho_w()
    rng = np.random.default_rng(17)
    c0 = correlation_data(rho)
    for _ in range(3):
        u = haar_unitary(4, rng)
        v = haar_unitary(4, rng)
        rotated = DensityMatrix(
            4, 4, np.kron(u, v) @ rho.matrix @ np.kron(u, v).conj().T)
        c1 = correlation_data(rotated)
        assert np.allclose(c0.epsilon, c1.epsilon, atol=1e-9)
        assert np.allclose(c0.xi, c1.xi, atol=1e-9)


def test_rejects_raw_arrays():
    with pytest.raises(InvalidInputError):
        correlation_data(np.eye(9) / 9)
