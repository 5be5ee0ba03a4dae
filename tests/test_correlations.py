"""Correlation matrices and their singular spectra."""

import numpy as np
import pytest

from dimcert import correlations
from dimcert.boundary import region_scatter
from dimcert.correlations import correlation_data
from dimcert.criteria import (
    compare_all, sn_ccnr, sn_covariance, sn_trace_norm, sn_two_norm)
from dimcert.errors import InvalidInputError, NumericalConsistencyError
from dimcert.moments import exact_moments
from dimcert.randsim import detect_with_confidence, predicted_variance
from dimcert.states import (
    DensityMatrix,
    PureState,
    as_density,
    extended_basis,
    isotropic,
    max_entangled,
    _purity,
    partial_trace,
    random_mixed,
    random_pure,
    rho_w,
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
    lam = np.linalg.svd(psi.amplitudes.reshape(3, 3), compute_uv=False) ** 2
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
                   - _purity(partial_trace(rho, "a"))) < 1e-12
        assert abs(details["purity_b"]
                   - _purity(partial_trace(rho, "b"))) < 1e-12


def test_covariance_block_on_max_entangled_equals_su_block():
    # maximally mixed marginals make the subtracted outer product vanish
    rho = max_entangled(3).to_density()
    details = sn_covariance(rho).details
    c = correlation_data(rho)
    assert abs(details["cross_trace_norm"] - np.linalg.norm(c.su, "nuc")) < 1e-12
    assert abs(details["cross_trace_norm"] - 8 / 3) < 1e-9
    assert abs(details["purity_a"] - 1 / 3) < 1e-12
    assert abs(details["purity_b"] - 1 / 3) < 1e-12


def test_stacked_spectra_match_separate_svds():
    # epsilon and cross come from one stacked SVD; each must keep the bits
    # of its own SVD call
    for rho in _zoo() + [random_mixed(2, 3, 4, seed=5), random_mixed(3, 4, 6, seed=6)]:
        c = correlation_data(rho)
        cross = c.su - np.outer(c.vector_a, c.vector_b)
        assert np.array_equal(c.epsilon, np.linalg.svd(c.su, compute_uv=False))
        assert np.array_equal(c.cross, np.linalg.svd(cross, compute_uv=False))


def _counted_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_sampling_runs_no_svd(monkeypatch):
    # the sampler reads only su; the spectra wait for their first reader
    calls = _counted_svd(monkeypatch)
    detect_with_confidence(isotropic(5, 0.3), 2000, 3, 1)
    assert calls == []


def test_exact_moments_run_no_svd(monkeypatch):
    # both moment sums are Frobenius norms of the su block and of its Gram
    # matrix, so neither the exact moments nor the scatter wait on a spectrum
    calls = _counted_svd(monkeypatch)
    exact_moments(random_mixed(4, 4, 5, seed=3))
    region_scatter(3, 12, 1)
    assert calls == []


def test_spectra_computed_once_on_first_read(monkeypatch):
    calls = _counted_svd(monkeypatch)
    c = correlation_data(random_mixed(3, 4, 5, seed=8))
    assert calls == []
    for name, shape in (("epsilon", (2, 8, 15)), ("cross", (2, 8, 15)),
                        ("xi", (9, 16))):
        assert not getattr(c, name).flags.writeable
        assert calls[-1] == shape
    assert calls == [(2, 8, 15), (9, 16)]  # epsilon and cross share one SVD
    c.epsilon, c.cross, c.xi
    assert len(calls) == 2


def test_build_checks_parseval_identity(monkeypatch):
    # a basis that is not orthonormal breaks ||X||_F^2 = tr(rho^2) at build,
    # before any spectrum is read
    scaled = correlations._basis_matrix(3) * 1.01
    monkeypatch.setattr(correlations, "_basis_matrix", lambda d: scaled)
    with pytest.raises(NumericalConsistencyError, match="tr\\(rho\\^2\\)"):
        correlation_data(random_mixed(3, 3, 2, seed=4))


def test_build_checks_imaginary_parts(monkeypatch):
    # a basis with a global phase gives complex coefficients; the norm,
    # and so Parseval's identity, is unchanged
    rotated = correlations._basis_matrix(3) * np.exp(0.01j)
    monkeypatch.setattr(correlations, "_basis_matrix", lambda d: rotated)
    with pytest.raises(NumericalConsistencyError, match="imaginary parts"):
        correlation_data(random_mixed(3, 3, 2, seed=4))


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


def test_correlation_data_built_once_per_state(monkeypatch):
    # count the build itself: correlation_data is called once per use
    builds = []
    build = correlations._build_correlation_data
    monkeypatch.setattr(correlations, "_build_correlation_data",
                        lambda rho: builds.append(rho) or build(rho))
    rho = random_mixed(4, 4, 3, seed=5)
    compare_all(rho)
    exact_moments(rho)
    assert len(builds) == 1
    cached = correlation_data(rho)
    fresh = correlation_data(DensityMatrix(4, 4, rho.matrix))
    assert len(builds) == 2
    for name in ("full", "su", "vector_a", "vector_b", "epsilon", "xi"):
        np.testing.assert_array_equal(getattr(cached, name), getattr(fresh, name))
        assert not getattr(cached, name).flags.writeable
    predicted_variance(isotropic(3, 0.2), 1000, m8_samples=10_000)
    assert len(builds) == 3


def test_pure_state_converted_and_correlated_once(monkeypatch):
    # the single criteria each take the PureState; it keeps one validated,
    # read-only DensityMatrix, so its correlation data are built once
    builds = []
    build = correlations._build_correlation_data
    monkeypatch.setattr(correlations, "_build_correlation_data",
                        lambda rho: builds.append(rho) or build(rho))
    psi = random_pure(4, 4, 1)
    criteria = (sn_trace_norm, sn_ccnr, sn_two_norm, sn_covariance)
    certs = [f(psi) for f in criteria]
    assert len(builds) == 1
    rho = as_density(psi)
    assert rho is builds[0] and rho is psi.to_density()
    assert not rho.matrix.flags.writeable
    fresh = DensityMatrix(4, 4, np.outer(psi.amplitudes, psi.amplitudes.conj()))
    assert certs == [f(fresh) for f in criteria]
    assert len(builds) == 2
