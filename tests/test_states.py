"""State constructors, validation, and the generator basis."""

import json
import re

import numpy as np
import pytest

from dimcert.errors import InvalidInputError
from dimcert.states import (
    DensityMatrix,
    PureState,
    extended_basis,
    family_state,
    isotropic,
    max_entangled,
    _purity,
    partial_trace,
    random_mixed,
    random_pure,
    read_state_json,
    rho_w,
    write_state_json,
)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gell_mann_orthonormal_hermitian_traceless(d):
    gens = extended_basis(d)[1:]
    assert gens.shape == (d * d - 1, d, d)
    for i in range(len(gens)):
        assert np.allclose(gens[i], gens[i].conj().T, atol=1e-12)
        assert abs(np.trace(gens[i])) < 1e-12
        for j in range(i, len(gens)):
            hs = np.trace(gens[i] @ gens[j])
            assert abs(hs - (1.0 if i == j else 0.0)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_extended_basis_prepends_identity(d):
    ext = extended_basis(d)
    assert ext.shape == (d * d, d, d)
    assert np.allclose(ext[0], np.eye(d) / np.sqrt(d))
    gram = np.einsum("kij,lji->kl", ext, ext)
    assert np.allclose(gram, np.eye(d * d), atol=1e-12)


def test_density_matrix_rejects_bad_shape():
    with pytest.raises(InvalidInputError, match="shape"):
        DensityMatrix(2, 3, np.eye(4) / 4)


def test_density_matrix_rejects_non_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.1
    with pytest.raises(InvalidInputError, match="[Hh]ermitian"):
        DensityMatrix(2, 2, m)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(InvalidInputError, match="trace"):
        DensityMatrix(2, 2, np.eye(4) / 2)


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    with pytest.raises(InvalidInputError, match="eigenvalue"):
        DensityMatrix(2, 2, m)


def test_density_matrix_accepts_tiny_negative_eigenvalue():
    # -1e-11 sits inside the 1e-10 tolerance; must not be projected away
    m = np.diag([0.5 + 1e-11, 0.5, 1e-11, -1e-11]).astype(complex)
    dm = DensityMatrix(2, 2, m / np.trace(m).real)
    assert dm.matrix[3, 3].real < 0


def _with_spectrum(dim, lam_min, seed):
    """A Hermitian unit-trace dim x dim matrix with smallest eigenvalue lam_min."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u = np.linalg.qr(z)[0]
    lam = rng.uniform(0.5, 1.0, dim)
    lam[0] = 0.0
    lam *= (1 - lam_min) / lam.sum()
    lam[0] = lam_min
    mat = (u * lam) @ u.conj().T
    return (mat + mat.conj().T) / 2


@pytest.mark.parametrize("d", [2, 6])
def test_positivity_threshold_pinned(d):
    # the Cholesky check must keep the -1e-10 floor of the spectrum check
    rejected = _with_spectrum(d * d, -2e-10, seed=d)
    with pytest.raises(InvalidInputError, match=r"eigenvalue -2\.000e-10"):
        DensityMatrix(d, d, rejected)
    accepted = _with_spectrum(d * d, -5e-11, seed=d)
    assert np.linalg.eigvalsh(accepted)[0] < 0
    DensityMatrix(d, d, accepted)


def test_positivity_accepts_rank_one_states():
    vec = random_pure(6, 6, seed=4).amplitudes
    DensityMatrix(6, 6, np.outer(vec, vec.conj()))
    max_entangled(7).to_density()


def test_states_copy_their_input_and_are_read_only():
    m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    rho = DensityMatrix(2, 2, m)
    m[0, 0] = 7
    m[1, 1] = -5
    assert np.array_equal(rho.matrix, np.diag([0.5, 0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1
    v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    psi = PureState(2, 2, v)
    v[0] = 5
    assert psi.amplitudes[0] == 1
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1


def test_pure_state_normalization_enforced():
    with pytest.raises(InvalidInputError, match="norm"):
        PureState(2, 2, np.array([1.0, 1.0, 0, 0], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_density_matrix_rejects_non_finite(bad):
    # a NaN on the diagonal passes every comparison-based check, so the
    # finite check has to come first
    m = np.eye(9, dtype=complex) / 9
    m[4, 4] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        DensityMatrix(3, 3, m)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_pure_state_rejects_non_finite(bad):
    vec = np.array([1.0, 0, 0, bad], dtype=complex)
    with pytest.raises(InvalidInputError, match="non-finite"):
        PureState(2, 2, vec)


def test_pure_state_rejects_wrong_length():
    with pytest.raises(InvalidInputError, match="does not match"):
        PureState(2, 3, np.full(4, 0.5))


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    ra = a @ a.conj().T
    ra /= np.trace(ra).real
    rb = b @ b.conj().T
    rb /= np.trace(rb).real
    rho = DensityMatrix(3, 2, np.kron(ra, rb))
    assert np.allclose(partial_trace(rho, "a"), ra, atol=1e-12)
    assert np.allclose(partial_trace(rho, "b"), rb, atol=1e-12)


def test_partial_trace_rejects_an_unknown_party():
    with pytest.raises(InvalidInputError, match="keep must be"):
        partial_trace(max_entangled(2), "c")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_max_entangled_marginals_maximally_mixed(d):
    rho = max_entangled(d).to_density()
    assert np.allclose(partial_trace(rho, "a"), np.eye(d) / d, atol=1e-12)
    assert abs(_purity(partial_trace(rho, "a")) - 1 / d) < 1e-12


def test_max_entangled_embedding_and_validation():
    psi = max_entangled(2, 4)
    lam = np.linalg.svd(psi.amplitudes.reshape(4, 4), compute_uv=False) ** 2
    assert np.allclose(lam[:2], [0.5, 0.5], atol=1e-12)
    assert np.allclose(lam[2:], 0, atol=1e-12)
    with pytest.raises(InvalidInputError):
        max_entangled(5, 3)
    with pytest.raises(InvalidInputError):
        max_entangled(0)


def test_isotropic_limits_and_validation():
    assert np.allclose(isotropic(3, 1.0).matrix, np.eye(9) / 9, atol=1e-12)
    me = max_entangled(3).to_density()
    assert np.allclose(isotropic(3, 0.0).matrix, me.matrix, atol=1e-12)
    with pytest.raises(InvalidInputError):
        isotropic(3, -0.01)
    with pytest.raises(InvalidInputError):
        isotropic(3, 1.01)


def test_rho_w_structure():
    rho = rho_w()
    assert (rho.dim_a, rho.dim_b) == (4, 4)
    eig = np.linalg.eigvalsh(rho.matrix)
    nz = eig[eig > 1e-12]
    assert np.allclose(nz, [0.5, 0.5], atol=1e-12)


def test_family_junction_values():
    # families A and B meet at |00><00| at their shared parameter endpoint
    a1 = family_state("A", 1.0)
    b1 = family_state("B", 1.0)
    assert np.allclose(a1.matrix, b1.matrix, atol=1e-12)
    # family C at 1/2 reduces to family B at 1/2 (two equal terms)
    c_half = family_state("C", 0.5)
    b_half = family_state("B", 0.5)
    assert np.allclose(c_half.matrix, b_half.matrix, atol=1e-12)


@pytest.mark.parametrize("family,bad", [
    ("A", -0.1), ("A", 1.1),
    ("B", 0.4), ("B", 1.01),
    ("C", 0.25), ("C", 0.6),
    ("D", -0.2), ("D", 1.2),
])
def test_family_param_validation(family, bad):
    with pytest.raises(InvalidInputError):
        family_state(family, bad)


def test_family_unknown_label():
    with pytest.raises(InvalidInputError):
        family_state("E", 0.5)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_random_pure_schmidt_rank_control(rank):
    psi = random_pure(3, 3, seed=11, schmidt_rank=rank)
    lam = np.linalg.svd(psi.amplitudes.reshape(3, 3), compute_uv=False) ** 2
    assert np.sum(lam > 1e-12) == rank


@pytest.mark.parametrize("da,db,rank", [
    (da, db, rank) for da, db in ((2, 3), (3, 5), (4, 2))
    for rank in range(1, min(da, db) + 1)])
def test_random_pure_schmidt_rank_with_unequal_dimensions(da, db, rank):
    # unequal sides draw their unitaries one after the other, not stacked
    psi = random_pure(da, db, seed=7, schmidt_rank=rank)
    assert psi.amplitudes.shape == (da * db,)
    assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12
    lam = np.linalg.svd(psi.amplitudes.reshape(da, db), compute_uv=False) ** 2
    assert np.sum(lam > 1e-12) == rank
    again = random_pure(da, db, seed=7, schmidt_rank=rank)
    assert np.array_equal(again.amplitudes, psi.amplitudes)
    other = random_pure(da, db, seed=8, schmidt_rank=rank)
    assert not np.allclose(other.amplitudes, psi.amplitudes)


def test_random_pure_deterministic():
    p1 = random_pure(3, 3, seed=4)
    p2 = random_pure(3, 3, seed=4)
    assert np.array_equal(p1.amplitudes, p2.amplitudes)
    p3 = random_pure(3, 3, seed=5)
    assert not np.allclose(p1.amplitudes, p3.amplitudes)


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_random_mixed_rank_and_validity(rank):
    rho = random_mixed(2, 2, rank, seed=9)
    eig = np.linalg.eigvalsh(rho.matrix)
    assert np.sum(eig > 1e-10) == min(rank, 4)
    assert abs(np.trace(rho.matrix).real - 1) < 1e-12


@pytest.mark.parametrize("make,name", [
    (lambda: max_entangled(True), "r"),
    (lambda: random_mixed(2, 2, True, seed=0), "rank"),
    (lambda: random_pure(3, 3, 0, schmidt_rank=True), "schmidt_rank"),
    (lambda: random_pure(3, 3, 0, schmidt_rank=2.0), "schmidt_rank"),
    (lambda: isotropic(np.int64(1), 0.5), "dimension"),
], ids=["r-bool", "rank-bool", "schmidt-bool", "schmidt-float", "d-low"])
def test_integer_arguments_reject_bool_float_and_range(make, name):
    with pytest.raises(InvalidInputError, match=f"^{name} must be"):
        make()


def test_state_json_round_trip(tmp_path):
    rho = rho_w()
    path = tmp_path / "state.json"
    write_state_json(rho, str(path))
    back = read_state_json(str(path))
    assert (back.dim_a, back.dim_b) == (4, 4)
    assert np.allclose(back.matrix, rho.matrix, atol=1e-15)
    assert np.array_equal(read_state_json(path).matrix, back.matrix)  # PathLike


def test_state_json_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim_a": 2, "dim_b": 2, "re": [[1, 0], [0, 0]]}))
    with pytest.raises(InvalidInputError, match="im"):
        read_state_json(str(path))


def test_state_json_invalid_matrix(tmp_path):
    path = tmp_path / "bad.json"
    re = (np.eye(4) / 2).tolist()
    im = np.zeros((4, 4)).tolist()
    path.write_text(json.dumps({"dim_a": 2, "dim_b": 2, "re": re, "im": im}))
    with pytest.raises(InvalidInputError, match="trace"):
        read_state_json(str(path))


@pytest.mark.parametrize("real, imag, shapes", [
    (0.25, [[0] * 4] * 4, "'re' has shape () and 'im' (4, 4)"),
    ([[0.25] * 4] * 4, 0, "'re' has shape (4, 4) and 'im' ()"),
    ([[0.25] * 4] * 4, [[0] * 4], "'re' has shape (4, 4) and 'im' (1, 4)"),
], ids=["scalar-re", "scalar-im", "row-im"])
def test_state_json_re_and_im_must_share_a_shape(tmp_path, real, imag, shapes):
    # broadcast together, each pair reads as the all-0.25 matrix, a valid state
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim_a": 2, "dim_b": 2, "re": real, "im": imag}))
    with pytest.raises(InvalidInputError, match=re.escape(shapes)):
        read_state_json(str(path))


@pytest.mark.parametrize("entry", ["0.25", 10 ** 400],
                         ids=["numeric-str", "int-beyond-float"])
def test_state_json_entries_must_be_numbers(tmp_path, entry):
    # "0.25" once read as 0.25, and 10**400 stopped the reader with an
    # OverflowError instead of an invalid-input error
    real = [[0.25] * 4 for _ in range(4)]
    real[0][0] = entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim_a": 2, "dim_b": 2, "re": real,
                                "im": [[0] * 4] * 4}))
    with pytest.raises(InvalidInputError, match="'re' must be a numeric array"):
        read_state_json(str(path))


def test_state_json_not_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(InvalidInputError):
        read_state_json(str(path))
