"""Exact Schmidt-number criteria and their certificates."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from dimcert.boundary import classify_point
from dimcert.correlations import CorrelationData, correlation_data
from dimcert.criteria import (
    VIOLATION_TOL,
    SchmidtCertificate,
    _fidelity,
    _fidelity_targets,
    _overlaps,
    _verdict,
    compare_all,
    sn_ccnr,
    sn_covariance,
    sn_fidelity,
    sn_reduction_map,
    sn_trace_norm,
    sn_two_norm,
)
from dimcert.errors import InvalidInputError
from dimcert.randsim import haar_unitary
from dimcert.states import (
    STRUCT_TOL,
    DensityMatrix,
    PureState,
    isotropic,
    max_entangled,
    partial_trace,
    random_mixed,
    random_pure,
    rho_w,
)

from test_correlations import _zoo


def _max_mixed(d):
    return DensityMatrix(d, d, np.eye(d * d) / (d * d))


def _product_pure(d):
    vec = np.zeros(d * d, dtype=complex)
    vec[0] = 1.0
    return PureState(d, d, vec)


def _separable_mixture(d, seed, terms=5):
    rng = np.random.default_rng(seed)
    mat = np.zeros((d * d, d * d), dtype=complex)
    w = rng.dirichlet(np.ones(terms))
    for k in range(terms):
        za = rng.normal(size=d) + 1j * rng.normal(size=d)
        zb = rng.normal(size=d) + 1j * rng.normal(size=d)
        za /= np.linalg.norm(za)
        zb /= np.linalg.norm(zb)
        v = np.kron(za, zb)
        mat += w[k] * np.outer(v, v.conj())
    return DensityMatrix(d, d, mat)


# --- trace norm -----------------------------------------------------------

def test_trace_norm_isotropic_fixtures():
    assert sn_trace_norm(isotropic(3, 0.0)).certified_lower_bound == 3
    assert sn_trace_norm(isotropic(3, 0.5)).certified_lower_bound == 2
    assert sn_trace_norm(_max_mixed(3)).certified_lower_bound == 1


def test_trace_norm_margin_positive_iff_bound_above_one():
    cert = sn_trace_norm(isotropic(3, 0.5))
    assert cert.margin > 0
    cert = sn_trace_norm(_max_mixed(3))
    assert cert.margin == 0.0


def test_trace_norm_unequal_dims_supported():
    cert = sn_trace_norm(random_mixed(2, 3, 2, seed=1))
    assert 1 <= cert.certified_lower_bound <= 2


# --- ccnr -----------------------------------------------------------------

def test_ccnr_fixtures():
    assert sn_ccnr(rho_w()).certified_lower_bound == 3
    assert sn_ccnr(_product_pure(3).to_density()).certified_lower_bound == 1
    for d in (2, 3, 4):
        assert sn_ccnr(max_entangled(d).to_density()).certified_lower_bound == d


def _diagonal_corr(xi):
    """Two-qubit correlation data whose full matrix is diag(xi), so its
    operator Schmidt values are xi; no state need have them."""
    full = np.diag(xi)
    return CorrelationData(dim_a=2, dim_b=2, full=full, su=full[1:, 1:],
                           vector_a=np.zeros(3), vector_b=np.zeros(3))


def test_ccnr_boundary_rounding_is_conservative():
    # a sum within 1e-9 above an integer must not certify the next bound
    cert = sn_ccnr(_diagonal_corr([1.0, 0.5, 0.5 + 5e-10, 0.0]))
    assert cert.certified_lower_bound == 2
    assert [row["violated"] for row in cert.details["per_r"]] == [True, False]


def test_violated_last_row_voids_the_certificate():
    # no state has operator Schmidt values summing above min(d_a, d_b), nor
    # S2 beyond the last endpoint (d + 1)^2, so those points are void
    corr = _diagonal_corr([2.5, 0.5, 0.0, 0.0])
    for cert in (sn_ccnr(corr), classify_point(17.0, 100.0, 3),
                 classify_point(17.0, 100.0, 3, std_s2=0.1, std_s4=0.1,
                                k_sigma=2.0)):
        assert [row["violated"] for row in cert.details["per_r"]][-1]
        assert (cert.certified_lower_bound, cert.margin) == (1, 0.0)
        assert cert.details["outside_state_space"] is True
    # valid states never carry the flag
    for rho in (rho_w(), max_entangled(3).to_density(), isotropic(3, 0.2)):
        for cert in compare_all(rho).certificates:
            assert "outside_state_space" not in cert.details


def test_verdict_reads_the_largest_violated_row():
    def margin(r):
        return 0.1 * r
    assert _verdict([False, False, False], margin) == (1, 0.0, False)
    assert _verdict([True, False, False], margin) == (2, 0.1, False)
    assert _verdict([False, True, False], margin) == (3, 0.2, False)
    assert _verdict([True, True, True], margin) == (1, 0.0, True)


def _best_target_by_verdict(rho, vecs):
    """Index of the best target, ranked by ``_verdict`` one target at a time.

    The per-target rule the vectorised ranking in ``_fidelity`` replaces:
    the largest (bound, margin), the first target on a tie.
    """
    lams = np.linalg.svd(vecs.reshape(-1, rho.dim_a, rho.dim_b),
                         compute_uv=False) ** 2
    fids = [float(np.real(t.conj() @ rho.matrix @ t)) for t in vecs]
    sums = np.cumsum(lams, axis=1).tolist()

    def rank(i):
        return _verdict([fids[i] > c + VIOLATION_TOL for c in sums[i]],
                        lambda r: fids[i] - sums[i][r - 1])[:2]

    return max(range(len(vecs)), key=rank)


def test_fidelity_ranks_targets_by_the_certificate_rule():
    # trace 1.2 puts the overlap with phi+ above 1, the last row, so that
    # target is void and the target certifying 2 must win the ranking
    phi = np.array([1, 0, 0, 1]) / math.sqrt(2)
    tilted = np.array([math.sqrt(0.9), 0, 0, math.sqrt(0.1)])
    rho = SimpleNamespace(dim_a=2, dim_b=2, matrix=1.2 * np.outer(phi, phi))
    cert = _fidelity(rho, np.stack([phi, tilted]), ["phi", "tilted"])
    assert cert.certified_lower_bound == 2
    assert cert.details["target"] == "tilted"
    assert "outside_state_space" not in cert.details
    void = _fidelity(rho, phi[None], ["phi"])
    assert void.certified_lower_bound == 1
    assert void.details["outside_state_space"] is True
    # an exact tie goes to the first target, also when nothing is certified
    for state in (max_entangled(2).to_density(), _max_mixed(2)):
        cert = _fidelity(state, np.stack([phi, phi]), ["first", "second"])
        assert cert.details["target"] == "first"
    # the vectorised ranking picks the target _verdict picks per target; in
    # max_entangled(d) the last maximally entangled target and the dominant
    # eigenvector tie in exact arithmetic
    states = [max_entangled(d).to_density() for d in range(2, 6)]
    states += [max_entangled(2, 4).to_density(), rho_w(), isotropic(3, 0.2),
               isotropic(4, 0.6), _max_mixed(3)]
    states += [random_mixed(da, db, rank, seed=seed)
               for seed, (da, db, rank) in enumerate(
                   [(2, 2, 1), (3, 3, 2), (4, 4, 3), (5, 5, 4), (6, 6, 6),
                    (2, 3, 2), (3, 4, 5), (4, 3, 2)])]
    states += [random_pure(d, d, seed=d, schmidt_rank=d - 1).to_density()
               for d in (3, 4, 5)]
    for state in states:
        vecs, labels = _fidelity_targets(state)
        cert = _fidelity(state, vecs, labels)
        assert cert.details["target"] == labels[_best_target_by_verdict(state, vecs)]


@pytest.mark.parametrize("dims", [(d, d) for d in range(2, 7)] + [(2, 3), (3, 4)],
                         ids=lambda dims: "x".join(map(str, dims)))
def test_stacked_overlaps_equal_per_target_products(dims):
    # the witness scores all targets with one stacked product; it must give
    # the bits of the per-target product, or a tie between targets can flip
    n = dims[0] * dims[1]
    for seed in range(8):
        rho = random_mixed(*dims, rank=1 + seed * 3 % n, seed=seed)
        vecs, _ = _fidelity_targets(rho)
        others = np.stack([random_pure(*dims, seed=100 + seed + k).amplitudes
                           for k in range(3)])
        for stack in (vecs, np.concatenate([vecs, others])):
            fids = _overlaps(rho.matrix, stack)
            for fid, t in zip(fids, stack):
                assert fid == float(np.real(t.conj() @ rho.matrix @ t))


def test_compare_all_lapack_call_budget(monkeypatch):
    # one compare_all makes one eigh (the dominant eigenvector), three SVDs
    # (su with the covariance cross block, the full matrix, the fidelity
    # targets) and at most ceil(log2(min(d_a, d_b) + 1)) reduction-map
    # Cholesky probes, with one eigvalsh right after each failed probe
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except np.linalg.LinAlgError:
                calls.append((name, False))
                raise
            calls.append((name, True))
            return out
        return wrapper

    states = [max_entangled(d).to_density() for d in (2, 3, 5)]
    states += [rho_w(), isotropic(3, 0.2), isotropic(6, 0.5), _max_mixed(4)]
    states += [random_mixed(da, db, rank, seed=seed)
               for seed, (da, db, rank) in enumerate(
                   [(3, 3, 2), (4, 4, 9), (5, 5, 3), (6, 6, 30),
                    (2, 3, 2), (3, 4, 5), (4, 3, 3)])]
    for name in ("svd", "eigh", "eigvalsh", "cholesky", "eig", "eigvals",
                 "qr", "lstsq", "inv", "solve", "det", "slogdet", "pinv"):
        monkeypatch.setattr(np.linalg, name,
                            counted(name, getattr(np.linalg, name)))
    failed_probes = 0
    for rho in states:
        calls.clear()
        compare_all(rho)
        names = [name for name, _ in calls]
        assert names.count("eigh") == 1
        assert names.count("svd") == 3
        probes = [ok for name, ok in calls if name == "cholesky"]
        dmin = min(rho.dim_a, rho.dim_b)
        assert len(probes) <= math.ceil(math.log2(dmin + 1))
        assert names.count("eigvalsh") == probes.count(False)
        for before, (name, _) in zip(calls, calls[1:]):
            if name == "eigvalsh":
                assert before == ("cholesky", False)
        assert set(names) <= {"svd", "eigh", "eigvalsh", "cholesky"}
        failed_probes += probes.count(False)
    assert failed_probes > 0  # the states exercise the eigvalsh path


def test_ccnr_rejects_malformed_value_arrays():
    # only a state or its correlation data is accepted, never raw values
    with pytest.raises(InvalidInputError):
        sn_ccnr(np.array([0.5, -0.2, 0.1, 0.0]))
    with pytest.raises(InvalidInputError):
        sn_ccnr(np.array([1.0, 0.5, 0.5]))
    with pytest.raises(InvalidInputError):
        sn_ccnr(np.array([1.0, 0.5, 0.5, 0.0]))


# --- two norm -------------------------------------------------------------

def test_two_norm_max_entangled_boundary_equality():
    # r = d sits exactly on the bound for |Psi+^d>; only r < d violates
    cert = sn_two_norm(max_entangled(3).to_density())
    assert cert.certified_lower_bound == 3
    rows = cert.details["per_r"]
    assert rows[-1]["violated"] is False


def test_two_norm_unequal_dims_rejected():
    with pytest.raises(InvalidInputError, match="equal"):
        sn_two_norm(random_mixed(2, 3, 2, seed=1))


def test_two_norm_never_beats_trace_norm():
    for p in (0.0, 0.2, 0.5, 0.8):
        rho = isotropic(3, p)
        assert (sn_trace_norm(rho).certified_lower_bound
                >= sn_two_norm(rho).certified_lower_bound)


def test_two_norm_per_r_rows():
    per_r = sn_two_norm(max_entangled(3).to_density()).details["per_r"]
    assert len(per_r) == 3
    assert per_r[2 - 1]["violated"]
    assert not per_r[3 - 1]["violated"]


# --- fidelity -------------------------------------------------------------

def test_fidelity_self_target():
    me = max_entangled(3)
    cert = sn_fidelity(me.to_density(), me)
    assert cert.certified_lower_bound == 3
    assert abs(cert.details["fidelity"] - 1.0) < 1e-12


def test_fidelity_max_mixed_certifies_nothing():
    cert = sn_fidelity(_max_mixed(3), max_entangled(3))
    assert cert.certified_lower_bound == 1
    assert abs(cert.details["fidelity"] - 1 / 9) < 1e-12


def test_fidelity_rho_w_capped_at_two():
    rho = rho_w()
    targets = [max_entangled(4)]
    _, vecs = np.linalg.eigh(rho.matrix)
    targets.append(PureState(4, 4, vecs[:, -1]))
    for t in targets:
        assert sn_fidelity(rho, t).certified_lower_bound <= 2


def test_fidelity_dimension_mismatch():
    with pytest.raises(InvalidInputError, match="dimension"):
        sn_fidelity(_max_mixed(3), max_entangled(4))


def test_fidelity_target_must_be_a_pure_state():
    with pytest.raises(InvalidInputError, match="PureState"):
        sn_fidelity(_max_mixed(3), max_entangled(3).to_density())


# --- reduction map --------------------------------------------------------

def test_reduction_map_fixtures():
    cert = sn_reduction_map(isotropic(3, 0.0))
    assert cert.details["per_r"][2 - 1]["violated"]
    assert cert.certified_lower_bound == 3
    cert = sn_reduction_map(random_mixed(3, 3, 6, seed=5))
    assert not cert.details["per_r"][3 - 1]["violated"]
    cert = sn_reduction_map(_product_pure(3).to_density())
    assert not cert.details["per_r"][1 - 1]["violated"]


def _reduction_map_reference(rho):
    """The stacked-eigvalsh reduction map: (bound, margin, flags, eigenvalues)."""
    rs = np.arange(1, min(rho.dim_a, rho.dim_b) + 1)
    rho_a = partial_trace(rho, "a")[:, None, :, None]
    base = (rho_a * np.eye(rho.dim_b)[:, None]).reshape(rho.dim, rho.dim)
    eig_min = np.linalg.eigvalsh(base - rho.matrix / rs[:, None, None])[:, 0]
    flags = [bool(e < -STRUCT_TOL) for e in eig_min]
    violated = [r for r, flag in zip(rs, flags) if flag]
    if not violated:
        return 1, 0.0, flags, eig_min.tolist()
    top = int(violated[-1])
    return min(top + 1, len(rs)), -float(eig_min[top - 1]), flags, eig_min.tolist()


def _rank_constrained_mixture(d, seed):
    """A mixture of 2-4 pure states of Schmidt rank <= r, r drawn from 1..d."""
    rng = np.random.default_rng([seed, d])
    r = int(rng.integers(1, d + 1))
    m = int(rng.integers(2, 5))
    mat = sum(w * random_pure(d, d, seed=int(rng.integers(2**31)),
                              schmidt_rank=int(rng.integers(1, r + 1)))
              .to_density().matrix for w in rng.dirichlet(np.ones(m)))
    return DensityMatrix(d, d, (mat + mat.conj().T) / 2)


def _reduction_map_cases():
    cases = [_rank_constrained_mixture(d, seed)
             for d in range(2, 7) for seed in range(12)]
    cases += [isotropic(d, p) for d in (3, 5, 6) for p in (0.0, 0.3, 0.6, 0.9)]
    for da, db in ((2, 3), (3, 5), (4, 2)):
        cases += [random_mixed(da, db, rank, seed)
                  for rank in (1, 2, 4) for seed in range(3)]
        cases += [random_pure(da, db, seed=seed).to_density()
                  for seed in range(3)]
    return cases + [rho_w(), max_entangled(4).to_density(), isotropic(3, 0)]


@pytest.mark.parametrize("rho", _reduction_map_cases())
def test_reduction_map_bisection_matches_stacked_reference(rho):
    bound, margin, flags, eig_min = _reduction_map_reference(rho)
    cert = sn_reduction_map(rho)
    rows = cert.details["per_r"]
    assert (cert.certified_lower_bound, cert.margin) == (bound, margin)
    assert [row["violated"] for row in rows] == flags
    assert [row["r"] for row in rows] == list(range(1, len(flags) + 1))
    # the violated rows are a prefix
    top = sum(flags)
    assert flags == [True] * top + [False] * (len(flags) - top)
    spectra = [row for row in rows if "min_eigenvalue" in row]
    for row in spectra:
        assert row["min_eigenvalue"] == eig_min[row["r"] - 1]
    if top:
        assert "min_eigenvalue" in rows[top - 1]
    dmin = min(rho.dim_a, rho.dim_b)
    assert len(spectra) <= math.ceil(math.log2(dmin + 1))


def test_reduction_map_cases_reach_every_bound_at_d6():
    # so the reference comparison above takes every branch of the bisection
    bounds = {sn_reduction_map(rho).certified_lower_bound
              for rho in _reduction_map_cases() if rho.dim_a == rho.dim_b == 6}
    assert bounds == set(range(1, 7))


@pytest.mark.parametrize("d", [2, 3, 6])
def test_reduction_map_product_state_computes_no_spectrum(d, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a)
        return eigvalsh(a, *args, **kwargs)

    rho = _product_pure(d).to_density()
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    cert = sn_reduction_map(rho)
    assert cert.certified_lower_bound == 1 and cert.margin == 0.0
    assert calls == []
    assert all("min_eigenvalue" not in row for row in cert.details["per_r"])
    assert [row["violated"] for row in cert.details["per_r"]] == [False] * d


# --- covariance -----------------------------------------------------------

def test_covariance_fixtures():
    cert = sn_covariance(max_entangled(3).to_density())
    assert cert.certified_lower_bound == 3
    assert abs(cert.details["cross_trace_norm"] - 8 / 3) < 1e-9
    assert sn_covariance(_product_pure(3).to_density()).certified_lower_bound == 1
    assert sn_covariance(rho_w()).certified_lower_bound == 3


# --- certificate invariants ----------------------------------------------

def test_certificate_constructor_guards():
    with pytest.raises(InvalidInputError):
        SchmidtCertificate("nonsense", 1, 0.0)
    with pytest.raises(InvalidInputError):
        SchmidtCertificate("ccnr", 0, 0.0)
    with pytest.raises(InvalidInputError):
        SchmidtCertificate("ccnr", 2, 0.0)


def test_certificates_capped_by_min_dimension():
    for rho in (rho_w(), random_mixed(2, 3, 3, seed=8), isotropic(4, 0.1)):
        rep = compare_all(rho)
        dmin = min(rho.dim_a, rho.dim_b)
        for cert in rep.certificates:
            assert 1 <= cert.certified_lower_bound <= dmin
            if cert.certified_lower_bound > 1:
                assert cert.margin > 0


def test_separable_mixtures_certify_nothing():
    for d, seed in ((2, 0), (3, 1), (3, 2), (4, 3)):
        rep = compare_all(_separable_mixture(d, seed))
        assert rep.best_bound == 1, rep


def test_ccnr_at_least_max_entangled_fidelity_bound():
    # the xi sum dominates the correlation trace, so realignment can
    # never certify less than the maximally-entangled-target fidelity
    zoo = [max_entangled(3).to_density(), isotropic(3, 0.2),
           random_mixed(3, 3, 3, seed=11), rho_w(),
           random_pure(4, 4, seed=12).to_density()]
    for rho in zoo:
        fid = sn_fidelity(rho, max_entangled(rho.dim_a))
        assert sn_ccnr(rho).certified_lower_bound >= fid.certified_lower_bound


def test_isotropic_bounds_monotone_in_noise():
    grid = np.linspace(0, 1, 11)
    prev = {cid: 4 for cid in
            ("trace_norm", "ccnr", "two_norm", "fidelity",
             "reduction_map", "covariance")}
    for p in grid:
        rep = compare_all(isotropic(3, float(p)))
        for cert in rep.certificates:
            assert cert.certified_lower_bound <= prev[cert.criterion_id]
            prev[cert.criterion_id] = cert.certified_lower_bound


def test_local_unitary_invariance_of_certificates():
    rng = np.random.default_rng(23)
    for rho in (rho_w(), isotropic(3, 0.3), random_mixed(3, 3, 4, seed=14)):
        d = rho.dim_a
        u, v = haar_unitary(d, rng), haar_unitary(d, rng)
        w = np.kron(u, v)
        rotated = DensityMatrix(d, d, w @ rho.matrix @ w.conj().T)
        for fn in (sn_trace_norm, sn_ccnr, sn_two_norm, sn_covariance,
                   sn_reduction_map):
            c0, c1 = fn(rho), fn(rotated)
            assert c0.certified_lower_bound == c1.certified_lower_bound
            assert abs(c0.margin - c1.margin) < 1e-9
            assert ([row["violated"] for row in c0.details["per_r"]]
                    == [row["violated"] for row in c1.details["per_r"]])


def test_compare_all_report_fixtures():
    rep = compare_all(rho_w())
    assert rep.best_bound == 3
    by_id = {c.criterion_id: c for c in rep.certificates}
    assert by_id["fidelity"].certified_lower_bound <= 2
    rep = compare_all(isotropic(3, 0.9))
    assert rep.best_bound == 1
    rep = compare_all(max_entangled(4).to_density())
    assert all(c.certified_lower_bound == 4 for c in rep.certificates)


def test_compare_all_equals_standalone_criteria():
    for rho in _zoo():
        report = compare_all(rho)
        by_id = {c.criterion_id: c for c in report.certificates}
        parts = [sn_trace_norm(rho), sn_ccnr(rho), sn_covariance(rho),
                 sn_reduction_map(rho)]
        if rho.dim_a == rho.dim_b:
            parts.append(sn_two_norm(rho))
        assert len(report.certificates) == len(parts) + 1
        for part in parts:
            assert by_id[part.criterion_id] == part
        # the fidelity entry is the best target's certificate, in full
        vecs, labels = _fidelity_targets(rho)
        fid = by_id["fidelity"]
        assert fid.details["targets_tested"] == labels
        for vec, label in zip(vecs, labels):
            target = PureState(rho.dim_a, rho.dim_b, vec)
            part = sn_fidelity(rho, target, label=label)
            assert ((part.certified_lower_bound, part.margin)
                    <= (fid.certified_lower_bound, fid.margin))
            if label == fid.details["target"]:
                part.details["targets_tested"] = labels
                assert part == fid


@pytest.mark.parametrize("fn", [
    sn_trace_norm, sn_ccnr, sn_two_norm, sn_covariance, sn_reduction_map,
], ids=lambda fn: fn.__name__)
def test_criteria_take_a_state_or_its_correlation_data(fn):
    psi = random_pure(3, 3, seed=4, schmidt_rank=2)
    inputs = [psi, psi.to_density()]
    if fn is sn_reduction_map:
        # the reduction map needs the density matrix itself
        with pytest.raises(InvalidInputError):
            fn(correlation_data(psi))
    else:
        inputs.append(correlation_data(psi))
    certs = [fn(x) for x in inputs]
    assert [row["r"] for row in certs[0].details["per_r"]] == [1, 2, 3]
    assert certs[0].certified_lower_bound == 2
    assert all(cert == certs[0] for cert in certs)


def test_compare_all_builds_no_pure_state(monkeypatch):
    # the fidelity targets are plain vectors, not validated states
    zoo = _zoo()
    built = []
    init = PureState.__post_init__

    def counting(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(PureState, "__post_init__", counting)
    for rho in zoo:
        compare_all(rho)
    assert built == []


def test_compare_all_builds_correlation_data_once(monkeypatch):
    import dimcert.criteria
    calls = []

    def counting(rho):
        calls.append(rho)
        return correlation_data(rho)

    monkeypatch.setattr(dimcert.criteria, "correlation_data", counting)
    for rho in _zoo():
        calls.clear()
        compare_all(rho)
        assert len(calls) == 1
