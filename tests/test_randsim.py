"""Simulated randomized measurements: sampling, estimators, detection."""

import tracemalloc

import numpy as np
import pytest

from dimcert.correlations import _basis_matrix, correlation_data
from dimcert.errors import InvalidInputError
from dimcert.moments import exact_moments
from dimcert import randsim
from dimcert.randsim import (
    BLOCK,
    _NS_MAIN,
    _block_rng,
    _local_vectors,
    _normals,
    _observable_m,
    _sample_x,
    _sampling_path,
    analytic_noise_threshold,
    detect_with_confidence,
    estimate_moments,
    haar_unitary,
    noise_tolerance,
    predicted_variance,
)
from dimcert.states import (
    PureState,
    _haar_unitaries,
    isotropic,
    max_entangled,
    random_mixed,
)


def me3():
    return max_entangled(3)


def product3():
    vec = np.zeros(9, dtype=complex)
    vec[0] = 1.0
    return PureState(3, 3, vec).to_density()


# --- unitary sampler ------------------------------------------------------

def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        u = haar_unitary(d, rng)
        assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)


def test_haar_unitary_deterministic_given_rng_state():
    a = haar_unitary(4, np.random.default_rng(7))
    b = haar_unitary(4, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_haar_first_moment_uniform_rows():
    # E|u_ij|^2 = 1/d for a Haar unitary; check within 4 standard errors
    d, n = 3, 4000
    rng = np.random.default_rng(11)
    acc = np.zeros((d, d))
    for _ in range(n):
        u = haar_unitary(d, rng)
        acc += np.abs(u) ** 2
    acc /= n
    # var of |u|^2 is (d-1)/(d^2(d+1)) ~ 0.0185 for d=3
    se = np.sqrt((d - 1) / (d * d * (d + 1)) / n)
    assert np.all(np.abs(acc - 1 / d) < 4 * se + 1e-3)


def test_haar_unitary_accepts_seed_or_none():
    assert np.array_equal(haar_unitary(3, 5),
                          haar_unitary(3, np.random.default_rng(5)))
    u = haar_unitary(4, None)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


class _Recording:
    """A generator that keeps a copy of every array of normals it hands out;
    with ``zero_lead`` the first entry of each column longer than one is 0."""

    def __init__(self, seed, zero_lead=False):
        self.rng, self.draws = np.random.default_rng(seed), []
        self.zero_lead = zero_lead

    def standard_normal(self, out):
        out[...] = self.rng.standard_normal(out.shape)
        if self.zero_lead and len(out) > 1:
            out[0] = 0
        self.draws.append(out.copy())
        return out


def _as_matrices(u):
    """``(k, d, *shape)`` columns as a ``(*shape, d, k)`` stack of matrices."""
    return np.moveaxis(u, (0, 1), (-1, -2))


def _reflected_columns(x):
    """Reference construction from explicit matrices: the unit vectors v_i of
    the drawn columns x_i (length d - i), each placed in rows i.. and sent
    through the reflections I - 2 w w^dag / (w^dag w) of the earlier columns,
    w = v_l + e^(i arg v_l[0]) e_0 on coordinates l.."""
    d = len(x[0])
    cols, reflections = [], []
    for i, xi in enumerate(x):
        v = np.zeros(d, dtype=complex)
        v[i:] = xi / np.linalg.norm(xi)
        w = v.copy()
        w[i] += v[i] / abs(v[i]) if v[i] else 1
        refl = np.eye(d, dtype=complex)
        refl[i:, i:] -= 2 * np.outer(w[i:], w[i:].conj()) / np.vdot(w, w).real
        for r in reversed(reflections):
            v = r @ v
        cols.append(v)
        reflections.append(refl)
    return np.array(cols)


@pytest.mark.parametrize("zero_lead", [False, True], ids=["drawn", "zero-lead"])
@pytest.mark.parametrize("d", range(2, 8))
def test_householder_matches_explicit_reflections(d, zero_lead):
    # column i reads one array of (d - i) normals per stack entry, in column
    # order; each stack entry rebuilt from its own normals, one matrix at a
    # time; a leading entry v_l[0] = 0 takes the reflection with e_0
    rec = _Recording(d, zero_lead)
    u = _haar_unitaries((3, 70), d, rec)
    assert u.shape == (d, d, 3, 70)
    assert [x.shape for x in rec.draws] == [(d - i, 420) for i in range(d)]
    x = [raw.view(np.complex128).reshape(d - i, 3, 70)
         for i, raw in enumerate(rec.draws)]
    worst = max(np.max(np.abs(_reflected_columns([xi[:, s, t] for xi in x])
                              - u[:, :, s, t]))
                for s in range(3) for t in range(70))
    assert worst < 1e-13


@pytest.mark.parametrize("d", [3, 5, 7])
def test_fewer_columns_draw_a_prefix_of_the_same_stream(d):
    # column i draws its rows i.. in column order, so the k leading columns
    # read a prefix of the full draw from the same block key and give the
    # leading columns of the same unitaries, for the sampler's k = (d+1)/2
    full = _haar_unitaries((2 * 500,), d, _block_rng(5, _NS_MAIN, 3))
    z = _normals(d, _observable_m(d), 500, _block_rng(5, _NS_MAIN, 3))
    assert z.shape == ((d + 1) // 2, d, 2, 500)
    assert np.array_equal(z.reshape(-1, d, 1000), full[:len(z)])
    for k in range(1, d + 1):
        lead = _haar_unitaries((1000,), d, _block_rng(5, _NS_MAIN, 3), k)
        assert np.array_equal(lead, full[:k])


@pytest.mark.parametrize("d", [3, 5, 7])
def test_haar_unitaries_unitary_over_a_million_draws(d):
    rng = np.random.default_rng(100 + d)
    worst = 0.0
    for _ in range(2 ** 20 // 2 ** 13):
        u = _as_matrices(_haar_unitaries((2 ** 13,), d, rng))
        gram = u.conj().swapaxes(-1, -2) @ u
        worst = max(worst, float(np.max(np.abs(gram - np.eye(d)))))
    assert worst < 1e-11


@pytest.mark.parametrize("d", [3, 5, 7])
def test_haar_columns_fourth_moments(d):
    # Haar: E|U_ij|^4 = 2/(d(d+1)) and E|U_ij|^2 |U_il|^2 = 1/(d(d+1)) for
    # j != l, column by column, which isotropy of U M U^dag cannot see; over
    # 2^16 draws of the kernel haar_unitary calls, within 5 standard errors
    draws, rng = 2 ** 16, np.random.default_rng(60 + d)
    total = total_sq = 0
    for _ in range(draws // 2 ** 12):
        sq = np.abs(_haar_unitaries((2 ** 12,), d, rng)) ** 2  # [j, i, draw]
        stat = sq[:, None] * sq[None, :]  # [j, l, i, draw]
        total = total + stat.sum(axis=-1)
        total_sq = total_sq + (stat * stat).sum(axis=-1)
    mean = total / draws
    se = np.sqrt((total_sq / draws - mean ** 2) / draws)
    want = np.where(np.eye(d, dtype=bool)[:, :, None], 2, 1) / (d * (d + 1))
    assert np.all(np.abs(mean - want) < 5 * se)


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_truncated_local_vectors_match_full_projection(d):
    # (d+1)/2 orthonormal columns give the su(d) part of U M U^dag exactly
    m_eigs = _observable_m(d)
    vecs = _local_vectors(
        d, m_eigs, _normals(d, m_eigs, 300, np.random.default_rng(d)))
    u = _as_matrices(_haar_unitaries((2 * 300,), d, np.random.default_rng(d)))
    rot = (u * m_eigs) @ u.conj().swapaxes(-1, -2)
    ref = (rot.reshape(600, d * d) @ _basis_matrix(d)[1:].T).real
    assert vecs.shape == (d * d - 1, 2, 300)
    assert np.max(np.abs(vecs - ref.T.reshape(d * d - 1, 2, 300))) < 1e-12
    assert np.allclose(np.sum(vecs ** 2, axis=0), d, atol=1e-12)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_haar_local_vectors_are_isotropic(d):
    # Haar U makes the su(d) vector of U M U^dag rotation invariant, so
    # E[a a^T] = |a|^2/(d^2 - 1) I; a mis-scaled block of generators breaks
    # this, and so does a non-Haar draw, which same-draw references miss
    n, draws = d * d - 1, 2 ** 16
    rng = np.random.default_rng(40 + d)
    a = np.concatenate([
        _local_vectors(d, _observable_m(d),
                       _normals(d, _observable_m(d), draws // 8, rng)
                       ).reshape(n, -1)
        for _ in range(4)], axis=1)
    mean = a @ a.T / draws
    se = np.sqrt(np.maximum((a * a) @ (a * a).T / draws - mean ** 2, 0)
                 / draws)
    assert np.all(np.abs(mean - d / n * np.eye(n)) < 5 * se)


# --- the sampling engine ---------------------------------------------------

# draws per chunk of the 4.53 MiB scratch buffer at d = 3, 5, 7
_CHUNKS = {"haar": {3: 4096, 5: 2048, 7: 1024}, "bloch": {3: 4096, 5: 4096, 7: 4096}}


def _block_normals(d, m_eigs, size, seed, block):
    """A block's normals as the sampler draws them: each chunk in turn from
    the block's generator, joined along the draw axis."""
    rng = _block_rng(seed, _NS_MAIN, block)
    chunk = _CHUNKS["bloch" if m_eigs is None else "haar"][d]
    return np.concatenate([_normals(d, m_eigs, min(chunk, size - lo), rng)
                           for lo in range(0, size, chunk)], axis=-1)


@pytest.mark.parametrize("rho, n", [
    (max_entangled(3).to_density(), 200), (isotropic(5, 0.3), 200),
    (random_mixed(7, 7, 4, seed=1), 200),
    (max_entangled(3).to_density(), BLOCK + 700),
    (random_mixed(7, 7, 4, seed=1), BLOCK + 700),
], ids=["me3", "iso5", "mixed7", "me3-two-blocks", "mixed7-two-blocks"])
def test_haar_samples_match_kron_reference(rho, n):
    # x = Re tr(rho (U M U^dag (x) V M V^dag)) with the unitaries of each
    # chunk; past BLOCK the run crosses chunks and ends in a partial block.
    # Each chunk draws the k leading columns of U and V; U M U^dag does not
    # depend on the other columns, so any orthonormal completion will do
    d, seed = rho.dim_a, 13
    x = estimate_moments(rho, n, seed, path="haar", keep_samples=True).samples
    m_eigs = _observable_m(d)
    m, pad = np.diag(m_eigs), np.random.default_rng(0)
    ref = []
    for b, start in enumerate(range(0, n, BLOCK)):
        size = min(BLOCK, n - start)
        lead = _as_matrices(
            _block_normals(d, m_eigs, size, seed, b).reshape(-1, d, 2 * size))
        k = lead.shape[-1]
        q = np.linalg.qr(np.concatenate(
            [lead, pad.standard_normal((2 * size, d, d - k))], axis=-1))[0]
        u = np.concatenate([lead, q[..., k:]], axis=-1)
        assert np.allclose(u.conj().swapaxes(-1, -2) @ u, np.eye(d), atol=1e-12)
        ref += [np.trace(rho.matrix @ np.kron(a @ m @ a.conj().T,
                                              v @ m @ v.conj().T)).real
                for a, v in zip(u[:size], u[size:])]
    assert np.max(np.abs(x - ref)) < 1e-12


def _one_pass(rho, path, normals):
    vecs = _local_vectors(rho.dim_a, _sampling_path(rho.dim_a, path)[0],
                          normals)
    return np.sum(vecs[:, 0] * (correlation_data(rho).su @ vecs[:, 1]), axis=0)


@pytest.mark.parametrize("path", ["haar", "bloch"])
@pytest.mark.parametrize("d", [3, 5, 7])
def test_chunked_block_matches_one_pass(d, path):
    # the chunks of a full block give the bits of one pass over its normals,
    # drawn chunk by chunk from the block's generator
    rho = random_mixed(d, d, 4, seed=d)
    m_eigs = _sampling_path(d, path)[0]
    x = estimate_moments(rho, 2 * BLOCK, 21, path=path,
                         keep_samples=True).samples
    for b in range(2):
        normals = _block_normals(d, m_eigs, BLOCK, 21, b)
        assert np.array_equal(x[b * BLOCK:(b + 1) * BLOCK],
                              _one_pass(rho, path, normals))


@pytest.mark.parametrize("d, path", [
    (3, "haar"), (3, "bloch"), (5, "bloch"), (7, "bloch")])
def test_whole_block_chunk_draws_the_block_at_once(d, path):
    # where the chunk is the whole block, a block's normals are one draw
    # from its generator, as they were before chunks drew in turn
    assert _CHUNKS[path][d] == BLOCK
    rho = random_mixed(d, d, 3, seed=d + 1)
    m_eigs = _sampling_path(d, path)[0]
    n = 2 * BLOCK + 700
    x = estimate_moments(rho, n, 4, path=path, keep_samples=True).samples
    for b, start in enumerate(range(0, n, BLOCK)):
        size = min(BLOCK, n - start)
        normals = _normals(d, m_eigs, size, _block_rng(4, _NS_MAIN, b))
        assert np.array_equal(x[start:start + size],
                              _one_pass(rho, path, normals))


@pytest.mark.parametrize("path", ["haar", "bloch"])
@pytest.mark.parametrize("d", [3, 5, 7])
def test_sampling_loop_allocates_nothing(monkeypatch, d, path):
    # after one warm-up call (correlation data, this thread's scratch buffer)
    # only the output array is allocated: a block's normals drawn at once
    # take 0.8 MB at d = 3 and 3.7 MB at d = 7 on the Haar path, and one
    # buffered numpy broadcast over a short inner run 64 or 128 KiB
    monkeypatch.setenv("DIMCERT_THREADS", "1")
    rho = random_mixed(d, d, 4, seed=d)
    m_eigs = _sampling_path(d, path)[0]
    n = 3 * BLOCK + 700
    _sample_x(rho, n, 1, m_eigs, _NS_MAIN)
    tracemalloc.start()
    try:
        _sample_x(rho, n, 2, m_eigs, _NS_MAIN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n + 32 * 1024


# --- estimator contract ---------------------------------------------------

def test_estimate_rejects_bad_arguments():
    with pytest.raises(InvalidInputError, match=">= 100"):
        estimate_moments(me3(), 50, seed=1)
    with pytest.raises(InvalidInputError):
        estimate_moments(me3(), 1000, seed=-1)
    with pytest.raises(InvalidInputError):
        estimate_moments(me3(), 1000, seed=2**64)
    with pytest.raises(InvalidInputError):
        estimate_moments(me3(), 1000, seed=1, path="uniform")
    lopsided = np.zeros(6, dtype=complex)
    lopsided[0] = 1.0
    with pytest.raises(InvalidInputError):
        estimate_moments(PureState(2, 3, lopsided).to_density(), 1000, seed=1)


def test_estimate_deterministic_rerun():
    a = estimate_moments(me3(), 3000, seed=42, keep_samples=True)
    b = estimate_moments(me3(), 3000, seed=42, keep_samples=True)
    assert a.s2 == b.s2 and a.s4 == b.s4
    assert np.array_equal(a.samples, b.samples)


def test_estimate_worker_count_invariance(monkeypatch):
    def run(rho, n, threads):
        monkeypatch.setenv("DIMCERT_THREADS", threads)
        return estimate_moments(rho, n, seed=9, keep_samples=True)

    a, b = run(me3(), 9000, "1"), run(me3(), 9000, "4")
    assert np.array_equal(a.samples, b.samples)
    assert a.s2 == b.s2 and a.s4 == b.s4
    # d=7 runs in several chunks per block
    rho = random_mixed(7, 7, 4, seed=2)
    a, b = run(rho, 3 * BLOCK + 700, "1"), run(rho, 3 * BLOCK + 700, "2")
    assert np.array_equal(a.samples, b.samples)


def test_pool_class_is_read_from_the_module(monkeypatch):
    # randsim.ThreadPoolExecutor resolves on first use, and a class bound
    # there is the pool sampling builds (a tracer can count its workers)
    built = []

    class Pool(randsim.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(randsim, "ThreadPoolExecutor", Pool)
    monkeypatch.setenv("DIMCERT_THREADS", "2")
    estimate_moments(me3(), 3 * BLOCK, seed=9)
    assert built == [2]
    with pytest.raises(AttributeError, match="no attribute 'SFC64'"):
        randsim.SFC64


def test_estimate_env_thread_override(monkeypatch):
    monkeypatch.setenv("DIMCERT_THREADS", "3")
    a = estimate_moments(me3(), 5000, seed=3)
    monkeypatch.delenv("DIMCERT_THREADS")
    b = estimate_moments(me3(), 5000, seed=3)
    assert a.s2 == b.s2 and a.s4 == b.s4


@pytest.mark.parametrize("env", ["0", "-2", "abc", "1.5"])
def test_bad_env_thread_count_names_the_variable(monkeypatch, env):
    monkeypatch.setenv("DIMCERT_THREADS", env)
    with pytest.raises(InvalidInputError,
                       match=f"DIMCERT_THREADS must be a positive integer, "
                             f"got '{env}'"):
        estimate_moments(me3(), 500, seed=3)


def test_estimate_handles_partial_final_block():
    # 5000 is not a multiple of the internal block size
    res = estimate_moments(me3(), 5000, seed=17, keep_samples=True)
    assert res.samples.shape == (5000,)
    assert res.n_samples == 5000


@pytest.mark.parametrize("path", ["haar", "bloch"])
def test_estimate_errors_equal_np_cov_of_the_samples(path):
    # the in-place covariance repeats np.cov's arithmetic bit for bit
    rho = random_mixed(5, 5, 3, seed=2)
    _, c2, c4 = _sampling_path(5, path)
    res = estimate_moments(rho, 4999, 3, path=path, keep_samples=True)
    x2 = res.samples ** 2
    cov = np.cov(np.stack([x2, x2 * x2]), ddof=1)
    assert res.s2 == c2 * float(np.mean(x2))
    assert res.s4 == c4 * float(np.mean(x2 * x2))
    assert res.std_s2 == c2 * np.sqrt(cov[0, 0] / 4999)
    assert res.std_s4 == c4 * np.sqrt(cov[1, 1] / 4999)
    assert res.cov_s2s4 == c2 * c4 * cov[0, 1] / 4999


def test_estimator_unbiased_over_many_runs():
    truth = exact_moments(me3())
    n_runs, n = 200, 1000
    s2s = np.empty(n_runs)
    s4s = np.empty(n_runs)
    for i in range(n_runs):
        r = estimate_moments(me3(), n, seed=1000 + i)
        s2s[i] = r.s2
        s4s[i] = r.s4
    se2 = s2s.std(ddof=1) / np.sqrt(n_runs)
    se4 = s4s.std(ddof=1) / np.sqrt(n_runs)
    assert abs(s2s.mean() - truth.s2) < 4 * se2
    assert abs(s4s.mean() - truth.s4) < 4 * se4


def test_bloch_and_haar_paths_agree():
    a = estimate_moments(me3(), 60000, seed=5, path="haar")
    b = estimate_moments(me3(), 60000, seed=5, path="bloch")
    tol2 = 4 * np.hypot(a.std_s2, b.std_s2)
    tol4 = 4 * np.hypot(a.std_s4, b.std_s4)
    assert abs(a.s2 - b.s2) < tol2
    assert abs(a.s4 - b.s4) < tol4


def test_reported_std_scales_with_n():
    small = estimate_moments(me3(), 2000, seed=21)
    large = estimate_moments(me3(), 32000, seed=21)
    ratio = small.std_s2 / large.std_s2
    assert 2.8 < ratio < 5.7   # ideal 4, loose band for sampling noise


def test_scaling_constants_route():
    # estimate on raw x-moments times the constants must equal the
    # reported s2 (same arithmetic path, consistency check)
    res = estimate_moments(me3(), 4000, seed=2, keep_samples=True)
    _, c2, _ = _sampling_path(3, "haar")
    m2 = float(np.mean(res.samples ** 2))
    assert abs(c2 * m2 - res.s2) < 1e-12


# --- predicted variance ---------------------------------------------------

def test_predicted_variance_me3_closed_form():
    pred = predicted_variance(me3(), 1000, seed=0, m8_samples=200_000)
    assert abs(pred.var_s2 * 1000 - 28 / 5) < 1e-9


def test_predicted_matches_empirical_s4_variance():
    n, runs = 1000, 300
    pred = predicted_variance(me3(), n, seed=0, m8_samples=500_000)
    vals = np.empty(runs)
    for i in range(runs):
        vals[i] = estimate_moments(me3(), n, seed=40_000 + i).s4
    emp = vals.var(ddof=1)
    assert abs(pred.var_s4 - emp) / emp < 0.25


def test_predicted_variance_validation():
    with pytest.raises(InvalidInputError):
        predicted_variance(me3(), 0, seed=0)
    with pytest.raises(InvalidInputError):
        predicted_variance(me3(), 1000, seed=0, m8_samples=10)


@pytest.mark.parametrize("kwargs", [
    {"n_tot": True}, {"seed": True}, {"n_tot": 1000.0},
], ids=["n_tot-bool", "seed-bool", "n_tot-float"])
def test_integer_arguments_reject_bool_and_float(kwargs):
    args = {"n_tot": 1000, "seed": 1} | kwargs
    with pytest.raises(InvalidInputError, match="integer"):
        estimate_moments(me3(), **args)


# --- detection ------------------------------------------------------------

def test_detection_certifies_me3_with_margin():
    det = detect_with_confidence(me3(), 10_000, k_sigma=3.0, seed=1)
    assert det.certificate.certified_lower_bound == 3
    assert det.certificate.details["mode"] == "conservative"
    assert det.k_sigma == 3.0


def test_detection_never_overcertifies_product_states():
    rho = product3()
    for seed in range(12):
        det = detect_with_confidence(rho, 2000, k_sigma=3.0, seed=seed)
        assert det.certificate.certified_lower_bound == 1


@pytest.mark.parametrize("k_sigma", ["x", None, [3.0], float("nan"), -1.0])
def test_detection_rejects_bad_k_sigma(k_sigma):
    with pytest.raises(InvalidInputError, match="k_sigma"):
        detect_with_confidence(me3(), 1000, k_sigma=k_sigma, seed=1)


def test_noise_tolerance_rejects_non_numeric_k_sigma():
    with pytest.raises(InvalidInputError, match="k_sigma"):
        noise_tolerance(3, 3, n_tot=1000, k_sigma="x", seed=1)


@pytest.mark.parametrize("d,p,schmidt_number,runs,max_rate", [
    (5, 0.9, 1, 2000, 0.0328),
    (3, 3 / 8, 2, 3000, 0.0309),
], ids=["separable-iso5", "sn2-iso3"])
def test_false_bound_rate_within_nominal_tail(d, p, schmidt_number, runs,
                                              max_rate):
    # Haar path, k=2, N=1e3: the nominal one-sided tail is 2.28%, and
    # max_rate adds three standard errors of a rate over `runs` seeds.
    # Both states lie on the lower boundary of every region r >= their
    # Schmidt number. A violated row r = d, which no state can reach,
    # puts the estimate outside the state space and certifies nothing
    rho = isotropic(d, p)
    false = sum(
        detect_with_confidence(rho, 1000, 2.0, seed).certificate
        .certified_lower_bound > schmidt_number for seed in range(runs))
    assert false <= max_rate * runs


# --- noise thresholds -----------------------------------------------------

def test_analytic_threshold_fixtures():
    assert analytic_noise_threshold(3, 3) == 0.375
    assert analytic_noise_threshold(3, 2) == 0.75
    assert abs(analytic_noise_threshold(4, 4) - (1 - 11 / 15)) < 1e-12


def test_analytic_threshold_validation():
    with pytest.raises(InvalidInputError):
        analytic_noise_threshold(3, 1)
    with pytest.raises(InvalidInputError):
        analytic_noise_threshold(3, 4)
    with pytest.raises(InvalidInputError):
        analytic_noise_threshold(1, 2)


def test_exact_classification_recovers_analytic_threshold():
    # just inside / outside the p* = 0.375 frontier for full dimensionality
    from dimcert.boundary import classify_point
    lo = exact_moments(isotropic(3, 0.374))
    hi = exact_moments(isotropic(3, 0.376))
    assert classify_point(lo.s2, lo.s4, 3).certified_lower_bound == 3
    assert classify_point(hi.s2, hi.s4, 3).certified_lower_bound == 2


def test_noise_tolerance_bisection():
    res = noise_tolerance(3, 3, n_tot=2000, k_sigma=1.0, seed=6)
    assert 0.0 <= res.simulated_threshold <= 1.0
    assert res.analytic_threshold == 0.375
    # finite statistics never push the simulated frontier past analytic
    # by more than the bisection resolution plus noise allowance
    assert res.simulated_threshold < 0.55
    assert len(res.evaluations) >= 3
    ps = [e["p"] for e in res.evaluations]
    assert ps[0] == 0.0 and ps[1] == 1.0


def test_noise_tolerance_redraws_void_probes():
    # the first draw of the p=0 probe runs on sub-seed SeedSequence([seed, 0]);
    # at k=1 about a quarter of seeds put it outside the state space, and
    # the first such seed must draw p=0 again instead of ending the bisection
    def first_draw_void(seed):
        sub = int(np.random.SeedSequence([seed, 0]).generate_state(1)[0])
        cert = detect_with_confidence(isotropic(3, 0.0), 1000, 1.0,
                                      sub).certificate
        return cert.details.get("outside_state_space", False)

    seed = next(s for s in range(100) if first_draw_void(s))
    res = noise_tolerance(3, 3, n_tot=1000, k_sigma=1.0, seed=seed)
    voids = next(i for i, e in enumerate(res.evaluations)
                 if e != {"p": 0.0, "bound": 1})
    assert voids >= 1
    assert res.evaluations[voids] == {"p": 0.0, "bound": 3}
    # then the p=1 probe and the bisection, which ends inside [0, analytic]
    assert res.evaluations[voids + 1]["p"] == 1.0
    assert all(0 < e["p"] < 1 for e in res.evaluations[voids + 2:])
    assert len(res.evaluations) > voids + 2
    assert 0.0 <= res.simulated_threshold <= res.analytic_threshold


def test_noise_tolerance_deterministic():
    a = noise_tolerance(3, 2, n_tot=1500, k_sigma=1.0, seed=3)
    b = noise_tolerance(3, 2, n_tot=1500, k_sigma=1.0, seed=3)
    assert a.simulated_threshold == b.simulated_threshold
    assert a.evaluations == b.evaluations
