"""Finite-statistics moment estimation from simulated random measurements.

Every sample is one correlation value x = tr(rho (A (x) B)) for an
independently drawn pair of traceless local observables. In the su(d)
basis this is x = a^T X_su b, with a_k = tr(A g_k) and b_k = tr(B g_k),
so the two sampling paths differ only in how they draw the stacks of
local vectors a, b; one contraction sum(a * (X_su @ b), axis=0) follows:

* "haar": the Bloch vectors of A = U M U^dag, B = V M V^dag for
  Haar-random unitaries U, V and the fixed probing observable M (odd d
  only). M is the traceless observable, unique up to conjugation, with
  tr M^2 = d whose rotations estimate both moments; its spectrum has a
  closed form. The last (d-1)/2 eigenvalues of M are equal, so only the
  first (d+1)/2 columns of U are drawn, by nested Householder reflections
  (exactly Haar), with a block's draws along the last axis; the components
  come from elementwise products of those columns.
* "bloch": unit vectors uniform on the (d^2-1)-sphere.

Averages of x^2 and x^4, rescaled by the path constants, estimate
(S2, S4) without bias. Sampling runs in fixed blocks of 4096 draws, each
owning an SFC64 generator seeded by SeedSequence([seed, namespace,
block]), so results are bit-identical for any worker count and block
order. A block's power-of-two chunks draw from its generator in turn into
views of a scratch buffer that each sampling thread keeps, sized to what a
chunk's views take and grown on demand (2.3-2.6 MiB on the Haar path at
d = 3, 5, 7). Chunk sizes are part of the seeded stream: 4096, 2048 and 1024
draws at d = 3, 5, 7 (Haar), whole blocks up to d = 7 (Bloch). The
environment variable DIMCERT_THREADS sets the number of sampling threads
(default 1); it changes speed only, never results.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidInputError, NumericalConsistencyError, _check_int, _check_real)
from .boundary import classify_point
from .correlations import correlation_data
from .moments import exact_moments
from .states import (_haar_unitaries, as_density, as_rng, extended_basis,
                     isotropic)

BLOCK = 4096
MIN_SAMPLES = 100
# float64 items per chunk that fix the chunk sizes, and so every seeded stream
_CHUNK_FLOATS = 145 * BLOCK
_SCRATCH = threading.local()

_SAMPLING = "randomized moment estimation"
_NS_MAIN = 0
_NS_EIGHTH = 1
_MAX_SEED = 2 ** 64 - 1
# detections per noise_tolerance probe while its estimate stays void
_MAX_DRAWS = 16

__all__ = [
    "BLOCK",
    "MIN_SAMPLES",
    "EstimatorResult",
    "PredictedVariance",
    "DetectionResult",
    "NoiseToleranceResult",
    "haar_unitary",
    "estimate_moments",
    "predicted_variance",
    "detect_with_confidence",
    "analytic_noise_threshold",
    "noise_tolerance",
]


def __getattr__(name):  # PEP 562: pool class on first use; a tracer may rebind it
    if name != "ThreadPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ThreadPoolExecutor
    return globals().setdefault(name, ThreadPoolExecutor)


def _resolve_workers():
    env = os.environ.get("DIMCERT_THREADS") or "1"
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InvalidInputError(
            f"DIMCERT_THREADS must be a positive integer, got {env!r}")
    return workers


def _block_rng(seed, namespace, block):
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence([seed, namespace, block])))


def haar_unitary(d, rng):
    """One Haar-distributed d x d unitary from a Generator or a seed."""
    return _haar_unitaries((), _check_int(d, "d"), as_rng(rng)).T


def _observable_m(d):
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


def _sampling_path(d, path):
    """The probing spectrum of ``path`` and its estimator constants (c2, c4).

    s2_hat = c2 mean(x^2) and s4_hat = c4 mean(x^4). The spectrum is
    None on the Bloch path. A Haar-rotated observable has a local Bloch
    vector of squared norm tr M^2 = d, so each Bloch constant is d^2
    times (c2) or d^4 times (c4) its Haar one. This is the one place an
    unknown path is rejected.
    """
    if path == "haar":
        m_eigs, scale = _observable_m(d), 1
    elif path == "bloch":
        m_eigs, scale = None, d * d
    else:
        raise InvalidInputError(f"unknown path {path!r}; use 'haar' or 'bloch'")
    c2 = scale * (d + 1) ** 2
    c4 = scale ** 2 * (d + 1) ** 2 * (d * d + 1) ** 2 / (9 * (d - 1) ** 2)
    return m_eigs, float(c2), float(c4)


def _normals(d, m_eigs, m, rng, buf=None):
    """m draws for both stacks, at the front of ``buf`` if given.

    "bloch": normals (d^2 - 1, 2, m), (2, m, d^2 - 1) in memory. "haar": the
    (d + 1)/2 leading Haar columns (k, d, 2, m) the probing spectrum needs."""
    if m_eigs is not None:
        return _haar_unitaries((2, m), d, rng, (d + 1) // 2, buf)
    raw = (np.empty((2, m, d * d - 1)) if buf is None
           else buf[:2 * m * (d * d - 1)].reshape(2, m, -1))
    return rng.standard_normal(out=raw).transpose(2, 0, 1)


def _local_vectors(d, m_eigs, z, work=None):
    """The local su(d) vectors of a chunk of draws, shape (d^2 - 1, 2, m).

    "bloch" (no probing spectrum): z normalised in place, uniform on the
    unit sphere. "haar": z holds the leading columns of U; entry g is tr(A g)
    for A = U M U^dag = sum_{j<k} c_j u_j u_j^dag + m_last I, c_j = m_j -
    m_last, so |a|^2 = tr M^2 = d. Row a of A right of its diagonal gives
    the symmetric and antisymmetric components sqrt(2) Re and -sqrt(2) Im;
    the diagonal meets the diagonal generators. Vectors, then per-row temporaries,
    are views of ``work`` (or fresh); complex c_j spare numpy a cast buffer.
    """
    n, m = d * d - 1, z.shape[-1]
    work = np.empty(8 * z.size) if work is None else work  # enough either way
    if m_eigs is None:
        squares, norm = work[:n * m].reshape(m, n), work[n * m:(n + 1) * m]
        for stack in z.transpose(1, 2, 0):
            np.multiply(stack, stack, out=squares).sum(axis=1, out=norm)
            np.copyto(squares, np.sqrt(norm, out=norm)[:, None])
            stack /= squares
        return z
    k, half = len(z), d * (d - 1) // 2
    vecs, diag = np.split(work[:2 * (n + d) * m].reshape(n + d, 2, m), [n])
    (cu,), row, prod = np.split(work[2 * (n + d) * m:].view(complex)[
        :2 * (2 * d + 1) * m].reshape(2 * d + 1, 2, m), [1, d + 1])
    coef = m_eigs[:k] - m_eigs[-1] + 0j
    for a in range(d):
        # sum_j cu_j u_j[b] = conj(A[a, b]), b >= a, for cu_j = c_j conj(u_j[a]),
        # one contiguous run per call: numpy buffers short broadcasts
        for j in range(k):
            np.multiply(np.conjugate(z[j, a], out=cu), coef[j], out=cu)
            for b in range(a, d):
                np.multiply(cu, z[j, b], out=(prod if j else row)[b])
            if j:
                row[a:] += prod[a:]
        lo = a * (2 * d - a - 1) // 2
        hi = lo + d - 1 - a
        diag[a] = row[a].real
        np.multiply(row[a + 1:].real, math.sqrt(2), out=vecs[lo:hi])
        np.multiply(row[a + 1:].imag, math.sqrt(2), out=vecs[half + lo:half + hi])
    gens = np.diagonal(extended_basis(d)[2 * half + 1:], axis1=1, axis2=2)
    np.dot(gens.real, diag.reshape(d, -1), out=vecs[2 * half:].reshape(d - 1, -1))
    return vecs


def _sample_x(rho, n_tot, seed, m_eigs, namespace):
    d, n, k = rho.dim_a, rho.dim_a ** 2 - 1, (rho.dim_a + 1) // 2
    x_su = correlation_data(rho).su
    n_blocks = (n_tot + BLOCK - 1) // BLOCK
    per_draw = 3 * n + 1 if m_eigs is None else 8 * d * d + 12 * d - 2
    chunk = min(BLOCK, 2 ** int(math.log2(_CHUNK_FLOATS / per_draw)))
    # per_draw fixes the chunk, and so the stream; a chunk's views take need floats,
    # the Haar draw's temporaries outgrowing the vectors that follow (4kd+2n+10d+4)
    need = chunk * (3 * n + 1 if m_eigs is None else 8 * k * (d + 2))
    x = np.empty(n_tot)

    def run_block(block):
        if len(getattr(_SCRATCH, "buf", ())) < need:
            _SCRATCH.buf = np.empty(need)
        buf, rng = _SCRATCH.buf, _block_rng(seed, namespace, block)
        out = x[block * BLOCK:(block + 1) * BLOCK]
        for lo in range(0, len(out), chunk):
            z = _normals(d, m_eigs, min(chunk, len(out) - lo), rng, buf)
            vecs = _local_vectors(d, m_eigs, z, buf[z.nbytes // 8:])
            a, b = vecs.swapaxes(0, 1)
            # X_su b goes over the spent Haar draws, or after z, the Bloch vectors
            xb = buf[z.nbytes // 8 if vecs is z else 0:][:a.size].reshape(a.shape)
            np.einsum("gm,gm->m", a, np.matmul(x_su, b, out=xb),
                      out=out[lo:lo + chunk])  # multiplies and sums unbuffered

    workers = min(_resolve_workers(), n_blocks)
    if workers == 1:
        for b in range(n_blocks):
            run_block(b)
    else:
        with __getattr__("ThreadPoolExecutor")(max_workers=workers) as pool:
            list(pool.map(run_block, range(n_blocks)))
    return x


@dataclass
class EstimatorResult:
    """Moment estimates with their empirical errors.

    ``std_s2``/``std_s4`` are one-standard-deviation errors of the two
    estimates computed from the sample spread; ``cov_s2s4`` is their
    covariance, needed because both come from the same draws.
    """

    s2: float
    s4: float
    n_samples: int
    path: str
    seed: int
    std_s2: float
    std_s4: float
    cov_s2s4: float
    samples: np.ndarray | None = field(default=None, repr=False)


def estimate_moments(rho, n_tot, seed, path="haar", keep_samples=False):
    """Unbiased (S2, S4) estimates from n_tot simulated random settings.

    Fewer than 100 samples are rejected: below that the error estimates
    this result carries are not meaningful.
    """
    n_tot = _check_int(n_tot, "n_tot", MIN_SAMPLES)
    seed = _check_int(seed, "seed", 0, _MAX_SEED)
    rho = as_density(rho, equal_dims_for=_SAMPLING)
    m_eigs, c2, c4 = _sampling_path(rho.dim_a, path)
    x = _sample_x(rho, n_tot, seed, m_eigs, _NS_MAIN)
    # np.cov's steps on rows x^2, x^4 of one array, centred in place
    xx = np.empty((2, n_tot))
    np.multiply(np.multiply(x, x, out=xx[0]), xx[0], out=xx[1])
    mean = xx.mean(axis=1)
    s2, s4 = c2 * float(mean[0]), c4 * float(mean[1])
    xx -= mean[:, None]
    cov = np.dot(xx, xx.T) * (1 / (n_tot - 1))
    return EstimatorResult(
        s2=s2, s4=s4, n_samples=n_tot, path=path, seed=seed,
        std_s2=c2 * math.sqrt(max(cov[0, 0], 0.0) / n_tot),
        std_s4=c4 * math.sqrt(max(cov[1, 1], 0.0) / n_tot),
        cov_s2s4=c2 * c4 * cov[0, 1] / n_tot, samples=x if keep_samples else None)


@dataclass(frozen=True)
class PredictedVariance:
    """Predicted estimator variances at a given sample budget.

    var_s2 follows from the exact second and fourth moments of x alone;
    var_s4 needs the eighth moment, which has no closed form here and is
    estimated by a dedicated Monte Carlo run (its own counter namespace,
    so it never perturbs the main sample stream).
    """

    var_s2: float
    var_s4: float
    n_tot: int
    path: str
    m8: float
    m8_std_error: float
    m8_samples: int


def predicted_variance(rho, n_tot, seed=0, path="haar", m8_samples=2_000_000):
    """Predicted var(s2_hat), var(s4_hat) for a state at sample budget n_tot."""
    n_tot = _check_int(n_tot, "n_tot")
    m8_samples = _check_int(m8_samples, "m8_samples", 10_000)
    seed = _check_int(seed, "seed", 0, _MAX_SEED)
    rho = as_density(rho, equal_dims_for=_SAMPLING)
    m_eigs, c2, c4 = _sampling_path(rho.dim_a, path)
    pair = exact_moments(rho)
    m2 = pair.s2 / c2
    m4 = pair.s4 / c4
    x = _sample_x(rho, m8_samples, seed, m_eigs, _NS_EIGHTH)
    x8 = x ** 8
    m8 = float(np.mean(x8))
    m8_err = float(np.std(x8, ddof=1)) / math.sqrt(len(x8))
    var_s2 = c2 * c2 * max(m4 - m2 * m2, 0.0) / n_tot
    var_s4 = c4 * c4 * max(m8 - m4 * m4, 0.0) / n_tot
    return PredictedVariance(
        var_s2=var_s2, var_s4=var_s4, n_tot=n_tot, path=path,
        m8=m8, m8_std_error=m8_err, m8_samples=m8_samples)


@dataclass
class DetectionResult:
    """A moment-plane certificate together with the estimates behind it."""

    certificate: object
    estimate: EstimatorResult
    k_sigma: float


def detect_with_confidence(rho, n_tot, k_sigma, seed, path="haar",
                           keep_samples=False):
    """Estimate moments, then certify with a k-sigma statistical back-off.

    Each boundary comparison must clear its threshold by k_sigma standard
    deviations, and an estimate past the row r = d, outside the state
    space, certifies nothing. At k_sigma=2 and n_tot=1e3 the measured
    false-bound rates are 0 of 2000 runs for isotropic(5, 0.9), 1.5% of
    3000 for isotropic(3, 3/8) and 0.23% of 3000 for isotropic(5, 5/8),
    against a nominal one-sided tail of 2.28%. Off that line the back-off is
    not yet sound: |00> gets false bounds in 315 of 2000 runs (15.75%) at
    d=5, k_sigma=2, n_tot=1e3 and in 37 of 1000 (3.7%) at d=7, k_sigma=3,
    n_tot=1e4, against nominal 2.28% and 0.135%.
    """
    k_sigma = _check_real(k_sigma, "k_sigma")
    if k_sigma < 0:
        raise InvalidInputError(
            f"k_sigma must be a nonnegative number, got {k_sigma!r}")
    rho = as_density(rho, equal_dims_for=_SAMPLING)
    est = estimate_moments(rho, n_tot, seed, path=path, keep_samples=keep_samples)
    cert = classify_point(
        est.s2, est.s4, rho.dim_a,
        std_s2=est.std_s2, std_s4=est.std_s4, cov_s2s4=est.cov_s2s4,
        k_sigma=k_sigma)
    return DetectionResult(certificate=cert, estimate=est, k_sigma=k_sigma)


def analytic_noise_threshold(d, target_bound):
    """Exact white-noise threshold below which isotropic(d, p) certifies.

    An isotropic state sits on the minimal parabola of the moment plane,
    so it leaves the Schmidt-number-(target_bound - 1) region exactly
    when its S2 passes the parabola's share of that region, at
    p = 1 - (d (target_bound - 1) - 1)/(d^2 - 1).
    """
    d = _check_int(d, "d", 2)
    target_bound = _check_int(target_bound, "target_bound", 2, d)
    return 1.0 - (d * (target_bound - 1) - 1) / (d * d - 1)


@dataclass
class NoiseToleranceResult:
    """Bisection outcome for the certifiable white-noise range."""

    dim: int
    target_bound: int
    n_tot: int
    k_sigma: float
    path: str
    simulated_threshold: float
    analytic_threshold: float
    evaluations: list


def noise_tolerance(d, target_bound, n_tot, k_sigma, seed, path="haar"):
    """Largest white-noise weight still certified at target_bound, by bisection.

    Each probe runs a fresh detection on isotropic(d, p) with a
    derived sub-seed; the bracket [certified, uncertified] narrows to
    1e-3. An estimate outside the state space (a void certificate) says
    nothing about p, so that probe is drawn again with a further sub-seed,
    up to _MAX_DRAWS times; every draw is kept in ``evaluations`` as
    ``{"p": p, "bound": b}``, a void one with bound 1. The analytic
    threshold rides along for comparison.
    """
    seed = _check_int(seed, "seed", 0, _MAX_SEED)
    analytic = analytic_noise_threshold(d, target_bound)
    evaluations = []

    def certified(p, step):
        for draw in range(_MAX_DRAWS):
            entropy = [seed, step, draw] if draw else [seed, step]
            sub = int(np.random.SeedSequence(entropy).generate_state(1)[0])
            cert = detect_with_confidence(
                isotropic(int(d), p), n_tot, k_sigma, sub, path=path).certificate
            evaluations.append({"p": p, "bound": cert.certified_lower_bound})
            if not cert.details.get("outside_state_space"):
                break
        return cert.certified_lower_bound >= target_bound

    if not certified(0.0, 0):
        sim = 0.0
    elif certified(1.0, 1):
        sim = 1.0
    else:
        lo, hi = 0.0, 1.0
        step = 2
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            if certified(mid, step):
                lo = mid
            else:
                hi = mid
            step += 1
        sim = lo
    return NoiseToleranceResult(
        dim=int(d), target_bound=int(target_bound), n_tot=int(n_tot),
        k_sigma=float(k_sigma), path=path,
        simulated_threshold=sim, analytic_threshold=analytic,
        evaluations=evaluations)
