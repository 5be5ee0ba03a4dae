"""Bipartite qudit states and the local operator basis.

Provides the generalized Gell-Mann basis, validated density-matrix and
pure-state containers, partial traces, the named states used throughout
(maximally entangled, isotropic, the bound-exploring families A-D, the
rank-2 Schmidt-number-3 state ``rho_w``), seeded random state
generators, and a small JSON file format for density matrices.

Conventions
-----------
* Product basis index: ``|j, k>`` of a ``d_a x d_b`` system sits at row
  ``j * d_b + k``.
* su(d) generators are ordered symmetric, antisymmetric, diagonal, each
  block lexicographic, and normalized to ``tr(g_i g_j) = delta_ij`` (for
  d=2 they are the Pauli matrices divided by sqrt(2)).
* Tolerances: ``STRUCT_TOL`` = 1e-10 for input structure (hermiticity,
  trace, norm) and the positivity floors; ``DERIVED_TOL`` = 1e-9 for
  derived quantities (Parseval, imaginary parts, the moment cone, every
  criterion row); ``boundary.DOMAIN_SLACK`` = 1e-12 for the S2 domain.
  Validation rejects bad input, it never projects onto the valid set.
  Positivity is a Cholesky factorisation of ``rho + 1e-10 * identity``;
  only if it fails is the spectrum computed. States hold read-only
  copies of their input arrays.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, _check_array, _check_int, _check_real

STRUCT_TOL = 1e-10
DERIVED_TOL = 1e-9

__all__ = [
    "STRUCT_TOL",
    "DERIVED_TOL",
    "DensityMatrix",
    "PureState",
    "extended_basis",
    "partial_trace",
    "max_entangled",
    "isotropic",
    "rho_w",
    "family_state",
    "random_pure",
    "random_mixed",
    "read_state_json",
    "write_state_json",
]


def as_rng(seed):
    """A numpy Generator from a seed, sequence seed, Generator or None.

    Seeds go to ``np.random.default_rng`` unchanged; what it refuses, and
    bool, raise InvalidInputError.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, bool):
        try:
            return np.random.default_rng(seed)
        except (TypeError, ValueError):
            pass
    raise InvalidInputError(
        "seed must be a nonnegative integer, a sequence of them, a "
        f"Generator or None, got {seed!r}")


# ---------------------------------------------------------------------------
# operator basis
# ---------------------------------------------------------------------------

def extended_basis(d):
    """Full orthonormal operator basis of one qudit, shape (d*d, d, d).

    Index 0 is the normalized identity; indices 1..d^2-1 are the
    generalized Gell-Mann generators of su(d), ordered symmetric,
    antisymmetric, diagonal and normalized so that ``tr(g_i g_j) =
    delta_ij``. Read-only, and built once per d.
    """
    return _extended_basis(_check_int(d, "dimension", 2))


@lru_cache(maxsize=None)
def _extended_basis(d):
    full = np.zeros((d * d, d, d), dtype=np.complex128)
    full[0] = np.eye(d) / np.sqrt(d)
    idx = 1
    for j in range(d):
        for k in range(j + 1, d):
            full[idx, j, k] = 1 / np.sqrt(2)
            full[idx, k, j] = 1 / np.sqrt(2)
            idx += 1
    for j in range(d):
        for k in range(j + 1, d):
            full[idx, j, k] = -1j / np.sqrt(2)
            full[idx, k, j] = 1j / np.sqrt(2)
            idx += 1
    for l in range(1, d):
        coeff = 1 / np.sqrt(l * (l + 1))
        for j in range(l):
            full[idx, j, j] = coeff
        full[idx, l, l] = -l * coeff
        idx += 1
    full.setflags(write=False)
    return full


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _jitter(n):
    return STRUCT_TOL * np.eye(n)


def _cholesky_psd(mat):
    """True when the Cholesky factorisation of ``mat + 1e-10 * I`` succeeds."""
    try:
        np.linalg.cholesky(mat + _jitter(len(mat)))
        return True
    except np.linalg.LinAlgError:
        return False


@dataclass(eq=False)
class DensityMatrix:
    """Validated bipartite density matrix on C^{d_a} (x) C^{d_b}.

    Validation order is fixed (shape, finite entries, hermiticity, unit
    trace, then positive semidefiniteness floored at -1e-10) and the first
    violated property is the one reported. Invalid input is rejected, never
    repaired.
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray
    _corr: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.dim_a = _check_int(self.dim_a, "dim_a", 2)
        self.dim_b = _check_int(self.dim_b, "dim_b", 2)
        mat = np.array(_check_array(self.matrix, "matrix"), dtype=np.complex128)
        n = self.dim_a * self.dim_b
        if mat.shape != (n, n):
            raise InvalidInputError(
                f"density matrix shape {mat.shape} does not match "
                f"dim_a*dim_b = {n}")
        if not np.isfinite(mat).all():
            raise InvalidInputError("matrix has non-finite entries")
        herm_dev = abs(mat - mat.conj().T).max()
        if herm_dev > STRUCT_TOL:
            raise InvalidInputError(
                f"matrix is not Hermitian: max deviation {herm_dev:.3e} > {STRUCT_TOL}")
        trace_dev = abs(mat.trace() - 1.0)
        if trace_dev > STRUCT_TOL:
            raise InvalidInputError(
                f"matrix trace deviates from 1 by {trace_dev:.3e} > {STRUCT_TOL}")
        eig_min = 0.0 if _cholesky_psd(mat) else float(np.linalg.eigvalsh(mat)[0])
        if eig_min < -STRUCT_TOL:
            raise InvalidInputError("matrix is not positive semidefinite: "
                                    f"min eigenvalue {eig_min:.3e}")
        mat.setflags(write=False)
        self.matrix = mat

    @property
    def dim(self):
        return self.dim_a * self.dim_b


@dataclass(eq=False)
class PureState:
    """Bipartite pure state vector with unit norm.

    ``amplitudes[j * dim_b + k]`` is the coefficient of ``|j, k>``.
    """

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray
    _rho: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.dim_a = _check_int(self.dim_a, "dim_a", 2)
        self.dim_b = _check_int(self.dim_b, "dim_b", 2)
        vec = np.array(_check_array(self.amplitudes, "amplitudes"),
                       dtype=np.complex128).reshape(-1)
        n = self.dim_a * self.dim_b
        if vec.shape != (n,):
            raise InvalidInputError(
                f"amplitude vector length {vec.shape[0]} does not match "
                f"dim_a*dim_b = {n}")
        if not np.all(np.isfinite(vec)):
            raise InvalidInputError("amplitude vector has non-finite entries")
        norm_dev = abs(np.linalg.norm(vec) - 1.0)
        if norm_dev > STRUCT_TOL:
            raise InvalidInputError(
                f"state norm deviates from 1 by {norm_dev:.3e} > {STRUCT_TOL}")
        vec.setflags(write=False)
        self.amplitudes = vec

    def to_density(self):
        """Projector |psi><psi| as a DensityMatrix, built on the first call."""
        if self._rho is None:
            mat = np.outer(self.amplitudes, self.amplitudes.conj())
            self._rho = DensityMatrix(self.dim_a, self.dim_b, mat)
        return self._rho


def as_density(rho, equal_dims_for=None):
    """A DensityMatrix from a DensityMatrix or a PureState (converted once).

    With ``equal_dims_for`` (a short name of what needs it) the two local
    dimensions must also agree.
    """
    if isinstance(rho, PureState):
        rho = rho.to_density()
    elif not isinstance(rho, DensityMatrix):
        raise InvalidInputError(
            f"expected DensityMatrix or PureState, got {type(rho).__name__}")
    if equal_dims_for is not None and rho.dim_a != rho.dim_b:
        raise InvalidInputError(
            f"{equal_dims_for} needs equal local dimensions, "
            f"got {rho.dim_a} x {rho.dim_b}")
    return rho


def partial_trace(rho, keep):
    """Reduced density matrix of one party.

    Parameters
    ----------
    rho : DensityMatrix or PureState
    keep : {'a', 'b'}
        Which subsystem survives.

    Returns
    -------
    ndarray, shape (d_keep, d_keep)
    """
    rho = as_density(rho)
    da, db = rho.dim_a, rho.dim_b
    t = rho.matrix.reshape(da, db, da, db)
    if keep == "a":
        return np.einsum("ijkj->ik", t)
    if keep == "b":
        return np.einsum("ijil->jl", t)
    raise InvalidInputError(f"keep must be 'a' or 'b', got {keep!r}")


def _purity(mat):
    """tr(m^2) of a Hermitian matrix, as a real float."""
    m = np.asarray(mat)
    return float(np.einsum("ij,ji->", m, m).real)


# ---------------------------------------------------------------------------
# named states
# ---------------------------------------------------------------------------

def max_entangled(r, d=None):
    """|Psi_r^+> = sum_{j<r} |jj> / sqrt(r), embedded in a d x d system.

    With ``d = None`` the embedding dimension equals r.
    """
    r = _check_int(r, "r")
    d = max(r, 2) if d is None else _check_int(d, "dimension", 2)
    if r > d:
        raise InvalidInputError(f"r = {r} exceeds the local dimension d = {d}")
    vec = np.zeros(d * d, dtype=np.complex128)
    for j in range(r):
        vec[j * d + j] = 1 / np.sqrt(r)
    return PureState(d, d, vec)


def isotropic(d, p):
    """Maximally entangled state mixed with white noise.

    rho = (1 - p) |Psi_d^+><Psi_d^+| + p/d^2 * identity, with the noise
    fraction p in [0, 1].
    """
    d = _check_int(d, "dimension", 2)
    p = _check_real(p, "noise fraction p", 0.0, 1.0)
    pure = max_entangled(d).to_density().matrix
    mat = (1 - p) * pure + p / d ** 2 * np.eye(d * d)
    return DensityMatrix(d, d, mat)


def rho_w():
    """Rank-2 Schmidt-number-3 state on a 4 x 4 system.

    An equal mixture of |Psi_3^+> (embedded in d=4) and the symmetric
    superposition (|23> + |32>)/sqrt(2). Fidelity witnesses certify at
    most Schmidt number 2 for it, while the correlation-norm criteria
    reach its true value 3.
    """
    d = 4
    psi = max_entangled(3, d).amplitudes
    phi = np.zeros(d * d, dtype=np.complex128)
    phi[2 * d + 3] = 1 / np.sqrt(2)
    phi[3 * d + 2] = 1 / np.sqrt(2)
    mat = 0.5 * np.outer(psi, psi.conj()) + 0.5 * np.outer(phi, phi.conj())
    return DensityMatrix(d, d, mat)


def family_state(family, param):
    """One state from the four d=3 moment-boundary families.

    A: ``p |00><00| + (1-p)/9 * identity`` with p in [0, 1].
    B: ``sqrt(l)|00> + sqrt(1-l)|11>`` with l in [1/2, 1].
    C: ``sqrt(l)|00> + sqrt(l)|11> + sqrt(1-2l)|22>`` with l in [1/3, 1/2].
    D: ``p |Psi_3^+><Psi_3^+| + (1-p)/9 * identity`` with p in [0, 1].

    Note the mixed families weight the *pure* state by the parameter, the
    opposite convention from :func:`isotropic`.

    Returns
    -------
    DensityMatrix
        On the 3 x 3 system (pure members as projectors).
    """
    d = 3
    fam = str(family).upper()
    name = f"family {fam} parameter"
    if fam == "A":
        param = _check_real(param, name, 0.0, 1.0)
        mat = np.zeros((9, 9), dtype=np.complex128)
        mat[0, 0] = param
        mat += (1 - param) / 9 * np.eye(9)
        return DensityMatrix(d, d, mat)
    if fam == "B":
        param = _check_real(param, name, 0.5, 1.0)
        vec = np.zeros(9, dtype=np.complex128)
        vec[0] = np.sqrt(param)
        vec[4] = np.sqrt(1 - param)
        return PureState(d, d, vec).to_density()
    if fam == "C":
        param = _check_real(param, name)
        if not 1 / 3 - STRUCT_TOL <= param <= 0.5:
            raise InvalidInputError(f"family C parameter must lie in [1/3, 1/2], got {param}")
        vec = np.zeros(9, dtype=np.complex128)
        vec[0] = np.sqrt(param)
        vec[4] = np.sqrt(param)
        vec[8] = np.sqrt(max(1 - 2 * param, 0.0))
        return PureState(d, d, vec).to_density()
    if fam == "D":
        param = _check_real(param, name, 0.0, 1.0)
        pure = max_entangled(3).to_density().matrix
        mat = param * pure + (1 - param) / 9 * np.eye(9)
        return DensityMatrix(d, d, mat)
    raise InvalidInputError(f"unknown family {family!r}, expected one of A, B, C, D")


# ---------------------------------------------------------------------------
# random states
# ---------------------------------------------------------------------------

def random_pure(dim_a, dim_b, seed, schmidt_rank=None):
    """Haar-like random pure state, optionally of fixed Schmidt rank.

    Without ``schmidt_rank`` the amplitudes are a normalized complex
    Gaussian vector (Haar on the global sphere). With it, a Haar-random
    pure state on the rank x rank subsystem is embedded and rotated by
    independent Haar local unitaries, which fixes the Schmidt rank exactly
    (with probability one) while keeping the distribution locally unitarily
    invariant. Only the rank leading columns of each unitary meet the
    embedded state, so only those are drawn, in one stack when d_a = d_b.
    """
    da = _check_int(dim_a, "dim_a", 2)
    db = _check_int(dim_b, "dim_b", 2)
    rng = as_rng(seed)
    if schmidt_rank is None:
        vec = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
        vec /= np.linalg.norm(vec)
        return PureState(da, db, vec)
    r = _check_int(schmidt_rank, "schmidt_rank", 1, min(da, db))
    core = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    core /= np.linalg.norm(core)
    ua, ub = (np.moveaxis(_haar_unitaries((2,), da, rng, r), -1, 0) if da == db
              else [_haar_unitaries((), dim, rng, r) for dim in (da, db)])
    coeff = ua.T @ core @ ub
    return PureState(da, db, coeff.reshape(-1))


def _haar_unitaries(shape, d, rng, k=None, buf=None):
    """The k leading columns (all d by default) of Haar d x d unitaries stacked
    to ``shape``, as ``(k, d, *shape)``, in ``buf`` with all temporaries.

    Column i draws d - i complex normals into rows i.., in column order (so k
    columns read a prefix of the stream of d), is scaled to v_i, uniform on
    the sphere of C^(d-i), and is reflected into the complement of the earlier
    columns (Stewart, SIAM J. Numer. Anal. 17 (1980) 403; Mezzadri,
    math-ph/0609050) by R_l = I - 2 w w^dag / w^dag w on coordinates l..,
    l < i, w = v_l + e^(i arg v_l[0]) e_0 (e_0 if v_l[0] = 0).
    """
    k = d if k is None else k
    n = math.prod(shape)
    size = 4 * k * (d + 2) * n
    c = (np.empty(size) if buf is None else buf[:size]).view(complex)
    q, prod = c[:2 * k * d * n].reshape(2, k, d, n)
    dots = c[2 * k * d * n:(2 * d + 1) * k * n].reshape(k, n)
    w0, e, tau = c[(2 * d + 1) * k * n:][:3 * (k - 1) * n].reshape(3, k - 1, n)
    for i in range(k):
        col = rng.standard_normal(out=q[i, i:].view(float))
        np.add.reduce(np.square(col, out=prod[0, i:].view(float)), axis=0,
                      out=dots[i].view(float))
    norm = np.add(dots.real, dots.imag, out=dots.real)
    np.divide(1, np.sqrt(norm, out=norm), out=norm)
    dots.imag = 0
    # numpy buffers a broadcast over short runs of contiguous operands (and
    # allocates), so those are widened by copyto first
    for i in range(k):
        np.copyto(prod[0, i:], dots[i])
        q[i, i:] *= prod[0, i:]
    # R_l adds -tau (w^dag y) w, tau = 1 / (1 + |v_l[0]|), to a later column y;
    # its row l is 0 (unwritten): w^dag y = v_l^dag y, row l = w_0 (-tau w^dag y)
    np.copyto(w0, q.reshape(k * d, n)[:(k - 1) * (d + 1):d + 1])
    mod, flag = dots[:k - 1], prod.reshape(-1).view(bool)[:(k - 1) * n]
    flag = np.not_equal(np.abs(w0, out=mod.real), 0, out=flag.reshape(k - 1, n))
    e[...] = 1
    np.divide(w0, mod, out=e, where=flag)
    w0 += e
    np.divide(-1, np.add(mod, 1, out=mod), out=tau)
    for l in range(k - 2, -1, -1):
        v, rest, row = q[l, l + 1:], q[l + 1:, l + 1:], q[l + 1:, l]
        p = prod[:k - l - 1, :d - l - 1]
        np.add.reduce(np.multiply(np.conjugate(v, out=prod[-1, l + 1:]), rest,
                                  out=p), axis=1, out=row)
        row *= tau[l]
        np.copyto(p, row[:, None])
        rest += np.multiply(p, v, out=p)
        row *= w0[l]
    return q.reshape(k, d, *shape)


def random_mixed(dim_a, dim_b, rank, seed):
    """Random mixed state of the induced measure with the given rank.

    Partial trace over a rank-dimensional ancilla of a Haar-random pure
    state on (d_a * d_b) x rank.
    """
    da = _check_int(dim_a, "dim_a", 2)
    db = _check_int(dim_b, "dim_b", 2)
    n = da * db
    rank = _check_int(rank, "rank", 1, n)
    rng = as_rng(seed)
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    g /= np.linalg.norm(g)
    mat = g @ g.conj().T
    # enforce exact hermiticity against accumulated roundoff
    mat = (mat + mat.conj().T) / 2
    mat /= mat.trace().real
    return DensityMatrix(da, db, mat)


# ---------------------------------------------------------------------------
# state files
# ---------------------------------------------------------------------------

def _check_path(path):
    """``path`` if it is a str or os.PathLike; open() would take an int as an fd."""
    if not isinstance(path, (str, os.PathLike)):
        raise InvalidInputError(
            f"a state file path must be a str or os.PathLike, got {path!r:.60}")
    return path


def read_state_json(path):
    """Load a density matrix from a JSON state file.

    The format is ``{"dim_a": int, "dim_b": int, "re": [[...]], "im": [[...]]}``.
    Validation reports the first violated property (shape, finite entries,
    hermiticity, trace, positivity, in that order). ``path`` is a str or
    an ``os.PathLike``; an integer is not taken as a file descriptor.
    """
    with open(_check_path(path), encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"state file {path} is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"state file {path} is not UTF-8 text: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError(
            f"state file {path} must hold a JSON object, got {type(data).__name__}")
    for key in ("dim_a", "dim_b", "re", "im"):
        if key not in data:
            raise InvalidInputError(f"state file {path} is missing the {key!r} field")
    re, im = (_check_array(data[key], f"state file {path} {key!r}")
              for key in ("re", "im"))
    if re.ndim != 2 or re.shape != im.shape:
        raise InvalidInputError(
            f"state file {path} 're' has shape {re.shape} and 'im' {im.shape}; "
            "they must have the same 2-D shape")
    return DensityMatrix(data["dim_a"], data["dim_b"], re + 1j * im)


def write_state_json(rho, path):
    """Write a DensityMatrix to the JSON state format at ``path``, a str or
    an ``os.PathLike``; an integer is not taken as a file descriptor."""
    rho = as_density(rho)
    data = {
        "dim_a": rho.dim_a,
        "dim_b": rho.dim_b,
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
    }
    with open(_check_path(path), "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")
