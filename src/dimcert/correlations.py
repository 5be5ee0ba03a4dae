"""Bloch correlation matrices of bipartite states and their spectra.

The full correlation matrix X collects the coefficients of a state in the
product of local orthonormal operator bases (identity/sqrt(d) at index 0,
then the su(d) generators): ``X[k, l] = tr(rho * g_k (x) g_l)``. Dropping
row 0 and column 0 leaves the su submatrix whose singular values eps drive
the moment machinery; the singular values xi of the full matrix are the
operator Schmidt values of the state, with ``sum xi^2 = tr(rho^2)``.

X is computed by two matrix products, ``X = M_a R(rho) M_b^T``, where the
realigned matrix ``R(rho)[(i i'), (j j')] = rho[(i j), (i' j')]`` has shape
(d_a^2, d_b^2) and the row k of the basis matrix ``M_d`` is the flattened
transpose of the basis element g_k (cached per local dimension). The
data is built once per ``DensityMatrix`` and kept on it, read-only; the build
checks Parseval's ``||X||_F^2 = tr(rho^2)``, and each spectrum waits for its
first read, so the sampler, which reads only su, runs no SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NumericalConsistencyError
from .states import DERIVED_TOL, _purity, as_density, extended_basis

__all__ = [
    "CorrelationData",
    "correlation_data",
]


@dataclass(eq=False)
class CorrelationData:
    """Correlation matrix of one state plus its spectra, kept from their first read.

    Attributes
    ----------
    dim_a, dim_b : int
    full : ndarray, shape (d_a^2, d_b^2)
        Real coefficients in the extended product basis; ``full[0, 0]``
        equals ``1/sqrt(d_a d_b)``.
    su : ndarray, shape (d_a^2 - 1, d_b^2 - 1)
        The submatrix without the identity row/column.
    vector_a, vector_b : ndarray
        Local Bloch vectors of the marginals in the su basis.
    epsilon : ndarray
        Singular values of ``su``, descending.
    xi : ndarray
        Singular values of ``full`` (operator Schmidt values), descending.
    cross : ndarray
        Singular values of the covariance cross block ``su - v_a v_b^T``.
    """

    dim_a: int
    dim_b: int
    full: np.ndarray
    su: np.ndarray
    vector_a: np.ndarray
    vector_b: np.ndarray

    epsilon = cached_property(lambda self: self._su_cross[0])
    cross = cached_property(lambda self: self._su_cross[1])
    xi = cached_property(
        lambda self: _read_only(np.linalg.svd(self.full, compute_uv=False)))

    @cached_property
    def _su_cross(self):  # one SVD for su and the covariance cross block
        return _read_only(np.linalg.svd(np.array(
            [self.su, self.su - self.vector_a[:, None] * self.vector_b]),
            compute_uv=False))


def _read_only(arr):
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _basis_matrix(d):
    """Row k holds g_k^T flattened, so ``M R M^T`` contracts both factors."""
    mat = extended_basis(d).transpose(0, 2, 1).reshape(d * d, d * d)
    mat.setflags(write=False)
    return mat


def correlation_data(rho):
    """The correlation data of a state, built once; each spectrum on its first read.

    Raises
    ------
    NumericalConsistencyError
        If any coefficient has an imaginary part above 1e-9 (Hermitian
        states in Hermitian bases give real coefficients exactly), or if
        ``||X||_F^2`` misses ``tr(rho^2)`` by more than 1e-9.
    """
    rho = as_density(rho)
    if rho._corr is None:
        rho._corr = _build_correlation_data(rho)
    return rho._corr


def _build_correlation_data(rho):
    da, db = rho.dim_a, rho.dim_b
    realigned = rho.matrix.reshape(da, db, da, db).transpose(0, 2, 1, 3)
    full_c = (_basis_matrix(da) @ realigned.reshape(da * da, db * db)
              @ _basis_matrix(db).T)
    imag_max = float(np.abs(full_c.imag).max())
    if imag_max > DERIVED_TOL:
        raise NumericalConsistencyError(
            f"correlation coefficients have imaginary parts up to {imag_max:.3e}; "
            "the input matrix is not consistently Hermitian")
    full = _read_only(np.ascontiguousarray(full_c.real))
    norm_sq, pur = float(np.vdot(full, full)), _purity(rho.matrix)
    if abs(norm_sq - pur) > DERIVED_TOL:  # Parseval: the sum of xi^2, no SVD
        raise NumericalConsistencyError(
            f"correlation matrix has squared norm {norm_sq:.12f} "
            f"but tr(rho^2) = {pur:.12f}")
    return CorrelationData(
        dim_a=da, dim_b=db, full=full, su=full[1:, 1:],
        vector_a=_read_only(full[1:, 0] * np.sqrt(db)),
        vector_b=_read_only(full[0, 1:] * np.sqrt(da)))


def as_correlation_data(obj):
    """A state's CorrelationData, or ``obj`` itself when it already is one."""
    return obj if isinstance(obj, CorrelationData) else correlation_data(obj)

