"""Bloch correlation matrices of bipartite states and their norms.

The full correlation matrix X collects the coefficients of a state in the
product of local orthonormal operator bases (identity/sqrt(d) at index 0,
then the su(d) generators): ``X[k, l] = tr(rho * g_k (x) g_l)``. Dropping
row 0 and column 0 leaves the su submatrix whose singular values eps drive
the moment machinery; the singular values xi of the full matrix are the
operator Schmidt values of the state, with ``sum xi^2 = tr(rho^2)``.

X is computed by two matrix products, ``X = M_a R(rho) M_b^T``, where the
realigned matrix ``R(rho)[(i i'), (j j')] = rho[(i j), (i' j')]`` has shape
(d_a^2, d_b^2) and the row k of the basis matrix ``M_d`` is the flattened
transpose of the basis element g_k (cached per local dimension).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalConsistencyError
from .states import DERIVED_TOL, as_density, extended_basis, purity

IMAG_TOL = 1e-9

__all__ = [
    "CorrelationData",
    "correlation_data",
    "trace_norm",
]


@dataclass
class CorrelationData:
    """Correlation matrix of one state plus the derived spectra.

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
    """

    dim_a: int
    dim_b: int
    full: np.ndarray
    su: np.ndarray
    vector_a: np.ndarray
    vector_b: np.ndarray
    epsilon: np.ndarray
    xi: np.ndarray


@lru_cache(maxsize=None)
def _basis_matrix(d):
    """Row k holds g_k^T flattened, so ``M R M^T`` contracts both factors."""
    mat = extended_basis(d).transpose(0, 2, 1).reshape(d * d, d * d)
    mat.setflags(write=False)
    return mat


def correlation_data(rho):
    """Build the full correlation matrix and its singular spectra.

    Raises
    ------
    NumericalConsistencyError
        If any coefficient has an imaginary part above 1e-9 (Hermitian
        states in Hermitian bases give real coefficients exactly).
    """
    rho = as_density(rho)
    da, db = rho.dim_a, rho.dim_b
    realigned = rho.matrix.reshape(da, db, da, db).transpose(0, 2, 1, 3)
    full_c = (_basis_matrix(da) @ realigned.reshape(da * da, db * db)
              @ _basis_matrix(db).T)
    imag_max = float(np.max(np.abs(full_c.imag)))
    if imag_max > IMAG_TOL:
        raise NumericalConsistencyError(
            f"correlation coefficients have imaginary parts up to {imag_max:.3e}; "
            "the input matrix is not consistently Hermitian")
    full = np.ascontiguousarray(full_c.real)
    su = full[1:, 1:]
    vector_a = full[1:, 0] * np.sqrt(db)
    vector_b = full[0, 1:] * np.sqrt(da)
    epsilon = np.linalg.svd(su, compute_uv=False)
    xi = np.linalg.svd(full, compute_uv=False)
    pur = purity(rho.matrix)
    if abs(float(np.sum(xi ** 2)) - pur) > DERIVED_TOL:
        raise NumericalConsistencyError(
            f"operator Schmidt values square-sum to {np.sum(xi ** 2):.12f} "
            f"but tr(rho^2) = {pur:.12f}")
    return CorrelationData(
        dim_a=da, dim_b=db, full=full, su=su,
        vector_a=vector_a, vector_b=vector_b,
        epsilon=epsilon, xi=xi,
    )


def as_correlation_data(obj):
    """A state's CorrelationData, or ``obj`` itself when it already is one."""
    return obj if isinstance(obj, CorrelationData) else correlation_data(obj)


def trace_norm(matrix):
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(matrix), compute_uv=False)))

