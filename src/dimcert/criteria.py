"""Schmidt-number lower-bound certificates from exact density matrices.

Every criterion has one shape. It takes a state (``DensityMatrix`` or
``PureState``), or its ``CorrelationData`` where it reads only
correlations, tests every r = 1..min(d_a, d_b), and returns a
``SchmidtCertificate`` whose ``details["per_r"]`` holds one row per r. Each
test holds for all states of Schmidt number <= r, so the largest violated
r certifies a lower bound of r + 1 on the entanglement dimensionality,
and its row gives the margin. No state violates the last row, so a
violated last row voids the certificate instead. A row ``lhs <= rhs`` is
violated when lhs exceeds rhs by more than ``states.DERIVED_TOL`` (1e-9):

* ``sn_trace_norm`` (state or correlations):
  tr|X_su| - (r-1) <= sqrt((1-1/d_a)(1-1/d_b))
* ``sn_ccnr`` (state or correlations): sum of operator Schmidt values
  xi <= r
* ``sn_two_norm`` (state or correlations, equal dimensions only):
  ||X_su||_2^2 <= 1 + (r-2d)/(d^2 r)
* ``sn_fidelity`` (state and a pure target t): <t|rho|t> <= sum of the
  r largest Schmidt coefficients of t; one witness scores a stack of
  target vectors with one stacked SVD, one stacked overlap product and
  one ranking pass, and keeps the best target's certificate
* ``sn_covariance`` (state or correlations):
  tr|X_su - v_a v_b^T| - (r-1) <= sqrt((1 - tr rho_a^2)(1 - tr rho_b^2))
* ``sn_reduction_map`` (state): rho_a (x) 1 - rho/r is positive
  semidefinite, violated below -``states.STRUCT_TOL`` (-1e-10); only
  the rows a bisection diagonalised, the deciding one among them, hold
  ``min_eigenvalue``

``compare_all`` builds the correlation data once, runs every criterion
applicable to the state's dimensions and reports the best certified bound.
Its fidelity entry is that one witness over the stack of the embedded
maximally entangled states and the state's dominant eigenvector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, _check_int, _check_real
from .correlations import as_correlation_data, correlation_data
from .states import (
    DERIVED_TOL,
    STRUCT_TOL,
    PureState,
    _cholesky_psd,
    as_density,
    partial_trace,
)

CRITERION_IDS = (
    "trace_norm",
    "ccnr",
    "two_norm",
    "fidelity",
    "reduction_map",
    "covariance",
    "moments",
)

__all__ = [
    "CRITERION_IDS",
    "SchmidtCertificate",
    "CertificateReport",
    "sn_trace_norm",
    "sn_ccnr",
    "sn_two_norm",
    "sn_fidelity",
    "sn_reduction_map",
    "sn_covariance",
    "compare_all",
]


@dataclass
class SchmidtCertificate:
    """Outcome of one Schmidt-number criterion.

    ``certified_lower_bound`` is 1 when nothing beyond mere physicality is
    certified; ``margin`` is the amount by which the bound-(lb-1) constraint
    was violated and is strictly positive whenever the bound exceeds 1.
    """

    criterion_id: str
    certified_lower_bound: int
    margin: float
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.criterion_id not in CRITERION_IDS:
            raise InvalidInputError(
                f"unknown criterion_id {self.criterion_id!r}")
        bound = _check_int(self.certified_lower_bound, "certified_lower_bound")
        margin = _check_real(self.margin, "margin")
        if bound > 1 and not margin > 0:
            raise InvalidInputError(
                "a bound above 1 requires a strictly positive margin")


@dataclass
class CertificateReport:
    """All certificates for one state plus the best bound among them."""

    dim_a: int
    dim_b: int
    best_bound: int
    certificates: list


def _verdict(violated, margin):
    """(bound, margin, void) from the violated flags of rows r = 1, 2, ...

    The largest violated r sets the bound r + 1 and ``margin(r)`` the
    margin. Every state satisfies the last row, so its violation puts the
    input outside the state space and voids the certificate: (1, 0.0, True).
    """
    top = len(violated) - violated[::-1].index(True) if any(violated) else 0
    if top == len(violated):
        return 1, 0.0, True
    return (top + 1, margin(top), False) if top else (1, 0.0, False)


def _certificate(criterion_id, per_r, margin, **details):
    """One certificate from one row per r = 1..min(d_a, d_b), in increasing r.

    ``_verdict`` reads the bound off the rows, ``margin(row)`` gives the
    margin, and a void sets ``details["outside_state_space"]``.
    """
    bound, value, void = _verdict([row["violated"] for row in per_r],
                                  lambda r: margin(per_r[r - 1]))
    details = {"per_r": per_r, **details}
    if void:
        details["outside_state_space"] = True
    return SchmidtCertificate(criterion_id, bound, value, details)


def _threshold(criterion_id, pairs, **details):
    """Certificate from (lhs, rhs) per r, violated when lhs > rhs + 1e-9."""
    per_r = [{"r": r, "lhs": float(lhs), "rhs": float(rhs),
              "violated": bool(lhs > rhs + DERIVED_TOL)}
             for r, (lhs, rhs) in enumerate(pairs, 1)]
    return _certificate(criterion_id, per_r,
                        lambda row: row["lhs"] - row["rhs"], **details)


def sn_trace_norm(state_or_corr):
    """Trace-norm criterion on the su correlation block."""
    corr = as_correlation_data(state_or_corr)
    tn = float(corr.epsilon.sum())
    rhs = math.sqrt((1 - 1 / corr.dim_a) * (1 - 1 / corr.dim_b))
    dmin = min(corr.dim_a, corr.dim_b)
    return _threshold("trace_norm",
                      [(tn - (r - 1), rhs) for r in range(1, dmin + 1)],
                      su_trace_norm=tn)


def sn_ccnr(state_or_corr):
    """Realignment-style criterion: the operator Schmidt values sum.

    The bound is the ceiling of the sum less 1e-9, so sums within 1e-9
    above an integer round down; a sum above min(d_a, d_b) voids it.
    """
    corr = as_correlation_data(state_or_corr)
    s = float(corr.xi.sum())
    dmin = min(corr.dim_a, corr.dim_b)
    return _threshold("ccnr", [(s, r) for r in range(1, dmin + 1)],
                      xi_sum=s)


def sn_two_norm(state_or_corr):
    """Squared Hilbert-Schmidt norm criterion; equal local dimensions only."""
    corr = as_correlation_data(state_or_corr)
    if corr.dim_a != corr.dim_b:
        raise InvalidInputError(
            "the two-norm criterion is only defined for equal local "
            f"dimensions, got {corr.dim_a} x {corr.dim_b}")
    d = corr.dim_a
    lhs = float((corr.epsilon ** 2).sum())
    return _threshold(
        "two_norm",
        [(lhs, 1 + (r - 2 * d) / (d * d * r)) for r in range(1, d + 1)],
        su_two_norm_sq=lhs)


def sn_fidelity(rho, target, label=None):
    """Fidelity witness against one pure target state.

    For every Schmidt-number-r state, the overlap with the target is at
    most the sum of the target's r largest Schmidt coefficients; exceeding
    it certifies bound r + 1.
    """
    rho = as_density(rho)
    if not isinstance(target, PureState):
        raise InvalidInputError("fidelity target must be a PureState")
    if (target.dim_a, target.dim_b) != (rho.dim_a, rho.dim_b):
        raise InvalidInputError(
            f"target dimensions {target.dim_a} x {target.dim_b} do not match "
            f"state dimensions {rho.dim_a} x {rho.dim_b}")
    return _fidelity(rho, target.amplitudes[None], [label])


def _overlaps(mat, vecs):
    """Re <v|mat|v> per row v, bit for bit the per-row ``v.conj() @ mat @ v``."""
    return (vecs.conj()[:, None, :] @ mat @ vecs[:, :, None])[:, 0, 0].real


def _fidelity(rho, vecs, labels, **details):
    """Best fidelity certificate over the unit target vectors ``vecs``.

    One vectorised pass ranks the targets by (bound, margin), the first on
    a tie, and only the winner's certificate is built. A label of None is
    left out of the details.
    """
    lams = np.linalg.svd(vecs.reshape(-1, rho.dim_a, rho.dim_b),
                         compute_uv=False) ** 2
    fids = _overlaps(rho.matrix, vecs)
    # one summed Schmidt coefficient per r = 1..min(d_a, d_b)
    sums = lams.cumsum(axis=1)
    # _verdict of all targets: the sums grow with r, so the violated rows are a prefix
    # and the first row not violated is top (0 also for a void target)
    top = (fids[:, None] > sums + DERIVED_TOL).argmin(axis=1)
    t = top.max()  # the first of the largest margins at top = t wins
    margin = (fids - sums[:, t - 1]) * (t > 0)
    margin[top < t] = -np.inf
    i = int(margin.argmax())
    target = {} if labels[i] is None else {"target": labels[i]}
    fid = float(fids[i])
    return _threshold("fidelity", [(fid, c) for c in sums[i].tolist()],
                      fidelity=fid,
                      target_schmidt_coefficients=lams[i].tolist(),
                      **target, **details)


def sn_reduction_map(rho):
    """Positivity of rho_a (x) 1 - rho/r, violated only above Schmidt number r.

    r is violated when the smallest eigenvalue drops below -1e-10; the
    margin is minus that eigenvalue. The operators grow with r, so the
    violated rows are a prefix: bisection finds it, with a spectrum (the
    row's ``min_eigenvalue``) only where the Cholesky test fails.
    """
    rho = as_density(rho)
    rho_a = partial_trace(rho, "a")[:, None, :, None]
    base = (rho_a * np.eye(rho.dim_b)[:, None]).reshape(rho.dim, rho.dim)
    dmin = min(rho.dim_a, rho.dim_b)
    eig_min, top, clear = {}, 0, dmin + 1
    while clear - top > 1:  # rows up to top are violated, from clear on not
        r = (top + clear) // 2
        op = base - rho.matrix / r
        if not _cholesky_psd(op):
            eig_min[r] = float(np.linalg.eigvalsh(op)[0])
        top, clear = (r, clear) if eig_min.get(r, 0) < -STRUCT_TOL else (top, r)
    per_r = [{"r": r, **({"min_eigenvalue": eig_min[r]} if r in eig_min else {}),
              "violated": r <= top} for r in range(1, dmin + 1)]
    return _certificate("reduction_map", per_r, lambda row: -row["min_eigenvalue"])


def sn_covariance(state_or_corr):
    """Mean-subtracted variant of the trace-norm criterion.

    The cross block's singular values ``corr.cross`` and the marginal
    purities ``1/d + |v|^2`` come straight from the correlation data.
    """
    corr = as_correlation_data(state_or_corr)
    tn = float(corr.cross.sum())
    pa = 1 / corr.dim_a + float(corr.vector_a @ corr.vector_a)
    pb = 1 / corr.dim_b + float(corr.vector_b @ corr.vector_b)
    rhs = math.sqrt(max(1 - pa, 0.0) * max(1 - pb, 0.0))
    dmin = min(corr.dim_a, corr.dim_b)
    return _threshold("covariance",
                      [(tn - (r - 1), rhs) for r in range(1, dmin + 1)],
                      cross_trace_norm=tn, purity_a=pa, purity_b=pb)


def _fidelity_targets(rho):
    """``(vecs, labels)``: the template rows, then the normalised eigenvector
    of the largest eigenvalue of the state."""
    template, labels = _target_template(rho.dim_a, rho.dim_b)
    vecs = template.copy()
    top = np.linalg.eigh(rho.matrix)[1][:, -1]
    vecs[-1] = top / np.linalg.norm(top)
    return vecs, [*labels, "dominant-eigenvector"]


@lru_cache(maxsize=None)
def _target_template(da, db):
    """Read-only rows: row m - 2 is the maximally entangled state of Schmidt
    rank m = 2..min(d_a, d_b) on the first m levels of each side, the last
    row zero. Returned with the labels of the filled rows."""
    dmin = min(da, db)
    vecs = np.zeros((dmin, da * db), dtype=np.complex128)
    for m in range(2, dmin + 1):
        vecs[m - 2, np.arange(m) * (db + 1)] = 1 / np.sqrt(m)
    vecs.setflags(write=False)
    return vecs, tuple(f"max-entangled-{m}" for m in range(2, dmin + 1))


def compare_all(rho):
    """Run every applicable criterion and collect the certificates.

    The correlation data is built once for the correlation criteria; the
    fidelity entry is one witness over the ``_fidelity_targets`` stack.
    """
    rho = as_density(rho)
    corr = correlation_data(rho)
    certs = [sn_trace_norm(corr), sn_ccnr(corr)]
    if rho.dim_a == rho.dim_b:
        certs.append(sn_two_norm(corr))
    vecs, labels = _fidelity_targets(rho)
    certs += [_fidelity(rho, vecs, labels, targets_tested=labels),
              sn_reduction_map(rho), sn_covariance(corr)]
    best = max(c.certified_lower_bound for c in certs)
    return CertificateReport(rho.dim_a, rho.dim_b, best, certs)
