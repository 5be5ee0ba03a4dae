"""Schmidt-number lower-bound certificates from exact density matrices.

Each criterion bounds a quantity computable from the state for all states
of Schmidt number <= r; a strict violation (beyond a 1e-9 margin) certifies
a lower bound of r + 1 on the entanglement dimensionality. Implemented
criteria:

* ``trace_norm``: tr|X_su| - (r-1) <= sqrt((1-1/d_a)(1-1/d_b))
* ``ccnr``: sum of operator Schmidt values xi <= r
* ``two_norm``: ||X_su||_2^2 <= 1 + (r-2d)/(d^2 r), equal dimensions only
* ``fidelity``: <t|rho|t> <= sum of the r largest Schmidt coefficients
  of the target t
* ``reduction_map``: rho_a (x) 1 - rho/r is positive semidefinite
* ``covariance``: tr|X_su - v_a v_b^T| - (r-1) <=
  sqrt((1 - tr rho_a^2)(1 - tr rho_b^2))

``compare_all`` runs every criterion applicable to the state's dimensions
and reports the best certified bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, _check_int
from .correlations import (
    CovarianceBlock,
    as_correlation_data,
    correlation_data,
    covariance_block,
    trace_norm,
)
from .states import (
    STRUCT_TOL,
    PureState,
    as_density,
    partial_trace,
    schmidt_coefficients,
)

VIOLATION_TOL = 1e-9

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
    "VIOLATION_TOL",
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
        if self.certified_lower_bound < 1:
            raise InvalidInputError("certified_lower_bound must be >= 1")
        if self.certified_lower_bound > 1 and not self.margin > 0:
            raise InvalidInputError(
                "a bound above 1 requires a strictly positive margin")

    def to_dict(self):
        return {
            "criterion_id": self.criterion_id,
            "certified_lower_bound": int(self.certified_lower_bound),
            "margin": float(self.margin),
            "details": _jsonable(self.details),
        }


@dataclass
class CertificateReport:
    """All certificates for one state plus the best bound among them."""

    dim_a: int
    dim_b: int
    certificates: list
    best_bound: int

    def to_dict(self):
        return {
            "dim_a": self.dim_a,
            "dim_b": self.dim_b,
            "best_bound": int(self.best_bound),
            "certificates": [c.to_dict() for c in self.certificates],
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _restrict(rows, r_test, dmin):
    if r_test is None:
        return rows
    r_test = _check_int(r_test, "r_test", 1, dmin)
    return [row for row in rows if row[0] == r_test]


def _bound_from_tests(criterion_id, rows, dmin, extra=None):
    """Largest violated r decides the bound; rows are (r, lhs, rhs) tuples."""
    violated = [r for r, lhs, rhs in rows if lhs > rhs + VIOLATION_TOL]
    bound = min(max(violated) + 1 if violated else 1, dmin)
    if bound > 1:
        r_star = bound - 1
        lhs, rhs = next((l, t) for r, l, t in rows if r == r_star)
        margin = lhs - rhs
    else:
        margin = 0.0
    details = {
        "per_r": [
            {"r": r, "lhs": float(lhs), "rhs": float(rhs),
             "violated": bool(lhs > rhs + VIOLATION_TOL)}
            for r, lhs, rhs in rows
        ],
    }
    if extra:
        details.update(extra)
    return SchmidtCertificate(criterion_id, bound, margin, details)


def sn_trace_norm(state_or_corr):
    """Trace-norm criterion on the su correlation block."""
    corr = as_correlation_data(state_or_corr)
    dmin = min(corr.dim_a, corr.dim_b)
    tn = float(np.sum(corr.epsilon))
    rhs = math.sqrt((1 - 1 / corr.dim_a) * (1 - 1 / corr.dim_b))
    rows = [(r, tn - (r - 1), rhs) for r in range(1, dmin + 1)]
    return _bound_from_tests("trace_norm", rows, dmin,
                             extra={"su_trace_norm": tn})


def sn_ccnr(state_or_xi):
    """Realignment-style criterion: the operator Schmidt values sum.

    Accepts a state, a CorrelationData, or the sorted operator Schmidt
    values themselves. The certified bound is the ceiling of the sum,
    computed with a 1e-9 slack so sums within 1e-9 above an integer
    round down, clamped to [1, min(d_a, d_b)].
    """
    if isinstance(state_or_xi, (np.ndarray, list, tuple)):
        xi = np.asarray(state_or_xi, dtype=float)
        if xi.ndim != 1 or xi.size == 0 or np.any(xi < -VIOLATION_TOL):
            raise InvalidInputError(
                "operator Schmidt values must be a nonempty array of "
                "nonnegative numbers")
        # the value count is min(d_a, d_b)^2 for the square correlation
        # matrix convention used throughout
        dmin = math.isqrt(xi.size)
        if dmin * dmin != xi.size:
            raise InvalidInputError(
                f"cannot infer dimensions from {xi.size} operator Schmidt "
                "values (expected a perfect square)")
    else:
        corr = as_correlation_data(state_or_xi)
        xi = corr.xi
        dmin = min(corr.dim_a, corr.dim_b)
    s = float(np.sum(xi))
    bound = min(max(math.ceil(s - VIOLATION_TOL), 1), dmin)
    margin = s - (bound - 1) if bound > 1 else 0.0
    details = {
        "xi_sum": s,
        "per_r": [
            {"r": r, "lhs": s, "rhs": float(r),
             "violated": bool(s > r + VIOLATION_TOL)}
            for r in range(1, dmin + 1)
        ],
    }
    return SchmidtCertificate("ccnr", bound, margin, details)


def sn_two_norm(state_or_corr, r_test=None):
    """Squared Hilbert-Schmidt norm criterion; equal local dimensions only.

    With ``r_test`` the certificate reports on that single r; otherwise
    the largest violated r sets the bound.
    """
    corr = as_correlation_data(state_or_corr)
    if corr.dim_a != corr.dim_b:
        raise InvalidInputError(
            "the two-norm criterion is only defined for equal local "
            f"dimensions, got {corr.dim_a} x {corr.dim_b}")
    d = corr.dim_a
    lhs = float(np.sum(corr.epsilon ** 2))
    rows = [(r, lhs, 1 + (r - 2 * d) / (d * d * r)) for r in range(1, d + 1)]
    rows = _restrict(rows, r_test, d)
    return _bound_from_tests("two_norm", rows, d,
                             extra={"su_two_norm_sq": lhs})


def sn_fidelity(rho, target, r_test=None, label=None):
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
    dmin = min(rho.dim_a, rho.dim_b)
    lam = schmidt_coefficients(target)
    fid = float(np.real(target.amplitudes.conj() @ rho.matrix @ target.amplitudes))
    cums = np.cumsum(lam)
    rows = [(r, fid, float(cums[r - 1])) for r in range(1, dmin + 1)]
    rows = _restrict(rows, r_test, dmin)
    extra = {"fidelity": fid,
             "target_schmidt_coefficients": [float(v) for v in lam]}
    if label is not None:
        extra["target"] = label
    return _bound_from_tests("fidelity", rows, dmin, extra=extra)


def _reduction_rows(rho, rs):
    """Smallest eigenvalue of rho_a (x) 1 - rho/r for each r in rs.

    One partial trace and one Kronecker product serve every r; the
    operators are diagonalised in one stacked call.
    """
    base = np.kron(partial_trace(rho, "a"), np.eye(rho.dim_b))
    ops = base - rho.matrix / np.asarray(rs)[:, None, None]
    eig_min = np.linalg.eigvalsh(ops)[:, 0]
    return [{"r": int(r), "min_eigenvalue": float(e),
             "violated": bool(e < -STRUCT_TOL)}
            for r, e in zip(rs, eig_min)]


def _reduction_certificate(rows, dmin, details):
    """The largest violated r (rows run in increasing r) sets bound and margin."""
    violated = [row for row in rows if row["violated"]]
    if not violated:
        return SchmidtCertificate("reduction_map", 1, 0.0, details)
    top = violated[-1]
    return SchmidtCertificate("reduction_map", min(top["r"] + 1, dmin),
                              -top["min_eigenvalue"], details)


def sn_reduction_map(rho, r):
    """Positivity of rho_a (x) 1 - rho/r, violated only above Schmidt number r.

    Returns
    -------
    (violated, SchmidtCertificate)
        ``violated`` is True when the smallest eigenvalue drops below
        -1e-10, certifying bound r + 1.
    """
    rho = as_density(rho)
    row, = _reduction_rows(rho, [_check_int(r, "r")])
    dmin = min(rho.dim_a, rho.dim_b)
    return row["violated"], _reduction_certificate([row], dmin, row)


def _reduction_scan(rho):
    """Reduction-map certificate over all r, for compare_all."""
    dmin = min(rho.dim_a, rho.dim_b)
    rows = _reduction_rows(rho, range(1, dmin + 1))
    return _reduction_certificate(rows, dmin, {"per_r": rows})


def sn_covariance(state_or_block):
    """Mean-subtracted variant of the trace-norm criterion."""
    if isinstance(state_or_block, CovarianceBlock):
        block = state_or_block
    else:
        block = covariance_block(state_or_block)
    # the cross block is (d_a^2 - 1) x (d_b^2 - 1)
    da = math.isqrt(block.cross.shape[0] + 1)
    db = math.isqrt(block.cross.shape[1] + 1)
    dmin = min(da, db)
    tn = trace_norm(block.cross)
    rhs = math.sqrt(max(1 - block.purity_a, 0.0) * max(1 - block.purity_b, 0.0))
    rows = [(r, tn - (r - 1), rhs) for r in range(1, dmin + 1)]
    return _bound_from_tests(
        "covariance", rows, dmin,
        extra={"cross_trace_norm": tn,
               "purity_a": block.purity_a, "purity_b": block.purity_b})


def _fidelity_targets(rho):
    """Embedded maximally entangled targets plus the dominant eigenvector."""
    da, db = rho.dim_a, rho.dim_b
    dmin = min(da, db)
    targets = []
    for m in range(2, dmin + 1):
        vec = np.zeros(da * db, dtype=np.complex128)
        for j in range(m):
            vec[j * db + j] = 1 / np.sqrt(m)
        targets.append((PureState(da, db, vec), f"max-entangled-{m}"))
    _, vecs = np.linalg.eigh(rho.matrix)
    top = vecs[:, -1]
    targets.append((PureState(da, db, top / np.linalg.norm(top)),
                    "dominant-eigenvector"))
    return targets


def compare_all(rho):
    """Run every applicable criterion and collect the certificates.

    The correlation data is computed once and shared by the correlation
    criteria. The fidelity entry is the best certificate over the embedded
    maximally entangled targets and the dominant eigenvector of the state.
    """
    rho = as_density(rho)
    corr = correlation_data(rho)
    certs = [sn_trace_norm(corr), sn_ccnr(corr)]
    if rho.dim_a == rho.dim_b:
        certs.append(sn_two_norm(corr))
    targets = _fidelity_targets(rho)
    fid_certs = [sn_fidelity(rho, t, label=lbl) for t, lbl in targets]
    best_fid = max(fid_certs, key=lambda c: (c.certified_lower_bound, c.margin))
    best_fid.details["targets_tested"] = [lbl for _, lbl in targets]
    certs.append(best_fid)
    certs.append(_reduction_scan(rho))
    certs.append(sn_covariance(covariance_block(corr)))
    best = max(c.certified_lower_bound for c in certs)
    return CertificateReport(rho.dim_a, rho.dim_b, certs, best)
