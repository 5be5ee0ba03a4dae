"""The benchmark workloads: inputs, operations and correctness oracles.

Every workload is one closed-loop client: it issues its next operation
after the previous one has returned and been checked. Inputs are made
from the workload seed alone, during set-up; the library receives only
those inputs and is called with its defaults (sampling on one worker).
A run cycles through its workload's ``pool`` of inputs.

An operation returns whatever its oracle needs; the oracle runs after the
operation's timing has stopped and returns a ``Verdict``. ``known`` counts
the items of the operation whose Schmidt number is known exactly and
``tight`` those among them whose certified bound equals it.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

BLOCK = 4096         # draws per sampling block in dimcert.randsim
# Statistical back-off of detect_haar, in standard deviations.
# An isotropic state lies exactly on the lower boundary f_{d,r} for every r
# at or above its Schmidt number, so a k-sigma back-off certifies too high
# a bound about Phi(-k) of the time: 0.1-0.3% per operation measured at
# k=3, which runs of thousands of operations would hit. At k=5 it is ~3e-7.
DETECT_K = "5"
P_OFFSET = (math.sqrt(5) - 1) / 2  # of the noise grid, within each stratum


@dataclass
class Verdict:
    ok: bool
    known: int = 0
    tight: int = 0
    reason: str = ""


def fail(reason):
    return Verdict(False, reason=reason)


def run_cli(cli, argv):
    """Run the dimcert CLI in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def sub_seeds(seed, n):
    """n independent 32-bit seeds derived from the workload seed."""
    return np.random.SeedSequence([seed, 0xD1C]).generate_state(n).tolist()


def isotropic_sn(d, p):
    """Schmidt number of isotropic(d, p): max(1, ceil(d F)), F = 1 - p + p/d^2."""
    f = 1 - p + p / (d * d)
    return max(1, math.ceil(d * f))


# ---------------------------------------------------------------------------
# certify_exact
# ---------------------------------------------------------------------------

def _pure_of_rank(rng, d, r):
    """Amplitudes of a random d x d pure state of Schmidt rank exactly r."""
    a = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    b = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
    c = a @ b
    return (c / np.linalg.norm(c)).reshape(-1)


def _max_entangled(d, r):
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[[j * d + j for j in range(r)]] = 1 / math.sqrt(r)
    return vec


def _projector(vec):
    return np.outer(vec, vec.conj())


def _density(mat):
    mat = (mat + mat.conj().T) / 2
    return mat / mat.trace().real


def _named_state(rng, kind, d):
    """(d, matrix, known Schmidt number) of a state with a known answer."""
    if kind == 0:
        # rho_w: equal mixture of |Psi_3+> in d=4 and (|23> + |32>)/sqrt(2)
        phi = np.zeros(16, dtype=np.complex128)
        phi[[2 * 4 + 3, 3 * 4 + 2]] = 1 / math.sqrt(2)
        mat = 0.5 * _projector(_max_entangled(4, 3)) + 0.5 * _projector(phi)
        return 4, _density(mat), 3
    if kind == 1:
        return d, _density(_projector(_max_entangled(d, d))), d
    while True:
        p = float(rng.uniform(0.0, 1.0))
        # away from the Schmidt-number jumps, where the criteria's 1e-9
        # violation margin leaves the certified bound undefined
        df = d * (1 - p + p / (d * d))
        if abs(df - round(df)) > 1e-6:
            break
    mat = (1 - p) * _projector(_max_entangled(d, d)) + p / d ** 2 * np.eye(d * d)
    return d, _density(mat), isotropic_sn(d, p)


class CertifyExact:
    """Exact certification of one state by all seven criteria per operation."""

    name = "certify_exact"
    pool = 512
    # d=5 comes twice, so that the median operation lies inside one local
    # dimension and not on the gap between the costs of d=4 and d=5
    dims = (3, 4, 5, 5, 6)

    def __init__(self, dc):
        self.dc = dc

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        inputs = []
        for i in range(self.pool):
            d = self.dims[i % len(self.dims)]
            slot = i % 8
            if slot == 7:
                d, mat, sn = _named_state(rng, (i // 8) % 3, d)
                inputs.append((d, mat, sn, sn, True))
                continue
            r = int(rng.integers(1, d + 1))
            if slot <= 2:
                # pure state: Schmidt number is its Schmidt rank r
                inputs.append((d, _density(_projector(_pure_of_rank(rng, d, r))),
                               r, r, False))
                continue
            # mixture of pure states of Schmidt rank <= r: Schmidt number <= r
            m = int(rng.integers(2, 5))
            weights = rng.dirichlet(np.ones(m))
            mat = sum(w * _projector(_pure_of_rank(rng, d, int(rng.integers(1, r + 1))))
                      for w in weights)
            inputs.append((d, _density(mat), r, None, False))
        return inputs

    def warmup_inputs(self, inputs):
        first = {}
        for inp in inputs:
            first.setdefault(inp[0], inp)
        return list(first.values())

    def items(self, inp):
        return 1

    def run(self, inp):
        dc = self.dc
        d, mat = inp[0], inp[1]
        rho = dc.DensityMatrix(d, d, mat)
        report = dc.compare_all(rho)
        pair = dc.exact_moments(rho)
        moments = dc.classify_point(pair.s2, pair.s4, d)
        return report, moments

    def check(self, inp, out):
        _, _, upper, known, named = inp
        report, moments = out
        bounds = [c.certified_lower_bound for c in report.certificates]
        bounds.append(moments.certified_lower_bound)
        if len(bounds) != 7:
            return fail(f"expected 7 certificates, got {len(bounds)}")
        best = max(bounds)
        if report.best_bound != max(bounds[:-1]):
            return fail("best_bound is not the best certificate")
        if best > upper:
            return fail(f"certified {best} above the Schmidt number bound {upper}")
        if named and best != known:
            return fail(f"certified {best} for a state of Schmidt number {known}")
        if known is None:
            return Verdict(True)
        return Verdict(True, known=1, tight=int(best == known))


# ---------------------------------------------------------------------------
# detect_haar
# ---------------------------------------------------------------------------

def _bit_reversed(n):
    bits = n.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]


class DetectHaar:
    """Statistical certification of an isotropic state through the CLI,
    from simulated Haar-random measurements."""

    name = "detect_haar"
    n = 10_000
    dims = (3, 5, 7)
    # four noise levels of each d: none of the twelve inputs lies near
    # enough to a Schmidt-number jump for its tightness to depend on the seed
    strata = 4
    pool = len(dims) * strata

    def __init__(self, dc):
        self.dc = dc

    def make_inputs(self, seed):
        # The noise p is the same grid for every d and seed: one point in
        # each of `strata` equal strata of [0, 1], at the same irrational
        # offset, so no p falls on a Schmidt-number jump and tight_frac
        # does not swing with where a few random p land. The seed draws
        # the sampling seeds. Input i takes stratum order[i // len(dims)];
        # the bit-reversed order keeps a partial pass even.
        seeds = sub_seeds(seed, self.pool)
        order = _bit_reversed(self.strata)
        nd = len(self.dims)
        return [(self.dims[i % nd],
                 (order[i // nd] + P_OFFSET) / self.strata,
                 self.n, seeds[i])
                for i in range(self.pool)]

    def warmup_inputs(self, inputs):
        return [(d, p, BLOCK, s) for d, p, _, s in inputs[:len(self.dims)]]

    def items(self, inp):
        return inp[2]

    def run(self, inp):
        d, p, n, seed = inp
        code, text, err = run_cli(self.dc.cli, [
            "simulate", "--state", "isotropic", "--d", str(d), "--p", repr(p),
            "--n", str(n), "--k", DETECT_K, "--path", "haar",
            "--seed", str(seed)])
        return code, text, err

    def check(self, inp, out):
        d, p, n, _ = inp
        code, text, err = out
        if code != 0:
            return fail(f"simulate exited {code}: {err.strip()}")
        result = json.loads(text)["result"]
        if result["estimate"]["n_samples"] != n:
            return fail("estimate used the wrong number of samples")
        bound = result["certificate"]["certified_lower_bound"]
        sn = isotropic_sn(d, p)
        if bound > sn:
            return fail(f"certified {bound} for isotropic({d}, {p}) of "
                        f"Schmidt number {sn}")
        return Verdict(True, known=1, tight=int(bound == sn))


def make(name, dc):
    """The workload called ``name``, bound to the imported package ``dc``."""
    if name == "certify_exact":
        return CertifyExact(dc)
    if name == "detect_haar":
        return DetectHaar(dc)
    raise KeyError(name)
