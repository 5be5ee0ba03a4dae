"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with plain pytest; each criterion prints its verdict directly to the
terminal (bypassing capture) so a full run reads as a checklist.  Budgeted
criteria also enforce their wall-clock limits.
"""

import time

import numpy as np

from dimcert.boundary import (
    classify_point,
    endpoint,
    lower_boundary,
    numeric_min_oracle,
    outer_boundary_d3,
)
from dimcert.correlations import correlation_data
from dimcert.criteria import compare_all, sn_fidelity
from dimcert.moments import MomentPair, exact_moments
from dimcert.randsim import (
    analytic_noise_threshold,
    detect_with_confidence,
    estimate_moments,
    haar_unitary,
    predicted_variance,
)
from dimcert.states import (
    DensityMatrix,
    PureState,
    isotropic,
    max_entangled,
    random_mixed,
    random_pure,
    rho_w,
)


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_01_max_entangled_moments(capsys):
    t0 = time.perf_counter()
    pair = exact_moments(max_entangled(3))
    elapsed = time.perf_counter() - t0
    err = max(abs(pair.s2 - 2.0), abs(pair.s4 - 5 / 3))
    ok = err < 1e-9 and elapsed < 1.0
    _report(capsys, "criterion 01", ok,
            f"moments ({pair.s2:.12f}, {pair.s4:.12f}), "
            f"max err {err:.2e}, {elapsed * 1000:.0f} ms")


def test_criterion_02_isotropic_norm_closed_forms(capsys):
    worst = 0.0
    for d in (3, 4, 5):
        for p in (0.0, 0.3, 0.7):
            corr = correlation_data(isotropic(d, p))
            expect_tr = (d * d - 1) * (1 - p) / d
            expect_2 = np.sqrt(d * d - 1) * (1 - p) / d
            worst = max(worst,
                        abs(np.linalg.norm(corr.su, "nuc") - expect_tr),
                        abs(float(np.linalg.norm(corr.su)) - expect_2))
    ok = worst < 1e-9
    _report(capsys, "criterion 02", ok,
            f"9 (d, p) pairs, worst norm deviation {worst:.2e}")


def test_criterion_03_rho_w_certified_three(capsys):
    t0 = time.perf_counter()
    report = compare_all(rho_w())
    elapsed = time.perf_counter() - t0
    by_id = {c.criterion_id: c.certified_lower_bound
             for c in report.certificates}
    ok = (by_id["ccnr"] == 3 and by_id["trace_norm"] == 3
          and by_id["fidelity"] <= 2 and elapsed < 5.0)
    _report(capsys, "criterion 03", ok,
            f"ccnr {by_id['ccnr']}, trace-norm {by_id['trace_norm']}, "
            f"fidelity {by_id['fidelity']}, {elapsed:.2f} s")


def test_criterion_04_oracle_agreement_and_continuity(capsys):
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_jump = 0.0
    for d in (3, 4, 5):
        for r in range(1, d + 1):
            b2 = endpoint(d, r)
            for s2 in np.linspace(0.0, b2, 100):
                gap = abs(lower_boundary(d, r, float(s2))
                          - numeric_min_oracle(d, r, float(s2)))
                worst_gap = max(worst_gap, gap)
            # the interior piece ends B_r^2/n, n = d^2 - 1 down to 2
            for bp in [b2 / n for n in range(d * d - 1, 1, -1)]:
                # one-ulp straddle lands on the two adjacent closed-form
                # pieces with negligible slope contribution
                jump = abs(lower_boundary(d, r, np.nextafter(bp, 0.0))
                           - lower_boundary(d, r, np.nextafter(bp, b2)))
                worst_jump = max(worst_jump, jump)
    elapsed = time.perf_counter() - t0
    ok = worst_gap < 1e-6 and worst_jump < 1e-9 and elapsed < 30.0
    _report(capsys, "criterion 04", ok,
            f"oracle gap {worst_gap:.2e}, junction jump {worst_jump:.2e}, "
            f"{elapsed:.1f} s")


def test_criterion_05_landmark_points(capsys):
    devs = [
        abs(lower_boundary(3, 3, 2.0) - 5 / 3),
        abs(lower_boundary(3, 2, 1.75) - 53 / 32),
        abs(outer_boundary_d3(1.75, family="B")[0] - 53 / 32),
        abs(outer_boundary_d3(2.0, family="C")[0] - 5 / 3),
        abs(outer_boundary_d3(2.0, family="D")[0] - 5 / 3),
    ]
    worst = max(devs)
    ok = worst < 1e-9
    _report(capsys, "criterion 05", ok,
            f"5 landmark values, worst deviation {worst:.2e}")


def test_criterion_06_soundness_on_random_pure_states(capsys):
    t0 = time.perf_counter()
    n_per = 10_000
    violations = 0
    checked = 0
    plans = [(3, r) for r in (1, 2, 3)] + [(4, r) for r in (1, 2, 3, 4)]
    for d, r in plans:
        b2 = endpoint(d, r)
        for i in range(n_per):
            psi = random_pure(d, d, seed=i, schmidt_rank=r)
            pair = exact_moments(psi.to_density())
            checked += 1
            if pair.s2 > b2 + 1e-9:
                violations += 1
            elif pair.s4 < lower_boundary(d, r, min(pair.s2, b2)) - 1e-9:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120.0
    _report(capsys, "criterion 06", ok,
            f"{checked} rank-constrained pure states, "
            f"{violations} false boundary violations, {elapsed:.0f} s")


def test_criterion_07_variance_predictions(capsys):
    t0 = time.perf_counter()
    me3 = max_entangled(3)
    pred = predicted_variance(me3, 1000, seed=0, m8_samples=2_000_000)
    exact_gap = abs(pred.var_s2 * 1000 - 28 / 5)
    bands_ok = True
    for n, printed in ((1000, 0.224), (10_000, 0.071), (100_000, 0.022)):
        band = 3 * np.sqrt(28 / (5 * n))
        if round(band, 3) != printed:
            bands_ok = False
    m8_rel = abs(pred.m8 - 0.007925) / 0.007925
    elapsed = time.perf_counter() - t0
    ok = (exact_gap < 1e-9 and bands_ok and m8_rel < 0.02
          and pred.m8_samples >= 2_000_000 and elapsed < 120.0)
    _report(capsys, "criterion 07", ok,
            f"N var(s2hat) off by {exact_gap:.1e}, 3-sigma bands "
            f"{'match' if bands_ok else 'MISMATCH'}, eighth moment "
            f"{pred.m8:.6f} ({m8_rel * 100:.2f}% off), {elapsed:.0f} s")


def test_criterion_08_detection_rate_max_entangled(capsys):
    me3 = max_entangled(3)
    hits = 0
    runs = 100
    for seed in range(runs):
        det = detect_with_confidence(me3, 1000, k_sigma=3.0, seed=seed)
        if det.certificate.certified_lower_bound == 3:
            hits += 1
    ok = hits >= 95
    _report(capsys, "criterion 08", ok,
            f"{hits}/{runs} runs certified full dimensionality "
            f"(N=1000, k=3)")


def test_criterion_09_isotropic_detection_and_thresholds(capsys):
    runs = 50
    hits_low = sum(
        1 for seed in range(runs)
        if detect_with_confidence(isotropic(3, 0.25), 10_000, k_sigma=2.0,
                                  seed=seed)
        .certificate.certified_lower_bound == 3)
    hits_high = sum(
        1 for seed in range(runs)
        if detect_with_confidence(isotropic(3, 0.7), 10_000, k_sigma=2.0,
                                  seed=1000 + seed)
        .certificate.certified_lower_bound == 2)
    thresholds_ok = (analytic_noise_threshold(3, 3) == 0.375
                     and analytic_noise_threshold(3, 2) == 0.75)
    ok = (hits_low >= 0.9 * runs and hits_high >= 0.9 * runs
          and thresholds_ok)
    _report(capsys, "criterion 09", ok,
            f"p=0.25 -> 3 in {hits_low}/{runs}, p=0.7 -> 2 in "
            f"{hits_high}/{runs}, analytic thresholds "
            f"{'exact' if thresholds_ok else 'WRONG'}")


def test_criterion_10_property_suite(capsys):
    rng = np.random.default_rng(99)
    worst_lu = 0.0
    for rho in (rho_w(), isotropic(3, 0.4), random_mixed(3, 3, 5, seed=8)):
        d = rho.dim_a
        w = np.kron(haar_unitary(d, rng), haar_unitary(d, rng))
        rot = DensityMatrix(d, d, w @ rho.matrix @ w.conj().T)
        rep0, rep1 = compare_all(rho), compare_all(rot)
        for c0, c1 in zip(rep0.certificates, rep1.certificates):
            if c0.criterion_id == "fidelity":
                # the dominant-eigenvector target co-rotates; the fixed
                # embedded targets are basis dependent by design
                continue
            if c0.certified_lower_bound != c1.certified_lower_bound:
                worst_lu = np.inf
            worst_lu = max(worst_lu, abs(c0.margin - c1.margin))
        if d == rho.dim_b:
            p0, p1 = exact_moments(rho), exact_moments(rot)
            worst_lu = max(worst_lu, abs(p0.s2 - p1.s2),
                           abs(p0.s4 - p1.s4))
        # fidelity with each state's own dominant eigenvector co-rotates;
        # needs a nondegenerate top eigenvalue to be well posed
        ev0, vec0 = np.linalg.eigh(rho.matrix)
        ev1, vec1 = np.linalg.eigh(rot.matrix)
        if ev0[-1] - ev0[-2] > 1e-6:
            f0 = sn_fidelity(rho, PureState(d, rho.dim_b, vec0[:, -1]))
            f1 = sn_fidelity(rot, PureState(d, rho.dim_b, vec1[:, -1]))
            if f0.certified_lower_bound != f1.certified_lower_bound:
                worst_lu = np.inf
            worst_lu = max(worst_lu, abs(f0.margin - f1.margin))
    lu_ok = worst_lu < 1e-9

    cone_ok = True
    for i in range(10_000):
        d = 2 + i % 3
        rank = 1 + i % (d * d)
        pair = exact_moments(random_mixed(d, d, rank, seed=70_000 + i))
        lo = pair.s2 * pair.s2 / 3 - 1e-9 * max(1, pair.s2 ** 2)
        hi = pair.s2 * pair.s2 + 1e-9 * max(1, pair.s2 ** 2)
        if not (lo <= pair.s4 <= hi):
            cone_ok = False
            break

    d, n = 3, 3000
    rng2 = np.random.default_rng(5)
    acc = np.zeros((d, d))
    for _ in range(n):
        acc += np.abs(haar_unitary(d, rng2)) ** 2
    acc /= n
    se = np.sqrt((d - 1) / (d * d * (d + 1)) / n)
    haar_ok = bool(np.all(np.abs(acc - 1 / d) < 4 * se + 1e-3))

    a = estimate_moments(max_entangled(3), 4000, seed=31, keep_samples=True)
    b = estimate_moments(max_entangled(3), 4000, seed=31, keep_samples=True)
    det_ok = (a.s2 == b.s2 and a.s4 == b.s4
              and np.array_equal(a.samples, b.samples))

    ok = lu_ok and cone_ok and haar_ok and det_ok
    _report(capsys, "criterion 10", ok,
            f"local-unitary drift {worst_lu:.1e}, cone "
            f"{'held' if cone_ok else 'BROKEN'} on 10000 states, Haar "
            f"first moment {'ok' if haar_ok else 'BAD'}, reruns "
            f"{'bit-identical' if det_ok else 'DIVERGED'}")
