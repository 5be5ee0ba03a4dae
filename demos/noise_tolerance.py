"""Find how much white noise dimensionality detection survives.

Mixing a maximally entangled qutrit pair with white noise weakens the
moment signature; past an exact noise level the rank-r certificate
becomes unreachable.  The analytic thresholds are p* = 0.375 for full
dimensionality 3 and p* = 0.75 for dimensionality 2.  The bisection
below recovers them from finite-statistics simulated runs, so the
simulated frontier sits a little before the analytic one - the price
of the k-sigma safety margin.
"""

from dimcert import analytic_noise_threshold, noise_tolerance

for target in (3, 2):
    res = noise_tolerance(3, target, n_tot=20_000, k_sigma=2.0, seed=4)
    print(f"target bound {target}:")
    print(f"  analytic threshold  p* = {res.analytic_threshold:.6f} "
          f"(= {analytic_noise_threshold(3, target)})")
    print(f"  simulated threshold p  = {res.simulated_threshold:.6f} "
          f"(N = {res.n_tot}, k = {res.k_sigma})")
    print(f"  bisection evaluations: {len(res.evaluations)}")
    for ev in res.evaluations[:6]:
        print(f"    p = {ev['p']:.4f} -> certified {ev['bound']}")
    if len(res.evaluations) > 6:
        print(f"    ... {len(res.evaluations) - 6} more")
    print()
