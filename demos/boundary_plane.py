"""Tabulate the moment-plane boundary curves for qutrit pairs.

Below each rank-r curve no state of Schmidt number <= r can live, so a
measured (s2, s4) pair under the curve certifies dimensionality r+1.
The script prints the landmark values the rest of the toolkit is
calibrated against, then a small table of all three curves plus the
outer envelope of the physical region.
"""

import numpy as np

from dimcert import (
    endpoint,
    lower_boundary,
    outer_boundary_d3,
    two_norm_line,
)

d = 3

print("landmarks (d = 3)")
print(f"  f_r3(2)     = {lower_boundary(d, 3, 2.0):.15f}   (5/3)")
print(f"  f_r2(7/4)   = {lower_boundary(d, 2, 1.75):.15f}   (53/32)")
print(f"  f_r2(2)     = {lower_boundary(d, 2, 2.0):.15f}")
print(f"  f_r1(1)     = {lower_boundary(d, 1, 1.0):.15f}   (cap^2)")
print()

print("curve endpoints B_r^2 and the 2-norm criterion lines")
for r in range(1, d + 1):
    print(f"  r={r}: endpoint {endpoint(d, r):.6f}, "
          f"two-norm line {two_norm_line(d, r):.6f}")
print()

grid = np.linspace(0.0, (d + 1) / (d - 1), 11)

print(" s2      f_r1     f_r2     f_r3     outer")
for x in grid:
    cells = [f"{x:5.2f}"]
    for r in range(1, d + 1):
        if x <= endpoint(d, r):
            cells.append(f"{lower_boundary(d, r, x):8.5f}")
        else:
            cells.append("       -")
    env, label = outer_boundary_d3(float(x))
    cells.append(f"{env:8.5f} ({label})")
    print(" ".join(cells))
