"""Triangular fuzzy numbers: membership, alpha-cuts, interval arithmetic.

A walk through the uncertainty primitives: build fuzzy parameters from a
nominal value and a tolerance, slice them into intervals at chosen
membership levels, and combine intervals with the four arithmetic
operations.
"""

import numpy as np

from fuzzyheat import (
    Interval,
    alpha_cut,
    membership,
    tfn_from_tolerance,
)

# A convection coefficient of 1.2 known to +/- 5%.
h = tfn_from_tolerance(1.2, 0.05)
print(f"fuzzy h = {h}")

# Membership rises linearly to 1 at the nominal value.
for x in (1.10, 1.14, 1.17, 1.20, 1.23, 1.26, 1.30):
    print(f"  membership({x:.2f}) = {membership(h, x):.3f}")

# Alpha-cuts turn the fuzzy number into nested intervals.
print("\nalpha-cuts of h:")
for alpha in np.linspace(0.0, 1.0, 6):
    cut = alpha_cut(h, float(alpha))
    print(f"  alpha={alpha:.1f}: [{cut.lo:.4f}, {cut.hi:.4f}]  width={cut.width:.4f}")

# Interval arithmetic is endpoint min/max; every pointwise result of
# u ∘ v with u in x and v in y lands inside the result interval.
x, y = Interval(-1.0, 2.0), Interval(3.0, 4.0)
print(f"\n{x} + {y} = {x + y}")
print(f"{x} * {y} = {x * y}")
print(f"{Interval(2.0, 4.0)} / {Interval(1.0, 2.0)} = {Interval(2, 4) / Interval(1, 2)}")

rng = np.random.default_rng(0)
prod = x * y
samples = rng.uniform(x.lo, x.hi, 1000) * rng.uniform(y.lo, y.hi, 1000)
print(f"1000 sampled products all inside {prod}: {bool(np.all((samples >= prod.lo) & (samples <= prod.hi)))}")
