"""Crisp steady solve of the demonstration plate.

Boundary layout: prescribed heat flux in on the left wall, fixed
temperature on the right wall, convective exchange with the ambient on
top, adiabatic bottom.  The script solves the default configuration,
prints a temperature map, and then switches convection off to recover
the closed-form linear conduction profile.
"""

import numpy as np

from fuzzyheat import (
    BCKind,
    BoundaryConditionSet,
    PlateParameters,
    generate_structured_mesh,
    solve_crisp,
)

mesh = generate_structured_mesh(20.0, 10.0, 5, 5)
params = PlateParameters()  # k=1.5, h=1.2, q=2.0, t_inf=25, t_fixed=100
bc = BoundaryConditionSet()  # flux | fixed | convection | adiabatic

T = solve_crisp(mesh, params, bc)
print(f"default plate: min {T.min():.3f} K, max {T.max():.3f} K, mean {T.mean():.3f} K")

# Nodal temperatures arranged on the grid (row 0 = bottom wall).
print("\ntemperature grid (K):")
grid = T.reshape(6, 6)
for j in reversed(range(6)):
    print("  " + "  ".join(f"{grid[j, i]:8.3f}" for i in range(6)))

# With h = 0 the plate reduces to 1D conduction: T(x) = T_fixed + q/k (W - x).
no_conv = PlateParameters(k=1.5, h=0.0, q=2.0, t_inf=25.0, t_fixed=100.0)
T_lin = solve_crisp(mesh, no_conv, bc)
coords = mesh.coords
exact = 100.0 + (2.0 / 1.5) * (20.0 - coords[:, 0])
print(f"\nconduction-only vs closed form: max |error| = {np.abs(T_lin - exact).max():.3e} K")
