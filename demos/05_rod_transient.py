"""1D transient runs: diffusion to steady state and a convected front.

First a conduction rod with fixed ends relaxes onto the linear steady
profile under backward Euler.  Then a pure convection rod transports a
smooth front at the prescribed velocity; the script reports the cell
Courant number and the front position against the exact displacement.
"""

import numpy as np

from fuzzyheat import (
    EndConditions,
    Rod1D,
    ThetaStepper,
    assemble_1d,
    courant_number,
)
from fuzzyheat.fem1d import steady_state

# --- diffusion: relax onto the steady linear profile ----------------------
rod = Rod1D(length=1.0, n_elems=10, k=1.0)
M, A, b = assemble_1d(rod)
bc = EndConditions(left=0.0, right=1.0)

stepper = ThetaStepper(M, A, b, dt=0.05, theta=1.0, bc=bc)
# One row per step: the time, then the nodal values.
table = stepper.march(np.zeros(rod.n_nodes), 60)
print("diffusion rod, backward Euler, dt = 0.05:")
for row in table[[1, 5, 20, 60]]:
    dev = np.abs(row[1:] - steady_state(A, b, bc)).max()
    print(f"  t = {row[0]:5.2f}: max deviation from steady {dev:.3e}")

# --- pure convection: transport a front ------------------------------------
rod = Rod1D(length=10.0, n_elems=100, k=0.0, u1=1.0)
x = rod.node_positions()
front0 = 2.0
initial = 0.5 * (1.0 - np.tanh((x - front0) / 0.4))
bc = EndConditions(left=1.0)

dt, steps = 0.02, 100
print(f"\nconvection rod, u1 = {rod.u1}, Courant = {courant_number(rod, dt):.2f}:")
final = ThetaStepper(*assemble_1d(rod), dt, 0.5, bc).march(initial, steps)[-1]
time, phi = final[0], final[1:]

# locate the half-height crossing
i = int(np.argmax(phi < 0.5)) - 1
frac = (phi[i] - 0.5) / (phi[i] - phi[i + 1])
front = x[i] + frac * (x[i + 1] - x[i])
print(f"  after t = {time:.2f}: front at x = {front:.4f} "
      f"(exact {front0 + rod.u1 * time:.4f})")
