"""Fuzzy sweeps: temperature envelopes and parameter sensitivity.

Runs the h-only and q-only scenarios on the default plate (each fuzzy
parameter at +/- 5%), prints the envelope at a few probe nodes, and
compares the two scenarios by average envelope width and width variance.
This is the run behind the numbers recorded in RESULTS.md.
"""

import numpy as np

from fuzzyheat import (
    AffinePlate,
    BoundaryConditionSet,
    FuzzyScenario,
    PlateParameters,
    compare_scenarios,
    generate_structured_mesh,
    propagate,
    sensitivity,
    tfn_from_tolerance,
)

mesh = generate_structured_mesh(20.0, 10.0, 5, 5)
base = PlateParameters()
plate = AffinePlate(mesh, base, BoundaryConditionSet())  # assembled once for both scenarios

scenarios = {
    "h-only": FuzzyScenario(h=tfn_from_tolerance(base.h, 0.05), q=base.q, t_inf=base.t_inf),
    "q-only": FuzzyScenario(h=base.h, q=tfn_from_tolerance(base.q, 0.05), t_inf=base.t_inf),
}

reports = []
for label, scenario in scenarios.items():
    env = propagate(plate, scenario)
    print(f"{label}: fuzzy parameters {scenario.fuzzy_names()}")
    for node in (0, 14, 21):  # left-bottom corner and two interior nodes
        chain = " > ".join(
            f"[{env.lower[li, node]:.3f}, {env.upper[li, node]:.3f}]"
            for li in (0, 5, 10)
        )
        print(f"  node {node:2d}: alpha 0.0 / 0.5 / 1.0 -> {chain}")
    report = sensitivity(env, label)
    reports.append(report)
    print(f"  average width {report.average_width:.9f} K, "
          f"variance {report.variance_of_widths:.9f} K^2")
    print(f"  widest node: {int(np.argmax(report.widths))} "
          f"({report.widths.max():.6f} K)\n")

print(compare_scenarios(reports[0], reports[1]).summary())
print("\nNote: which parameter dominates depends on the crisp constants "
      "(k, t_inf, t_fixed); see RESULTS.md.")
