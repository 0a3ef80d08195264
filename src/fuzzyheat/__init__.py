"""Fuzzy finite element heat transfer for rectangular plates.

Crisp and fuzzy-parameter convection-diffusion heat transfer: triangular
fuzzy numbers for the uncertain boundary parameters (convection
coefficient, heat input rate, ambient temperature), a Galerkin solver on
linear triangles, and alpha-cut / vertex-method propagation producing
per-node temperature envelopes and sensitivity reports.
"""

from .fuzzy import (
    AlphaLevels,
    Interval,
    IntervalDivisionError,
    TriangularFuzzyNumber,
    alpha_cut,
    membership,
    tfn_from_tolerance,
)
from .mesh import (
    Mesh2D,
    Wall,
    generate_structured_mesh,
    nodes_on_wall,
    write_mesh_listing,
)
from .fem2d import (
    AffinePlate,
    BCKind,
    BoundaryConditionSet,
    DegenerateElementError,
    PlateParameters,
    SingularSystemError,
    solve_crisp,
)
from .fem1d import (
    EndConditions,
    Rod1D,
    ThetaStepper,
    assemble_1d,
    courant_number,
)
from .uq import (
    FuzzyScenario,
    FuzzyTemperatureField,
    ScenarioComparison,
    SensitivityReport,
    compare_scenarios,
    propagate,
    sensitivity,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaLevels",
    "Interval",
    "IntervalDivisionError",
    "TriangularFuzzyNumber",
    "alpha_cut",
    "membership",
    "tfn_from_tolerance",
    "Mesh2D",
    "Wall",
    "generate_structured_mesh",
    "nodes_on_wall",
    "write_mesh_listing",
    "AffinePlate",
    "BCKind",
    "BoundaryConditionSet",
    "DegenerateElementError",
    "PlateParameters",
    "SingularSystemError",
    "solve_crisp",
    "EndConditions",
    "Rod1D",
    "ThetaStepper",
    "assemble_1d",
    "courant_number",
    "FuzzyScenario",
    "FuzzyTemperatureField",
    "ScenarioComparison",
    "SensitivityReport",
    "compare_scenarios",
    "propagate",
    "sensitivity",
]
