"""Fuzzy uncertainty propagation and sensitivity statistics.

Fuzzy inputs are cut into intervals level by level, the crisp plate is
solved at every corner of each interval box (the vertex method), and
the per-node minima / maxima form the temperature envelopes.  The vertex
method is exact for responses monotone in each parameter: always in
``q`` and ``t_inf``, where the response is affine, but not guaranteed
in ``h``, where a wide fuzzy ``h`` can put a node's extremum inside the
box.  Sensitivity of a parameter is summarized by the width of the
full-support envelope: its per-node values, their average, and their
population variance.

The plate is affine in the three parameters, so a sweep assembles it
once (:class:`~fuzzyheat.fem2d.AffinePlate`), factors it once per
distinct ``h`` and solves it once per distinct corner ``(h, q, t_inf)``
of all levels.  With ``workers > 1`` the ``h`` groups run on a thread
pool; each corner's arithmetic does not depend on the grouping, so
results are identical for any worker count.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .fem2d import AffinePlate, BoundaryConditionSet, PlateParameters, SingularSystemError
from .fem2d import solve_crisp  # noqa: F401  (kept importable from this module)
from .fuzzy import AlphaLevels, Interval, TriangularFuzzyNumber, alpha_cut
from .mesh import Mesh2D

FuzzyOrCrisp = Union[float, TriangularFuzzyNumber]

# Fixed parameter order; vertex enumeration and reductions follow it.
PARAM_NAMES = ("h", "q", "t_inf")


@dataclass(frozen=True)
class FuzzyScenario:
    """Crisp or fuzzy value for each of the three boundary parameters.

    A plain float is a crisp parameter; a
    :class:`~fuzzyheat.fuzzy.TriangularFuzzyNumber` is swept.  An
    all-crisp scenario is legal and produces degenerate envelopes.
    """

    h: FuzzyOrCrisp
    q: FuzzyOrCrisp
    t_inf: FuzzyOrCrisp
    alpha_levels: AlphaLevels = AlphaLevels.uniform(11)

    def entry(self, name: str) -> FuzzyOrCrisp:
        if name not in PARAM_NAMES:
            raise KeyError(f"unknown fuzzy parameter {name!r}")
        return getattr(self, name)

    def fuzzy_names(self) -> list[str]:
        return [
            n for n in PARAM_NAMES if isinstance(self.entry(n), TriangularFuzzyNumber)
        ]

    def cut(self, alpha: float) -> dict[str, Interval]:
        """Alpha-cut of every parameter; crisp entries give point intervals."""
        out = {}
        for name in PARAM_NAMES:
            v = self.entry(name)
            if isinstance(v, TriangularFuzzyNumber):
                out[name] = alpha_cut(v, alpha)
            else:
                out[name] = Interval.point(float(v))
        return out


@dataclass(frozen=True)
class FuzzyTemperatureField:
    """Per-node temperature intervals for every alpha level.

    ``lower`` and ``upper`` have shape (n_levels, n_nodes); ``crisp`` is
    the modal (alpha = 1) solution and coincides with the degenerate top
    level.  Intervals shrink as alpha grows (nesting).
    """

    levels: tuple[float, ...]
    lower: np.ndarray
    upper: np.ndarray
    crisp: np.ndarray

    def __post_init__(self) -> None:
        for name in ("lower", "upper", "crisp"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        shape = (len(self.levels), self.crisp.shape[0])
        if self.lower.shape != shape or self.upper.shape != shape:
            raise ValueError(
                f"envelope arrays must have shape {shape}, got "
                f"{self.lower.shape} and {self.upper.shape}"
            )

    @property
    def n_nodes(self) -> int:
        return self.crisp.shape[0]

    def level_index(self, alpha: float) -> int:
        try:
            return self.levels.index(alpha)
        except ValueError:
            raise KeyError(f"alpha level {alpha} not in {self.levels}") from None

    def interval_at(self, alpha: float, node: int) -> Interval:
        li = self.level_index(alpha)
        return Interval(float(self.lower[li, node]), float(self.upper[li, node]))

    def widths(self, alpha: float = 0.0) -> np.ndarray:
        li = self.level_index(alpha)
        return self.upper[li] - self.lower[li]


@dataclass(frozen=True)
class SensitivityReport:
    """Envelope widths at full support plus their summary statistics."""

    label: str
    widths: np.ndarray
    average_width: float
    variance_of_widths: float

    def __post_init__(self) -> None:
        arr = np.array(self.widths, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "widths", arr)


@dataclass(frozen=True)
class ScenarioComparison:
    """Per-metric verdicts of two sensitivity reports (``None`` = tie)."""

    a: SensitivityReport
    b: SensitivityReport
    more_sensitive_by_average: Optional[str]
    more_sensitive_by_variance: Optional[str]

    def summary(self) -> str:
        lines = [
            f"{r.label}: average width {r.average_width:.9g}, "
            f"variance {r.variance_of_widths:.9g}"
            for r in (self.a, self.b)
        ]
        for metric, winner in (
            ("average width", self.more_sensitive_by_average),
            ("variance", self.more_sensitive_by_variance),
        ):
            if winner is None:
                lines.append(f"by {metric}: tie")
            else:
                lines.append(f"more sensitive by {metric}: {winner}")
        return "\n".join(lines)


def propagate(
    mesh: Mesh2D,
    base: PlateParameters,
    bc: BoundaryConditionSet,
    scenario: FuzzyScenario,
    workers: int = 1,
) -> FuzzyTemperatureField:
    """Sweep the scenario through the crisp solver, level by level.

    For each alpha level the fuzzy parameters are cut to intervals; the
    per-node envelope is the min / max of the temperatures over the
    corners of the resulting box.  At alpha = 1 every cut collapses to
    its modal point, so the top level is the single crisp modal solve,
    reached through exactly the same factor and solve as
    :func:`~fuzzyheat.fem2d.solve_crisp`.  A failed solve keeps its type
    (``ValueError`` or ``SingularSystemError``) and gains the corner in
    front of its message.
    """
    levels = tuple(scenario.alpha_levels)
    # The corners of each level's box, repeats included where a cut is a point.
    boxes = [
        list(itertools.product(*((iv.lo, iv.hi) for iv in scenario.cut(a).values())))
        for a in levels
    ]
    by_h: dict[float, list[tuple[float, float, float]]] = {}
    for corner in dict.fromkeys(itertools.chain.from_iterable(boxes)):
        by_h.setdefault(corner[0], []).append(corner)

    try:
        plate = AffinePlate(mesh, base, bc)
    except ValueError as exc:
        raise type(exc)(f"plate assembly failed: {exc}") from exc

    def run(corners: list[tuple[float, float, float]]) -> dict:
        """Factor once at the group's ``h``, then solve each corner."""
        factor, out = None, {}
        for h, q, t_inf in corners:
            try:
                factor = factor or plate.factor(h)
                out[h, q, t_inf] = plate.solve(factor, q, t_inf).values
            except (ValueError, SingularSystemError) as exc:
                alpha = next(a for a, box in zip(levels, boxes) if (h, q, t_inf) in box)
                raise type(exc)(
                    f"crisp solve failed at alpha={alpha} vertex "
                    f"h={h}, q={q}, t_inf={t_inf}: {exc}"
                ) from exc
        return out

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(run, by_h.values()))
    else:
        solved = [run(corners) for corners in by_h.values()]
    T = {corner: values for part in solved for corner, values in part.items()}

    lower = [np.minimum.reduce([T[c] for c in box]) for box in boxes]
    upper = [np.maximum.reduce([T[c] for c in box]) for box in boxes]
    # Every corner of the top level's box is the modal point.
    return FuzzyTemperatureField(levels, lower, upper, T[boxes[-1][0]])


def sensitivity(field: FuzzyTemperatureField, label: str) -> SensitivityReport:
    """Width statistics of the full-support (alpha = 0) envelope.

    The variance is the population variance (divide by the node count):
    the widths are the complete population over the mesh, not a sample.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf beyond the float range
        widths = field.widths(0.0)
        average = mean_power(widths)
        variance = mean_power(widths - average, 2)
    return SensitivityReport(label, widths, average, variance)


def mean_power(x: np.ndarray, p: int = 1) -> float:
    """``np.mean(x ** p)``, but finite whenever the true value is: on
    overflow ``x`` is scaled into (-1, 1) by a power of two (exactly)."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.mean(x**p)
        if not np.isfinite(m) and np.isfinite(x).all():
            e = math.frexp(float(np.abs(x).max()))[1]
            m = np.ldexp(np.mean(np.ldexp(x, -e) ** p), e * p)
    return float(m)


def compare_scenarios(a: SensitivityReport, b: SensitivityReport) -> ScenarioComparison:
    """Which scenario drives wider envelopes, per metric.

    Ties are reported explicitly, and the two metrics may disagree; the
    caller gets one verdict per metric.
    """
    if a.widths.shape != b.widths.shape:
        raise ValueError(
            f"reports cover different node counts: {a.widths.shape} vs {b.widths.shape}"
        )

    def winner(x: float, y: float) -> Optional[str]:
        if x == y:
            return None
        return a.label if x > y else b.label

    return ScenarioComparison(
        a,
        b,
        winner(a.average_width, b.average_width),
        winner(a.variance_of_widths, b.variance_of_widths),
    )
