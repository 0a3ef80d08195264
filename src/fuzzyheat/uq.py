"""Fuzzy uncertainty propagation and sensitivity statistics.

The pipeline has three stages: fuzzy inputs are cut into intervals level
by level, each interval box is propagated through the crisp plate solver
by the vertex method (one solve per corner of the box, exact for
responses that are monotone in each parameter, which holds for this
linear problem), and the per-node minima / maxima form the temperature
envelopes.  Sensitivity of a parameter is summarized by the width of the
full-support envelope: its per-node values, their average, and their
population variance.

The plate is affine in the three parameters, so a sweep assembles it
once (:class:`~fuzzyheat.fem2d.AffinePlate`), groups the corners of all
levels by their ``h`` and factors once per distinct ``h``; every corner
with that ``h`` reuses the factor.  With ``workers > 1`` the groups run
on a thread pool; each corner's arithmetic does not depend on the
grouping and the reduction order is fixed, so results are identical for
any worker count.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .fem2d import AffinePlate, BoundaryConditionSet, PlateParameters
from .fem2d import solve_crisp  # noqa: F401  (kept importable from this module)
from .fuzzy import AlphaLevels, Interval, TriangularFuzzyNumber, alpha_cut
from .mesh import Mesh2D

FuzzyOrCrisp = Union[float, TriangularFuzzyNumber]

# Fixed parameter order; vertex enumeration and reductions follow it.
PARAM_NAMES = ("h", "q", "t_inf")


class PropagationError(RuntimeError):
    """A crisp solve failed during a sweep; message identifies the vertex."""


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


def _vertex_tuples(cuts: dict[str, Interval]) -> list[tuple[float, ...]]:
    """Corners of the parameter box in fixed order, without duplicates.

    Crisp (degenerate) parameters contribute a single coordinate, so an
    m-parameter fuzzy scenario yields at most 2**m distinct corners.
    """
    axes = []
    for name in PARAM_NAMES:
        iv = cuts[name]
        axes.append((iv.lo,) if iv.lo == iv.hi else (iv.lo, iv.hi))
    return list(dict.fromkeys(itertools.product(*axes)))


def propagate(
    mesh: Mesh2D,
    base: PlateParameters,
    bc: BoundaryConditionSet,
    scenario: FuzzyScenario,
    workers: int = 1,
) -> FuzzyTemperatureField:
    """Sweep the scenario through the crisp solver, level by level.

    For each alpha level the fuzzy parameters are cut to intervals and
    the plate is solved once per corner of the resulting box; the
    per-node envelope is the min / max over those solves.  The plate is
    assembled once and factored once per distinct ``h`` over all levels.
    At alpha = 1 every cut collapses to its modal point, so the top level
    is the single crisp modal solve, reached through exactly the same
    factor and solve as :func:`~fuzzyheat.fem2d.solve_crisp`.
    """
    levels = tuple(scenario.alpha_levels)
    per_level_vertices = [_vertex_tuples(scenario.cut(a)) for a in levels]

    jobs = [
        (alpha, vertex)
        for alpha, vertices in zip(levels, per_level_vertices)
        for vertex in vertices
    ]
    by_h: dict[float, list[int]] = {}
    for i, (_, (h, _, _)) in enumerate(jobs):
        by_h.setdefault(h, []).append(i)

    try:
        plate = AffinePlate(mesh, base, bc)
    except ValueError as exc:
        raise PropagationError(f"plate assembly failed: {exc}") from exc

    def run(group: list[int]) -> list[np.ndarray]:
        """Factor once at the group's ``h``, then solve each corner."""
        factor, out = None, []
        for i in group:
            alpha, (h, q, t_inf) = jobs[i]
            try:
                if factor is None:
                    factor = plate.factor(h)
                out.append(plate.solve(factor, q, t_inf).values)
            except Exception as exc:
                raise PropagationError(
                    f"crisp solve failed at alpha={alpha} vertex "
                    f"h={h}, q={q}, t_inf={t_inf}: {exc}"
                ) from exc
        return out

    groups = list(by_h.values())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(run, groups))
    else:
        solved = [run(group) for group in groups]
    results: list = [None] * len(jobs)
    for group, values in zip(groups, solved):
        for i, T in zip(group, values):
            results[i] = T

    lower = np.empty((len(levels), mesh.n_nodes))
    upper = np.empty((len(levels), mesh.n_nodes))
    pos = 0
    for li, vertices in enumerate(per_level_vertices):
        block = results[pos : pos + len(vertices)]
        pos += len(vertices)
        lower[li] = np.minimum.reduce(block)
        upper[li] = np.maximum.reduce(block)

    crisp = results[-1]  # top level is the lone modal solve
    assert len(per_level_vertices[-1]) == 1
    return FuzzyTemperatureField(levels, lower, upper, crisp)


def sensitivity(field: FuzzyTemperatureField, label: str) -> SensitivityReport:
    """Width statistics of the full-support (alpha = 0) envelope.

    The variance is the population variance (divide by the node count):
    the widths are the complete population over the mesh, not a sample.
    """
    widths = field.widths(0.0)
    average = float(np.mean(widths))
    variance = float(np.mean((widths - average) ** 2))
    return SensitivityReport(label, widths, average, variance)


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
