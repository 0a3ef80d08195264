"""Fuzzy uncertainty propagation and sensitivity statistics.

Fuzzy inputs are cut into intervals level by level, and the per-node
minima / maxima of the temperature over each interval box form the
envelopes.  The plate is affine in ``q`` and ``t_inf``, so
:func:`propagate` sweeps an assembled
:class:`~fuzzyheat.fem2d.AffinePlate`, which several scenarios can
share, through its one solve entry,
:meth:`~fuzzyheat.fem2d.AffinePlate.sweep`: at each distinct ``h`` of
all levels, one solve at the modal ``q`` and ``t_inf`` and one exact
slope per fuzzy load (once in all on a plate with no convective wall,
which does not depend on ``h``); the extremes in ``q`` and ``t_inf``
follow in closed form.
The envelope is two ``(n_levels, n_nodes)`` arrays, ``lower`` and
``upper``; at alpha = 1 both are the modal crisp solve.  In ``h`` the
envelope takes the two ends of each cut (the vertex method), which is
exact only where the response is monotone in ``h``: a wide fuzzy ``h``
can put a node's extremum inside the cut.  Sensitivity of a parameter
is summarized by the width of the full-support envelope: its per-node
values, their average, and their population variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .fem2d import AffinePlate, SingularSystemError
from .fuzzy import AlphaLevels, Interval, TriangularFuzzyNumber, alpha_cut
from .memory import check_memory

FuzzyOrCrisp = Union[float, TriangularFuzzyNumber]

# Fixed parameter order of the cuts.
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

    def fuzzy_names(self) -> list[str]:
        return [
            n for n in PARAM_NAMES if isinstance(getattr(self, n), TriangularFuzzyNumber)
        ]

    def cut(self, alpha: float) -> dict[str, Interval]:
        """Alpha-cut of every parameter; crisp entries give point intervals."""
        out = {}
        for name in PARAM_NAMES:
            v = getattr(self, name)
            if isinstance(v, TriangularFuzzyNumber):
                out[name] = alpha_cut(v, alpha)
            else:
                out[name] = Interval.point(float(v))
        return out


@dataclass(frozen=True)
class FuzzyTemperatureField:
    """Per-node temperature intervals for every alpha level.

    ``lower`` and ``upper`` have shape (n_levels, n_nodes).  The top
    level (alpha = 1) of a :func:`propagate` envelope is degenerate: both
    bounds are the modal crisp solution.  Intervals shrink as alpha grows
    (nesting).
    """

    levels: tuple[float, ...]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        for name in ("lower", "upper"):
            arr = getattr(self, name)
            # A read-only float array that owns its data (as propagate
            # makes them) is kept; anything else is copied, so that the
            # caller cannot change the field.
            if not (isinstance(arr, np.ndarray) and arr.dtype == float
                    and arr.flags.owndata and not arr.flags.writeable):
                arr = np.array(arr, dtype=float)
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        shape = (len(self.levels), *self.lower.shape[-1:])
        if self.lower.shape != shape or self.upper.shape != shape:
            raise ValueError(
                f"envelope arrays must have shape {shape}, got "
                f"{self.lower.shape} and {self.upper.shape}"
            )

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

    more_sensitive_by_average: Optional[str]
    more_sensitive_by_variance: Optional[str]

    def summary(self) -> str:
        """One verdict line per metric."""
        lines = []
        for metric, winner in (
            ("average width", self.more_sensitive_by_average),
            ("variance", self.more_sensitive_by_variance),
        ):
            if winner is None:
                lines.append(f"by {metric}: tie")
            else:
                lines.append(f"more sensitive by {metric}: {winner}")
        return "\n".join(lines)


def propagate(plate: AffinePlate, scenario: FuzzyScenario) -> FuzzyTemperatureField:
    """Sweep the scenario through an assembled plate, level by level.

    The plate's ``k``, ``G``, ``t_fixed`` and wall layout hold for every
    level, and ``h``, ``q`` and ``t_inf`` come from the scenario, so one
    plate serves every scenario of a run: its ``h``-independent band
    Cholesky is formed when the plate is built.  One
    :meth:`~fuzzyheat.fem2d.AffinePlate.sweep` over the distinct ``h``
    of all levels, in first-seen order, gives the modal solve and one
    slope per fuzzy load at each.  At either end of a level's ``h`` cut,
    each bound is the modal solve plus, per fuzzy load, the smaller
    (larger) of its slope times the two deviations of the load's cut
    from its mode; the envelope is the min / max over both ends.  At
    alpha = 1 every deviation is 0, so the top level is the crisp modal
    solve, bit for bit as :func:`~fuzzyheat.fem2d.solve_crisp`.  The
    solves kept per distinct ``h``, the envelope, what one step of the
    sweep allocates on top (``AffinePlate.work_bytes``) and the Python
    objects (32 KiB and 2 KiB per level) are checked against the
    available memory before the sweep's first wall-block factor
    (``MemoryError``).  A failed solve keeps its type and gains the
    first level whose cut ends at the failing ``h``, that ``h`` and the
    modal loads in front of its message; a bound or width beyond the
    float range is a ``ValueError``.
    """
    levels = tuple(scenario.alpha_levels)
    cuts = [scenario.cut(a) for a in levels]
    mode = {name: iv.lo for name, iv in cuts[-1].items()}  # the alpha = 1 point
    loads = tuple(name for name in scenario.fuzzy_names() if name != "h")
    hs = list(dict.fromkeys(h for cut in cuts for h in (cut["h"].lo, cut["h"].hi)))
    # A solve and a slope per load at each distinct h (at one h without a
    # convective wall), and the two envelope arrays, n_nodes floats each;
    # one step of the sweep at a time on top; and the Python objects: 32 KiB
    # per call and 2 KiB per level (its cut, and the headers, tuples and
    # dict entries of the arrays kept at its two ends' h).
    n_h = len(hs) if plate.depends_on_h else 1
    need = (8 * plate.n_nodes * (n_h * (1 + len(loads)) + 2 * len(levels)) + plate.work_bytes
            + 2**15 + 2**11 * len(levels))
    check_memory(need, "sweep")

    solved = {}  # h -> (modal temperatures, [dT/dload for load in loads])
    try:
        for h, result in zip(hs, plate.sweep(hs, mode["q"], mode["t_inf"], loads)):
            solved[h] = result
    except (ValueError, SingularSystemError) as exc:
        h = hs[len(solved)]
        alpha = next(a for a, cut in zip(levels, cuts) if h in (cut["h"].lo, cut["h"].hi))
        raise type(exc)(
            f"crisp solve failed at alpha={alpha} h={h} "
            f"(modal q={mode['q']}, t_inf={mode['t_inf']}): {exc}"
        ) from exc

    def bound(cut: dict[str, Interval], pick) -> np.ndarray:
        return pick.reduce([
            T + sum(pick((cut[n].lo - mode[n]) * s, (cut[n].hi - mode[n]) * s)
                    for n, s in zip(loads, slopes))
            for T, slopes in (solved[cut["h"].lo], solved[cut["h"].hi])
        ])

    lower = np.empty((len(levels), plate.n_nodes))
    upper = np.empty_like(lower)
    with np.errstate(over="ignore", invalid="ignore"):
        for alpha, cut, lo, hi in zip(levels, cuts, lower, upper):
            lo[:] = bound(cut, np.minimum)
            hi[:] = bound(cut, np.maximum)
            if not np.isfinite(hi - lo).all():
                raise ValueError(f"envelope overflows the float range at alpha={alpha}")
    lower.setflags(write=False)
    upper.setflags(write=False)
    return FuzzyTemperatureField(levels, lower, upper)


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
        winner(a.average_width, b.average_width),
        winner(a.variance_of_widths, b.variance_of_widths),
    )
