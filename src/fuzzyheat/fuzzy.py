"""Triangular fuzzy numbers, alpha-cuts, and closed-interval arithmetic.

A triangular fuzzy number (TFN) models an uncertain quantity by three
points: the smallest plausible value, the most plausible (modal) value,
and the largest plausible value.  Cutting the triangle at a membership
level ``alpha`` yields a closed interval; sweeping ``alpha`` from 0 to 1
turns fuzzy arithmetic into ordinary interval arithmetic level by level.

Everything in this module is an immutable value and every operation is
pure, so instances can be shared freely across worker threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class IntervalDivisionError(ZeroDivisionError):
    """Raised when dividing by an interval that contains zero."""


@dataclass(frozen=True)
class Interval:
    """Closed real interval ``[lo, hi]``.

    A degenerate interval (``lo == hi``) behaves exactly like the scalar
    it wraps under all arithmetic below.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"interval bounds out of order: [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value: float) -> "Interval":
        return cls(value, value)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol

    def contains_interval(self, other: "Interval", tol: float = 0.0) -> bool:
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol

    def __add__(self, other: "Interval") -> "Interval":
        return interval_add(self, other)

    def __sub__(self, other: "Interval") -> "Interval":
        return interval_sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Interval):
            return interval_mul(self, other)
        return interval_scale(other, self)

    def __rmul__(self, scalar: float) -> "Interval":
        return interval_scale(scalar, self)

    def __truediv__(self, other: "Interval") -> "Interval":
        return interval_div(self, other)

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


@dataclass(frozen=True)
class TriangularFuzzyNumber:
    """Three-point fuzzy quantity ``(a_l, a_m, a_r)`` with ``a_l <= a_m <= a_r``.

    Membership rises linearly from 0 at ``a_l`` to 1 at the modal value
    ``a_m`` and falls linearly back to 0 at ``a_r``.  A crisp value ``v``
    is the degenerate triple ``(v, v, v)``.
    """

    a_l: float
    a_m: float
    a_r: float

    def __post_init__(self) -> None:
        if not self.a_l <= self.a_m <= self.a_r:
            raise ValueError(
                f"TFN points out of order: ({self.a_l}, {self.a_m}, {self.a_r})"
            )

    @classmethod
    def crisp(cls, value: float) -> "TriangularFuzzyNumber":
        return cls(value, value, value)

    @property
    def support(self) -> Interval:
        return Interval(self.a_l, self.a_r)

    def __repr__(self) -> str:
        return f"TFN({self.a_l!r}, {self.a_m!r}, {self.a_r!r})"


@dataclass(frozen=True)
class AlphaLevels:
    """Strictly increasing grid of membership levels covering [0, 1].

    The grid must contain both endpoints: level 0 is the full support of
    a fuzzy number and level 1 its modal point, and the propagation and
    reporting code relies on both being present.
    """

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.levels) < 2:
            raise ValueError("need at least the two levels 0 and 1")
        for a, b in zip(self.levels, self.levels[1:]):
            if not a < b:
                raise ValueError(f"alpha levels not strictly increasing: {a} >= {b}")
        if self.levels[0] != 0.0 or self.levels[-1] != 1.0:
            raise ValueError("alpha levels must start at 0 and end at 1")

    @classmethod
    def uniform(cls, count: int = 11) -> "AlphaLevels":
        """Uniform grid of ``count`` levels from 0 to 1 inclusive."""
        if count < 2:
            raise ValueError("need at least 2 levels")
        step = 1.0 / (count - 1)
        inner = tuple(i * step for i in range(1, count - 1))
        return cls((0.0,) + inner + (1.0,))

    def __iter__(self):
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)


def membership(t: TriangularFuzzyNumber, x: float) -> float:
    """Degree of membership of ``x`` in the TFN ``t``, in [0, 1].

    Zero outside the support, ``(x - a_l) / (a_m - a_l)`` on the rising
    leg, ``(a_r - x) / (a_r - a_m)`` on the falling leg, and exactly 1 at
    the modal point.  A degenerate leg (zero width) acts as a step: the
    modal value keeps membership 1 and the leg contributes no ramp, so no
    division by zero can occur.
    """
    if x < t.a_l or x > t.a_r:
        return 0.0
    if x == t.a_m:
        return 1.0
    if x < t.a_m:
        # a_l < a_m here: x >= a_l and x < a_m rule out a zero-width leg.
        return (x - t.a_l) / (t.a_m - t.a_l)
    return (t.a_r - x) / (t.a_r - t.a_m)


def alpha_cut(t: TriangularFuzzyNumber, alpha: float) -> Interval:
    """Interval of values whose membership in ``t`` is at least ``alpha``.

    Equals ``[a_l + (a_m - a_l)*alpha, a_r - (a_r - a_m)*alpha]``; the
    endpoints are convex combinations, exact at alpha = 0 and 1, clamped
    so that rounding never moves them off ``[a_l, a_m]`` and ``[a_m, a_r]``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    w = 1.0 - alpha
    lo = min(max(t.a_l * w + t.a_m * alpha, t.a_l), t.a_m)
    hi = max(min(t.a_r * w + t.a_m * alpha, t.a_r), t.a_m)
    return Interval(lo, hi)


def tfn_from_tolerance(v: float, pct: float) -> TriangularFuzzyNumber:
    """TFN for a nominal value with a symmetric relative tolerance.

    ``tfn_from_tolerance(1.2, 0.05)`` is the triple (1.14, 1.2, 1.26),
    i.e. 1.2 plus or minus 5%.  For negative nominals the endpoints are
    swapped so the triple stays ordered.
    """
    if pct < 0.0:
        raise ValueError(f"tolerance must be non-negative, got {pct}")
    lo = v * (1.0 - pct)
    hi = v * (1.0 + pct)
    if v < 0.0:
        lo, hi = hi, lo
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"tolerance {pct} of {v} overflows the float range")
    return TriangularFuzzyNumber(lo, v, hi)


def interval_add(x: Interval, y: Interval) -> Interval:
    return Interval(x.lo + y.lo, x.hi + y.hi)


def interval_sub(x: Interval, y: Interval) -> Interval:
    return Interval(x.lo - y.hi, x.hi - y.lo)


def interval_mul(x: Interval, y: Interval) -> Interval:
    """Product interval: min/max over the four endpoint products."""
    p = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    return Interval(min(p), max(p))


def interval_div(x: Interval, y: Interval) -> Interval:
    """Quotient interval: min/max over the four endpoint quotients.

    Rejects denominators whose interval contains zero, where the quotient
    set is unbounded.
    """
    if y.lo <= 0.0 <= y.hi:
        raise IntervalDivisionError(f"division by interval containing zero: {y}")
    q = (x.lo / y.lo, x.lo / y.hi, x.hi / y.lo, x.hi / y.hi)
    return Interval(min(q), max(q))


def interval_scale(l: float, x: Interval) -> Interval:
    """Scale an interval by a real, flipping the bounds for negative scalars."""
    if l >= 0.0:
        return Interval(l * x.lo, l * x.hi)
    return Interval(l * x.hi, l * x.lo)
