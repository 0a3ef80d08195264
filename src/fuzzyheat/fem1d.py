"""Transient convection-diffusion on a 1D rod with linear elements.

Discretizes ``d(phi)/dt + u1 d(phi)/dx - d/dx(k d(phi)/dx) + Q = 0`` on a
uniform rod (constant convection velocity ``u1``) with a consistent mass
matrix and plain Galerkin weighting, then advances in time with a theta
scheme: theta = 1 is backward Euler (the robust default), theta = 0.5 is
Crank-Nicolson, theta = 0 explicit.  For theta < 1/2 the scheme is
stable only for ``dt <= l**2 / (6 (1 - 2 theta) k)`` on elements of
length ``l``; above that limit the field grows without bound until it
overflows, and the run raises ``ValueError``.  Pure convection is the rod
with ``k = 0`` and ``Q_src = 0``.

``M`` and ``A`` are tridiagonal, stored ``(n, 3)`` by row:
``X[i] = (X[i, i-1], X[i, i], X[i, i+1])``, with the zeros ``X[0, 0]``
and ``X[n-1, 2]`` outside the matrix.  :class:`ThetaStepper` (the one way
to step a rod, built once per run) and :func:`steady_state` share one
factorization: a tridiagonal LU (LAPACK ``dgttrf``, through
:mod:`fuzzyheat._lapack`), so memory and work grow as O(n).
``ThetaStepper.march(initial, steps)`` fills a run's time-series table
row by row from the nodal values ``initial`` at time 0: a step is three
products and three adds into the next row and one ``dgttrs`` solving
that row in place, and the table is checked for overflow once per run.
The fixed ends' rows are replaced by identity rows, the left one scaled
so that it stays the pivot of its column, and a fixed end prints
exactly its value.

The convection term carries no stabilization (no upwinding or SUPG), so
convection-dominated runs are only trustworthy at small cell Peclet and
Courant numbers; see :func:`courant_number`.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._lapack import lapack
from .ioutil import fmt, write_csv


class SingularStepError(RuntimeError):
    """Time-step matrix could not be factorized."""


@dataclass(frozen=True)
class Rod1D:
    """Uniform rod: length [cm], element count, conductivity ``k``,
    convection velocity ``u1`` [cm/s] and volumetric source ``Q_src``
    (positive ``Q_src`` acts as a sink; it enters the balance with a
    plus sign on the left-hand side)."""

    length: float
    n_elems: int
    k: float = 1.0
    u1: float = 0.0
    Q_src: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.length < math.inf:
            raise ValueError(f"rod length must be positive, got {self.length}")
        if self.n_elems < 1:
            raise ValueError(f"need at least one element, got {self.n_elems}")
        if not 0.0 <= self.k < math.inf:
            raise ValueError(f"conductivity must be >= 0, got {self.k}")
        for name in ("u1", "Q_src"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {name}={getattr(self, name)}")

    @property
    def n_nodes(self) -> int:
        return self.n_elems + 1

    @property
    def elem_length(self) -> float:
        return self.length / self.n_elems

    def node_positions(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_nodes)


@dataclass(frozen=True)
class EndConditions:
    """Fixed values at the rod ends; ``None`` leaves an end free
    (natural, zero-flux)."""

    left: Optional[float] = None
    right: Optional[float] = None


def assemble_1d(rod: Rod1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mass matrix M and transport matrix A, both ``(n, 3)`` by row (see
    the module docstring), and the load vector b.

    Per element of length ``l``: mass ``(l/6)[[2,1],[1,2]]``, diffusion
    ``(k/l)[[1,-1],[-1,1]]``, convection ``(u1/2)[[-1,1],[-1,1]]`` and
    load ``(-Q_src*l/2, -Q_src*l/2)``.
    """
    n, l = rod.n_nodes, rod.elem_length
    m_e = (l / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    a_e = (rod.k / l) * np.array([[1.0, -1.0], [-1.0, 1.0]]) + (rod.u1 / 2.0) * np.array(
        [[-1.0, 1.0], [-1.0, 1.0]]
    )
    M, A, b = np.zeros((n, 3)), np.zeros((n, 3)), np.zeros(n)
    for X, x_e in ((M, m_e), (A, a_e)):
        X[:-1, 1:] += x_e[0]  # row e of element e: columns e and e + 1
        X[1:, :2] += x_e[1]  # row e + 1: columns e and e + 1
    b[:-1] += -rod.Q_src * l / 2.0
    b[1:] += -rod.Q_src * l / 2.0
    return M, A, b


def _band_solver(S: np.ndarray, bc: EndConditions, singular: str):
    """Tridiagonal LU (``dgttrf``) of ``S`` with each fixed end's row
    replaced by an identity row (the left one scaled, see below), or
    :class:`SingularStepError` (``singular``) at a zero pivot.  Returns
    ``solve(rhs)``, which writes the fixed values into ``rhs`` and
    overwrites it with the solution."""
    rows = np.array(S, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"need a tridiagonal matrix as an (n, 3) array, got shape {rows.shape}")
    n = len(rows)
    ends = [(row, value) for row, value in ((0, bc.left), (-1, bc.right)) if value is not None]
    rows[[row for row, _ in ends]] = (0.0, 1.0, 0.0)
    if bc.left is not None:
        # dgttrf swaps rows i and i + 1 only where |S[i + 1, i]| > |S[i, i]|
        # after elimination.  Row 0 and its value, scaled by a power of two
        # (exactly) at least |S[1, 0]|, stay the pivot of column 0, so the
        # solve returns the value exactly; with row 1 as the pivot, node 0
        # came back with rounding noise (-2.42e-16 for 0).  The right end's
        # row has a zero in column n - 2, so it is never swapped.
        scale = 2.0 ** max(0, math.frexp(rows[1, 0])[1])
        rows[0, 1] = scale
        ends[0] = (0, scale * bc.left)
    # scipy's dgttrf takes at least three rows, so a one-element rod gets an
    # identity row below its two, decoupled from them: their solution keeps
    # its bits, and the padding row solves to 0.
    pad = max(0, 3 - n)
    sub = np.concatenate((rows[1:, 0], np.zeros(pad)))
    main = np.concatenate((rows[:, 1], np.ones(pad)))
    sup = np.concatenate((rows[:-1, 2], np.zeros(pad)))
    *lu, info = lapack.dgttrf(sub, main, sup, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info > 0:
        raise SingularStepError(singular)

    def solve(rhs: np.ndarray) -> np.ndarray:
        for row, value in ends:
            rhs[row] = value
        if pad:
            rhs[:] = lapack.dgttrs(*lu, np.append(rhs, np.zeros(pad)), overwrite_b=1)[0][:n]
            return rhs
        return lapack.dgttrs(*lu, rhs, overwrite_b=1)[0]

    return solve


class ThetaStepper:
    """Theta-scheme steps of ``M d(phi)/dt + A phi = b`` at a fixed ``dt``,
    ``theta`` and end conditions; ``M`` and ``A`` are ``(n, 3)`` by row.

    Each step solves ``(M + theta*dt*A) phi_new = (M - (1-theta)*dt*A) phi
    + dt*b`` with the end conditions applied.  The step matrix is formed and
    LU-factored (``dgttrf``) once here.  :meth:`march` writes a step's
    right-hand side into the next row of its table, three products (main,
    sub- and superdiagonal of the right-hand matrix) and three adds (the
    two off-diagonal products and the load), and solves that row in place
    with one ``dgttrs``; it checks finiteness once per run.  A steady state
    of the constrained system is an exact fixed point for any ``theta`` and
    ``dt``.  Matrices, a load or temperatures that overflow the float range
    raise ``ValueError`` (for temperatures, naming the time of the first
    step that overflowed); a singular step matrix, :class:`SingularStepError`.
    """

    def __init__(
        self,
        M: np.ndarray,
        A: np.ndarray,
        b: np.ndarray,
        dt: float,
        theta: float,
        bc: EndConditions,
    ) -> None:
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {theta}")

        with np.errstate(over="ignore", invalid="ignore"):  # huge k or dt; checked below
            S = M + theta * dt * A
            R = M - (1.0 - theta) * dt * A
            self._load = dt * b
        if not all(np.isfinite(x).all() for x in (S, R, self._load)):
            raise ValueError(f"step matrices or load overflow the float range at dt={fmt(dt)}")
        # R's three diagonals, each contiguous: the sub-, main and superdiagonal.
        self._R = tuple(np.ascontiguousarray(d) for d in (R[1:, 0], R[:, 1], R[:-1, 2]))
        self._dt = dt
        self._solve = _band_solver(S, bc, "singular step matrix: Singular matrix")

    def march(self, initial, steps: int) -> np.ndarray:
        """``steps`` steps of ``dt`` from the ``n`` nodal values ``initial``
        (any 1-D array-like) at time 0, as one ``(steps + 1, n + 1)`` table:
        row k holds the time ``t_k`` and the nodal values after k steps, row
        0 ``initial`` itself.  The times are the running sum of ``dt``."""
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        sub, main, sup = self._R
        initial = np.asarray(initial, dtype=float)
        if initial.shape != main.shape:
            raise ValueError(f"need {len(main)} initial nodal values, got shape {initial.shape}")
        table = np.empty((steps + 1, len(main) + 1))
        table[0, 1:] = initial
        times = table[:, 0]
        times[0], times[1:] = 0.0, self._dt
        np.cumsum(times, out=times)  # sequential: t_k = t_{k-1} + dt, bit for bit
        # Per step k: phi_k, its nodes but the last and but the first, and
        # the right-hand side written into row k + 1, whole and likewise cut.
        old, new = table[:-1], table[1:]
        rows = zip(old[:, 1:], old[:, 1:-1], old[:, 2:], new[:, 1:], new[:, 1:-1], new[:, 2:])
        scratch, load = np.empty(len(sub)), self._load
        with np.errstate(over="ignore", invalid="ignore"):  # checked once, after the loop
            for phi, phi_lo, phi_hi, rhs, rhs_lo, rhs_hi in rows:
                np.multiply(main, phi, out=rhs)
                np.add(rhs_hi, np.multiply(sub, phi_lo, out=scratch), out=rhs_hi)
                np.add(rhs_lo, np.multiply(sup, phi_hi, out=scratch), out=rhs_lo)
                np.add(rhs, load, out=rhs)
                self._solve(rhs)  # in place: the row becomes phi_{k+1}
        finite = np.isfinite(table[1:, 1:]).all(axis=1)
        if not finite.all():
            time = table[1 + np.argmin(finite), 0]
            raise ValueError(f"temperatures overflow the float range at t={fmt(time)}")
        return table


def steady_state(A: np.ndarray, b: np.ndarray, bc: EndConditions) -> np.ndarray:
    """Solve ``A phi = b`` (``A`` ``(n, 3)`` by row) as the time stepper does."""
    solve = _band_solver(A, bc, "singular steady system: Singular matrix")
    return solve(np.array(b, dtype=float))


def courant_number(rod: Rod1D, dt: float) -> float:
    """Cell Courant number ``|u1| dt / l``; keep well below 1 for
    meaningful unstabilized convection steps."""
    return abs(rod.u1) * dt / rod.elem_length


def write_timeseries(stream: io.TextIOBase, table: np.ndarray) -> None:
    """CSV dump ``time, node_0, ..., node_n`` of a :meth:`ThetaStepper.march`
    table, one line per row."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 2:
        raise ValueError(
            "need a table of a time and node values per row, with at least one row, "
            f"got shape {table.shape}"
        )
    header = ",".join(["time"] + [f"node_{i}" for i in range(table.shape[1] - 1)]) + "\n"
    write_csv(stream, header, table)
