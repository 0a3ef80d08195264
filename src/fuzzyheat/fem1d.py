"""Transient convection-diffusion on a 1D rod with linear elements.

Discretizes ``d(phi)/dt + u1 d(phi)/dx - d/dx(k d(phi)/dx) + Q = 0`` on a
uniform rod (constant convection velocity ``u1``) with a consistent mass
matrix and plain Galerkin weighting, then advances in time with a theta
scheme: theta = 1 is backward Euler (the robust default), theta = 0.5 is
Crank-Nicolson, theta = 0 explicit.  For theta < 1/2 the scheme is
stable only for ``dt <= l**2 / (6 (1 - 2 theta) k)`` on elements of
length ``l``; above that limit the field grows without bound until a step
overflows and raises ``ValueError``.  Pure convection is the rod with
``k = 0`` and ``Q_src = 0``.

``M`` and ``A`` are tridiagonal, stored ``(n, 3)`` by row:
``X[i] = (X[i, i-1], X[i, i], X[i, i+1])``, with the zeros ``X[0, 0]``
and ``X[n-1, 2]`` outside the matrix.  :class:`ThetaStepper` (the one way
to step a rod, built once per run) and :func:`steady_state` share one
factorization: a band LU (LAPACK ``dgbtrf``, through
:mod:`fuzzyheat._lapack`), so memory and work grow as O(n).  The fixed
ends' rows are replaced by identity rows, the left one scaled so that it
stays the pivot of its column, and a fixed end prints exactly its value.

The convection term carries no stabilization (no upwinding or SUPG), so
convection-dominated runs are only trustworthy at small cell Peclet and
Courant numbers; see :func:`courant_number`.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, Optional

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
        if self.length <= 0.0:
            raise ValueError(f"rod length must be positive, got {self.length}")
        if self.n_elems < 1:
            raise ValueError(f"need at least one element, got {self.n_elems}")
        if self.k < 0.0:
            raise ValueError(f"conductivity must be >= 0, got {self.k}")

    @property
    def n_nodes(self) -> int:
        return self.n_elems + 1

    @property
    def elem_length(self) -> float:
        return self.length / self.n_elems

    def node_positions(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_nodes)


@dataclass(frozen=True)
class TransientState:
    """Immutable snapshot of the nodal field at one time instant."""

    time: float
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.array(self.values, dtype=float))
        self.values.setflags(write=False)


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
    """Band LU of the tridiagonal ``S`` with each fixed end's row replaced
    by an identity row (the left one scaled, see below), or
    :class:`SingularStepError` (``singular``) at a zero pivot.  Returns
    ``solve(rhs)``, which writes the fixed values into ``rhs`` and
    overwrites it with the solution."""
    rows = np.array(S, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"need a tridiagonal matrix as an (n, 3) array, got shape {rows.shape}")
    ends = [(row, value) for row, value in ((0, bc.left), (-1, bc.right)) if value is not None]
    rows[[row for row, _ in ends]] = (0.0, 1.0, 0.0)
    if bc.left is not None:
        # dgbtrf pivots on the largest entry of a column.  Row 0 and its
        # value, scaled by a power of two (exactly) at least |S[1, 0]|, stay
        # the pivot of column 0, so the solve returns the value exactly; with
        # row 1 as the pivot, node 0 came back with rounding noise (-2.42e-16
        # for 0).  The right end's row has a zero in column n - 2, so it
        # never competes for a pivot.
        scale = 2.0 ** max(0, math.frexp(rows[1, 0])[1])
        rows[0, 1] = scale
        ends[0] = (0, scale * bc.left)
    ab = np.zeros((4, len(rows)))  # LAPACK band storage; row 0 takes the LU fill-in
    ab[1, 1:], ab[2], ab[3, :-1] = rows[:-1, 2], rows[:, 1], rows[1:, 0]
    # LAPACK directly: scipy.linalg has no banded LU whose factors can be reused.
    lu, piv, info = lapack.dgbtrf(ab, 1, 1, overwrite_ab=True)
    if info > 0:
        raise SingularStepError(singular)

    def solve(rhs: np.ndarray) -> np.ndarray:
        for row, value in ends:
            rhs[row] = value
        return lapack.dgbtrs(lu, 1, 1, rhs, piv, overwrite_b=True)[0]

    return solve


class ThetaStepper:
    """Theta-scheme steps of ``M d(phi)/dt + A phi = b`` at a fixed ``dt``,
    ``theta`` and end conditions; ``M`` and ``A`` are ``(n, 3)`` by row.

    Each step solves ``(M + theta*dt*A) phi_new = (M - (1-theta)*dt*A) phi
    + dt*b`` with the end conditions applied.  The step matrix is formed and
    band-LU-factored (``dgbtrf``) once here; a step is a three-term product
    per node and one ``dgbtrs``.  A steady state of the constrained system
    is an exact fixed point for any ``theta`` and ``dt``.  Matrices, a load
    or temperatures that overflow the float range raise ``ValueError``; a
    singular step matrix, :class:`SingularStepError`.
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
            self._R = M - (1.0 - theta) * dt * A
            self._load = dt * b
        if not all(np.isfinite(x).all() for x in (S, self._R, self._load)):
            raise ValueError(f"step matrices or load overflow the float range at dt={fmt(dt)}")
        self._dt = dt
        self._solve = _band_solver(S, bc, "singular step matrix: Singular matrix")

    def step(self, state: TransientState) -> TransientState:
        """Advance ``state`` by one step of ``dt``."""
        phi, R = state.values, self._R
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = R[:, 1] * phi
            rhs[1:] += R[1:, 0] * phi[:-1]
            rhs[:-1] += R[:-1, 2] * phi[1:]
            rhs += self._load
        phi = self._solve(rhs)
        time = state.time + self._dt
        if not np.isfinite(phi).all():
            raise ValueError(f"temperatures overflow the float range at t={fmt(time)}")
        return TransientState(time, phi)


def steady_state(A: np.ndarray, b: np.ndarray, bc: EndConditions) -> np.ndarray:
    """Solve ``A phi = b`` (``A`` ``(n, 3)`` by row) as the time stepper does."""
    solve = _band_solver(A, bc, "singular steady system: Singular matrix")
    return solve(np.array(b, dtype=float))


def courant_number(rod: Rod1D, dt: float) -> float:
    """Cell Courant number ``|u1| dt / l``; keep well below 1 for
    meaningful unstabilized convection steps."""
    return abs(rod.u1) * dt / rod.elem_length


def write_timeseries(stream: io.TextIOBase, states: Iterable[TransientState]) -> None:
    """CSV dump ``time, node_0, ..., node_n`` with one row per state, from
    one table of all of them."""
    states = list(states)
    if not states:
        raise ValueError("no states to write")
    n = states[0].values.shape[0]
    if any(s.values.shape != (n,) for s in states):
        raise ValueError("states differ in node count")
    header = ",".join(["time"] + [f"node_{i}" for i in range(n)]) + "\n"
    table = np.empty((len(states), n + 1))  # filled in place: no second copy of the states
    for row, state in zip(table, states):
        row[0] = state.time
        row[1:] = state.values
    write_csv(stream, header, table)
