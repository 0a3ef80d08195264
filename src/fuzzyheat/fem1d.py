"""Transient convection-diffusion on a 1D rod with linear elements.

Discretizes ``d(phi)/dt + u1 d(phi)/dx - d/dx(k d(phi)/dx) + Q = 0`` on a
uniform rod (constant convection velocity ``u1``) with a consistent mass
matrix and plain Galerkin weighting, then advances in time with a theta
scheme: theta = 1 is backward Euler (the robust default), theta = 0.5 is
Crank-Nicolson, theta = 0 explicit.

The convection term carries no stabilization (no upwinding or SUPG), so
convection-dominated runs are only trustworthy at small cell Peclet and
Courant numbers; see :func:`courant_number`.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .ioutil import fmt

log = logging.getLogger(__name__)


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
    """Global mass matrix M, transport matrix A, and load vector b.

    Per element of length ``l``: mass ``(l/6)[[2,1],[1,2]]``, diffusion
    ``(k/l)[[1,-1],[-1,1]]``, convection ``(u1/2)[[-1,1],[-1,1]]`` and
    load ``(-Q_src*l/2, -Q_src*l/2)``.
    """
    n = rod.n_nodes
    l = rod.elem_length
    M = np.zeros((n, n))
    A = np.zeros((n, n))
    b = np.zeros(n)

    m_e = (l / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    a_e = (rod.k / l) * np.array([[1.0, -1.0], [-1.0, 1.0]]) + (rod.u1 / 2.0) * np.array(
        [[-1.0, 1.0], [-1.0, 1.0]]
    )
    b_e = np.full(2, -rod.Q_src * l / 2.0)

    for e in range(rod.n_elems):
        idx = [e, e + 1]
        M[np.ix_(idx, idx)] += m_e
        A[np.ix_(idx, idx)] += a_e
        b[idx] += b_e
    return M, A, b


def apply_end_conditions(
    S: np.ndarray, rhs: np.ndarray, bc: EndConditions
) -> tuple[np.ndarray, np.ndarray]:
    """Row-replace the end equations with fixed values; returns copies."""
    S = S.copy()
    rhs = rhs.copy()
    for row, value in ((0, bc.left), (-1, bc.right)):
        if value is not None:
            S[row, :] = 0.0
            S[row, row] = 1.0
            rhs[row] = value
    return S, rhs


def theta_step(
    M: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    state: TransientState,
    dt: float,
    theta: float,
    bc: EndConditions,
) -> TransientState:
    """One theta-scheme step of ``M d(phi)/dt + A phi = b``.

    Solves ``(M + theta*dt*A) phi_new = (M - (1-theta)*dt*A) phi + dt*b``
    with the end conditions applied, and advances time by ``dt``.  A
    steady state of the constrained system is an exact fixed point for
    any ``theta`` and ``dt``.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")

    with np.errstate(over="ignore", invalid="ignore"):  # huge k or dt; caught below
        S = M + theta * dt * A
        rhs = (M - (1.0 - theta) * dt * A) @ state.values + dt * b
    S, rhs = apply_end_conditions(S, rhs, bc)
    try:
        phi = np.linalg.solve(S, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularStepError(f"singular step matrix: {exc}") from exc
    if not np.all(np.isfinite(phi)):
        raise SingularStepError("step produced non-finite values")
    return TransientState(state.time + dt, phi)


def steady_state(A: np.ndarray, b: np.ndarray, bc: EndConditions) -> np.ndarray:
    """Direct solve of ``A phi = b`` with the same end-condition handling
    the time stepper uses."""
    S, rhs = apply_end_conditions(A, b, bc)
    try:
        return np.linalg.solve(S, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularStepError(f"singular steady system: {exc}") from exc


def courant_number(rod: Rod1D, dt: float) -> float:
    """Cell Courant number ``|u1| dt / l``; keep well below 1 for
    meaningful unstabilized convection steps."""
    return abs(rod.u1) * dt / rod.elem_length


def pure_convection_step(
    rod: Rod1D, state: TransientState, dt: float, theta: float, bc: EndConditions
) -> TransientState:
    """Theta step for the source-free pure convection reduction.

    Requires ``k = 0`` and ``Q_src = 0``.  This is unstabilized Galerkin
    transport: it stays usable only at small Courant numbers (logged per
    step); oscillations at sharp fronts are expected, not trapped.
    """
    if rod.k != 0.0 or rod.Q_src != 0.0:
        raise ValueError("pure convection requires k = 0 and Q_src = 0")
    M, A, b = assemble_1d(rod)
    log.debug("pure convection step: courant=%g", courant_number(rod, dt))
    return theta_step(M, A, b, state, dt, theta, bc)


def write_timeseries(stream: io.TextIOBase, states: Iterable[TransientState]) -> None:
    """CSV dump ``time, node_0, ..., node_n`` with one row per state."""
    states = list(states)
    if not states:
        raise ValueError("no states to write")
    n = states[0].values.shape[0]
    header = ",".join(["time"] + [f"node_{i}" for i in range(n)])
    stream.write(header + "\n")
    for s in states:
        stream.write(",".join([fmt(s.time)] + [fmt(v) for v in s.values]) + "\n")
