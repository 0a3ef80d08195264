"""Steady Galerkin finite elements on linear triangles.

Solves steady heat balance on the plate: isotropic conduction with
conductivity ``k`` in the interior, plus per-wall boundary conditions of
four kinds: fixed temperature, prescribed inward heat flux, convective
exchange ``h * (T - t_inf)`` with the ambient medium, or adiabatic.  The
discrete system is the symmetric ``K @ T = f`` assembled from element
stiffness matrices, boundary convection matrices, and source / flux /
ambient load vectors.

Two paths solve it.  :class:`AffinePlate` is the production core: the
system is affine in ``h``, ``q`` and ``t_inf``, so it assembles the
parameter-free pieces once per mesh with vectorized scatter-adds, keeps
the matrix of the free (non-Dirichlet) nodes in LAPACK band form, and
factors it once per distinct ``h``.  The dense :func:`assemble`,
:func:`apply_dirichlet` and :func:`solve` build and solve the full
``n x n`` system per parameter set; they are the reference the core is
tested against.

Sign conventions (unit plate thickness throughout):
  * ``q > 0`` means heat flowing INTO the plate across a flux wall and
    contributes positively to the load vector.
  * ``G > 0`` is volumetric heat generation and also adds to the load.

Element matrices are closed-form (linear shape functions integrate
exactly), so no numerical quadrature is involved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .mesh import BoundaryEdge, Mesh2D, Triangle, Wall, edge_length, nodes_on_wall

_MIN_AREA = 1e-14


class DegenerateElementError(ValueError):
    """Triangle or edge with (numerically) vanishing measure."""


class SingularSystemError(RuntimeError):
    """Linear system is singular or indefinite; message carries diagnostics."""


@dataclass(frozen=True)
class PlateParameters:
    """Material and boundary data for the plate problem.

    ``k`` conductivity [W/(cm K)], ``G`` volumetric source [W/cm^3],
    ``h`` convection coefficient [W/(cm^2 K)], ``q`` inward boundary
    heat flux [W/cm^2], ``t_inf`` ambient temperature [K], ``t_fixed``
    fixed-wall temperature [K].  All per unit plate thickness.
    """

    k: float = 1.5
    G: float = 0.0
    h: float = 1.2
    q: float = 2.0
    t_inf: float = 25.0
    t_fixed: float = 100.0

    def __post_init__(self) -> None:
        if self.k <= 0.0:
            raise ValueError(f"conductivity must be positive, got k={self.k}")
        if self.h < 0.0:
            raise ValueError(f"convection coefficient must be >= 0, got h={self.h}")


class BCKind(Enum):
    DIRICHLET = "dirichlet"
    FLUX = "flux"
    CONVECTION = "convection"
    ADIABATIC = "adiabatic"


@dataclass(frozen=True)
class BoundaryConditionSet:
    """One condition kind per wall; the numeric values come from
    :class:`PlateParameters` (``t_fixed``, ``q``, ``h`` / ``t_inf``).

    The default layout is the demonstration plate: flux in on the left,
    fixed temperature on the right, convective exchange on top, and an
    adiabatic bottom.
    """

    left: BCKind = BCKind.FLUX
    right: BCKind = BCKind.DIRICHLET
    top: BCKind = BCKind.CONVECTION
    bottom: BCKind = BCKind.ADIABATIC

    def kind(self, wall: Wall) -> BCKind:
        return getattr(self, wall.value)

    def dirichlet_walls(self) -> list[Wall]:
        return [w for w in Wall if self.kind(w) is BCKind.DIRICHLET]


@dataclass(frozen=True)
class LinearSystem:
    """Assembled ``K @ T = f`` with symmetric ``K``; immutable once built."""

    K: np.ndarray
    f: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", np.array(self.K, dtype=float))
        object.__setattr__(self, "f", np.array(self.f, dtype=float))
        K, f = self.K, self.f
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError(f"K must be square, got shape {K.shape}")
        if f.shape != (K.shape[0],):
            raise ValueError(f"f shape {f.shape} does not match K {K.shape}")
        scale = np.abs(K).max()
        if scale > 0.0 and np.abs(K - K.T).max() > 1e-10 * scale:
            raise ValueError("K is not symmetric")
        K.setflags(write=False)
        f.setflags(write=False)

    @property
    def n(self) -> int:
        return self.f.shape[0]


@dataclass(frozen=True)
class TemperatureField:
    """Nodal temperatures [K], indexed like the mesh nodes."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.array(self.values, dtype=float))
        self.values.setflags(write=False)


def element_stiffness(tri: Triangle, coords: np.ndarray, k: float) -> np.ndarray:
    """Conduction stiffness ``k * A * B^T B`` of a linear triangle.

    ``B`` holds the constant shape-function gradients.  Rows sum to zero:
    a constant temperature field drives no flux.
    """
    (x0, y0), (x1, y1), (x2, y2) = coords[list(tri.nodes)]
    area2 = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)  # twice the signed area
    if area2 <= 2.0 * _MIN_AREA:
        raise DegenerateElementError(
            f"triangle {tri.nodes} degenerate or inverted (2A={area2})"
        )
    b = np.array([y1 - y2, y2 - y0, y0 - y1])
    c = np.array([x2 - x1, x0 - x2, x1 - x0])
    grads = np.vstack([b, c]) / area2  # 2x3 matrix of shape-function gradients
    return k * (0.5 * area2) * (grads.T @ grads)


def edge_convection_matrix(edge: BoundaryEdge, coords: np.ndarray, h: float) -> np.ndarray:
    """Robin boundary matrix ``(h L / 6) [[2, 1], [1, 2]]`` of an edge."""
    L = edge_length(coords, edge)
    if L <= 0.0:
        raise DegenerateElementError(f"edge ({edge.a}, {edge.b}) has zero length")
    return (h * L / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])


def edge_flux_vector(edge: BoundaryEdge, coords: np.ndarray, q: float) -> np.ndarray:
    """Load from a prescribed inward flux: ``q L / 2`` per edge node."""
    L = edge_length(coords, edge)
    if L <= 0.0:
        raise DegenerateElementError(f"edge ({edge.a}, {edge.b}) has zero length")
    return np.full(2, 0.5 * q * L)


def edge_ambient_vector(
    edge: BoundaryEdge, coords: np.ndarray, h: float, t_inf: float
) -> np.ndarray:
    """Ambient part of the Robin condition: ``h t_inf L / 2`` per edge node."""
    L = edge_length(coords, edge)
    if L <= 0.0:
        raise DegenerateElementError(f"edge ({edge.a}, {edge.b}) has zero length")
    return np.full(2, 0.5 * h * t_inf * L)


def element_source_vector(tri: Triangle, coords: np.ndarray, G_src: float) -> np.ndarray:
    """Load from a uniform volumetric source: ``G A / 3`` per vertex."""
    (x0, y0), (x1, y1), (x2, y2) = coords[list(tri.nodes)]
    area2 = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if area2 <= 2.0 * _MIN_AREA:
        raise DegenerateElementError(
            f"triangle {tri.nodes} degenerate or inverted (2A={area2})"
        )
    return np.full(3, G_src * (0.5 * area2) / 3.0)


def assemble(m: Mesh2D, p: PlateParameters, bc: BoundaryConditionSet) -> LinearSystem:
    """Scatter-add all element and boundary contributions into ``K, f``.

    Dirichlet walls contribute nothing here; constrain them afterwards
    with :func:`apply_dirichlet`.  Adiabatic walls are the natural
    boundary condition and also contribute nothing.
    """
    n = m.n_nodes
    K = np.zeros((n, n))
    f = np.zeros(n)
    coords = m.coord_array()

    for tri in m.elements:
        idx = list(tri.nodes)
        K[np.ix_(idx, idx)] += element_stiffness(tri, coords, p.k)
        if p.G != 0.0:
            f[idx] += element_source_vector(tri, coords, p.G)

    for edge in m.boundary:
        kind = bc.kind(edge.wall)
        idx = [edge.a, edge.b]
        if kind is BCKind.CONVECTION:
            K[np.ix_(idx, idx)] += edge_convection_matrix(edge, coords, p.h)
            f[idx] += edge_ambient_vector(edge, coords, p.h, p.t_inf)
        elif kind is BCKind.FLUX:
            f[idx] += edge_flux_vector(edge, coords, p.q)
        # DIRICHLET handled later, ADIABATIC contributes nothing.

    return LinearSystem(K, f)


def apply_dirichlet(sys: LinearSystem, nodes, value) -> LinearSystem:
    """Constrain nodes to fixed temperatures by symmetric elimination.

    ``value`` may be a scalar (applied to every listed node) or a
    sequence matching ``nodes``.  Each constrained row and column is
    eliminated (moving ``-K[j, i] * value`` into ``f[j]``), then the
    diagonal is set to 1 and the right-hand side to the value, which
    keeps the system symmetric positive definite.  Returns a new system.
    """
    nodes = list(nodes)
    values = np.broadcast_to(np.asarray(value, dtype=float), (len(nodes),))

    fixed: dict[int, float] = {}
    for i, v in zip(nodes, values):
        if not 0 <= i < sys.n:
            raise IndexError(f"node index {i} out of range for system of size {sys.n}")
        if i in fixed and fixed[i] != v:
            raise ValueError(
                f"conflicting constraints on node {i}: {fixed[i]} and {v}"
            )
        fixed[i] = float(v)
    if not fixed:
        return LinearSystem(sys.K.copy(), sys.f.copy())

    idx = list(fixed)
    vals = np.array([fixed[i] for i in idx])

    K = sys.K.copy()
    f = sys.f.copy()
    f -= K[:, idx] @ vals
    K[idx, :] = 0.0
    K[:, idx] = 0.0
    K[idx, idx] = 1.0
    f[idx] = vals
    return LinearSystem(K, f)


def solve(sys: LinearSystem) -> TemperatureField:
    """Direct Cholesky solve of the constrained system.

    One step of iterative refinement keeps the relative residual below
    1e-10.  Singular or indefinite systems raise
    :class:`SingularSystemError` with eigenvalue diagnostics.
    """
    try:
        factor = scipy.linalg.cho_factor(sys.K)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystemError(_diagnose(sys.K, str(exc))) from exc

    d = np.abs(np.diag(factor[0]))
    if (d.min() / d.max()) ** 2 < 1e-13:
        raise SingularSystemError(_diagnose(sys.K, "near-singular Cholesky pivot"))

    T = scipy.linalg.cho_solve(factor, sys.f)
    T += scipy.linalg.cho_solve(factor, sys.f - sys.K @ T)

    f_norm = np.linalg.norm(sys.f)
    residual = np.linalg.norm(sys.K @ T - sys.f)
    if f_norm > 0.0 and residual > 1e-10 * f_norm:
        raise SingularSystemError(
            _diagnose(sys.K, f"relative residual {residual / f_norm:.3e} exceeds 1e-10")
        )
    return TemperatureField(T)


def _diagnose(K: np.ndarray, reason: str) -> str:
    eigs = np.linalg.eigvalsh(K)
    lo, hi = eigs[0], eigs[-1]
    cond = np.inf if lo <= 0.0 else hi / lo
    return (
        f"{reason}; eigenvalue range [{lo:.3e}, {hi:.3e}], "
        f"condition estimate {cond:.3e}"
    )


def dirichlet_nodes(m: Mesh2D, bc: BoundaryConditionSet) -> list[int]:
    """Nodes constrained by the fixed-temperature walls, deduplicated."""
    seen: dict[int, None] = {}
    for wall in bc.dirichlet_walls():
        for node in nodes_on_wall(m, wall):
            seen[node] = None
    return list(seen)


@dataclass(frozen=True)
class PlateFactor:
    """Banded Cholesky factor of the free-node matrix at one ``h``.

    ``cb`` is the upper band form returned by
    :func:`scipy.linalg.cholesky_banded`; ``pivot_ratio`` is the squared
    ratio of its smallest to largest diagonal entry.
    """

    h: float
    cb: np.ndarray
    pivot_ratio: float


class AffinePlate:
    """The plate problem for one mesh, wall layout, ``k``, ``G`` and
    ``t_fixed``, assembled once and affine in ``h``, ``q`` and ``t_inf``.

    On the free (non-Dirichlet) nodes the constrained system reads::

        (K_k + h K_c) T = t_fixed (l_k + h l_c) + q f_q + h t_inf f_a + G f_G

    where ``t_fixed (l_k + h l_c)`` is the lift of the fixed walls
    (``-K[free, fixed] @ t_fixed``).  The matrices are stored in LAPACK
    upper band form with the half-bandwidth of the free-node
    connectivity.  :meth:`factor` runs one banded Cholesky per ``h`` and
    :meth:`solve` reuses it for every ``(q, t_inf)``.  The result equals
    ``solve(apply_dirichlet(assemble(...), ...))`` up to rounding and
    makes the same checks.
    """

    def __init__(self, m: Mesh2D, p: PlateParameters, bc: BoundaryConditionSet):
        n = m.n_nodes
        coords = m.coord_array()
        tris = np.array([t.nodes for t in m.elements], dtype=np.intp).reshape(-1, 3)
        x, y = coords[tris, 0], coords[tris, 1]
        area2 = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (
            y[:, 1] - y[:, 0]
        )  # twice the signed area
        bad = np.flatnonzero(area2 <= 2.0 * _MIN_AREA)
        if bad.size:
            raise DegenerateElementError(
                f"triangle {tuple(tris[bad[0]].tolist())} degenerate or inverted "
                f"(2A={area2[bad[0]]})"
            )
        # Shape-function gradients, as in element_stiffness.
        gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], 1)
        gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], 1)
        gx /= area2[:, None]
        gy /= area2[:, None]
        ke = (p.k * (0.5 * area2))[:, None, None] * (
            gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]
        )

        # Flux and convection edges; Dirichlet and adiabatic ones add nothing.
        loaded = [
            (e.a, e.b, bc.kind(e.wall) is BCKind.CONVECTION)
            for e in m.boundary
            if bc.kind(e.wall) in (BCKind.CONVECTION, BCKind.FLUX)
        ]
        edges = np.array([e[:2] for e in loaded], dtype=np.intp).reshape(-1, 2)
        conv = np.array([e[2] for e in loaded], dtype=bool)
        d = coords[edges[:, 1]] - coords[edges[:, 0]]
        length = np.hypot(d[:, 0], d[:, 1])
        bad = np.flatnonzero(length <= 0.0)
        if bad.size:
            a, b = edges[bad[0]].tolist()
            raise DegenerateElementError(f"edge ({a}, {b}) has zero length")
        conv_edges = edges[conv]
        kc = (length[conv] / 6.0)[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])

        def scatter(index: np.ndarray, weights: np.ndarray) -> np.ndarray:
            return np.bincount(index.ravel(), weights.ravel(), minlength=n)

        half_length = np.repeat(0.5 * length, 2).reshape(-1, 2)
        self._f_q = scatter(edges[~conv], half_length[~conv])
        self._f_a = scatter(conv_edges, half_length[conv])
        self._f_G = scatter(tris, np.repeat((0.5 * area2) / 3.0, 3))

        fixed = np.zeros(n, dtype=bool)
        fixed[dirichlet_nodes(m, bc)] = True
        self._free = np.flatnonzero(~fixed)
        n_free = self._free.size
        rank = np.full(n, -1, dtype=np.intp)
        rank[self._free] = np.arange(n_free)

        def pairs(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Row and column free-node ranks of every local matrix entry."""
            shape = (len(cells), cells.shape[1], cells.shape[1])
            rows = np.broadcast_to(cells[:, :, None], shape)
            cols = np.broadcast_to(cells[:, None, :], shape)
            return rank[rows].ravel(), rank[cols].ravel()

        tri_r, tri_c = pairs(tris)
        edge_r, edge_c = pairs(conv_edges)
        u = max(
            int((col - row)[(row >= 0) & (col >= 0)].max(initial=0))
            for row, col in ((tri_r, tri_c), (edge_r, edge_c))
        )

        def band(row: np.ndarray, col: np.ndarray, vals: np.ndarray) -> np.ndarray:
            """Free-free entries on or above the diagonal, in upper band form."""
            upper = (row >= 0) & (row <= col)
            flat = (u + row[upper] - col[upper]) * n_free + col[upper]
            return np.bincount(
                flat, vals.ravel()[upper], minlength=(u + 1) * n_free
            ).reshape(u + 1, n_free)

        def lift(row: np.ndarray, col: np.ndarray, vals: np.ndarray) -> np.ndarray:
            """``-K[free, fixed] @ 1``: the lift per unit fixed temperature."""
            into_free = (row >= 0) & (col < 0)
            return -np.bincount(row[into_free], vals.ravel()[into_free], minlength=n_free)

        self._ab_k = band(tri_r, tri_c, ke)
        self._ab_c = band(edge_r, edge_c, kc)
        self._l_k = lift(tri_r, tri_c, ke)
        self._l_c = lift(edge_r, edge_c, kc)
        self._tris, self._ke = tris, ke
        self._conv_edges, self._kc = conv_edges, kc
        self._n = n
        self._n_fixed = n - n_free
        self._G = p.G
        self._t_fixed = p.t_fixed

    def factor(self, h: float) -> PlateFactor:
        """Banded Cholesky of ``K_k + h K_c`` on the free nodes.

        Raises :class:`SingularSystemError` when the matrix is not
        positive definite or its squared pivot ratio is below 1e-13.
        """
        if not np.isfinite(h) or h < 0.0:
            raise ValueError(f"convection coefficient must be finite and >= 0, got h={h}")
        if self._free.size == 0:
            return PlateFactor(h, self._ab_k, 1.0)
        try:
            cb = scipy.linalg.cholesky_banded(self._ab_k + h * self._ab_c)
        except scipy.linalg.LinAlgError as exc:
            minor = re.match(r"(\d+)-th leading minor", str(exc))
            where = f" at leading minor {minor.group(1)} of {self._free.size}" if minor else ""
            raise SingularSystemError(
                _pivot_diagnosis(f"matrix not positive definite{where}", 0.0)
            ) from exc
        d = np.abs(cb[-1])
        ratio = float((d.min() / d.max()) ** 2)
        if ratio < 1e-13:
            raise SingularSystemError(_pivot_diagnosis("near-singular Cholesky pivot", ratio))
        return PlateFactor(h, cb, ratio)

    def _matvec(self, h: float, T: np.ndarray) -> np.ndarray:
        """``(K_k + h K_c) @ T`` over all nodes, by element scatter-add."""
        tris, edges = self._tris, self._conv_edges
        y = np.bincount(
            tris.ravel(), np.einsum("eij,ej->ei", self._ke, T[tris]).ravel(), minlength=self._n
        )
        if edges.size:
            y += h * np.bincount(
                edges.ravel(),
                np.einsum("eij,ej->ei", self._kc, T[edges]).ravel(),
                minlength=self._n,
            )
        return y

    def solve(self, factor: PlateFactor, q: float, t_inf: float) -> TemperatureField:
        """Temperatures for ``factor.h`` and the given ``q`` and ``t_inf``.

        Two banded triangular solves: the solve itself and one step of
        iterative refinement.  A relative residual above 1e-10 raises
        :class:`SingularSystemError`.
        """
        if not (np.isfinite(q) and np.isfinite(t_inf)):
            raise ValueError(f"parameters must be finite, got q={q}, t_inf={t_inf}")
        h, free = factor.h, self._free
        T = np.full(self._n, self._t_fixed)
        if free.size == 0:
            return TemperatureField(T)

        loads = q * self._f_q + (h * t_inf) * self._f_a + self._G * self._f_G
        rhs = self._t_fixed * (self._l_k + h * self._l_c) + loads[free]
        chol = (factor.cb, False)
        T[free] = scipy.linalg.cho_solve_banded(chol, rhs)
        T[free] += scipy.linalg.cho_solve_banded(chol, (loads - self._matvec(h, T))[free])

        # Norm of the full constrained right-hand side, fixed rows included.
        f_norm = np.hypot(np.linalg.norm(rhs), self._t_fixed * np.sqrt(self._n_fixed))
        residual = np.linalg.norm((self._matvec(h, T) - loads)[free])
        if f_norm > 0.0 and residual > 1e-10 * f_norm:
            raise SingularSystemError(
                _pivot_diagnosis(
                    f"relative residual {residual / f_norm:.3e} exceeds 1e-10",
                    factor.pivot_ratio,
                )
            )
        return TemperatureField(T)


def _pivot_diagnosis(reason: str, ratio: float) -> str:
    """O(n) conditioning note: the reciprocal of the squared Cholesky
    pivot ratio, a lower bound on the 2-norm condition number."""
    cond = np.inf if ratio <= 0.0 else 1.0 / ratio
    return f"{reason}; condition estimate {cond:.3e} from the Cholesky pivots"


def solve_crisp(
    m: Mesh2D, p: PlateParameters, bc: BoundaryConditionSet
) -> TemperatureField:
    """Assemble the affine plate, factor it at ``p.h`` and solve.

    This is the single crisp pipeline: the fuzzy sweep runs the same
    :class:`AffinePlate` factor and solve at every corner, so the modal
    corner and a plain crisp solve are bit-for-bit identical.
    """
    plate = AffinePlate(m, p, bc)
    return plate.solve(plate.factor(p.h), p.q, p.t_inf)
