"""Steady Galerkin finite elements on linear triangles.

Solves steady heat balance on the plate: isotropic conduction with
conductivity ``k`` in the interior, plus per-wall boundary conditions of
four kinds: fixed temperature, prescribed inward heat flux, convective
exchange ``h * (T - t_inf)`` with the ambient medium, or adiabatic.  The
discrete system is the symmetric ``K @ T = f`` assembled from element
stiffness matrices, boundary convection matrices, and source / flux /
ambient load vectors.

:class:`AffinePlate` is the one solver.  The system is affine in ``h``,
``q`` and ``t_inf``, so it assembles the parameter-free pieces once per
mesh with vectorized scatter-adds, reduces them to the free
(non-Dirichlet) nodes and keeps that matrix in LAPACK band form.  It
numbers the nodes of every convective wall last, so the band Cholesky
of the ``h``-independent leading block is formed once per plate and each
distinct ``h`` adds a small dense Cholesky on the wall nodes (static
condensation onto the walls), or nothing on a plate without a
convective wall.  :meth:`AffinePlate.sweep` is the one solve entry: it
yields the temperatures and the slopes in ``q`` and ``t_inf`` at each
``h`` of a list, by one block substitution per right-hand side, without
iterative refinement, and one residual product that checks it; the
forward band solve of a load's ``h``-free leading rows is made at the
sweep's first ``h`` and reused at the others.  :func:`solve_crisp` is a
one-``h`` sweep.  Temperatures and slopes are new float arrays,
indexed like the mesh nodes.  A plate whose band arrays would not fit in the
available memory raises ``MemoryError`` before allocating them.  The
LAPACK and BLAS routines come from :mod:`fuzzyheat._lapack`, scipy's
compiled wrappers loaded without importing ``scipy.linalg``.

Sign conventions (unit plate thickness throughout):
  * ``q > 0`` means heat flowing INTO the plate across a flux wall and
    contributes positively to the load vector.
  * ``G > 0`` is volumetric heat generation and also adds to the load.

Element matrices are closed-form (linear shape functions integrate
exactly), so no numerical quadrature is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._lapack import blas, lapack
from .memory import check_memory
from .mesh import WALLS, Mesh2D, Wall, triangle_area

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


def _doubled_areas(coords: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Twice the signed areas of (E, 3) node-index triangles; a degenerate
    or inverted triangle raises :class:`DegenerateElementError`."""
    area2 = 2.0 * triangle_area(coords, tris)
    bad = np.flatnonzero(area2 <= 2.0 * _MIN_AREA)
    if bad.size:
        raise DegenerateElementError(
            f"triangle {tuple(tris[bad[0]].tolist())} degenerate or inverted "
            f"(2A={area2[bad[0]]})"
        )
    return area2


def _edge_lengths(coords: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Lengths of (B, 2) node-index edges; a zero-length edge raises
    :class:`DegenerateElementError`."""
    d = coords[edges[:, 1]] - coords[edges[:, 0]]
    length = np.hypot(d[:, 0], d[:, 1])
    bad = np.flatnonzero(length <= 0.0)
    if bad.size:
        a, b = edges[bad[0]].tolist()
        raise DegenerateElementError(f"edge ({a}, {b}) has zero length")
    return length


def _boundary_edges(m: Mesh2D, bc: BoundaryConditionSet, kind: BCKind) -> np.ndarray:
    """The (B, 2) boundary edges whose wall has a condition kind, in mesh order."""
    codes = [code for code, wall in enumerate(WALLS) if bc.kind(wall) is kind]
    return m.boundary[np.isin(m.walls, codes)]


def dirichlet_nodes(m: Mesh2D, bc: BoundaryConditionSet) -> list[int]:
    """Nodes constrained by the fixed-temperature walls, sorted."""
    edges = _boundary_edges(m, bc, BCKind.DIRICHLET)
    # Not np.unique: on numpy 2 it imports numpy.ma (about 18 ms).
    return np.flatnonzero(np.bincount(edges.ravel(), minlength=m.n_nodes)).tolist()


_EMPTY = np.empty((0, 0))


class AffinePlate:
    """The plate problem for one mesh, wall layout, ``k``, ``G`` and
    ``t_fixed``, assembled once and affine in ``h``, ``q`` and ``t_inf``;
    ``n_nodes`` is the length of every temperature and slope array.

    On the free (non-Dirichlet) nodes the constrained system reads::

        (K_k + h K_c) T = t_fixed (l_k + h l_c) + q f_q + h t_inf f_a + G f_G

    where ``t_fixed (l_k + h l_c)`` is the lift of the fixed walls
    (``-K[free, fixed] @ t_fixed``).  ``K_c`` couples only the free nodes
    on the convective walls.  The free nodes are numbered row by row away
    from the first convective wall in ``mesh.WALLS`` order (column by
    column for the left and right walls; the mesh's own row-by-row order
    without one), with the ``m`` nodes of all convective walls last, so
    that ``K(h) = [[K_ll, K_lb], [K_bl, K_bb + h Kc_bb]]``.  The leading
    block does not depend on ``h``: its banded Cholesky ``U_ll``, the
    coupling ``U_lb = U_ll^-T K_lb`` and ``S0 = K_bb - U_lb^T U_lb`` are
    formed once per plate, at its first factor, and each ``h`` adds only
    the dense ``m x m`` Cholesky of ``S0 + h Kc_bb`` (nothing when
    ``m = 0``).  ``U_lb`` is dense from the first row of ``K_lb`` on: the
    last band width of rows with one wall, nearly all rows with two or
    more.  :meth:`sweep` runs that factor at each ``h`` of a list and
    solves it for the modal ``(q, t_inf)`` and for ``dT/dq`` and
    ``dT/dt_inf``.  The leading rows of every right-hand side do not
    depend on ``h`` either (``l_c`` and ``f_a`` vanish off the walls), so
    a sweep forward-solves them, ``U_ll^-T b_l``, once at its first ``h``
    for the modal loads and once for the unit ``q`` load, and at every
    ``h`` runs only the wall block and the back substitution.
    ``work_bytes`` is what one step of a sweep may allocate besides the
    arrays it yields.  The
    constructor raises ``MemoryError`` when its estimate of the band
    arrays and factors exceeds the memory the platform reports available.  The tests
    compare the result with a dense per-element assembly solved by
    ``np.linalg.solve`` (``tests/dense_plate.py``).
    """

    def __init__(self, m: Mesh2D, p: PlateParameters, bc: BoundaryConditionSet):
        n, coords, tris = m.n_nodes, m.coords, m.elements
        area2 = _doubled_areas(coords, tris)
        x, y = coords[tris, 0], coords[tris, 1]
        # Constant shape-function gradients (b_i, c_i) / 2A, with
        # b_i = y_j - y_k and c_i = x_k - x_j for (i, j, k) a cyclic vertex order.
        gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], 1)
        gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], 1)
        gx /= area2[:, None]
        gy /= area2[:, None]
        with np.errstate(over="ignore", invalid="ignore"):  # _factor rejects inf
            ke = (p.k * (0.5 * area2))[:, None, None] * (
                gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]
            )

        # Flux and convection edges; Dirichlet and adiabatic ones add nothing.
        flux_edges = _boundary_edges(m, bc, BCKind.FLUX)
        conv_edges = _boundary_edges(m, bc, BCKind.CONVECTION)
        flux_length = _edge_lengths(coords, flux_edges)
        conv_length = _edge_lengths(coords, conv_edges)
        kc = (conv_length / 6.0)[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])

        def scatter(index: np.ndarray, weights: np.ndarray) -> np.ndarray:
            return np.bincount(index.ravel(), np.repeat(weights, index.shape[1]), minlength=n)

        self._f_q = scatter(flux_edges, 0.5 * flux_length)
        self._f_a = scatter(conv_edges, 0.5 * conv_length)
        self._f_G = scatter(tris, (0.5 * area2) / 3.0)

        fixed = np.zeros(n, dtype=bool)  # not np.setdiff1d, which imports numpy.ma
        fixed[dirichlet_nodes(m, bc)] = True
        free = np.flatnonzero(~fixed)
        n_free = free.size
        on_wall = np.zeros(n, dtype=bool)
        on_wall[conv_edges] = True
        # Row by row (column by column for a side wall), farthest from the
        # first convective wall first, and the free nodes on every
        # convective wall last.  Without one, the top wall's orientation
        # keeps the mesh's own x-fastest numbering.
        wall = next((w for w in WALLS if bc.kind(w) is BCKind.CONVECTION), Wall.TOP)
        across = 0 if wall in (Wall.LEFT, Wall.RIGHT) else 1
        xy = (1.0 if wall in (Wall.TOP, Wall.RIGHT) else -1.0) * coords[free]
        free = free[np.lexsort((xy[:, 1 - across], xy[:, across], on_wall[free]))]
        m_wall = int(on_wall[free].sum())
        n_lead = n_free - m_wall
        rank = np.full(n, -1, dtype=np.intp)
        rank[free] = np.arange(n_free)

        def pairs(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Row and column free-node ranks of every local matrix entry."""
            shape = (len(cells), cells.shape[1], cells.shape[1])
            rows = np.broadcast_to(cells[:, :, None], shape)
            cols = np.broadcast_to(cells[:, None, :], shape)
            return rank[rows].ravel(), rank[cols].ravel()

        tri_r, tri_c = pairs(tris)
        edge_r, edge_c = pairs(conv_edges)
        # The band of the leading block alone (convective edges join wall
        # nodes only); a second wall can sit far from the first in the
        # numbering, and with it the band would span the whole plate.
        u = int((tri_c - tri_r)[(tri_r >= 0) & (tri_c < n_lead)].max(initial=0))
        # Rows of the leading block that K_lb reaches: at least the band's
        # last u, and from the first row that touches any wall node.
        first = int(tri_r[(tri_r >= 0) & (tri_c >= n_lead)].min(initial=n_lead))
        reach = max(n_lead - first, min(u, n_lead))

        # K_ll and its factor, K_lb (overwritten by U_lb), and five wall
        # blocks: K_bb, Kc_bb, S0, S0 + h Kc_bb and its factor.
        check_memory(8 * (2 * (u + 1) * n_lead + reach * m_wall + 5 * m_wall**2), "plate")

        def band(row: np.ndarray, col: np.ndarray, vals: np.ndarray) -> np.ndarray:
            """Entries on or above the diagonal in the leading block, in
            upper band form (column-major, as LAPACK reads it)."""
            upper = (row >= 0) & (row <= col) & (col < n_lead)
            flat = col[upper] * (u + 1) + u + row[upper] - col[upper]
            return np.bincount(
                flat, vals.ravel()[upper], minlength=(u + 1) * n_lead
            ).reshape(n_lead, u + 1).T

        def to_wall(row: np.ndarray, col: np.ndarray, vals: np.ndarray, top: int,
                    bottom: int) -> np.ndarray:
            """Free-node rows ``top`` to ``bottom`` (exclusive) of the wall
            columns, dense and column-major, so that LAPACK can overwrite
            it in place."""
            inside = (row >= top) & (row < bottom) & (col >= n_lead)
            return np.bincount(
                (col[inside] - n_lead) * (bottom - top) + row[inside] - top,
                vals.ravel()[inside],
                minlength=(bottom - top) * m_wall,
            ).reshape(m_wall, bottom - top).T

        def lift(row: np.ndarray, col: np.ndarray, vals: np.ndarray) -> np.ndarray:
            """``-K[free, fixed] @ 1``: the lift per unit fixed temperature."""
            into_free = (row >= 0) & (col < 0)
            return -np.bincount(row[into_free], vals.ravel()[into_free], minlength=n_free)

        self._ab_k = band(tri_r, tri_c, ke)
        self._k_lb = to_wall(tri_r, tri_c, ke, n_lead - reach, n_lead)
        self._k_bb = to_wall(tri_r, tri_c, ke, n_lead, n_free)
        self._kc_bb = to_wall(edge_r, edge_c, kc, n_lead, n_free)
        self._lead: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._l_k = lift(tri_r, tri_c, ke)
        self._l_c = lift(edge_r, edge_c, kc)
        self._free = free
        self._tris, self._ke = tris, ke
        self._conv_edges, self._kc = conv_edges, kc
        self.n_nodes = n
        self._n_fixed = n - n_free
        self._G = p.G
        self._t_fixed = p.t_fixed

    @property
    def depends_on_h(self) -> bool:
        """Whether a free node lies on a convective wall.  Without one,
        the temperatures and slopes are the same at every ``h``."""
        return self._kc_bb.shape[0] > 0

    @property
    def work_bytes(self) -> int:
        """Bytes that the next step of a :meth:`sweep` may allocate besides
        the arrays it yields: the band Cholesky and its finiteness mask at
        the plate's first factor, three wall blocks, the forward band
        solves the sweep holds (at most two: the modal and the unit ``q``
        load), two floats per triangle corner and eight per node for the
        residual product and the substitution."""
        m = self._kc_bb.shape[0]
        n_lead = self._free.size - m
        band = self._ab_k.size if self._lead is None else 0
        return 9 * band + 8 * (3 * m * m + 2 * n_lead + 2 * self._tris.size + 8 * self.n_nodes)

    def _leading(self, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``U_ll`` (band form), the rows of ``U_lb`` from its first
        non-zero one, and ``S0``; formed at the plate's first factor,
        so that a failure is reported at its ``h`` like any other."""
        if self._lead is None:
            ab, coupling, s0 = self._ab_k, self._k_lb, self._k_bb
            if not np.isfinite(ab).all():
                raise ValueError(f"plate matrix overflows the float range at h={h}")
            # LAPACK's band routines are skipped on an empty leading block
            # or right-hand side: ?tbtrs corrupts the heap on either.
            lead = _cholesky(lapack.dpbtrf, ab, 0, self._free.size) if ab.size else ab
            if coupling.size:
                # U_ll^T is lower triangular and K_lb is zero above its last
                # `reach` rows, so U_lb is too, and those rows need only the
                # trailing reach x reach triangle of U_ll.
                coupling = lapack.dtbtrs(
                    lead[:, lead.shape[1] - coupling.shape[0]:], coupling, trans="T", overwrite_b=1
                )[0]
                # The upper triangle of S0, which is all that ?potrf reads.
                # Dense products use scipy's BLAS, here and in _substitute:
                # numpy links its own OpenBLAS, and two thread pools
                # spinning in turn slow each other down.
                s0 = blas.dsyrk(-1.0, coupling, beta=1.0, c=s0, trans=1)
            self._lead = lead, coupling, s0
            self._ab_k = self._k_lb = self._k_bb = None
        return self._lead

    def _factor(self, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Cholesky factor ``U^T U`` of ``K_k + h K_c`` on the free nodes,
        as ``(U_ll, U_lb, U_bb, pivot ratio)`` with
        ``U = [[U_ll, U_lb], [0, U_bb]]``: ``U_ll`` in LAPACK upper band
        form, the same at every ``h``; the rows of ``U_lb`` from its first
        non-zero one (all of them with two or more convective walls); and
        the dense upper triangle ``U_bb``, the only part formed per ``h``.
        The pivot ratio is the squared ratio of the smallest to the
        largest diagonal entry of ``U``.

        Raises :class:`SingularSystemError` when the matrix is not
        positive definite or its squared pivot ratio is below 1e-13, and
        ``ValueError`` when a huge ``k`` or ``h`` overflows it.
        """
        if not np.isfinite(h) or h < 0.0:
            raise ValueError(f"convection coefficient must be finite and >= 0, got h={h}")
        n_free = self._free.size
        if n_free == 0:
            return _EMPTY, _EMPTY, _EMPTY, 1.0
        lead, coupling, s0 = self._leading(h)
        with np.errstate(over="ignore", invalid="ignore"):
            s = s0 + h * self._kc_bb
        if not np.isfinite(s).all():
            raise ValueError(f"plate matrix overflows the float range at h={h}")
        block = _cholesky(lapack.dpotrf, s, lead.shape[1], n_free) if s.size else s
        d = np.abs(np.concatenate([lead[-1], np.diag(block)]))
        ratio = float((d.min() / d.max()) ** 2)
        if ratio < 1e-13:
            raise SingularSystemError(_pivot_diagnosis("near-singular Cholesky pivot", ratio))
        return lead, coupling, block, ratio

    def sweep(self, hs: list[float], q: float, t_inf: float, loads: tuple[str, ...] = ()):
        """Yield ``(T, [dT/dload for load in loads])`` for each ``h`` of
        ``hs`` in turn: the nodal temperatures [K] at ``h``, ``q`` and
        ``t_inf``, and per name in ``loads`` the slope ``dT/dq`` or
        ``dT/dt_inf``, exact because ``T`` is affine in both; each a new
        float array indexed like the mesh nodes.

        Each ``h`` gets one factor, a dense Cholesky of the wall block
        (the band Cholesky is formed at the plate's first), and per
        right-hand side one block substitution, without iterative
        refinement, and one residual product that checks it.  A slope is
        the plate's response to the load ``f_q`` or ``h f_a`` alone, with
        the fixed walls at 0.  ``l_c`` and ``f_a`` vanish off the
        convective walls, so the leading rows of every right-hand side do
        not depend on ``h``: their forward band solve is made at the first
        ``h`` and held for the rest of the sweep, and those of ``h f_a``
        are zero and need none.  A plate without a convective wall does
        not depend on ``h`` and yields its first result, the same arrays,
        again.

        Raises :class:`SingularSystemError` when the matrix is not
        positive definite, its squared pivot ratio is below 1e-13 or a
        relative residual exceeds 1e-10, and ``ValueError`` for a
        negative or non-finite ``h``, a non-finite ``q`` or ``t_inf``, or
        a matrix, load or temperature beyond the float range.
        """
        forward: dict[str, np.ndarray | None] = {}  # per right-hand side, made at the first h
        result = None
        for h in hs:
            if result is None or self.depends_on_h:
                factor = self._factor(h)
                if not (np.isfinite(q) and np.isfinite(t_inf)):
                    raise ValueError(f"parameters must be finite, got q={q}, t_inf={t_inf}")
                with np.errstate(over="ignore", invalid="ignore"):
                    modal = q * self._f_q + (h * t_inf) * self._f_a + self._G * self._f_G
                    unit = {"q": self._f_q, "t_inf": h * self._f_a}
                at = f"h={h}, q={q}, t_inf={t_inf}, t_fixed={self._t_fixed}"
                T = self._solve(h, factor, modal, self._t_fixed, at, forward, "T")
                result = T, [
                    self._solve(h, factor, unit[n], 0.0, f"h={h}, slope in {n}", forward, n)
                    for n in loads
                ]
            yield result

    def _matvec(self, h: float, T: np.ndarray) -> np.ndarray:
        """``(K_k + h K_c) @ T`` over all nodes, by element scatter-add."""
        tris, edges, n = self._tris, self._conv_edges, self.n_nodes
        y = np.bincount(tris.ravel(), np.einsum("eij,ej->ei", self._ke, T[tris]).ravel(), minlength=n)
        if edges.size:
            y += h * np.bincount(
                edges.ravel(), np.einsum("eij,ej->ei", self._kc, T[edges]).ravel(), minlength=n
            )
        return y

    @staticmethod
    def _substitute(factor: tuple, y: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``x`` with ``U^T U x = b``, given ``y``, the forward band solve of
        ``b``'s leading rows: forward through the trailing block, back
        through it and then through the band.  A zero diagonal leaves ``b``
        unsolved, which the residual check reports."""
        band, coupling, block, _ = factor
        n_lead, reach = band.shape[1], coupling.shape[0]
        x, x_b = y.copy(), b[n_lead:]  # the held forward solve stays as it is
        if x_b.size:
            tail = slice(n_lead - reach, n_lead)
            if reach:
                x_b = blas.dgemv(-1.0, coupling, x[tail], 1.0, x_b, trans=1)
            x_b = lapack.dpotrs(block, x_b)[0]
            if reach:
                x[tail] = blas.dgemv(-1.0, coupling, x_b, 1.0, x[tail])
        if n_lead:  # no band routine on an empty block (see _leading)
            x = lapack.dtbtrs(band, x, overwrite_b=1)[0]
        return np.concatenate([x, x_b])

    def _solve(
        self, h: float, factor: tuple, loads: np.ndarray, t_fixed: float, at: str,
        forward: dict, kind: str,
    ) -> np.ndarray:
        """``T`` with ``K(h) T = loads`` on the free nodes and ``t_fixed``
        on the fixed ones; ``at`` names the parameters in error messages.
        ``forward[kind]`` is the forward band solve of the right-hand
        side's leading rows, made at the sweep's first ``h``, or ``None``
        when those rows are zero."""
        free = self._free
        T = np.full(self.n_nodes, t_fixed, dtype=float)
        if free.size == 0:
            return T

        with np.errstate(over="ignore", invalid="ignore"):
            rhs = t_fixed * (self._l_k + h * self._l_c) + loads[free]
            if not np.isfinite(rhs).all():
                raise ValueError(f"right-hand side overflows the float range at {at}")
            b = rhs[:factor[0].shape[1]]
            if kind not in forward:  # no band routine on zero or empty rows (see _leading)
                forward[kind] = lapack.dtbtrs(factor[0], b, trans="T")[0] if b.any() else None
            y = forward[kind]
            T[free] = self._substitute(factor, b if y is None else y, rhs)
            if not np.isfinite(T).all():
                raise ValueError(f"temperatures overflow the float range at {at}")

            # Norm of the full constrained right-hand side, fixed rows included.
            # BLAS nrm2 (what scipy.linalg.norm calls for a float vector)
            # scales as it sums, so it overflows only if the norm does.
            f_norm = np.hypot(blas.dnrm2(rhs), t_fixed * np.sqrt(self._n_fixed))
            residual = blas.dnrm2((self._matvec(h, T) - loads)[free])
            if f_norm > 0.0 and residual > 1e-10 * f_norm:
                raise SingularSystemError(
                    _pivot_diagnosis(
                        f"relative residual {residual / f_norm:.3e} exceeds 1e-10", factor[3]
                    )
                )
        return T


def _cholesky(routine, a: np.ndarray, before: int, n_free: int) -> np.ndarray:
    """Upper Cholesky factor by a LAPACK ``?pbtrf`` or ``?potrf`` wrapper;
    ``before`` free nodes precede ``a`` in the numbering of the minors."""
    c, info = routine(a, lower=0)
    if info > 0:
        raise SingularSystemError(
            _pivot_diagnosis(
                f"matrix not positive definite at leading minor {before + info} of {n_free}", 0.0
            )
        )
    if info < 0:
        raise RuntimeError(f"LAPACK rejected argument {-info}")
    return c


def _pivot_diagnosis(reason: str, ratio: float) -> str:
    """O(n) conditioning note: the reciprocal of the squared Cholesky
    pivot ratio, a lower bound on the 2-norm condition number."""
    cond = np.inf if ratio <= 0.0 else 1.0 / ratio
    return f"{reason}; condition estimate {cond:.3e} from the Cholesky pivots"


def solve_crisp(m: Mesh2D, p: PlateParameters, bc: BoundaryConditionSet) -> np.ndarray:
    """Nodal temperatures [K] of the plate: assemble the affine plate and
    take the one item of its sweep at ``p.h``.

    This is the single crisp pipeline: the fuzzy sweep runs the same
    :meth:`AffinePlate.sweep` at every distinct ``h``, at the modal ``q``
    and ``t_inf``, so its top level and a plain crisp solve are
    bit-for-bit identical.
    """
    return next(AffinePlate(m, p, bc).sweep([p.h], p.q, p.t_inf))[0]
