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
mesh with vectorized scatter-adds and reduces them to the free
(non-Dirichlet) nodes.  The local entries on and above the diagonal are
summed once into one duplicate-free set of (row, column, value) on the
free nodes; the LAPACK band array of the leading block, which the band
Cholesky then overwrites in place, the wall blocks and the residual
product's entries are each filled from it.  It numbers the nodes of
every convective wall last, so the band Cholesky of the
``h``-independent leading block is formed when the plate is built and
each distinct ``h`` adds a small dense Cholesky on the wall nodes
(static condensation onto the walls), or nothing on a plate without a
convective wall.  :meth:`AffinePlate.sweep` is the one solve entry: it
yields the temperatures and the slopes in ``q`` and ``t_inf`` at each
``h`` of a list.  The modal load and one load per slope are the columns
of one block of right-hand sides, solved at each ``h`` by one block
substitution, without iterative refinement, and each column is checked
by one residual product on the free-node system; the forward band solve
of the block's ``h``-free leading rows is made at the sweep's first
``h`` and reused at the others.  The loads and lifts are summed on the
free nodes.  The residual product runs over the nonzeros of that set,
both triangles, so the plate keeps no per-triangle array.  :func:`solve_crisp` is a one-``h``
sweep.  Temperatures and slopes are new float arrays, indexed like the
mesh nodes.  A plate whose band, wall blocks and assembly arrays would
not fit in the available memory raises ``MemoryError`` before
allocating any per-triangle array.  The LAPACK and BLAS routines come
from :mod:`fuzzyheat._lapack`, scipy's compiled wrappers loaded without
importing ``scipy.linalg``.

Sign conventions (unit plate thickness throughout):
  * ``q > 0`` means heat flowing INTO the plate across a flux wall and
    contributes positively to the load vector.
  * ``G > 0`` is volumetric heat generation and also adds to the load.

Element matrices are closed-form (linear shape functions integrate
exactly), so no numerical quadrature is involved.
"""

from __future__ import annotations

import math
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
    fixed-wall temperature [K].  All per unit plate thickness.  ``k``
    must be positive and finite, ``h`` at least 0, and the others finite.
    """

    k: float = 1.5
    G: float = 0.0
    h: float = 1.2
    q: float = 2.0
    t_inf: float = 25.0
    t_fixed: float = 100.0

    def __post_init__(self) -> None:
        if not 0.0 < self.k < math.inf:
            raise ValueError(f"conductivity must be positive, got k={self.k}")
        if not self.h >= 0.0:
            raise ValueError(f"convection coefficient must be >= 0, got h={self.h}")
        for name in ("G", "q", "t_inf", "t_fixed"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {name}={getattr(self, name)}")


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
    adiabatic bottom.  Each field must be a :class:`BCKind`.
    """

    left: BCKind = BCKind.FLUX
    right: BCKind = BCKind.DIRICHLET
    top: BCKind = BCKind.CONVECTION
    bottom: BCKind = BCKind.ADIABATIC

    def __post_init__(self) -> None:
        for wall in WALLS:
            if not isinstance(self.kind(wall), BCKind):
                raise ValueError(f"{wall.value} must be a BCKind, got {self.kind(wall)!r}")

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


def _conduction(coords: np.ndarray, tris: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Twice the areas and the (E, 3, 3) conduction matrices of (E, 3)
    node-index triangles; the gradient arrays are freed on return."""
    area2 = _doubled_areas(coords, tris)
    x, y = coords[tris, 0], coords[tris, 1]
    # Constant shape-function gradients (b_i, c_i) / 2A, with
    # b_i = y_j - y_k and c_i = x_k - x_j for (i, j, k) a cyclic vertex order.
    gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], 1)
    gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], 1)
    gx /= area2[:, None]
    gy /= area2[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # the band check rejects inf
        ke = gx[:, :, None] * gx[:, None, :]
        ke += gy[:, :, None] * gy[:, None, :]
        ke *= (k * (0.5 * area2))[:, None, None]
    return area2, ke


class AffinePlate:
    """The plate problem for one mesh, wall layout, ``k``, ``G`` and
    ``t_fixed``, assembled and factored once and affine in ``h``, ``q``
    and ``t_inf``; ``n_nodes`` is the length of every temperature and
    slope array.

    On the free (non-Dirichlet) nodes the constrained system reads::

        (K_k + h K_c) T = t_fixed (l_k + h l_c) + q f_q + h t_inf f_a + G f_G

    where ``t_fixed (l_k + h l_c)`` is the lift of the fixed walls
    (``-K[free, fixed] @ t_fixed``).  ``K_c`` couples only the free nodes
    on the convective walls.  The free nodes are numbered row by row away
    from the first convective wall in ``mesh.WALLS`` order (column by
    column for the left and right walls; the mesh's own row-by-row order
    without one), with the ``m`` nodes of all convective walls last, so
    that ``K(h) = [[K_ll, K_lb], [K_bl, K_bb + h Kc_bb]]``.  The leading
    block does not depend on ``h``: the constructor forms its banded
    Cholesky ``U_ll``, the coupling ``U_lb = U_ll^-T K_lb`` and
    ``S0 = K_bb - U_lb^T U_lb``, ``U_ll`` and ``U_lb`` in place of
    ``K_ll`` and ``K_lb``, and each ``h`` adds only the dense ``m x m``
    Cholesky of ``S0 + h Kc_bb`` (nothing when ``m = 0``).
    ``U_lb`` is dense from the first row of ``K_lb`` on: the last band
    width of rows with one wall, nearly all rows with two or more.
    :meth:`sweep` runs that factor at each ``h`` of a list and
    solves it for the modal ``(q, t_inf)`` and for ``dT/dq`` and
    ``dT/dt_inf``, as the columns of one block of right-hand sides.  The
    leading rows of every right-hand side do not depend on ``h`` either
    (``l_c`` and ``f_a`` vanish off the walls), so a sweep forward-solves
    the block's, ``U_ll^-T B_l``, once at its first ``h``, and at every
    ``h`` runs only the wall block and the back substitution.  Each
    column is checked by ``||K(h) x - b|| <= 1e-10 ||f||`` on the free
    nodes, ``b`` the right-hand side solved and ``f`` that with the fixed
    nodes' values appended, by a product over the nonzeros of the
    free-node matrix.  The constructor sums its entries on and above the
    diagonal once, into one duplicate-free set of (row, column, ``K_k``
    value, ``K_c`` value) sorted by row and column, fills the band of
    ``K_ll``, ``K_lb``, ``K_bb`` and ``Kc_bb`` from that set, and keeps
    its nonzeros for the product by (row, column, value), both
    triangles, with the wall block's last; ``h Kc_bb`` adds to those.
    The lifts ``l_k`` and ``l_c`` and the loads ``f_q``, ``f_a`` and
    ``f_G`` are summed by free node, and are float on every wall layout.
    ``work_bytes`` is what one step of a sweep may allocate besides the
    arrays it yields.

    The constructor raises ``MemoryError``, before it allocates any
    per-triangle array, when its estimate of what it allocates exceeds
    the memory the platform reports available: one band of ``K_ll``,
    ``K_lb``, five ``m x m`` wall blocks, 31 floats per triangle, 10 per
    node and 32 KiB of array headers and Python objects.  The 31 floats
    a triangle bound each step in turn: the conduction matrices as they
    are formed, the per-entry arrays of the assembly and their sort, and
    the free-node set with the residual product's entries.  It raises
    :class:`SingularSystemError` when the leading block is not positive
    definite, and ``ValueError`` when a huge ``k`` overflows it.  The
    tests compare the result with a dense per-element assembly solved by
    ``np.linalg.solve`` (``tests/dense_plate.py``).
    """

    def __init__(self, m: Mesh2D, p: PlateParameters, bc: BoundaryConditionSet):
        n, coords, tris = m.n_nodes, m.coords, m.elements
        # Flux and convection edges; Dirichlet and adiabatic ones add nothing.
        flux_edges = _boundary_edges(m, bc, BCKind.FLUX)
        conv_edges = _boundary_edges(m, bc, BCKind.CONVECTION)

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
        rank = np.full(n, -1, dtype=np.int32)
        rank[free] = np.arange(n_free, dtype=np.int32)

        # From the triangles' node pairs: the band width u of the leading
        # block, the farthest diagonal that holds an entry (convective edges
        # join wall nodes only; a second wall can sit far from the first in
        # the numbering, and with it the band would span the whole plate),
        # and the first row of K_lb.  K_lb reaches the band's last u rows
        # and all from the first of those.
        ranks = rank[tris]
        u, first = 0, n_lead
        for i, j in ((0, 1), (1, 2), (0, 2)):
            lo, hi = np.minimum(ranks[:, i], ranks[:, j]), np.maximum(ranks[:, i], ranks[:, j])
            u = max(u, int((hi - lo)[(lo >= 0) & (hi < n_lead)].max(initial=0)))
            first = min(first, int(lo[(lo >= 0) & (hi >= n_lead)].min(initial=n_lead)))
        del ranks, lo, hi
        reach = max(n_lead - first, min(u, n_lead))
        # K_ll in band form, factored in place; K_lb, solved in place into
        # U_lb; five m x m wall blocks (K_bb, Kc_bb, S0, S0 + h Kc_bb and its
        # factor) and the finiteness mask of one; 31 floats per triangle,
        # the most that one step holds besides those: the coordinates,
        # gradients, area and two conduction matrices as they are formed
        # (about 31.6), then the per-entry arrays of the assembly, their
        # keys and the sort that groups them (about 25 with the node arrays
        # on a structured plate), then the free-node set, two integers and
        # two floats an entry, and the residual product's entries, three
        # floats each (about 21; 2 set entries and 2.5 stored entries a
        # triangle); 10 per node (loads, lifts and numbering); and 32 KiB
        # of array headers and Python objects.
        check_memory(
            8 * ((u + 1) * n_lead + reach * m_wall + 5 * m_wall**2 + 31 * len(tris) + 10 * n)
            + m_wall**2 + 2**15,
            "plate",
        )

        area2, ke = _conduction(coords, tris, p.k)
        flux_length = _edge_lengths(coords, flux_edges)
        conv_length = _edge_lengths(coords, conv_edges)
        kc = (conv_length / 6.0)[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])

        def by_rank(r: np.ndarray, weights: np.ndarray) -> np.ndarray:
            """``weights``, broadcast to the free-node ranks ``r``, summed by
            rank in cell order, those outside ``[0, n_free)`` dropped; float
            even where none is left, where ``np.bincount`` gives integers."""
            at = (r >= 0) & (r < n_free)
            sums = np.bincount(r[at], np.broadcast_to(weights, r.shape)[at], minlength=n_free)
            return sums.astype(float, copy=False)

        self._f_q = by_rank(rank[flux_edges], (0.5 * flux_length)[:, None])
        self._f_a = by_rank(rank[conv_edges], (0.5 * conv_length)[:, None])
        self._f_G = by_rank(rank[tris], ((0.5 * area2) / 3.0)[:, None])
        del area2

        def upper(cells: np.ndarray, local: np.ndarray) -> tuple[np.ndarray, ...]:
            """The local matrices' diagonal summed by free node, and the key
            ``lo * n_free + hi`` and value of each entry above it, cell by
            cell, of the free-node ranks ``lo < hi`` (``lo`` is -1 where a
            fixed node takes part).  Each local matrix is symmetric bit for
            bit, so these are all of it."""
            r = rank[cells]
            i, j = np.triu_indices(cells.shape[1], 1)
            key = np.minimum(r[:, i], r[:, j]).astype(np.intp)
            key *= n_free
            key += np.maximum(r[:, i], r[:, j])
            return by_rank(r, local.diagonal(0, 1, 2)), key.ravel(), local[:, i, j].ravel()

        def lift(key: np.ndarray, vals: np.ndarray) -> np.ndarray:
            """``-K[free, fixed] @ 1``, the lift per unit fixed temperature,
            from the keys in ``[-n_free, 0)``: a fixed node and the free
            node ``key + n_free``."""
            return -by_rank(key + n_free, vals)

        diag_k, key_k, up_k = upper(tris, ke)
        del ke  # its diagonal and up_k hold all of it
        diag_c, key_c, up_c = upper(conv_edges, kc)
        self._l_k, self._l_c = lift(key_k, up_k), lift(key_c, up_c)
        # One group per distinct pair, numbered by a stable sort of the keys;
        # each group sums its pairs in cell order, as a dense assembly adds
        # them.
        key = np.concatenate([key_k, key_c])
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.diff(key, prepend=-n_free - 2) != 0  # below every key: the first starts
        group = np.empty_like(order)
        group[order] = np.cumsum(starts) - 1
        key = key[starts]
        sums = (np.bincount(group[:key_k.size], up_k, minlength=key.size),
                np.bincount(group[key_k.size:], up_c, minlength=key.size))
        del key_k, key_c, up_k, up_c, order, starts, group
        # The free-node matrix on and above the diagonal, as one duplicate-
        # free set (row, column, K_k value, K_c value) sorted by row and
        # column: the diagonal merged into the free pairs.
        at = key >= 0
        key = np.concatenate([np.arange(n_free) * (n_free + 1), key[at]])
        order = np.argsort(key, kind="stable")
        rows, cols = np.divmod(key[order], n_free)
        k = np.concatenate([diag_k, sums[0][at]])[order]
        kc = np.concatenate([diag_c, sums[1][at]])[order]
        del key, order, sums, at
        in_ll, in_bb = cols < n_lead, rows >= n_lead

        def block(at: np.ndarray, vals: np.ndarray, top: int, size: int) -> np.ndarray:
            """Free-node rows ``top`` to ``top + size`` of the wall columns,
            on or above the diagonal, dense and column-major, so that LAPACK
            can overwrite it in place."""
            out = np.zeros((m_wall, size))
            out[cols[at] - n_lead, rows[at] - top] = vals[at]
            return out.T

        coupling = block(~in_ll & ~in_bb, k, n_lead - reach, reach)  # all of K_lb
        s0 = block(in_bb, k, n_lead, m_wall)
        self._kc_bb = block(in_bb, kc, n_lead, m_wall)
        # K_ll in LAPACK upper band form (column-major, entry (r, c) at row
        # u + r - c of column c).
        band = np.zeros((n_lead, u + 1))
        band[cols[in_ll], rows[in_ll] - cols[in_ll] + u] = k[in_ll]
        band = band.T
        # The residual product's entries: the nonzeros, each off-diagonal
        # one mirrored, with the wall block's (the set's last) at the end.
        nonzero = (k != 0.0) | (kc != 0.0)
        rows, cols, k, kc, in_bb = (a[nonzero] for a in (rows, cols, k, kc, in_bb))
        off = rows != cols
        head, tail = off & ~in_bb, off & in_bb
        self._entries = (
            np.concatenate([cols[head], rows, cols[tail]]),
            np.concatenate([rows[head], cols, rows[tail]]),
            np.concatenate([k[head], k, k[tail]]),
            np.concatenate([kc[in_bb], kc[tail]]),
        )
        del rows, cols, k, kc
        self._pivots = np.inf, 0.0  # the smallest and largest diagonal entry of U_ll
        # LAPACK's band routines are skipped on an empty leading block or
        # right-hand side: ?tbtrs corrupts the heap on either.
        if band.size:
            # Two reductions (NaN or inf reaches the minimum or the
            # maximum), not a mask the size of the band.
            if not (np.isfinite(band.min()) and np.isfinite(band.max())):
                raise ValueError("plate matrix overflows the float range")
            band = _cholesky(lapack.dpbtrf, band, 0, n_free, overwrite_ab=1)
            self._pivots = np.abs(band[-1]).min(), np.abs(band[-1]).max()
        if coupling.size:
            # U_ll^T is lower triangular and K_lb is zero above its last
            # `reach` rows, so U_lb is too, and those rows need only the
            # trailing reach x reach triangle of U_ll.
            coupling = lapack.dtbtrs(band[:, n_lead - reach:], coupling, trans="T", overwrite_b=1)[0]
            # The upper triangle of S0, which is all that ?potrf reads.
            # Dense products use scipy's BLAS, here and in _solve: numpy
            # links its own OpenBLAS, and two thread pools spinning in turn
            # slow each other down.
            s0 = blas.dsyrk(-1.0, coupling, beta=1.0, c=s0, trans=1)
        self._band, self._coupling, self._s0 = band, coupling, s0
        self._free = free
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
        the arrays it yields, for a block of up to three right-hand sides
        (the modal load and two slopes): three wall blocks, the forward
        band solve of the block's leading rows that the sweep holds, one
        float per stored entry and two per wall-block entry for the
        residual product, and ten per node for the block.  Those ten are
        the most held at once: the block with the lift and loads it is
        formed from, or the block, its solution and that solution's two
        parts as they are joined."""
        m = self._kc_bb.shape[0]
        n_lead = self._free.size - m
        rows, _, _, kc = self._entries
        return 8 * (3 * m * m + 3 * n_lead + rows.size + 2 * kc.size + 10 * self.n_nodes)

    def _factor(self, h: float) -> tuple[np.ndarray, float]:
        """``(U_bb, pivot ratio)``: the dense upper Cholesky factor of the
        wall block ``S0 + h Kc_bb``, the only part of the factor ``U`` of
        ``K_k + h K_c`` formed per ``h``, and the squared ratio of the
        smallest to the largest diagonal entry of ``U``.

        Raises :class:`SingularSystemError` when the block is not positive
        definite or the squared pivot ratio is below 1e-13, and
        ``ValueError`` when a huge ``h`` overflows it.
        """
        if not self._free.size:
            return self._s0, 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            s = self._s0 + h * self._kc_bb
        if not np.isfinite(s).all():
            raise ValueError(f"plate matrix overflows the float range at h={h}")
        block = _cholesky(lapack.dpotrf, s, self._band.shape[1], self._free.size) if s.size else s
        d = np.abs(np.diag(block))
        lo, hi = self._pivots
        ratio = float((min(lo, d.min(initial=np.inf)) / max(hi, d.max(initial=0.0))) ** 2)
        if ratio < 1e-13:
            raise SingularSystemError(_pivot_diagnosis("near-singular Cholesky pivot", ratio))
        return block, ratio

    def sweep(self, hs: list[float], q: float, t_inf: float, loads: tuple[str, ...] = ()):
        """Yield ``(T, [dT/dload for load in loads])`` for each ``h`` of
        ``hs`` in turn: the nodal temperatures [K] at ``h``, ``q`` and
        ``t_inf``, and per name in ``loads`` the slope ``dT/dq`` or
        ``dT/dt_inf``, exact because ``T`` is affine in both; each a new
        float array indexed like the mesh nodes.

        Each ``h`` gets one factor, a dense Cholesky of the wall block,
        and one block substitution, without iterative refinement, of the
        ``(n_free, 1 + len(loads))`` block of right-hand sides: the modal
        load, then one column per name in ``loads``.  A slope is the
        plate's response to the load ``f_q`` or ``h f_a`` alone, with the
        fixed walls at 0.  ``l_c`` and ``f_a`` vanish off the convective
        walls, so the block's leading rows do not depend on ``h``: their
        forward band solve is made at the first ``h`` and held for the rest
        of the sweep.  Around the wall block's ``?potrs`` each column gets
        its own ``?gemv``, so that it takes the same bits as it would
        alone.  Each column is then checked in turn: its right-hand side,
        then its temperatures, within the float range, then its residual
        product.  A plate without a convective wall does not depend on
        ``h`` and yields its first result, the same arrays, again; every
        ``h`` is checked at its turn all the same.

        Raises :class:`SingularSystemError` when the wall block is not
        positive definite, the squared pivot ratio is below 1e-13 or a
        relative residual exceeds 1e-10, and ``ValueError`` for a
        negative or non-finite ``h``, a non-finite ``q`` or ``t_inf``, or
        a wall block, load or temperature beyond the float range.
        """
        free, band, coupling = self._free, self._band, self._coupling
        n_lead, reach = band.shape[1], coupling.shape[0]
        tail = slice(n_lead - reach, n_lead)
        t_fixed = [self._t_fixed] + [0.0] * len(loads)  # the modal column's, then each slope's
        forward = result = None  # U_ll^-T times the block's leading rows, made at the first h
        for h in hs:
            if not np.isfinite(h) or h < 0.0:
                raise ValueError(f"convection coefficient must be finite and >= 0, got h={h}")
            if result is not None and not self.depends_on_h:
                yield result
                continue
            block, ratio = self._factor(h)
            if not (np.isfinite(q) and np.isfinite(t_inf)):
                raise ValueError(f"parameters must be finite, got q={q}, t_inf={t_inf}")
            at = [f"h={h}, q={q}, t_inf={t_inf}, t_fixed={self._t_fixed}"]
            at += [f"h={h}, slope in {n}" for n in loads]
            with np.errstate(over="ignore", invalid="ignore"):
                unit = {"q": self._f_q, "t_inf": h * self._f_a}
                f = [q * self._f_q + (h * t_inf) * self._f_a + self._G * self._f_G]
                f += [unit[n] for n in loads]
                lift = self._l_k + h * self._l_c
                b = np.array([t * lift + f_j for t, f_j in zip(t_fixed, f)]).T
                del unit, f, lift
                if forward is None:  # no band routine on an empty block (see __init__)
                    forward = lapack.dtbtrs(band, b[:n_lead], trans="T")[0] if n_lead else b[:0]
                # From the held forward band solve: forward through the wall
                # block, back through it and then back through the band; a
                # zero diagonal leaves a column unsolved, which the residual
                # check reports.
                x, x_b = forward.copy(order="F"), b[n_lead:].copy(order="F")
                columns = range(b.shape[1] if reach and x_b.size else 0)
                for j in columns:
                    x_b[:, j] = blas.dgemv(-1.0, coupling, x[tail, j], 1.0, x_b[:, j], trans=1)
                if x_b.size:
                    x_b = lapack.dpotrs(block, x_b, overwrite_b=1)[0]
                for j in columns:
                    x[tail, j] = blas.dgemv(-1.0, coupling, x_b[:, j], 1.0, x[tail, j])
                if n_lead:
                    x = lapack.dtbtrs(band, x, overwrite_b=1)[0]
                x = np.concatenate([x, x_b])
                solved = []
                for j, (t, where) in enumerate(zip(t_fixed, at)):
                    if not np.isfinite(b[:, j]).all():
                        raise ValueError(f"right-hand side overflows the float range at {where}")
                    T = np.full(self.n_nodes, t, dtype=float)
                    T[free] = x[:, j]
                    if not np.isfinite(T).all():
                        raise ValueError(f"temperatures overflow the float range at {where}")
                    # Norm of the full constrained right-hand side, fixed rows
                    # included.  BLAS nrm2 (what scipy.linalg.norm calls for a
                    # float vector) scales as it sums, so it overflows only if
                    # the norm does; it rejects an empty vector.
                    if free.size:
                        f_norm = np.hypot(blas.dnrm2(b[:, j]), t * np.sqrt(self._n_fixed))
                        residual = blas.dnrm2(self._product(h, x[:, j]) - b[:, j])
                        if f_norm > 0.0 and residual > 1e-10 * f_norm:
                            raise SingularSystemError(_pivot_diagnosis(
                                f"relative residual {residual / f_norm:.3e} exceeds 1e-10", ratio))
                    solved.append(T)
            result = solved[0], solved[1:]
            yield result

    def _product(self, h: float, x: np.ndarray) -> np.ndarray:
        """``(K_k + h K_c) x`` on the free nodes, numbered as in ``_free``:
        one gather, one multiply and one scatter-add over the stored
        entries, ``h Kc_bb`` added to the wall block's."""
        rows, cols, k, kc = self._entries
        y = x.take(cols)
        wall = k.size - kc.size
        y[:wall] *= k[:wall]
        y[wall:] *= k[wall:] + h * kc
        return np.bincount(rows, y, minlength=x.size)


def _cholesky(routine, a: np.ndarray, before: int, n_free: int, **overwrite) -> np.ndarray:
    """Upper Cholesky factor by a LAPACK ``?pbtrf`` or ``?potrf`` wrapper,
    given its ``overwrite_*`` flag to factor ``a`` in place; ``before``
    free nodes precede ``a`` in the numbering of the minors."""
    c, info = routine(a, lower=0, **overwrite)
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
