"""Dense test reference for the plate: a per-element loop over the closed-form
linear-triangle formulas into ``K, f``, Dirichlet values imposed by reducing
to the free block, and ``np.linalg.solve``.  It has no checks of its own."""

import numpy as np

from fuzzyheat.fem2d import BCKind, dirichlet_nodes
from fuzzyheat.mesh import WALLS


def element_stiffness(xy, k):
    """``k A B^T B`` for the (3, 2) vertex coordinates of a triangle;
    ``B`` holds the constant shape-function gradients."""
    (x0, y0), (x1, y1), (x2, y2) = xy
    area2 = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    B = np.array([[y1 - y2, y2 - y0, y0 - y1], [x2 - x1, x0 - x2, x1 - x0]]) / area2
    return k * (0.5 * area2) * (B.T @ B)


def element_source(xy, G):
    """Uniform source ``G``: ``G A / 3`` per vertex."""
    (x0, y0), (x1, y1), (x2, y2) = xy
    return np.full(3, G * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 6.0)


def edge_convection(length, h):
    """Robin matrix ``(h L / 6) [[2, 1], [1, 2]]`` of an edge."""
    return (h * length / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])


def edge_load(length, value):
    """``value L / 2`` per edge node: a flux ``q`` or an ambient ``h t_inf``."""
    return np.full(2, 0.5 * value * length)


def assemble(m, p, bc, G=None):
    """Dense ``K, f`` before constraints; ``G`` may give one source per element."""
    K, f = np.zeros((m.n_nodes, m.n_nodes)), np.zeros(m.n_nodes)
    for tri, g in zip(m.elements, np.broadcast_to(p.G if G is None else G, len(m.elements))):
        K[np.ix_(tri, tri)] += element_stiffness(m.coords[tri], p.k)
        f[tri] += element_source(m.coords[tri], g)
    for edge, code in zip(m.boundary, m.walls):
        length = np.linalg.norm(m.coords[edge[1]] - m.coords[edge[0]])
        if bc.kind(WALLS[code]) is BCKind.CONVECTION:
            K[np.ix_(edge, edge)] += edge_convection(length, p.h)
            f[edge] += edge_load(length, p.h * p.t_inf)
        elif bc.kind(WALLS[code]) is BCKind.FLUX:
            f[edge] += edge_load(length, p.q)
    return K, f


def solve_dirichlet(K, f, nodes, values):
    """Solve ``K T = f`` with ``T[nodes] = values`` on the free block."""
    nodes = np.asarray(nodes, dtype=int)
    free = np.setdiff1d(np.arange(len(f)), nodes)
    T = np.zeros(len(f))
    T[nodes] = values
    T[free] = np.linalg.solve(K[np.ix_(free, free)], f[free] - K[np.ix_(free, nodes)] @ T[nodes])
    return T


def dense_solve(m, p, bc):
    """Plate temperatures with every fixed wall at ``p.t_fixed``."""
    return solve_dirichlet(*assemble(m, p, bc), dirichlet_nodes(m, bc), p.t_fixed)
