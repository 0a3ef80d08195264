"""Structured triangulation of an axis-aligned rectangular plate.

The plate ``[0, width] x [0, height]`` is divided into an ``nx`` by
``ny`` grid of cells, each split into two counter-clockwise triangles
along the lower-left to upper-right diagonal.  Boundary edges are tagged
with the wall they lie on so that boundary conditions can be assigned
per wall.  Meshes are immutable after construction and safe to share.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Wall(str, Enum):
    LEFT = "left"
    RIGHT = "right"
    TOP = "top"
    BOTTOM = "bottom"


@dataclass(frozen=True)
class Node2D:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Triangle:
    """Counter-clockwise triple of node indices."""

    n0: int
    n1: int
    n2: int

    @property
    def nodes(self) -> tuple[int, int, int]:
        return (self.n0, self.n1, self.n2)


@dataclass(frozen=True)
class BoundaryEdge:
    a: int
    b: int
    wall: Wall


@dataclass(frozen=True)
class Mesh2D:
    nodes: tuple[Node2D, ...]
    elements: tuple[Triangle, ...]
    boundary: tuple[BoundaryEdge, ...]
    width_cm: float
    height_cm: float

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def coord_array(self) -> np.ndarray:
        """Node coordinates as an (n_nodes, 2) float array."""
        return np.array([(n.x, n.y) for n in self.nodes], dtype=float)


def triangle_area(coords: np.ndarray, tri: Triangle) -> float:
    """Signed area of a triangle; positive for counter-clockwise vertices."""
    (x0, y0), (x1, y1), (x2, y2) = coords[list(tri.nodes)]
    return 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))


def edge_length(coords: np.ndarray, edge: BoundaryEdge) -> float:
    d = coords[edge.b] - coords[edge.a]
    return float(np.hypot(d[0], d[1]))


def generate_structured_mesh(
    width_cm: float, height_cm: float, nx: int, ny: int
) -> Mesh2D:
    """Uniform grid of ``(nx+1)*(ny+1)`` nodes and ``2*nx*ny`` triangles.

    Node ids run x-fastest from the bottom-left corner.  Each cell is
    split along its lower-left to upper-right diagonal, and the boundary
    edges are listed counter-clockwise around the plate starting from the
    bottom-left corner, so they form a single closed loop.
    """
    if width_cm <= 0.0 or height_cm <= 0.0:
        raise ValueError(f"plate dimensions must be positive: {width_cm} x {height_cm}")
    if nx < 1 or ny < 1:
        raise ValueError(f"need at least one cell per direction, got nx={nx}, ny={ny}")

    def node_id(i: int, j: int) -> int:
        return j * (nx + 1) + i

    # width * i / nx is exact at both ends, so wall membership tests can
    # compare coordinates with ==.
    nodes = tuple(
        Node2D(node_id(i, j), width_cm * i / nx, height_cm * j / ny)
        for j in range(ny + 1)
        for i in range(nx + 1)
    )

    # Lower-left node of every cell, x-fastest; each cell gives the
    # triangles (ll, lr, ur) and (ll, ur, ul) in that order.
    ll = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)[None, :]).ravel()
    lr, ul = ll + 1, ll + nx + 1
    ur = ul + 1
    tris = np.stack([ll, lr, ur, ll, ur, ul], axis=1).reshape(-1, 3)
    elements = tuple(Triangle(*t) for t in tris.tolist())

    boundary = []
    for i in range(nx):  # bottom, left to right
        boundary.append(BoundaryEdge(node_id(i, 0), node_id(i + 1, 0), Wall.BOTTOM))
    for j in range(ny):  # right, bottom to top
        boundary.append(BoundaryEdge(node_id(nx, j), node_id(nx, j + 1), Wall.RIGHT))
    for i in range(nx, 0, -1):  # top, right to left
        boundary.append(BoundaryEdge(node_id(i, ny), node_id(i - 1, ny), Wall.TOP))
    for j in range(ny, 0, -1):  # left, top to bottom
        boundary.append(BoundaryEdge(node_id(0, j), node_id(0, j - 1), Wall.LEFT))

    mesh = Mesh2D(nodes, elements, tuple(boundary), width_cm, height_cm)

    x, y = mesh.coord_array()[tris].transpose(2, 0, 1)  # (E, 3) each
    area2 = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    total = 0.5 * float(area2.sum())
    target = width_cm * height_cm
    if abs(total - target) > 1e-9 * target:
        raise AssertionError(f"mesh area {total} != plate area {target}")
    return mesh


def _wall_position(node: Node2D, wall: Wall) -> float:
    """Sort key along a wall: x on horizontal walls, y on vertical ones."""
    return node.y if wall in (Wall.LEFT, Wall.RIGHT) else node.x


def nodes_on_wall(m: Mesh2D, wall: Wall) -> list[int]:
    """Ids of the nodes lying exactly on a wall, sorted by position.

    Corner nodes belong to both adjacent walls.
    """
    if wall is Wall.LEFT:
        picked = [n for n in m.nodes if n.x == 0.0]
    elif wall is Wall.RIGHT:
        picked = [n for n in m.nodes if n.x == m.width_cm]
    elif wall is Wall.BOTTOM:
        picked = [n for n in m.nodes if n.y == 0.0]
    elif wall is Wall.TOP:
        picked = [n for n in m.nodes if n.y == m.height_cm]
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown wall: {wall}")
    picked.sort(key=lambda n: _wall_position(n, wall))
    return [n.id for n in picked]


def write_mesh_listing(m: Mesh2D, stream: io.TextIOBase) -> None:
    """Plain-text mesh dump for debugging.

    One record per line: ``node id x y``, ``tri id n0 n1 n2`` and
    ``edge a b wall``.
    """
    for n in m.nodes:
        stream.write(f"node {n.id} {n.x!r} {n.y!r}\n")
    for i, t in enumerate(m.elements):
        stream.write(f"tri {i} {t.n0} {t.n1} {t.n2}\n")
    for e in m.boundary:
        stream.write(f"edge {e.a} {e.b} {e.wall.value}\n")
