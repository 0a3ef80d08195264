"""Structured triangulation of an axis-aligned rectangular plate.

The plate ``[0, width] x [0, height]`` is divided into an ``nx`` by
``ny`` grid of cells, each split into two counter-clockwise triangles
along the lower-left to upper-right diagonal.  Boundary edges are tagged
with the wall they lie on so that boundary conditions can be assigned
per wall.  A mesh is a handful of read-only arrays, safe to share.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Wall(str, Enum):
    LEFT = "left"
    RIGHT = "right"
    TOP = "top"
    BOTTOM = "bottom"


# Mesh2D.walls holds each edge's wall as its position in this tuple.
WALLS = tuple(Wall)


@dataclass(frozen=True, eq=False)
class Mesh2D:
    """Node coordinates ``coords`` (n, 2), counter-clockwise node triples
    ``elements`` (E, 3), boundary edges ``boundary`` (B, 2) and their
    wall codes ``walls`` (B,), all read-only, plus the plate size."""

    coords: np.ndarray
    elements: np.ndarray
    boundary: np.ndarray
    walls: np.ndarray
    width_cm: float
    height_cm: float

    def __post_init__(self) -> None:
        for name, dtype, shape in (("coords", float, (-1, 2)), ("elements", np.intp, (-1, 3)),
                                   ("boundary", np.intp, (-1, 2)), ("walls", np.int8, (-1,))):
            arr = np.array(getattr(self, name), dtype=dtype).reshape(shape)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.walls) != len(self.boundary):
            raise ValueError(f"{len(self.walls)} wall codes for {len(self.boundary)} edges")

    @property
    def n_nodes(self) -> int:
        return len(self.coords)


def triangle_area(coords: np.ndarray, tris):
    """Signed areas of triangles given as node-index rows, one row or
    (E, 3); positive for counter-clockwise vertices."""
    x, y = coords[tris, 0], coords[tris, 1]
    return 0.5 * ((x[..., 1] - x[..., 0]) * (y[..., 2] - y[..., 0])
                  - (x[..., 2] - x[..., 0]) * (y[..., 1] - y[..., 0]))


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
    # Keeps the coordinates, the doubled cell areas and their sum normal floats.
    cell2 = (width_cm / nx) * (height_cm / ny)
    if not (sys.float_info.min <= cell2 and math.isfinite(2.0 * width_cm * nx * height_cm * ny)):
        raise ValueError(
            f"plate {width_cm} x {height_cm} cm on a {nx} x {ny} grid is outside the float range"
        )

    ids = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)  # ids[j, i]
    x, y = np.meshgrid(width_cm * np.arange(nx + 1) / nx, height_cm * np.arange(ny + 1) / ny)

    # Lower-left node of every cell, x-fastest; each cell gives the
    # triangles (ll, lr, ur) and (ll, ur, ul) in that order.
    ll = ids[:-1, :-1].ravel()
    lr, ul = ll + 1, ll + nx + 1
    ur = ul + 1
    tris = np.stack([ll, lr, ur, ll, ur, ul], axis=1).reshape(-1, 3)

    # Start node of every boundary edge, counter-clockwise: bottom left to
    # right, right bottom to top, top right to left, left top to bottom.
    ring = np.concatenate([ids[0, :-1], ids[:-1, -1], ids[-1, :0:-1], ids[:0:-1, 0]])
    codes = [WALLS.index(w) for w in (Wall.BOTTOM, Wall.RIGHT, Wall.TOP, Wall.LEFT)]
    mesh = Mesh2D(
        np.stack([x.ravel(), y.ravel()], axis=1),
        tris,
        np.stack([ring, np.roll(ring, -1)], axis=1),
        np.repeat(codes, [nx, ny, nx, ny]),
        width_cm,
        height_cm,
    )

    total = float(triangle_area(mesh.coords, tris).sum())
    target = width_cm * height_cm
    if abs(total - target) > 1e-9 * target:
        raise AssertionError(f"mesh area {total} != plate area {target}")
    return mesh


def nodes_on_wall(m: Mesh2D, wall: Wall) -> list[int]:
    """Ids of the nodes of the edges tagged with a wall, sorted by
    position along it (x on horizontal walls, y on vertical ones).

    Corner nodes belong to both adjacent walls.
    """
    nodes = np.unique(m.boundary[m.walls == WALLS.index(wall)])
    along = m.coords[nodes, 1 if wall in (Wall.LEFT, Wall.RIGHT) else 0]
    return nodes[np.argsort(along, kind="stable")].tolist()


def write_mesh_listing(m: Mesh2D, stream: io.TextIOBase) -> None:
    """Plain-text mesh dump for debugging.

    One record per line: ``node id x y``, ``tri id n0 n1 n2`` and
    ``edge a b wall``.
    """
    for i, (x, y) in enumerate(m.coords.tolist()):
        stream.write(f"node {i} {x!r} {y!r}\n")
    for i, (n0, n1, n2) in enumerate(m.elements.tolist()):
        stream.write(f"tri {i} {n0} {n1} {n2}\n")
    for (a, b), w in zip(m.boundary.tolist(), m.walls.tolist()):
        stream.write(f"edge {a} {b} {WALLS[w].value}\n")
