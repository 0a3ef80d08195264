"""Tests for structured plate meshing and wall tagging."""

import io
import tracemalloc

import numpy as np
import pytest

from fuzzyheat import memory
from fuzzyheat.cli import write_nodes_csv
from fuzzyheat.mesh import (
    WALLS,
    Mesh2D,
    Wall,
    generate_structured_mesh,
    nodes_on_wall,
    triangle_area,
    write_mesh_listing,
)


def all_edges(mesh):
    """Brute-force enumeration of the unique element edges."""
    edges = set()
    for n in mesh.elements.tolist():
        for a, b in ((n[0], n[1]), (n[1], n[2]), (n[2], n[0])):
            edges.add((min(a, b), max(a, b)))
    return edges


def test_default_plate_counts():
    m = generate_structured_mesh(20, 10, 5, 5)
    assert m.n_nodes == 36
    assert len(m.elements) == 50
    assert len(m.boundary) == 20


def test_smallest_mesh():
    m = generate_structured_mesh(1, 1, 1, 1)
    assert m.n_nodes == 4
    assert len(m.elements) == 2
    assert len(m.boundary) == 4


@pytest.mark.parametrize("w,h,nx,ny", [(2, 1, 2, 1), (20, 10, 5, 5), (3.5, 1.25, 4, 7)])
def test_area_conservation(w, h, nx, ny):
    m = generate_structured_mesh(w, h, nx, ny)
    total = sum(triangle_area(m.coords, t) for t in m.elements)
    assert total == pytest.approx(w * h, rel=1e-9)


@pytest.mark.parametrize("w,h,nx,ny", [(1, 1, 1, 1), (20, 10, 5, 5), (2, 3, 3, 2)])
def test_all_triangles_counter_clockwise(w, h, nx, ny):
    m = generate_structured_mesh(w, h, nx, ny)
    for t in m.elements:
        assert triangle_area(m.coords, t) > 0.0
        assert len(set(t.tolist())) == 3


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_structured_mesh(0, 1, 1, 1)
    with pytest.raises(ValueError):
        generate_structured_mesh(1, -1, 1, 1)
    with pytest.raises(ValueError):
        generate_structured_mesh(1, 1, 0, 1)


def test_node_ids_dense_and_unique():
    m = generate_structured_mesh(2, 1, 2, 3)
    assert m.coords.shape == (m.n_nodes, 2)
    assert sorted(set(m.elements.ravel().tolist())) == list(range(m.n_nodes))


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 2), (3, 2), (5, 5)])
def test_euler_characteristic(nx, ny):
    # V - E + F = 1 for a triangulated disk, counting triangles only.
    m = generate_structured_mesh(2.0, 1.0, nx, ny)
    V = m.n_nodes
    E = len(all_edges(m))
    F = len(m.elements)
    assert V - E + F == 1


@pytest.mark.parametrize("nx,ny", [(1, 1), (4, 2), (5, 5)])
def test_boundary_is_single_closed_loop(nx, ny):
    m = generate_structured_mesh(4.0, 2.0, nx, ny)
    assert len(m.boundary) == 2 * (nx + ny)
    successor = dict(m.boundary.tolist())
    assert len(successor) == len(m.boundary)  # each node leaves exactly once
    node = m.boundary[0, 0]
    for _ in range(len(m.boundary)):
        node = successor[node]
    assert node == m.boundary[0, 0]


def test_boundary_edges_lie_on_their_wall():
    m = generate_structured_mesh(20, 10, 5, 5)
    for (a, b), code in zip(m.boundary, m.walls):
        (xa, ya), (xb, yb) = m.coords[a], m.coords[b]
        wall = WALLS[code]
        if wall is Wall.LEFT:
            assert xa == xb == 0.0
        elif wall is Wall.RIGHT:
            assert xa == xb == 20.0
        elif wall is Wall.BOTTOM:
            assert ya == yb == 0.0
        else:
            assert ya == yb == 10.0


def test_nodes_on_right_wall():
    m = generate_structured_mesh(20, 10, 5, 5)
    right = nodes_on_wall(m, Wall.RIGHT)
    assert len(right) == 6
    assert all(m.coords[i, 0] == 20.0 for i in right)
    ys = [m.coords[i, 1] for i in right]
    assert ys == sorted(ys)


def test_nodes_on_bottom_wall_smallest_mesh():
    m = generate_structured_mesh(1, 1, 1, 1)
    bottom = nodes_on_wall(m, Wall.BOTTOM)
    assert len(bottom) == 2
    assert all(m.coords[i, 1] == 0.0 for i in bottom)


def test_corner_node_belongs_to_both_walls():
    m = generate_structured_mesh(1, 1, 1, 1)
    left = set(nodes_on_wall(m, Wall.LEFT))
    bottom = set(nodes_on_wall(m, Wall.BOTTOM))
    assert len(left & bottom) == 1  # the origin corner


def test_edge_lengths_positive():
    m = generate_structured_mesh(20, 10, 5, 5)
    d = m.coords[m.boundary[:, 1]] - m.coords[m.boundary[:, 0]]
    assert (np.hypot(d[:, 0], d[:, 1]) > 0.0).all()


def test_mesh_listing_format():
    m = generate_structured_mesh(1, 1, 1, 1)
    buf = io.StringIO()
    write_mesh_listing(m, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 4 + 2 + 4
    assert lines[0].startswith("node 0 ")
    assert any(line.startswith("tri 0 ") for line in lines)
    assert any(line.endswith(" bottom") for line in lines)


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (2, 5)])
def test_triangles_match_cell_by_cell_loop(nx, ny):
    """Each cell, x-fastest, splits into (ll, lr, ur) then (ll, ur, ul)."""
    expected = []
    for j in range(ny):
        for i in range(nx):
            ll, ul = j * (nx + 1) + i, (j + 1) * (nx + 1) + i
            expected += [(ll, ll + 1, ul + 1), (ll, ul + 1, ul)]
    m = generate_structured_mesh(3.0, 2.0, nx, ny)
    assert [tuple(t) for t in m.elements.tolist()] == expected
    assert m.elements.dtype == np.intp


# Exact text recorded from the dataclass mesh this array mesh replaced.
GOLDEN = {
    (1.0, 1.0, 1, 1): (
        "node 0 0.0 0.0\nnode 1 1.0 0.0\nnode 2 0.0 1.0\nnode 3 1.0 1.0\n"
        "tri 0 0 1 3\ntri 1 0 3 2\n"
        "edge 0 1 bottom\nedge 1 3 right\nedge 3 2 top\nedge 2 0 left\n",
        "node_id,x_cm,y_cm\n0,0,0\n1,1,0\n2,0,1\n3,1,1\n",
    ),
    (3.5, 1.25, 3, 2): (
        "node 0 0.0 0.0\nnode 1 1.1666666666666667 0.0\nnode 2 2.3333333333333335 0.0\n"
        "node 3 3.5 0.0\nnode 4 0.0 0.625\nnode 5 1.1666666666666667 0.625\n"
        "node 6 2.3333333333333335 0.625\nnode 7 3.5 0.625\nnode 8 0.0 1.25\n"
        "node 9 1.1666666666666667 1.25\nnode 10 2.3333333333333335 1.25\nnode 11 3.5 1.25\n"
        "tri 0 0 1 5\ntri 1 0 5 4\ntri 2 1 2 6\ntri 3 1 6 5\ntri 4 2 3 7\ntri 5 2 7 6\n"
        "tri 6 4 5 9\ntri 7 4 9 8\ntri 8 5 6 10\ntri 9 5 10 9\ntri 10 6 7 11\ntri 11 6 11 10\n"
        "edge 0 1 bottom\nedge 1 2 bottom\nedge 2 3 bottom\nedge 3 7 right\nedge 7 11 right\n"
        "edge 11 10 top\nedge 10 9 top\nedge 9 8 top\nedge 8 4 left\nedge 4 0 left\n",
        "node_id,x_cm,y_cm\n0,0,0\n1,1.16666667,0\n2,2.33333333,0\n3,3.5,0\n"
        "4,0,0.625\n5,1.16666667,0.625\n6,2.33333333,0.625\n7,3.5,0.625\n"
        "8,0,1.25\n9,1.16666667,1.25\n10,2.33333333,1.25\n11,3.5,1.25\n",
    ),
}


@pytest.mark.parametrize("plate", list(GOLDEN))
def test_mesh_listing_and_nodes_csv_golden(plate):
    listing, nodes_csv = GOLDEN[plate]
    m = generate_structured_mesh(*plate)
    buf = io.StringIO()
    write_mesh_listing(m, buf)
    assert buf.getvalue() == listing
    buf = io.StringIO()
    write_nodes_csv(buf, m)
    assert buf.getvalue() == nodes_csv


@pytest.mark.parametrize("wall", list(Wall))
def test_nodes_on_wall_returns_plain_ints(wall):
    ids = nodes_on_wall(generate_structured_mesh(3.5, 1.25, 3, 2), wall)
    assert ids and all(type(i) is int for i in ids)


def test_nodes_on_wall_follows_edge_tags():
    """Wall membership comes from the edge tags, not from coordinates."""
    coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    m = Mesh2D(coords, [(0, 1, 2)], [(0, 1), (1, 2), (2, 0)],
               [WALLS.index(w) for w in (Wall.BOTTOM, Wall.TOP, Wall.LEFT)])
    assert nodes_on_wall(m, Wall.TOP) == [2, 1]  # sorted by x
    assert nodes_on_wall(m, Wall.RIGHT) == []


def test_mesh_arrays_are_read_only():
    m = generate_structured_mesh(2, 1, 2, 1)
    for arr in (m.coords, m.elements, m.boundary, m.walls):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_mesh_rejects_wall_count_mismatch():
    with pytest.raises(ValueError, match="wall codes"):
        Mesh2D([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)], [(0, 1)], [0, 1])


@pytest.mark.parametrize("code", [7, -1, 256])
def test_mesh_rejects_wall_code_out_of_range(code):
    """A code outside ``WALLS`` would silently drop its edge's condition;
    256 is checked before the codes are narrowed to int8, where it would
    wrap to 0."""
    with pytest.raises(ValueError, match=rf"^walls must lie in \[0, 4\), got {code}$"):
        Mesh2D([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)], [(0, 1), (1, 2), (2, 0)],
               np.array([0, 1, code]))


@pytest.mark.parametrize("field,elements,boundary,bad", [
    ("elements", [(0, 1, 3)], [(0, 1), (1, 2), (2, 0)], 3),
    ("elements", [(0, -1, 2)], [(0, 1), (1, 2), (2, 0)], -1),
    ("boundary", [(0, 1, 2)], [(0, 1), (1, 5), (2, 0)], 5),
    ("boundary", [(0, 1, 2)], [(0, 1), (1, 2), (-2, 0)], -2),
], ids=["element-above", "element-below", "edge-above", "edge-below"])
def test_mesh_rejects_node_id_out_of_range(field, elements, boundary, bad):
    """A node id outside the nodes fails at construction, not later as an
    ``IndexError`` or a ``bincount`` error in the solver."""
    with pytest.raises(ValueError, match=rf"^{field} must lie in \[0, 3\), got {bad}$"):
        Mesh2D([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], elements, boundary, [0, 1, 2])


@pytest.mark.parametrize("w,h", [(1e308, 10.0), (20.0, 1e308), (1e-320, 10.0)])
def test_plate_outside_float_range_rejected(w, h):
    with pytest.raises(ValueError, match="outside the float range"):
        generate_structured_mesh(w, h, 3, 2)


def test_mesh_too_large_for_memory_allocates_nothing(monkeypatch):
    """A 700 x 700 mesh (980,000 triangles) is refused before any of its
    arrays exists: it asks for 8 * (14 * 980,000 + 5 * 701**2) bytes and
    allocates less than the 1 MiB available."""
    monkeypatch.setattr(memory, "available_memory", lambda: 2**20)
    refused = r"^mesh needs 129416040 bytes \(0\.121 GiB\), 1048576 available$"
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match=refused):
            generate_structured_mesh(20.0, 10.0, 700, 700)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("size", [20, 200])
def test_mesh_memory_estimate_covers_its_peak(monkeypatch, size):
    """The bytes a mesh asks ``check_memory`` for cover the peak that
    ``tracemalloc`` sees while it is built and its area checked."""
    generate_structured_mesh(1.0, 1.0, 2, 2)  # numpy's first-call caches
    asked = []
    monkeypatch.setattr("fuzzyheat.mesh.check_memory", lambda need, what: asked.append(need))
    tracemalloc.start()
    try:
        generate_structured_mesh(20.0, 10.0, size, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert asked == [8 * (14 * 2 * size**2 + 5 * (size + 1) ** 2)] and peak <= asked[0]
