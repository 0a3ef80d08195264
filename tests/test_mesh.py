"""Tests for structured plate meshing and wall tagging."""

import io

import pytest

from fuzzyheat.mesh import (
    Wall,
    edge_length,
    generate_structured_mesh,
    nodes_on_wall,
    triangle_area,
    write_mesh_listing,
)


def all_edges(mesh):
    """Brute-force enumeration of the unique element edges."""
    edges = set()
    for t in mesh.elements:
        n = t.nodes
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
    coords = m.coord_array()
    total = sum(triangle_area(coords, t) for t in m.elements)
    assert total == pytest.approx(w * h, rel=1e-9)


@pytest.mark.parametrize("w,h,nx,ny", [(1, 1, 1, 1), (20, 10, 5, 5), (2, 3, 3, 2)])
def test_all_triangles_counter_clockwise(w, h, nx, ny):
    m = generate_structured_mesh(w, h, nx, ny)
    coords = m.coord_array()
    for t in m.elements:
        assert triangle_area(coords, t) > 0.0
        assert len(set(t.nodes)) == 3


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_structured_mesh(0, 1, 1, 1)
    with pytest.raises(ValueError):
        generate_structured_mesh(1, -1, 1, 1)
    with pytest.raises(ValueError):
        generate_structured_mesh(1, 1, 0, 1)


def test_node_ids_dense_and_unique():
    m = generate_structured_mesh(2, 1, 2, 3)
    assert [n.id for n in m.nodes] == list(range(m.n_nodes))


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
    successor = {e.a: e.b for e in m.boundary}
    assert len(successor) == len(m.boundary)  # each node leaves exactly once
    node = m.boundary[0].a
    for _ in range(len(m.boundary)):
        node = successor[node]
    assert node == m.boundary[0].a


def test_boundary_edges_lie_on_their_wall():
    m = generate_structured_mesh(20, 10, 5, 5)
    coords = {n.id: (n.x, n.y) for n in m.nodes}
    for e in m.boundary:
        (xa, ya), (xb, yb) = coords[e.a], coords[e.b]
        if e.wall is Wall.LEFT:
            assert xa == xb == 0.0
        elif e.wall is Wall.RIGHT:
            assert xa == xb == 20.0
        elif e.wall is Wall.BOTTOM:
            assert ya == yb == 0.0
        else:
            assert ya == yb == 10.0


def test_nodes_on_right_wall():
    m = generate_structured_mesh(20, 10, 5, 5)
    right = nodes_on_wall(m, Wall.RIGHT)
    assert len(right) == 6
    assert all(m.nodes[i].x == 20.0 for i in right)
    ys = [m.nodes[i].y for i in right]
    assert ys == sorted(ys)


def test_nodes_on_bottom_wall_smallest_mesh():
    m = generate_structured_mesh(1, 1, 1, 1)
    bottom = nodes_on_wall(m, Wall.BOTTOM)
    assert len(bottom) == 2
    assert all(m.nodes[i].y == 0.0 for i in bottom)


def test_corner_node_belongs_to_both_walls():
    m = generate_structured_mesh(1, 1, 1, 1)
    left = set(nodes_on_wall(m, Wall.LEFT))
    bottom = set(nodes_on_wall(m, Wall.BOTTOM))
    assert len(left & bottom) == 1  # the origin corner


def test_edge_lengths_positive():
    m = generate_structured_mesh(20, 10, 5, 5)
    coords = m.coord_array()
    for e in m.boundary:
        assert edge_length(coords, e) > 0.0


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
    assert [t.nodes for t in m.elements] == expected
    assert all(type(n) is int for t in m.elements for n in t.nodes)
