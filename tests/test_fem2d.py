"""Tests for the element formulas of the dense test reference, the
constraint reduction, and the plate solve."""

import numpy as np
import pytest

from fuzzyheat.fem2d import (
    AffinePlate,
    BCKind,
    BoundaryConditionSet,
    DegenerateElementError,
    PlateParameters,
    SingularSystemError,
    dirichlet_nodes,
    solve_crisp,
)
from fuzzyheat.mesh import WALLS, Mesh2D, Wall, generate_structured_mesh, nodes_on_wall

from dense_plate import (
    assemble,
    edge_convection,
    edge_load,
    element_source,
    element_stiffness,
    solve_dirichlet,
)

UNIT_COORDS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def one_triangle(points, edge_walls=((0, 1, Wall.BOTTOM), (1, 2, Wall.RIGHT), (2, 0, Wall.LEFT))):
    boundary = [(a, b) for a, b, _ in edge_walls]
    return Mesh2D(points, [(0, 1, 2)], boundary, [WALLS.index(w) for *_, w in edge_walls])


# --- element stiffness ------------------------------------------------------


def test_unit_right_triangle_stiffness():
    # Analytic integration of the linear shape-function gradients.
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    got = element_stiffness(UNIT_COORDS, k=1.0)
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_stiffness_linear_in_conductivity():
    k1 = element_stiffness(UNIT_COORDS, k=1.0)
    k2 = element_stiffness(UNIT_COORDS, k=2.0)
    np.testing.assert_allclose(k2, 2.0 * k1, atol=1e-14)


@pytest.mark.parametrize(
    "coords",
    [
        UNIT_COORDS,
        np.array([[0.3, -0.2], [2.1, 0.4], [0.9, 1.7]]),
        np.array([[-1.0, -1.0], [4.0, 0.5], [0.0, 3.0]]),
    ],
)
def test_stiffness_rows_sum_to_zero(coords):
    ke = element_stiffness(coords, k=1.3)
    np.testing.assert_allclose(ke.sum(axis=1), np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(ke, ke.T, atol=1e-14)


def test_degenerate_triangle_rejected():
    flat = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    with pytest.raises(DegenerateElementError):
        AffinePlate(one_triangle(flat), PlateParameters(), BoundaryConditionSet())
    inverted = UNIT_COORDS[[0, 2, 1]]  # clockwise
    with pytest.raises(DegenerateElementError):
        AffinePlate(one_triangle(inverted), PlateParameters(), BoundaryConditionSet())


# --- edge and source terms --------------------------------------------------


def test_edge_convection_matrix_value():
    got = edge_convection(2.0, h=3.0)
    np.testing.assert_allclose(got, np.array([[2.0, 1.0], [1.0, 2.0]]), atol=1e-14)


def test_edge_convection_zero_h():
    np.testing.assert_array_equal(edge_convection(1.7, 0.0), np.zeros((2, 2)))


@pytest.mark.parametrize("L,h", [(0.5, 1.0), (2.0, 3.5), (7.25, 0.1)])
def test_edge_convection_partition_of_unity(L, h):
    assert edge_convection(L, h).sum() == pytest.approx(h * L, rel=1e-14)


def test_edge_flux_vector_inflow():
    np.testing.assert_allclose(edge_load(1.0, 2.0), [1.0, 1.0], atol=1e-14)
    np.testing.assert_array_equal(edge_load(1.0, 0.0), [0.0, 0.0])


@pytest.mark.parametrize("L,q", [(1.0, 2.0), (3.0, -1.5)])
def test_edge_flux_partition_of_unity(L, q):
    assert edge_load(L, q).sum() == pytest.approx(q * L, rel=1e-14)


def test_edge_ambient_vector():
    np.testing.assert_allclose(edge_load(2.0, 1.0 * 25.0), [25.0, 25.0], atol=1e-12)
    np.testing.assert_array_equal(edge_load(2.0, 0.0 * 25.0), [0.0, 0.0])
    np.testing.assert_array_equal(edge_load(2.0, 1.0 * 0.0), [0.0, 0.0])


def test_zero_length_edge_rejected():
    # A zero-length edge on the left wall, which carries the flux.
    edges = ((0, 1, Wall.BOTTOM), (1, 2, Wall.RIGHT), (2, 0, Wall.LEFT), (2, 2, Wall.LEFT))
    m = one_triangle(UNIT_COORDS, edges)
    with pytest.raises(DegenerateElementError, match="zero length"):
        AffinePlate(m, PlateParameters(), BoundaryConditionSet())


def test_element_source_vector():
    got = element_source(UNIT_COORDS, G=6.0)  # area 1/2
    np.testing.assert_allclose(got, [1.0, 1.0, 1.0], atol=1e-14)
    np.testing.assert_array_equal(element_source(UNIT_COORDS, 0.0), np.zeros(3))
    assert got.sum() == pytest.approx(6.0 * 0.5, rel=1e-14)


# --- assembly ----------------------------------------------------------------


def all_adiabatic():
    return BoundaryConditionSet(
        left=BCKind.ADIABATIC, right=BCKind.ADIABATIC,
        top=BCKind.ADIABATIC, bottom=BCKind.ADIABATIC,
    )


@pytest.mark.parametrize("wall", list(Wall))
def test_boundary_conditions_reject_a_kind_given_as_text(wall):
    """A kind given by its name would match no ``BCKind`` and silently
    leave its wall adiabatic."""
    with pytest.raises(ValueError, match=rf"^{wall.value} must be a BCKind, got 'dirichlet'$"):
        BoundaryConditionSet(**{wall.value: "dirichlet"})


def test_pure_neumann_assembly_is_singular_with_constant_nullspace():
    m = generate_structured_mesh(1, 1, 1, 1)
    p = PlateParameters(k=1.0, G=0.0, h=0.0, q=0.0)
    K, f = assemble(m, p, all_adiabatic())
    ones = np.ones(m.n_nodes)
    np.testing.assert_allclose(K @ ones, np.zeros(m.n_nodes), atol=1e-12)
    np.testing.assert_array_equal(f, np.zeros(m.n_nodes))
    with pytest.raises(SingularSystemError):
        solve_crisp(m, p, all_adiabatic())


def test_single_convection_edge_removes_nullspace():
    m = generate_structured_mesh(1, 1, 1, 1)
    p = PlateParameters(k=1.0, G=0.0, h=2.0, q=0.0, t_inf=30.0)
    bc = BoundaryConditionSet(
        left=BCKind.ADIABATIC, right=BCKind.ADIABATIC,
        top=BCKind.CONVECTION, bottom=BCKind.ADIABATIC,
    )
    T = solve_crisp(m, p, bc)
    # Uniform ambient temperature is the exact solution.
    np.testing.assert_allclose(T, np.full(m.n_nodes, 30.0), atol=1e-10)


def test_assembled_matrix_symmetry():
    m = generate_structured_mesh(20, 10, 5, 5)
    K, _ = assemble(m, PlateParameters(), BoundaryConditionSet())
    assert np.abs(K - K.T).max() <= 1e-12 * np.abs(K).max()


# --- Dirichlet constraints ----------------------------------------------------


def test_single_node_system_constrained():
    T = solve_dirichlet(np.array([[2.0]]), np.array([5.0]), [0], 300.0)
    assert T[0] == 300.0


def test_elimination_matches_hand_reduced_system():
    # Constraining node 0 of this 3x3 system to 10 leaves the 2x2 system
    # [[3,-1],[-1,2]] {T1,T2} = {12,13}, solved by hand via Cramer's rule.
    K = np.array([[4.0, -1.0, -1.0], [-1.0, 3.0, -1.0], [-1.0, -1.0, 2.0]])
    f = np.array([1.0, 2.0, 3.0])
    T = solve_dirichlet(K, f, [0], 10.0)
    np.testing.assert_allclose(T, [10.0, 7.4, 10.2], atol=1e-12)


# --- solve ---------------------------------------------------------------------


@pytest.mark.parametrize("k,q,t_fixed", [(1.5, 2.0, 100.0), (0.7, -1.2, 40.0)])
def test_linear_conduction_profile(k, q, t_fixed):
    """Left flux in, right wall fixed, no convection: T is linear in x."""
    W = 20.0
    m = generate_structured_mesh(W, 10.0, 5, 5)
    p = PlateParameters(k=k, G=0.0, h=0.0, q=q, t_inf=25.0, t_fixed=t_fixed)
    bc = BoundaryConditionSet(
        left=BCKind.FLUX, right=BCKind.DIRICHLET,
        top=BCKind.ADIABATIC, bottom=BCKind.ADIABATIC,
    )
    T = solve_crisp(m, p, bc)
    for node, (x, _) in enumerate(m.coords):
        expected = t_fixed + (q / k) * (W - x)
        assert T[node] == pytest.approx(expected, abs=1e-8)


def test_patch_affine_all_dirichlet():
    """Affine fields are reproduced exactly by linear elements."""
    a, b, c = 7.0, 0.25, -0.4
    m = generate_structured_mesh(20, 10, 5, 5)
    coords = m.coords
    exact = a + b * coords[:, 0] + c * coords[:, 1]

    K, f = assemble(m, PlateParameters(k=1.5, h=0.0, q=0.0, G=0.0), all_adiabatic())
    boundary = sorted({i for w in Wall for i in nodes_on_wall(m, w)})
    T = solve_dirichlet(K, f, boundary, exact[boundary])
    np.testing.assert_allclose(T, exact, atol=1e-9)


def test_patch_affine_flux_consistent():
    """The same affine field imposed through a flux wall: for T = a + b*x
    the inward flux on the left wall is -k*b."""
    a, b, k = 5.0, 0.3, 2.0
    W = 4.0
    m = generate_structured_mesh(W, 2.0, 4, 3)
    coords = m.coords
    exact = a + b * coords[:, 0]

    p = PlateParameters(k=k, G=0.0, h=0.0, q=-k * b, t_inf=0.0, t_fixed=a + b * W)
    bc = BoundaryConditionSet(
        left=BCKind.FLUX, right=BCKind.DIRICHLET,
        top=BCKind.ADIABATIC, bottom=BCKind.ADIABATIC,
    )
    T = solve_crisp(m, p, bc)
    np.testing.assert_allclose(T, exact, atol=1e-9)


def test_energy_balance():
    """Flux in + source + Dirichlet reactions balance convective losses."""
    width, height = 20, 10
    m = generate_structured_mesh(width, height, 5, 5)
    p = PlateParameters(k=1.5, G=0.3, h=1.2, q=2.0, t_inf=25.0, t_fixed=100.0)
    bc = BoundaryConditionSet()
    K, f = assemble(m, p, bc)
    T = solve_crisp(m, p, bc)

    reactions = K @ T - f
    free = np.ones(m.n_nodes, dtype=bool)
    free[dirichlet_nodes(m, bc)] = False
    assert np.abs(reactions[free]).max() < 1e-9  # free equations hold

    coords = m.coords
    flux_in = p.q * height  # left wall length
    source_in = p.G * width * height
    conv_out = sum(
        p.h
        * np.linalg.norm(coords[b] - coords[a])
        * (0.5 * (T[a] + T[b]) - p.t_inf)
        for (a, b), code in zip(m.boundary, m.walls)
        if bc.kind(WALLS[code]) is BCKind.CONVECTION
    )
    balance = flux_in + source_in + reactions.sum() - conv_out
    assert abs(balance) <= 1e-8 * max(abs(flux_in) + abs(source_in), abs(conv_out))


def test_solve_crisp_pins_right_wall():
    m = generate_structured_mesh(20, 10, 5, 5)
    p = PlateParameters()
    T = solve_crisp(m, p, BoundaryConditionSet())
    for i in nodes_on_wall(m, Wall.RIGHT):
        assert T[i] == p.t_fixed
