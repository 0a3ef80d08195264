"""Tests for element matrices, assembly, constraints, and the direct solve."""

import numpy as np
import pytest

from fuzzyheat.fem2d import (
    BCKind,
    BoundaryConditionSet,
    DegenerateElementError,
    LinearSystem,
    PlateParameters,
    SingularSystemError,
    apply_dirichlet,
    assemble,
    dirichlet_nodes,
    edge_ambient_vector,
    edge_convection_matrix,
    edge_flux_vector,
    element_source_vector,
    element_stiffness,
    solve,
    solve_crisp,
)
from fuzzyheat.mesh import WALLS, Wall, generate_structured_mesh, nodes_on_wall

UNIT_TRI = (0, 1, 2)
UNIT_COORDS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def horizontal_edge(length):
    return (0, 1), np.array([[0.0, 0.0], [length, 0.0]])


# --- element stiffness ------------------------------------------------------


def test_unit_right_triangle_stiffness():
    # Analytic integration of the linear shape-function gradients.
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    got = element_stiffness(UNIT_TRI, UNIT_COORDS, k=1.0)
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_stiffness_linear_in_conductivity():
    k1 = element_stiffness(UNIT_TRI, UNIT_COORDS, k=1.0)
    k2 = element_stiffness(UNIT_TRI, UNIT_COORDS, k=2.0)
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
    ke = element_stiffness(UNIT_TRI, coords, k=1.3)
    np.testing.assert_allclose(ke.sum(axis=1), np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(ke, ke.T, atol=1e-14)


def test_degenerate_triangle_rejected():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateElementError):
        element_stiffness(UNIT_TRI, flat, k=1.0)
    inverted = UNIT_COORDS[[0, 2, 1]]  # clockwise
    with pytest.raises(DegenerateElementError):
        element_stiffness(UNIT_TRI, inverted, k=1.0)


# --- edge and source terms --------------------------------------------------


def test_edge_convection_matrix_value():
    edge, coords = horizontal_edge(2.0)
    got = edge_convection_matrix(edge, coords, h=3.0)
    np.testing.assert_allclose(got, np.array([[2.0, 1.0], [1.0, 2.0]]), atol=1e-14)


def test_edge_convection_zero_h():
    edge, coords = horizontal_edge(1.7)
    np.testing.assert_array_equal(edge_convection_matrix(edge, coords, 0.0), np.zeros((2, 2)))


@pytest.mark.parametrize("L,h", [(0.5, 1.0), (2.0, 3.5), (7.25, 0.1)])
def test_edge_convection_partition_of_unity(L, h):
    edge, coords = horizontal_edge(L)
    assert edge_convection_matrix(edge, coords, h).sum() == pytest.approx(h * L, rel=1e-14)


def test_edge_flux_vector_inflow():
    edge, coords = horizontal_edge(1.0)
    np.testing.assert_allclose(edge_flux_vector(edge, coords, 2.0), [1.0, 1.0], atol=1e-14)
    np.testing.assert_array_equal(edge_flux_vector(edge, coords, 0.0), [0.0, 0.0])


@pytest.mark.parametrize("L,q", [(1.0, 2.0), (3.0, -1.5)])
def test_edge_flux_partition_of_unity(L, q):
    edge, coords = horizontal_edge(L)
    assert edge_flux_vector(edge, coords, q).sum() == pytest.approx(q * L, rel=1e-14)


def test_edge_ambient_vector():
    edge, coords = horizontal_edge(2.0)
    np.testing.assert_allclose(
        edge_ambient_vector(edge, coords, h=1.0, t_inf=25.0), [25.0, 25.0], atol=1e-12
    )
    np.testing.assert_array_equal(edge_ambient_vector(edge, coords, 0.0, 25.0), [0.0, 0.0])
    np.testing.assert_array_equal(edge_ambient_vector(edge, coords, 1.0, 0.0), [0.0, 0.0])


def test_zero_length_edge_rejected():
    edge = (0, 1)
    coords = np.zeros((2, 2))
    with pytest.raises(DegenerateElementError):
        edge_flux_vector(edge, coords, 1.0)


def test_element_source_vector():
    got = element_source_vector(UNIT_TRI, UNIT_COORDS, G_src=6.0)  # area 1/2
    np.testing.assert_allclose(got, [1.0, 1.0, 1.0], atol=1e-14)
    np.testing.assert_array_equal(
        element_source_vector(UNIT_TRI, UNIT_COORDS, 0.0), np.zeros(3)
    )
    assert got.sum() == pytest.approx(6.0 * 0.5, rel=1e-14)


# --- assembly ----------------------------------------------------------------


def all_adiabatic():
    return BoundaryConditionSet(
        left=BCKind.ADIABATIC, right=BCKind.ADIABATIC,
        top=BCKind.ADIABATIC, bottom=BCKind.ADIABATIC,
    )


def test_pure_neumann_assembly_is_singular_with_constant_nullspace():
    m = generate_structured_mesh(1, 1, 1, 1)
    p = PlateParameters(k=1.0, G=0.0, h=0.0, q=0.0)
    sys = assemble(m, p, all_adiabatic())
    ones = np.ones(sys.n)
    np.testing.assert_allclose(sys.K @ ones, np.zeros(sys.n), atol=1e-12)
    np.testing.assert_array_equal(sys.f, np.zeros(sys.n))
    with pytest.raises(SingularSystemError):
        solve(sys)


def test_single_convection_edge_removes_nullspace():
    m = generate_structured_mesh(1, 1, 1, 1)
    p = PlateParameters(k=1.0, G=0.0, h=2.0, q=0.0, t_inf=30.0)
    bc = BoundaryConditionSet(
        left=BCKind.ADIABATIC, right=BCKind.ADIABATIC,
        top=BCKind.CONVECTION, bottom=BCKind.ADIABATIC,
    )
    sys = assemble(m, p, bc)
    T = solve(sys)
    # Uniform ambient temperature is the exact solution.
    np.testing.assert_allclose(T.values, np.full(sys.n, 30.0), atol=1e-10)


def test_assembled_matrix_symmetry():
    m = generate_structured_mesh(20, 10, 5, 5)
    sys = assemble(m, PlateParameters(), BoundaryConditionSet())
    assert np.abs(sys.K - sys.K.T).max() <= 1e-12 * np.abs(sys.K).max()


def test_linear_system_rejects_asymmetric_matrix():
    with pytest.raises(ValueError):
        LinearSystem(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))


# --- Dirichlet constraints ----------------------------------------------------


def test_single_node_system_constrained():
    sys = LinearSystem(np.array([[2.0]]), np.array([5.0]))
    out = apply_dirichlet(sys, [0], 300.0)
    T = solve(out)
    assert T.values[0] == 300.0


def test_elimination_matches_hand_reduced_system():
    # Constraining node 0 of this 3x3 system to 10 leaves the 2x2 system
    # [[3,-1],[-1,2]] {T1,T2} = {12,13}, solved by hand via Cramer's rule.
    K = np.array([[4.0, -1.0, -1.0], [-1.0, 3.0, -1.0], [-1.0, -1.0, 2.0]])
    f = np.array([1.0, 2.0, 3.0])
    out = apply_dirichlet(LinearSystem(K, f), [0], 10.0)
    T = solve(out)
    np.testing.assert_allclose(T.values, [10.0, 7.4, 10.2], atol=1e-12)


def test_constrain_all_nodes_gives_identity():
    K = np.array([[4.0, -1.0], [-1.0, 3.0]])
    out = apply_dirichlet(LinearSystem(K, np.zeros(2)), [0, 1], [7.0, 9.0])
    np.testing.assert_array_equal(out.K, np.eye(2))
    np.testing.assert_array_equal(out.f, [7.0, 9.0])


def test_conflicting_duplicate_constraint_rejected():
    sys = LinearSystem(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        apply_dirichlet(sys, [0, 0], [1.0, 2.0])
    # Duplicates with the same value are harmless.
    out = apply_dirichlet(sys, [0, 0], [1.0, 1.0])
    assert out.f[0] == 1.0


def test_constraint_keeps_symmetry_and_original_untouched():
    m = generate_structured_mesh(2, 1, 2, 2)
    sys = assemble(m, PlateParameters(), BoundaryConditionSet())
    before = sys.K.copy()
    out = apply_dirichlet(sys, nodes_on_wall(m, Wall.RIGHT), 100.0)
    np.testing.assert_array_equal(sys.K, before)
    assert np.abs(out.K - out.K.T).max() == 0.0


def test_out_of_range_node_rejected():
    sys = LinearSystem(np.eye(2), np.zeros(2))
    with pytest.raises(IndexError):
        apply_dirichlet(sys, [5], 1.0)


# --- solve ---------------------------------------------------------------------


def test_identity_solve():
    f = np.array([3.0, -1.0, 2.5])
    T = solve(LinearSystem(np.eye(3), f))
    np.testing.assert_array_equal(T.values, f)


def test_singular_error_carries_diagnostics():
    sys = LinearSystem(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(SingularSystemError, match="condition estimate"):
        solve(sys)


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
        assert T.values[node] == pytest.approx(expected, abs=1e-8)


def test_patch_affine_all_dirichlet():
    """Affine fields are reproduced exactly by linear elements."""
    a, b, c = 7.0, 0.25, -0.4
    m = generate_structured_mesh(20, 10, 5, 5)
    coords = m.coords
    exact = a + b * coords[:, 0] + c * coords[:, 1]

    sys = assemble(m, PlateParameters(k=1.5, h=0.0, q=0.0, G=0.0), all_adiabatic())
    boundary = sorted({i for w in Wall for i in nodes_on_wall(m, w)})
    constrained = apply_dirichlet(sys, boundary, exact[boundary])
    T = solve(constrained)
    np.testing.assert_allclose(T.values, exact, atol=1e-9)


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
    np.testing.assert_allclose(T.values, exact, atol=1e-9)


def test_energy_balance():
    """Flux in + source + Dirichlet reactions balance convective losses."""
    m = generate_structured_mesh(20, 10, 5, 5)
    p = PlateParameters(k=1.5, G=0.3, h=1.2, q=2.0, t_inf=25.0, t_fixed=100.0)
    bc = BoundaryConditionSet()
    original = assemble(m, p, bc)
    T = solve_crisp(m, p, bc).values

    reactions = original.K @ T - original.f
    free = np.ones(m.n_nodes, dtype=bool)
    free[dirichlet_nodes(m, bc)] = False
    assert np.abs(reactions[free]).max() < 1e-9  # free equations hold

    coords = m.coords
    flux_in = p.q * m.height_cm  # left wall length
    source_in = p.G * m.width_cm * m.height_cm
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
        assert T.values[i] == p.t_fixed
