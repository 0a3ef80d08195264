"""Tests for the parameter-affine banded plate core against the dense reference."""

import numpy as np
import pytest
import scipy.linalg

from fuzzyheat.fem2d import (
    AffinePlate,
    BCKind,
    BoundaryConditionSet,
    DegenerateElementError,
    PlateFactor,
    PlateParameters,
    SingularSystemError,
    apply_dirichlet,
    assemble,
    dirichlet_nodes,
    solve,
    solve_crisp,
)
from fuzzyheat.fuzzy import tfn_from_tolerance
from fuzzyheat.mesh import WALLS, Mesh2D, Wall, generate_structured_mesh
from fuzzyheat.uq import FuzzyScenario, propagate

D, F, C, A = BCKind.DIRICHLET, BCKind.FLUX, BCKind.CONVECTION, BCKind.ADIABATIC


def dense_reference(m, p, bc):
    system = assemble(m, p, bc)
    fixed = dirichlet_nodes(m, bc)
    if fixed:
        system = apply_dirichlet(system, fixed, p.t_fixed)
    return solve(system).values


def walls(left, right, top, bottom):
    return BoundaryConditionSet(left=left, right=right, top=top, bottom=bottom)


CASES = {
    "default-walls": ((5, 5), BoundaryConditionSet(), PlateParameters()),
    # The bottom-left corner is both fixed and on a convective wall.
    "dirichlet-beside-convection": ((5, 4), walls(C, F, A, D), PlateParameters(h=3.0)),
    "two-dirichlet-walls": ((6, 5), walls(D, D, C, F), PlateParameters(q=-1.5)),
    "convection-without-dirichlet": ((5, 5), walls(F, C, C, A), PlateParameters(h=0.7)),
    "source": ((5, 5), BoundaryConditionSet(), PlateParameters(G=0.35)),
    "nx-ne-ny": ((9, 3), walls(F, D, C, C), PlateParameters(G=-0.1, t_inf=60.0)),
    "one-cell": ((1, 1), BoundaryConditionSet(), PlateParameters()),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_affine_plate_matches_dense_reference(case):
    (nx, ny), bc, p = CASES[case]
    m = generate_structured_mesh(20.0, 10.0, nx, ny)
    T = solve_crisp(m, p, bc).values
    ref = dense_reference(m, p, bc)
    assert np.abs(T - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_factor_serves_every_q_and_t_inf(case):
    (nx, ny), bc, p = CASES[case]
    m = generate_structured_mesh(20.0, 10.0, nx, ny)
    plate = AffinePlate(m, p, bc)
    factor = plate.factor(2.5)
    for q, t_inf in [(0.0, 0.0), (-3.0, 40.0), (7.5, -12.0)]:
        T = plate.solve(factor, q, t_inf).values
        ref = dense_reference(m, PlateParameters(k=p.k, G=p.G, h=2.5, q=q, t_inf=t_inf,
                                                 t_fixed=p.t_fixed), bc)
        assert np.abs(T - ref).max() <= 1e-10 * np.abs(ref).max()


def test_bandwidth_of_structured_plate():
    """Fixing the right wall leaves nx free nodes per row, so the
    diagonal neighbour (i+1, j+1) sits nx+1 places further on."""
    m = generate_structured_mesh(20.0, 10.0, 7, 4)
    for bc, superdiagonals in [(BoundaryConditionSet(), 8), (walls(F, C, C, A), 9)]:
        factor = AffinePlate(m, PlateParameters(), bc).factor(1.2)
        assert factor.cb.shape[0] - 1 == superdiagonals


def test_all_nodes_fixed_gives_fixed_temperature():
    m = generate_structured_mesh(1.0, 1.0, 1, 1)
    T = solve_crisp(m, PlateParameters(t_fixed=42.0), walls(D, D, A, A)).values
    np.testing.assert_array_equal(T, np.full(4, 42.0))


def test_singular_plate_reports_condition_estimate():
    m = generate_structured_mesh(20.0, 10.0, 5, 5)
    with pytest.raises(SingularSystemError, match="condition estimate"):
        solve_crisp(m, PlateParameters(), walls(A, A, A, A))


def test_singular_message_names_the_failure():
    """LAPACK either stops at a non-positive leading minor, which the
    message names, or finishes with a vanishing last pivot."""
    m = generate_structured_mesh(20.0, 10.0, 5, 5)
    plate = AffinePlate(m, PlateParameters(), walls(A, A, A, A))
    pattern = r"(leading minor \d+ of 36|near-singular Cholesky pivot); condition estimate"
    with pytest.raises(SingularSystemError, match=pattern):
        plate.factor(0.0)


@pytest.mark.parametrize("h", [-0.5, float("nan"), float("inf")])
def test_factor_rejects_bad_h(h):
    m = generate_structured_mesh(20.0, 10.0, 2, 2)
    with pytest.raises(ValueError, match="convection coefficient"):
        AffinePlate(m, PlateParameters(), BoundaryConditionSet()).factor(h)


@pytest.mark.parametrize("q,t_inf", [(float("nan"), 25.0), (2.0, float("-inf"))])
def test_solve_rejects_non_finite_parameters(q, t_inf):
    m = generate_structured_mesh(20.0, 10.0, 2, 2)
    plate = AffinePlate(m, PlateParameters(), BoundaryConditionSet())
    with pytest.raises(ValueError, match="finite"):
        plate.solve(plate.factor(1.2), q, t_inf)


LOOP = ((0, 1, Wall.BOTTOM), (1, 2, Wall.RIGHT), (2, 0, Wall.LEFT))


def _one_triangle_mesh(points, edges=LOOP):
    boundary = [(a, b) for a, b, _ in edges]
    walls = [WALLS.index(w) for _, _, w in edges]
    return Mesh2D(points, [(0, 1, 2)], boundary, walls, 1.0, 1.0)


def test_degenerate_triangle_rejected():
    m = _one_triangle_mesh([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    with pytest.raises(DegenerateElementError, match="triangle"):
        AffinePlate(m, PlateParameters(), BoundaryConditionSet())


def test_zero_length_loaded_edge_rejected():
    m = _one_triangle_mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], LOOP + ((1, 1, Wall.TOP),))
    with pytest.raises(DegenerateElementError, match="zero length"):
        AffinePlate(m, PlateParameters(), BoundaryConditionSet())


@pytest.mark.parametrize("t_fixed", [100.0, 1e200])
def test_residual_check_holds_at_any_load_scale(t_fixed):
    """A factor 1.01 times too large leaves a relative residual of
    2.5e-4 to 3.3e-4 after the refinement step; above about 1e154 the
    squares in a naive norm overflow and would hide it."""
    m = generate_structured_mesh(20.0, 10.0, 3, 2)
    plate = AffinePlate(m, PlateParameters(t_fixed=t_fixed), BoundaryConditionSet())
    good = plate.factor(1.2)
    bad = PlateFactor(good.h, good.cb * 1.01, good.pivot_ratio)
    assert np.isfinite(plate.solve(good, 2.0, 25.0).values).all()
    with pytest.raises(SingularSystemError, match=r"relative residual [23]\.\d{3}e-04"):
        plate.solve(bad, 2.0, 25.0)


def test_sweep_wraps_plate_assembly_failure():
    m = _one_triangle_mesh([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    sc = FuzzyScenario(h=tfn_from_tolerance(1.2, 0.05), q=2.0, t_inf=25.0)
    with pytest.raises(DegenerateElementError, match="plate assembly failed"):
        propagate(m, PlateParameters(), BoundaryConditionSet(), sc)


@pytest.mark.parametrize("workers", [1, 4])
def test_default_sweep_factors_once_per_distinct_h(monkeypatch, workers):
    """11 levels of fuzzy h and q: 10 * 4 + 1 = 41 corners, but only
    10 * 2 + 1 = 21 distinct h values, so 21 banded factorizations."""
    calls = []
    original = scipy.linalg.cholesky_banded

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", counting)
    m = generate_structured_mesh(20.0, 10.0, 5, 5)
    sc = FuzzyScenario(
        h=tfn_from_tolerance(1.2, 0.05), q=tfn_from_tolerance(2.0, 0.05), t_inf=25.0
    )
    propagate(m, PlateParameters(), BoundaryConditionSet(), sc, workers=workers)
    assert len(calls) == 21
