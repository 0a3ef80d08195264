"""Tests for the parameter-affine banded plate core against the dense test reference."""

import itertools
import tracemalloc

import numpy as np
import pytest

from fuzzyheat import fem2d, memory
from fuzzyheat._lapack import lapack
from fuzzyheat.cli import RunConfig, cmd_fuzzy_sweep
from fuzzyheat.fem2d import (
    AffinePlate,
    BCKind,
    BoundaryConditionSet,
    DegenerateElementError,
    PlateParameters,
    SingularSystemError,
    solve_crisp,
)
from fuzzyheat.mesh import WALLS, Mesh2D, Wall, generate_structured_mesh

from dense_plate import assemble, dense_solve

D, F, C, A = BCKind.DIRICHLET, BCKind.FLUX, BCKind.CONVECTION, BCKind.ADIABATIC


def walls(left, right, top, bottom):
    return BoundaryConditionSet(left=left, right=right, top=top, bottom=bottom)


def jittered(nx, ny, seed=11):
    """A 20 x 10 plate on an nx x ny grid whose interior nodes move by up
    to a quarter cell, with the structured mesh's connectivity: no
    triangle is right-angled, so the cell diagonals carry nonzero
    entries, which are exact zeros on a structured plate."""
    m = generate_structured_mesh(20.0, 10.0, nx, ny)
    x, y = m.coords.T
    inner = (x > 0.0) & (x < 20.0) & (y > 0.0) & (y < 10.0)
    step = np.random.default_rng(seed).uniform(-0.25, 0.25, (int(inner.sum()), 2))
    coords = m.coords.copy()
    coords[inner] += step * [20.0 / nx, 10.0 / ny]
    return Mesh2D(coords, m.elements, m.boundary, m.walls)


def plate_mesh(shape):
    """The mesh of a case: a jittered mesh as it is, or the 20 x 10
    structured plate on an (nx, ny) grid."""
    return shape if isinstance(shape, Mesh2D) else generate_structured_mesh(20.0, 10.0, *shape)


CASES = {
    "default-walls": ((5, 5), BoundaryConditionSet(), PlateParameters()),
    # The bottom-left corner is both fixed and on a convective wall.
    "dirichlet-beside-convection": ((5, 4), walls(C, F, A, D), PlateParameters(h=3.0)),
    "two-dirichlet-walls": ((6, 5), walls(D, D, C, F), PlateParameters(q=-1.5)),
    "convection-without-dirichlet": ((5, 5), walls(F, C, C, A), PlateParameters(h=0.7)),
    "source": ((5, 5), BoundaryConditionSet(), PlateParameters(G=0.35)),
    "nx-ne-ny": ((9, 3), walls(F, D, C, C), PlateParameters(G=-0.1, t_inf=60.0)),
    "one-cell": ((1, 1), BoundaryConditionSet(), PlateParameters()),
    # One block substitution per solve, without refinement: the plate of
    # the benchmark sweep, and a dense coupling to four convective walls
    # (no flux or fixed wall, so only the source loads the leading rows).
    "default-40x40": ((40, 40), BoundaryConditionSet(), PlateParameters()),
    "four-convective-walls": ((6, 5), walls(C, C, C, C), PlateParameters(G=0.2)),
    "jittered-9x6": (jittered(9, 6), BoundaryConditionSet(), PlateParameters(G=0.2)),
}


def shapes(monkeypatch, name):
    """The shapes of the matrices that reach ``lapack.<name>``, in call order."""
    seen, routine = [], getattr(lapack, name)

    def recording(a, *args, **kwargs):
        seen.append(a.shape)
        return routine(a, *args, **kwargs)

    monkeypatch.setattr(lapack, name, recording)
    return seen


@pytest.mark.parametrize("case", sorted(CASES))
def test_affine_plate_matches_dense_reference(case):
    shape, bc, p = CASES[case]
    m = plate_mesh(shape)
    T = solve_crisp(m, p, bc)
    ref = dense_solve(m, p, bc)
    assert np.abs(T - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_factor_serves_every_q_and_t_inf(case):
    shape, bc, p = CASES[case]
    m = plate_mesh(shape)
    plate = AffinePlate(m, p, bc)
    for q, t_inf in [(0.0, 0.0), (-3.0, 40.0), (7.5, -12.0)]:
        T, slopes = next(plate.sweep([2.5], q, t_inf, ("q", "t_inf")))
        ref = dense_solve(m, PlateParameters(k=p.k, G=p.G, h=2.5, q=q, t_inf=t_inf,
                                             t_fixed=p.t_fixed), bc)
        assert np.abs(T - ref).max() <= 1e-10 * np.abs(ref).max()
    # The slopes are the responses to a unit q or t_inf alone.
    for slope, q, t_inf in zip(slopes, [1.0, 0.0], [0.0, 1.0]):
        ref = dense_solve(m, PlateParameters(k=p.k, G=0.0, h=2.5, q=q, t_inf=t_inf,
                                             t_fixed=0.0), bc)
        assert np.abs(slope - ref).max() <= 1e-10 * np.abs(ref).max()


# The free nodes on every convective wall come last and form the trailing
# block; most cases are a 7x4 plate (8 x 5 nodes).
WALL_LAST = {
    "top": (walls(F, A, C, D), 8, (7, 4)),
    "top-fixed-corner": (walls(F, D, C, A), 7, (7, 4)),
    "bottom": (walls(F, A, D, C), 8, (7, 4)),
    "bottom-fixed-corner": (walls(D, F, A, C), 7, (7, 4)),
    "left": (walls(C, D, F, A), 5, (7, 4)),
    "left-fixed-corner": (walls(C, F, D, A), 4, (7, 4)),
    "right": (walls(D, C, A, F), 5, (7, 4)),
    "right-fixed-corner": (walls(A, C, F, D), 4, (7, 4)),
    # Left column and top row, one shared corner, the right column fixed:
    # 5 + 7 - 1.
    "two-convective-walls": (walls(C, D, C, A), 11, (7, 4)),
    # Left and right columns below the fixed top row: 4 + 4.
    "two-opposite-walls": (walls(C, C, D, A), 8, (7, 4)),
    # The top row and both columns above the fixed bottom row: 8 + 3 + 3.
    "three-walls": (walls(C, C, C, D), 14, (7, 4)),
    # The whole boundary: 2 * 8 + 2 * 3.
    "four-walls": (walls(C, C, C, C), 22, (7, 4)),
    # Every free node on a convective wall, no leading block: both rows
    # of a 7x1 strip less its two fixed right corners.
    "strip": (walls(F, D, C, C), 14, (7, 1)),
    # The same with one convective wall: the top row less its fixed corner.
    "one-wall-strip": (walls(F, D, C, D), 7, (7, 1)),
    # No trailing block: the leading band is the whole matrix.
    "no-convective-wall": (walls(F, D, F, A), 0, (7, 4)),
}


@pytest.mark.parametrize("case", sorted(WALL_LAST))
def test_wall_last_numbering_matches_dense_reference(monkeypatch, case):
    bc, trailing, (nx, ny) = WALL_LAST[case]
    p = PlateParameters(h=2.0, G=0.2, q=-1.0, t_inf=40.0)
    m = generate_structured_mesh(20.0, 10.0, nx, ny)
    plate = AffinePlate(m, p, bc)
    blocks = shapes(monkeypatch, "dpotrf")
    T = next(plate.sweep([p.h], p.q, p.t_inf))[0]
    assert blocks == ([(trailing, trailing)] if trailing else [])
    ref = dense_solve(m, p, bc)
    assert np.abs(T - ref).max() <= 1e-10 * np.abs(ref).max()


LAYOUTS = list(itertools.product((D, F, C, A), repeat=4))


@pytest.mark.parametrize("layout", LAYOUTS,
                         ids=["".join(k.name[0] for k in layout) for layout in LAYOUTS])
def test_every_wall_layout_matches_dense_reference(layout):
    """All 4^4 layouts of a 4x3 plate.  With a fixed or a convective wall
    the plate matches the dense reference; without either it has no
    ground and is singular."""
    bc, p = walls(*layout), PlateParameters(h=2.0, G=0.2, q=-1.0, t_inf=40.0)
    m = generate_structured_mesh(20.0, 10.0, 4, 3)
    if D not in layout and C not in layout:
        with pytest.raises(SingularSystemError):
            solve_crisp(m, p, bc)
        return
    T, ref = solve_crisp(m, p, bc), dense_solve(m, p, bc)
    assert np.abs(T - ref).max() <= 1e-10 * np.abs(ref).max()


def test_bandwidth_of_structured_plate(monkeypatch):
    """The band covers the leading block only.  Fixing the right wall
    leaves nx free nodes per row, so the diagonal neighbour (i+1, j+1)
    sits nx+1 places further on.  With convective right and top walls the
    first one, the right wall, numbers the nodes column by column, and
    the leading block keeps ny free nodes per column (the top row is on
    the wall).  A convective left wall under a fixed top wall also leaves
    ny free nodes per column."""
    m = generate_structured_mesh(20.0, 10.0, 7, 4)
    bands = shapes(monkeypatch, "dpbtrf")
    for bc, superdiagonals in [
        (BoundaryConditionSet(), 8), (walls(F, C, C, A), 5), (walls(C, F, D, A), 5)
    ]:
        next(AffinePlate(m, PlateParameters(), bc).sweep([1.2], 2.0, 25.0))
        assert bands.pop()[0] - 1 == superdiagonals


def test_all_nodes_fixed_gives_fixed_temperature():
    m = generate_structured_mesh(1.0, 1.0, 1, 1)
    T = solve_crisp(m, PlateParameters(t_fixed=42.0), walls(D, D, A, A))
    np.testing.assert_array_equal(T, np.full(4, 42.0))


def test_solves_return_new_float_arrays():
    """Temperatures are floats even for an integer ``t_fixed`` (an integer
    array would truncate the solved values), and every solve and slope
    of a sweep, at the same ``h`` too, is an array of its own."""
    m, bc = generate_structured_mesh(20.0, 10.0, 3, 3), BoundaryConditionSet()
    for fixed in (walls(D, D, A, A), bc):
        T = solve_crisp(m, PlateParameters(t_fixed=100), fixed)
        assert T.dtype == np.float64 and T.shape == (m.n_nodes,)
        np.testing.assert_array_equal(T, solve_crisp(m, PlateParameters(t_fixed=100.0), fixed))
    plate = AffinePlate(m, PlateParameters(), bc)
    (T1, (s1,)), (T2, (s2,)) = plate.sweep([1.2, 1.2], 2.0, 25.0, ("q",))
    arrays = [T1, T2, s1, s2]
    assert all(a.flags.writeable and a.flags.owndata for a in arrays)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_singular_plate_reports_condition_estimate():
    m = generate_structured_mesh(20.0, 10.0, 5, 5)
    with pytest.raises(SingularSystemError, match="condition estimate"):
        solve_crisp(m, PlateParameters(), walls(A, A, A, A))


def test_singular_message_names_the_failure():
    """LAPACK either stops at a non-positive leading minor, which the
    message names, or finishes with a vanishing last pivot.  Without a
    convective wall the band is the whole matrix, and its Cholesky runs
    as the plate is built: a minor that fails leaves no plate."""
    m = generate_structured_mesh(20.0, 10.0, 5, 5)
    pattern = r"(leading minor \d+ of 36|near-singular Cholesky pivot); condition estimate"
    plate = None
    with pytest.raises(SingularSystemError, match=pattern) as failure:
        plate = AffinePlate(m, PlateParameters(), walls(A, A, A, A))
        next(plate.sweep([0.0], 2.0, 25.0))
    assert (plate is None) == ("leading minor" in str(failure.value))


def test_singular_trailing_block_names_the_full_minor(monkeypatch):
    """Without convection the only convective wall no longer grounds the
    plate: the leading block stays positive definite and the trailing
    block fails at its last minor, counted over all free nodes."""
    m = generate_structured_mesh(20.0, 10.0, 5, 5)
    plate = AffinePlate(m, PlateParameters(), walls(A, A, C, A))
    with pytest.raises(SingularSystemError, match=r"leading minor 36 of 36; condition"):
        next(plate.sweep([0.0], 2.0, 25.0))
    blocks = shapes(monkeypatch, "dpotrf")
    next(plate.sweep([1.2], 2.0, 25.0))
    assert blocks == [(6, 6)]


@pytest.mark.parametrize("h", [-0.5, float("nan"), float("inf")])
def test_factor_rejects_bad_h(h):
    m = generate_structured_mesh(20.0, 10.0, 2, 2)
    with pytest.raises(ValueError, match="convection coefficient"):
        next(AffinePlate(m, PlateParameters(), BoundaryConditionSet()).sweep([h], 2.0, 25.0))


@pytest.mark.parametrize("bc", [BoundaryConditionSet(), walls(F, D, A, A)],
                         ids=["convective-wall", "no-convective-wall"])
def test_sweep_checks_each_h_at_its_turn(bc):
    """A plate without a convective wall solves at its first ``h`` only,
    and still rejects a later bad one, as the default plate does."""
    m = generate_structured_mesh(20.0, 10.0, 3, 3)
    items = AffinePlate(m, PlateParameters(), bc).sweep([1.0, -1.0, float("nan")], 2.0, 25.0)
    next(items)
    with pytest.raises(ValueError, match=r"must be finite and >= 0, got h=-1\.0$"):
        next(items)


@pytest.mark.parametrize("q,t_inf", [(float("nan"), 25.0), (2.0, float("-inf"))])
def test_solve_rejects_non_finite_parameters(q, t_inf):
    m = generate_structured_mesh(20.0, 10.0, 2, 2)
    plate = AffinePlate(m, PlateParameters(), BoundaryConditionSet())
    with pytest.raises(ValueError, match="finite"):
        next(plate.sweep([1.2], q, t_inf))


@pytest.mark.parametrize("p,hs,q,t_inf,yielded,message", [
    (PlateParameters(), [1.2, 1.3], 1e308, 25.0, 0,
     "right-hand side overflows the float range at h=1.2, q=1e+308, t_inf=25.0, t_fixed=100.0"),
    (PlateParameters(k=1e-3), [1.2, 1.3], 1e306, 25.0, 0,
     "temperatures overflow the float range at h=1.2, q=1e+306, t_inf=25.0, t_fixed=100.0"),
    (PlateParameters(), [1.2, 1e10, 2.0], 2.0, 1e300, 1,
     "right-hand side overflows the float range at h=10000000000.0, q=2.0, t_inf=1e+300, "
     "t_fixed=100.0"),
], ids=["right-hand-side", "temperatures", "later-h"])
def test_sweep_failure_messages_and_their_order(p, hs, q, t_inf, yielded, message):
    """On the 5x5 default a sweep yields the items of the h values before
    the first that fails, then raises that h's first failed check: the
    modal right-hand side before its temperatures, and both before the
    slopes'.  ``q = 1e308`` overflows the flux load; ``q = 1e306`` over a
    conductivity of 1e-3 overflows the temperatures; ``h t_inf`` overflows
    at the second h only."""
    m = generate_structured_mesh(20.0, 10.0, 5, 5)
    items = AffinePlate(m, p, BoundaryConditionSet()).sweep(hs, q, t_inf, ("q", "t_inf"))
    for _ in range(yielded):
        T, slopes = next(items)
        assert all(np.isfinite(a).all() for a in (T, *slopes))
    with pytest.raises(ValueError) as failure:
        next(items)
    assert str(failure.value) == message


@pytest.mark.parametrize("layout", LAYOUTS,
                         ids=["".join(k.name[0] for k in layout) for layout in LAYOUTS])
def test_every_plate_vector_is_float(layout):
    """The lifts, the loads and the stored values are float64 on every
    wall layout, also where no cell adds to them (``np.bincount`` of no
    index gives integer zeros), and the lifts' zeros are negative, as
    the negation of float sums makes them where a fixed wall adds to
    other nodes.  Without a fixed or a convective wall there is no plate:
    its band Cholesky fails as it is built."""
    m = generate_structured_mesh(20.0, 10.0, 4, 3)
    if D not in layout and C not in layout:
        with pytest.raises(SingularSystemError):
            AffinePlate(m, PlateParameters(), walls(*layout))
        return
    plate = AffinePlate(m, PlateParameters(), walls(*layout))
    vectors = [plate._l_k, plate._l_c, plate._f_q, plate._f_a, plate._f_G, *plate._entries[2:]]
    assert [v.dtype for v in vectors] == [np.float64] * len(vectors)
    for lift in (plate._l_k, plate._l_c):
        assert np.signbit(lift[lift == 0.0]).all()


LOOP = ((0, 1, Wall.BOTTOM), (1, 2, Wall.RIGHT), (2, 0, Wall.LEFT))


def _one_triangle_mesh(points, edges=LOOP):
    boundary = [(a, b) for a, b, _ in edges]
    walls = [WALLS.index(w) for _, _, w in edges]
    return Mesh2D(points, [(0, 1, 2)], boundary, walls)


def test_degenerate_triangle_rejected():
    m = _one_triangle_mesh([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    with pytest.raises(DegenerateElementError, match="triangle"):
        AffinePlate(m, PlateParameters(), BoundaryConditionSet())


def test_zero_length_loaded_edge_rejected():
    m = _one_triangle_mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], LOOP + ((1, 1, Wall.TOP),))
    with pytest.raises(DegenerateElementError, match="zero length"):
        AffinePlate(m, PlateParameters(), BoundaryConditionSet())


@pytest.mark.parametrize(
    "t_fixed,residual", [(100.0, "1.686e-02"), (1e200, "1.278e-02")], ids=["100.0", "1e+200"]
)
def test_residual_check_holds_at_any_load_scale(monkeypatch, t_fixed, residual):
    """A factor 1.01 times too large leaves a relative residual above
    1e-2 at either scale; above about 1e154 the squares in a naive norm
    overflow and would hide it."""
    m = generate_structured_mesh(20.0, 10.0, 3, 2)
    plate = AffinePlate(m, PlateParameters(t_fixed=t_fixed), BoundaryConditionSet())
    factor = plate._factor
    assert plate._coupling.size  # the block path: U_bb and U_lb scale with U_ll

    def scaled(h):
        block, ratio = factor(h)
        return block * 1.01, ratio

    assert np.isfinite(next(plate.sweep([1.2], 2.0, 25.0))[0]).all()
    monkeypatch.setattr(plate, "_band", plate._band * 1.01)
    monkeypatch.setattr(plate, "_coupling", plate._coupling * 1.01)
    monkeypatch.setattr(plate, "_factor", scaled)
    with pytest.raises(SingularSystemError, match=rf"relative residual {residual} "):
        next(plate.sweep([1.2], 2.0, 25.0))


# The residual product's layouts on a 9x6 plate: one wall, two opposite
# walls (their coupling block spans every leading row), four walls and
# none, and one wall on a plate whose cell diagonals couple their nodes.
PRODUCT = {
    "default-walls": ((9, 6), BoundaryConditionSet()),
    "top-and-bottom": ((9, 6), walls(F, D, C, C)),
    "four-walls": ((9, 6), walls(C, C, C, C)),
    "no-convective-wall": ((9, 6), walls(F, D, F, A)),
    "jittered": (jittered(9, 6), BoundaryConditionSet()),
}


@pytest.mark.parametrize("case", sorted(PRODUCT))
def test_residual_product_matches_the_dense_matrix(case):
    """The product on the free nodes equals the dense ``K(h)`` of the
    test reference times the same vector, at several ``h``.  It stores
    each (row, column) once, and on and above the diagonal exactly where
    the dense free block has a nonzero."""
    shape, bc = PRODUCT[case]
    m = plate_mesh(shape)
    plate = AffinePlate(m, PlateParameters(), bc)
    free = plate._free
    x = np.random.default_rng(7).uniform(-50.0, 150.0, free.size)
    for h in (0.0, 1.2, 40.0):
        K, _ = assemble(m, PlateParameters(h=h), bc)
        ref = K[np.ix_(free, free)] @ x
        assert np.linalg.norm(plate._product(h, x) - ref) <= 1e-13 * np.linalg.norm(ref)
    rows, cols, _, _ = plate._entries
    stored = set(zip(rows.tolist(), cols.tolist()))
    assert len(stored) == rows.size
    dense = set(zip(*(a.tolist() for a in np.nonzero(np.triu(K[np.ix_(free, free)])))))
    assert {(r, c) for r, c in stored if r <= c} == dense


@pytest.mark.parametrize("case", sorted(PRODUCT))
def test_plate_keeps_no_per_triangle_array(case):
    """After construction the plate holds arrays by node, by stored
    entry and by wall node, none by triangle."""
    shape, bc = PRODUCT[case]
    m = plate_mesh(shape)
    plate = AffinePlate(m, PlateParameters(), bc)
    held = [a for v in vars(plate).values() for a in (v if isinstance(v, tuple) else (v,))
            if isinstance(a, np.ndarray)]
    assert held
    assert not [a.shape for a in held if len(m.elements) in a.shape]


@pytest.mark.parametrize("cfg,scenarios,workers,counts,dpotrf,dtbtrs", [
    (RunConfig(), ["custom"], 1, (1, 21, 42), 21, (2, 21)),
    (RunConfig(), ["custom"], 4, (1, 21, 42), 21, (2, 21)),
    (RunConfig(), ["h-only"], 1, (1, 21, 21), 21, (2, 21)),
    (RunConfig(), ["q-only"], 1, (1, 1, 2), 1, (2, 1)),
    (RunConfig(), ["tinf-only"], 1, (1, 1, 2), 1, (2, 1)),
    (RunConfig(), ["all"], 1, (1, 21, 63), 21, (2, 21)),
    (RunConfig(left=C), ["custom"], 1, (1, 21, 42), 21, (2, 21)),
    (RunConfig(top=A), ["custom"], 1, (1, 1, 2), 0, (1, 1)),
    (RunConfig(), ["h-only", "q-only"], 1, (2, 22, 23), 22, (3, 22)),
], ids=["1", "4", "h-only", "q-only", "tinf-only", "all", "two-walls", "no-wall", "shared"])
def test_default_sweep_factors_once_per_distinct_h(
    monkeypatch, tmp_path, cfg, scenarios, workers, counts, dpotrf, dtbtrs
):
    """11 levels give 10 * 2 + 1 = 21 distinct h values when h is fuzzy,
    and 1 when it is not, however many corners the levels' boxes have.
    The band does not depend on h, so a run assembles one plate and
    factors it once in band form, for all its scenarios, plus one
    trailing-block factorization per distinct h of each scenario; each
    scenario is one ``sweep``, and each h gets one solve at the modal
    (q, t_inf) and one slope per fuzzy load, whatever ``--workers`` the
    CLI sweep is given.  A plate without a convective wall does not
    depend on h: one factor, solve and slope serve every h, and there is
    no trailing block.  The band Cholesky runs as the plate is built,
    before its first sweep.  ``counts`` are the ``sweep`` and ``_factor``
    calls and the distinct temperature and slope arrays the sweeps
    yield, ``dpotrf`` the trailing-block factorizations.

    ``dtbtrs`` counts the forward (transposed) and back band solves.
    Each h solves the modal load and every slope as one block, so it
    makes one back solve.  The forward solves are the coupling ``U_lb``
    (with a convective wall), once per plate, and the leading rows of a
    sweep's block, once per sweep at its first h.  So the two sweeps of
    ``shared`` make 3 forward solves, and a plate without a convective
    wall, which has no coupling and solves at one h, makes 1 of each."""
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(name + kwargs.get("trans", ""))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    for name in ("dpbtrf", "dpotrf", "dtbtrs"):
        count(lapack, name)
    for name in ("__init__", "sweep", "_factor"):
        count(AffinePlate, name)
    arrays, sweep = {}, AffinePlate.sweep  # every array yielded, kept alive, by identity

    def collecting(*args, **kwargs):
        for T, slopes in sweep(*args, **kwargs):
            arrays.update((id(a), a) for a in (T, *slopes))
            yield T, slopes

    monkeypatch.setattr(AffinePlate, "sweep", collecting)
    cmd_fuzzy_sweep(cfg, scenarios, tmp_path, workers=workers)
    assert calls.count("__init__") == 1
    assert calls.index("__init__") < calls.index("dpbtrf") < calls.index("sweep")
    assert [c for c in calls if c.startswith("dp")] == ["dpbtrf"] + dpotrf * ["dpotrf"]
    assert (calls.count("sweep"), calls.count("_factor"), len(arrays)) == counts
    assert (calls.count("dtbtrsT"), calls.count("dtbtrs")) == dtbtrs


# The 40x40 default and a four-wall plate, whose wall block couples to
# nearly every leading row, and a plate without a convective wall.
REUSE = {
    "default-40x40": CASES["default-40x40"],
    "four-convective-walls": CASES["four-convective-walls"],
    "no-convective-wall": ((7, 4), walls(F, D, F, A), PlateParameters()),
}


@pytest.mark.parametrize("case", sorted(REUSE))
def test_sweep_items_match_fresh_one_h_sweeps_bit_for_bit(case):
    """A sweep forward-solves the leading rows of each right-hand side at
    its first h and reuses that solve at every later h.  Each item equals,
    byte for byte, a one-h sweep of a fresh plate, and ``solve_crisp``
    equals the item at ``p.h``, which is not the first.  A plate without
    a convective wall yields the same arrays at every h."""
    (nx, ny), bc, p = REUSE[case]
    m = generate_structured_mesh(20.0, 10.0, nx, ny)
    hs, loads = [0.9, p.h, 3.0], ("q", "t_inf")

    def raw(item):
        T, slopes = item
        return [T.tobytes()] + [s.tobytes() for s in slopes]

    items = list(AffinePlate(m, p, bc).sweep(hs, p.q, p.t_inf, loads))
    assert len(items) == len(hs)
    for h, item in zip(hs, items):
        assert raw(item) == raw(next(AffinePlate(m, p, bc).sweep([h], p.q, p.t_inf, loads)))
    assert items[1][0].tobytes() == solve_crisp(m, p, bc).tobytes()
    if case == "no-convective-wall":
        first = [items[0][0], *items[0][1]]
        assert all(a is b for T, slopes in items for a, b in zip([T, *slopes], first))


# 8 bytes times: the band K_ll, factored in place, (u + 1) n_lead; K_lb,
# which U_lb overwrites, reach m; five m x m wall blocks; 31 per triangle
# and 10 per node; plus the wall block's finiteness mask, m^2, and 2^15
# bytes of array headers and Python objects.  A 5x5 plate has 50
# triangles and 36 nodes.
@pytest.mark.parametrize("bc,need", [
    # 25 leading nodes, 5 per row, so 6 superdiagonals and reach 6; 5 wall
    # nodes on the top row.
    (BoundaryConditionSet(), 8 * (7 * 25 + 6 * 5 + 5 * 5**2 + 31 * 50 + 10 * 36) + 5**2 + 2**15),
    # Right and top walls: 11 wall nodes, 25 leading ones column by column,
    # 5 per column, so 6 superdiagonals; K_lb starts at the top of the
    # first column, rank 4, so reach = 25 - 4 = 21.
    (walls(F, C, C, A), 8 * (7 * 25 + 21 * 11 + 5 * 11**2 + 31 * 50 + 10 * 36) + 11**2 + 2**15),
], ids=["one-wall", "two-walls"])
def test_plate_fails_fast_when_memory_is_short(monkeypatch, bc, need):
    m = generate_structured_mesh(20.0, 10.0, 5, 5)
    available = memory.available_memory()
    assert available is None or available > 0
    monkeypatch.setattr(memory, "available_memory", lambda: need)
    AffinePlate(m, PlateParameters(), bc)
    monkeypatch.setattr(memory, "available_memory", lambda: need - 1)
    with pytest.raises(MemoryError, match=rf"plate needs {need} bytes .*, {need - 1} available"):
        AffinePlate(m, PlateParameters(), bc)
    monkeypatch.setattr(memory, "available_memory", lambda: None)
    AffinePlate(m, PlateParameters(), bc)


@pytest.mark.parametrize("bc", [BoundaryConditionSet(), walls(C, C, C, C), walls(F, D, A, A)],
                         ids=["one-wall", "four-walls", "no-wall"])
def test_plate_memory_check_precedes_the_per_triangle_arrays(monkeypatch, bc):
    """A plate that does not fit fails before it forms a conduction
    matrix (9 floats per triangle) or the per-entry arrays of the
    assembly: up to its failing ``check_memory``, which holds only the
    numbering of the nodes and the free-node ranks of the triangles,
    ``tracemalloc`` sees a peak below 8 floats per triangle."""
    p = PlateParameters()
    AffinePlate(generate_structured_mesh(20.0, 10.0, 2, 2), p, bc)
    m = generate_structured_mesh(20.0, 10.0, 60, 60)
    peaks = []

    def short(need, what):
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise MemoryError(f"{what} needs {need} bytes")

    monkeypatch.setattr(fem2d, "check_memory", short)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="plate needs"):
            AffinePlate(m, p, bc)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1 and peaks[0] < 8 * 8 * len(m.elements)


@pytest.mark.parametrize("bc", [BoundaryConditionSet(), walls(C, C, C, C), walls(F, D, A, A)],
                         ids=["one-wall", "four-walls", "no-wall"])
@pytest.mark.parametrize("size", [5, 40, 80])
def test_plate_memory_estimate_covers_its_peak(monkeypatch, size, bc):
    """The bytes a plate asks ``check_memory`` for cover the peak that
    ``tracemalloc`` sees while it is assembled and factored the first
    time.  A small plate is built first, so that numpy's first-call
    caches are not counted."""
    p = PlateParameters()
    AffinePlate(generate_structured_mesh(20.0, 10.0, 2, 2), p, bc)
    m = generate_structured_mesh(20.0, 10.0, size, size)
    asked = []
    monkeypatch.setattr(fem2d, "check_memory", lambda need, what: asked.append(need))
    tracemalloc.start()
    try:
        plate = AffinePlate(m, p, bc)
        plate._factor(p.h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(asked) == 1 and peak <= asked[0]


MEMINFO = {"/proc/meminfo": "MemTotal:   100 kB\nMemAvailable:   64 kB\n"}


def cgroup(ceiling, used):
    return {"/sys/fs/cgroup/memory.max": ceiling, "/sys/fs/cgroup/memory.current": used}


def cgroup_v1(lines, ceiling, used):
    """``/proc/self/cgroup`` with ``lines``, and the v1 memory cgroup ``/box/1``."""
    base = "/sys/fs/cgroup/memory/box/1/"
    return {"/proc/self/cgroup": lines, base + "memory.limit_in_bytes": ceiling,
            base + "memory.usage_in_bytes": used}


V1 = "9:name=systemd:/\n4:memory:/box/1\n1:cpu:/\n"
HYBRID = "4:memory:/box/1\n1:cpu:/\n0::/box/1\n"


def nested(limits):
    """``/proc/self/cgroup`` of a pure v2 host without a cgroup namespace,
    naming ``/user.slice/run.scope/``, and ``memory.max`` / ``memory.current``
    of the cgroups that ``limits`` gives as ``{path: (ceiling, used)}``."""
    files = {"/proc/self/cgroup": "0::/user.slice/run.scope/\n"}
    for path, (ceiling, used) in limits.items():
        files[f"/sys/fs/cgroup{path}/memory.max"] = ceiling
        files[f"/sys/fs/cgroup{path}/memory.current"] = used
    return files


@pytest.mark.parametrize("files,available", [
    (MEMINFO, 65536),
    ({**MEMINFO, **cgroup("50000\n", "20000\n")}, 30000),
    ({**MEMINFO, **cgroup("500000\n", "20000\n")}, 65536),
    ({**MEMINFO, **cgroup("max\n", "20000\n")}, 65536),
    ({**MEMINFO, **cgroup("50000\n", "60000\n")}, 0),
    ({**MEMINFO, "/sys/fs/cgroup/memory.max": "50000\n"}, 65536),
    (cgroup("50000\n", "20000\n"), 30000),
    ({}, None),
    ({**MEMINFO, **cgroup_v1(V1, "50000\n", "20000\n")}, 30000),
    ({**MEMINFO, **cgroup_v1(V1, "9223372036854771712\n", "20000\n")}, 65536),
    ({**MEMINFO, **cgroup_v1(HYBRID, "50000\n", "20000\n")}, 30000),
    ({**MEMINFO, "/proc/self/cgroup": V1}, 65536),
    ({**MEMINFO, **cgroup_v1(V1, None, "20000\n")}, 65536),
    ({**MEMINFO, "/proc/self/cgroup": "4:memory:/\n",
      "/sys/fs/cgroup/memory/memory.limit_in_bytes": "40000\n",
      "/sys/fs/cgroup/memory/memory.usage_in_bytes": "20000\n"}, 20000),
    ({**MEMINFO, **nested({"/user.slice/run.scope": ("50000\n", "20000\n")})}, 30000),
    ({**MEMINFO, **nested({"/user.slice/run.scope": ("50000\n", "20000\n"),
                           "/user.slice": ("40000\n", "30000\n")})}, 10000),
    ({**MEMINFO, **nested({"/user.slice/run.scope": ("max\n", "20000\n"),
                           "/user.slice": ("max\n", "30000\n")})}, 65536),
    ({**MEMINFO, **nested({"/user.slice/run.scope": ("50000\n", "garbage\n"),
                           "/user.slice": ("40000\n", "30000\n")})}, 10000),
], ids=["meminfo", "cgroup-smaller", "meminfo-smaller", "cgroup-max", "cgroup-over",
        "no-current", "no-meminfo", "nothing", "v1-limit", "v1-unlimited", "hybrid",
        "v1-unreadable", "v1-no-limit", "v1-root", "v2-nested", "v2-parent-tighter",
        "v2-max-leaf", "v2-unreadable-leaf"])
def test_available_memory_is_the_smaller_limit(monkeypatch, files, available):
    """The readers are patched: no real /proc or /sys state is read."""
    monkeypatch.setattr(memory, "_read", files.get)
    assert memory.available_memory() == available
