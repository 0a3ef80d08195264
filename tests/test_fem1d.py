"""Tests for the 1D transient convection-diffusion stepper."""

import io
import re
import warnings

import numpy as np
import pytest

from fuzzyheat._lapack import lapack
from fuzzyheat.cli import main
from fuzzyheat.fem1d import (
    EndConditions,
    Rod1D,
    SingularStepError,
    ThetaStepper,
    _band_solver,
    assemble_1d,
    courant_number,
    steady_state,
    write_timeseries,
)
from fuzzyheat.fem2d import PlateParameters


def dense(X):
    """The n x n matrix of a tridiagonal ``(n, 3)`` row-layout array."""
    return np.diag(X[:, 1]) + np.diag(X[1:, 0], -1) + np.diag(X[:-1, 2], 1)


def dense_assembly(rod):
    """M, A and b added element by element into dense n x n matrices."""
    n, l = rod.n_nodes, rod.elem_length
    M, A, b = np.zeros((n, n)), np.zeros((n, n)), np.zeros(n)
    m_e = (l / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    a_e = (rod.k / l) * np.array([[1.0, -1.0], [-1.0, 1.0]]) + (rod.u1 / 2.0) * np.array(
        [[-1.0, 1.0], [-1.0, 1.0]]
    )
    for e in range(rod.n_elems):
        idx = [e, e + 1]
        M[np.ix_(idx, idx)] += m_e
        A[np.ix_(idx, idx)] += a_e
        b[idx] += -rod.Q_src * l / 2.0
    return M, A, b


def row_replaced(S, rhs, bc):
    """Dense ``S`` and ``rhs`` with each fixed end's equation replaced, in place."""
    for row, value in ((0, bc.left), (-1, bc.right)):
        if value is not None:
            S[row, :] = 0.0
            S[row, row] = 1.0
            rhs[row] = value
    return S, rhs


def run_steps(M, A, b, initial, dt, theta, bc, n):
    """The nodal values after ``n`` marched steps."""
    return ThetaStepper(M, A, b, dt, theta, bc).march(initial, n)[-1, 1:]


# --- assembly ----------------------------------------------------------------


def test_single_element_diffusion_matrix():
    rod = Rod1D(1.0, 1, k=1.0, u1=0.0)
    _, A, _ = assemble_1d(rod)
    np.testing.assert_allclose(A, [[0.0, 1.0, -1.0], [-1.0, 1.0, 0.0]], atol=1e-14)


def test_single_element_convection_matrix():
    rod = Rod1D(1.0, 1, k=0.0, u1=2.0)
    _, A, _ = assemble_1d(rod)
    np.testing.assert_allclose(A, [[0.0, -1.0, 1.0], [-1.0, 1.0, 0.0]], atol=1e-14)


def test_mass_matrix_rows_sum_to_element_halves():
    rod = Rod1D(2.0, 4, k=1.0)
    M, _, _ = assemble_1d(rod)
    l = rod.elem_length
    # End rows carry one element half, interior rows two.
    expected = np.full(rod.n_nodes, l)
    expected[0] = expected[-1] = l / 2.0
    np.testing.assert_allclose(M.sum(axis=1), expected, atol=1e-14)


def test_single_element_mass_matrix():
    rod = Rod1D(1.0, 1, k=1.0)
    M, _, _ = assemble_1d(rod)
    np.testing.assert_allclose(M, np.array([[0.0, 2.0, 1.0], [1.0, 2.0, 0.0]]) / 6.0, atol=1e-14)


@pytest.mark.parametrize("rod", [
    Rod1D(1.0, 1), Rod1D(1.0, 2, k=0.0, u1=1.0), Rod1D(3.0, 7, k=0.7, u1=-0.4, Q_src=2.5),
], ids=["one-element", "two-elements", "seven-elements"])
def test_band_assembly_equals_dense_element_loop(rod):
    """The same adds in the same order: equal bit for bit, zero corners included."""
    M, A, b = assemble_1d(rod)
    assert M.shape == A.shape == (rod.n_nodes, 3)
    assert M[0, 0] == M[-1, 2] == A[0, 0] == A[-1, 2] == 0.0
    ref = dense_assembly(rod)
    for band, full in zip((M, A, b), ref):
        np.testing.assert_array_equal(band if band.ndim == 1 else dense(band), full)


def test_source_load_sign():
    # +Q on the left side of the balance moves to the load as -Q.
    rod = Rod1D(1.0, 2, k=1.0, Q_src=4.0)
    _, _, b = assemble_1d(rod)
    np.testing.assert_allclose(b, [-1.0, -2.0, -1.0], atol=1e-14)


def test_rod_validation():
    with pytest.raises(ValueError):
        Rod1D(0.0, 1)
    with pytest.raises(ValueError):
        Rod1D(1.0, 0)
    with pytest.raises(ValueError):
        Rod1D(1.0, 1, k=-1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make,message", [
    (lambda: PlateParameters(k=NAN), "conductivity must be positive, got k=nan"),
    (lambda: PlateParameters(k=INF), "conductivity must be positive, got k=inf"),
    (lambda: Rod1D(INF, 1), "rod length must be positive, got inf"),
    (lambda: Rod1D(NAN, 1), "rod length must be positive, got nan"),
    (lambda: Rod1D(1.0, 1, k=NAN), "conductivity must be >= 0, got nan"),
    (lambda: Rod1D(1.0, 1, k=INF), "conductivity must be >= 0, got inf"),
], ids=["plate-k-nan", "plate-k-inf", "rod-length-inf", "rod-length-nan", "rod-k-nan",
        "rod-k-inf"])
def test_non_finite_lengths_and_conductivities_are_rejected(make, message):
    """The library rejects what the CLI's config parser already does,
    with the range message, rather than overflowing later."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("make,message", [
    (lambda: PlateParameters(h=NAN), "convection coefficient must be >= 0, got h=nan"),
    (lambda: PlateParameters(G=NAN), "G must be finite, got G=nan"),
    (lambda: PlateParameters(q=-INF), "q must be finite, got q=-inf"),
    (lambda: PlateParameters(t_inf=NAN), "t_inf must be finite, got t_inf=nan"),
    (lambda: PlateParameters(t_fixed=INF), "t_fixed must be finite, got t_fixed=inf"),
    (lambda: Rod1D(1.0, 4, u1=INF), "u1 must be finite, got u1=inf"),
    (lambda: Rod1D(1.0, 4, Q_src=NAN), "Q_src must be finite, got Q_src=nan"),
], ids=["plate-h-nan", "plate-G-nan", "plate-q-inf", "plate-t_inf-nan", "plate-t_fixed-inf",
        "rod-u1-inf", "rod-Q_src-nan"])
def test_non_finite_loads_are_rejected_by_name(make, message):
    """A non-finite source, flux, temperature or velocity is rejected when
    the parameters are made, naming its field, and does not reach the
    solver to overflow there.  A NaN ``h`` fails the ``h >= 0`` test."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


# --- theta stepping ------------------------------------------------------------


def test_scalar_backward_euler():
    M = np.array([[0.0, 1.0, 0.0]])
    A = np.array([[0.0, 1.0, 0.0]])
    b = np.zeros(1)
    stepper = ThetaStepper(M, A, b, dt=1.0, theta=1.0, bc=EndConditions())
    time, value = stepper.march([1.0], 1)[1]
    assert value == pytest.approx(0.5, abs=1e-15)
    assert time == 1.0


@pytest.mark.parametrize("theta,dt", [(0.0, 0.01), (0.5, 0.3), (1.0, 2.0)])
def test_steady_state_is_fixed_point(theta, dt):
    rod = Rod1D(1.0, 8, k=1.0, u1=0.5, Q_src=1.0)
    M, A, b = assemble_1d(rod)
    bc = EndConditions(0.0, 2.0)
    phi = steady_state(A, b, bc)
    stepped = ThetaStepper(M, A, b, dt, theta, bc).march(phi, 1)[1, 1:]
    np.testing.assert_allclose(stepped, phi, atol=1e-12)


def test_diffusion_converges_to_linear_profile():
    rod = Rod1D(1.0, 10, k=1.0)
    M, A, b = assemble_1d(rod)
    bc = EndConditions(0.0, 1.0)
    phi = run_steps(M, A, b, np.zeros(rod.n_nodes), 0.5, 1.0, bc, 100)
    np.testing.assert_allclose(phi, rod.node_positions(), atol=1e-8)


def test_long_time_matches_direct_steady_solve():
    rod = Rod1D(2.0, 12, k=0.8, u1=0.3, Q_src=0.5)
    M, A, b = assemble_1d(rod)
    bc = EndConditions(1.0, 0.0)
    phi = run_steps(M, A, b, np.zeros(rod.n_nodes), 0.5, 1.0, bc, 200)
    np.testing.assert_allclose(phi, steady_state(A, b, bc), atol=1e-8)


def test_conservation_with_free_ends():
    # Pure diffusion with natural (zero-flux) ends conserves total content.
    rod = Rod1D(1.0, 10, k=1.0)
    M, A, b = assemble_1d(rod)
    bc = EndConditions()
    rng = np.random.default_rng(42)
    phi0 = rng.uniform(0.0, 1.0, rod.n_nodes)
    total0 = (dense(M) @ phi0).sum()
    table = ThetaStepper(M, A, b, 0.1, 1.0, bc).march(phi0, 50)
    for row in table[1:]:
        assert (dense(M) @ row[1:]).sum() == pytest.approx(total0, abs=1e-10)


def test_backward_euler_unconditionally_stable():
    rod = Rod1D(1.0, 10, k=1.0)
    M, A, b = assemble_1d(rod)
    bc = EndConditions(0.0, 0.0)
    rng = np.random.default_rng(7)
    for dt in rng.uniform(0.01, 100.0, 20):
        phi = rng.uniform(-1.0, 1.0, rod.n_nodes)
        stepped = ThetaStepper(M, A, b, float(dt), 1.0, bc).march(phi, 1)[1, 1:]
        assert np.linalg.norm(stepped) <= np.linalg.norm(phi) * (1.0 + 1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.25])
def test_explicit_stability_limit(theta):
    """Below theta = 1/2 a step is stable only for dt <= l^2 / (6 (1 - 2 theta) k):
    at 0.9 times the limit the field stays within its end values over 3000
    steps, at 1.1 times it grows past 1e100."""
    rod = Rod1D(1.0, 40, k=1.0, u1=0.5)
    M, A, b = assemble_1d(rod)
    limit = rod.elem_length**2 / (6.0 * (1.0 - 2.0 * theta) * rod.k)
    peaks = []
    for factor in (0.9, 1.1):
        stepper = ThetaStepper(M, A, b, factor * limit, theta, EndConditions(0.0, 1.0))
        table = stepper.march(np.zeros(rod.n_nodes), 3000)
        peaks.append(np.abs(table[1:, 1:]).max())
    assert peaks[0] == 1.0
    assert peaks[1] > 1e100


def test_step_argument_validation():
    M, A, b = assemble_1d(Rod1D(1.0, 2))
    with pytest.raises(ValueError):
        ThetaStepper(M, A, b, dt=0.0, theta=1.0, bc=EndConditions())
    with pytest.raises(ValueError):
        ThetaStepper(M, A, b, dt=0.1, theta=1.5, bc=EndConditions())
    dense_M, dense_A, dense_b = dense_assembly(Rod1D(1.0, 4))
    with pytest.raises(ValueError, match=r"\(n, 3\) array, got shape \(5, 5\)"):
        ThetaStepper(dense_M, dense_A, dense_b, dt=0.1, theta=1.0, bc=EndConditions())
    with pytest.raises(ValueError, match=r"\(n, 3\) array, got shape \(5, 5\)"):
        steady_state(dense_A, dense_b, EndConditions(0.0, 1.0))


def test_singular_step_matrix_reported():
    M = np.zeros((2, 3))
    A = np.zeros((2, 3))
    with pytest.raises(SingularStepError):
        ThetaStepper(M, A, np.zeros(2), 0.1, 1.0, EndConditions())


def test_singular_step_matrix_raises_without_warning():
    zeros = np.zeros((2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularStepError, match=r"^singular step matrix: Singular matrix$"):
            ThetaStepper(zeros, zeros, np.zeros(2), 0.1, 1.0, EndConditions())


def test_singular_steady_system_raises_without_warning():
    zeros = np.zeros((2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularStepError, match=r"^singular steady system: Singular matrix$"):
            steady_state(zeros, np.zeros(2), EndConditions())


@pytest.mark.parametrize("bc", [
    EndConditions(0.0, 1.0), EndConditions(left=2.0), EndConditions(right=-1.0),
], ids=["fixed", "free-right", "free-left"])
def test_steady_state_matches_dense_solve(bc):
    rod = Rod1D(2.0, 30, k=0.8, u1=0.3, Q_src=0.5)
    _, A, b = assemble_1d(rod)
    ref = np.linalg.solve(*row_replaced(dense(A), b.copy(), bc))
    tol = 1e-12 * np.abs(ref).max()
    np.testing.assert_allclose(steady_state(A, b, bc), ref, rtol=0.0, atol=tol)


def test_million_element_rod_steps_in_linear_memory():
    """Three diagonals, not n x n: a dense 10**6-node step matrix would need 7.28 TiB."""
    rod = Rod1D(1.0, 10**6, k=1.0, u1=0.5)
    M, A, b = assemble_1d(rod)
    assert M.shape == A.shape == (rod.n_nodes, 3) and b.shape == (rod.n_nodes,)
    stepper = ThetaStepper(M, A, b, 1e-3, 1.0, EndConditions(0.0, 1.0))
    table = stepper.march(np.zeros(rod.n_nodes), 3)
    assert table.shape == (4, rod.n_nodes + 1)
    assert np.isfinite(table).all()
    np.testing.assert_allclose(table[1:, [1, -1]], [[0.0, 1.0]] * 3, rtol=0.0, atol=1e-12)


# --- factored stepper against a dense per-step solve ---------------------------------


def dense_reference_step(M, A, b, phi, dt, theta, bc):
    """One theta step formed densely from the bands and solved from scratch
    with ``np.linalg.solve``."""
    M, A = dense(M), dense(A)
    S = M + theta * dt * A
    rhs = (M - (1.0 - theta) * dt * A) @ phi + dt * b
    return np.linalg.solve(*row_replaced(S, rhs, bc))


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("bc", [
    EndConditions(0.0, 1.0), EndConditions(left=2.0), EndConditions(right=-1.0), EndConditions(),
], ids=["fixed", "free-right", "free-left", "free"])
@pytest.mark.parametrize("rod", [
    Rod1D(1.0, 20, k=1.0), Rod1D(1.0, 20, k=1.0, u1=0.5), Rod1D(2.0, 20, k=0.7, Q_src=3.0),
    Rod1D(1.0, 20, k=0.0, u1=1.0), Rod1D(1.0, 1, k=1.0, u1=0.5, Q_src=1.0),
], ids=["diffusion", "convection", "source", "k0", "one-element"])
def test_stepper_matches_dense_reference(theta, bc, rod):
    """Every row of one 200-step march against a dense solve per step."""
    M, A, b = assemble_1d(rod)
    dt = 1e-4  # small enough for the explicit scheme
    phi0 = np.sin(np.linspace(0.0, 3.0, rod.n_nodes)) + 0.5
    table = ThetaStepper(M, A, b, dt, theta, bc).march(phi0, 200)
    assert table.shape == (201, rod.n_nodes + 1)
    ref = phi0
    for row in table[1:]:
        ref = dense_reference_step(M, A, b, ref, dt, theta, bc)
        assert np.max(np.abs(row[1:] - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert table[-1, 0] == pytest.approx(200 * dt, rel=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("bc", [
    EndConditions(0.0, 1.0), EndConditions(left=2.0), EndConditions(right=-1.0), EndConditions(),
], ids=["fixed", "free-right", "free-left", "free"])
@pytest.mark.parametrize("rod", [
    Rod1D(1.0, 20, k=0.7, u1=0.5, Q_src=3.0), Rod1D(1.0, 1, k=1.0, u1=0.5, Q_src=1.0),
], ids=["twenty-elements", "one-element"])
def test_march_equals_repeated_steps_bit_for_bit(theta, bc, rod):
    """Row k + 1 of the table is a one-step march from the values of row k,
    and row k the state after k steps of a loop that forms each right-hand
    side in fresh arrays and solves it with the same band LU; the time
    column is the running sum of dt from 0."""
    M, A, b = assemble_1d(rod)
    dt = 1e-3
    stepper = ThetaStepper(M, A, b, dt, theta, bc)
    phi = np.sin(np.linspace(0.0, 3.0, rod.n_nodes)) - 0.25
    table = stepper.march(phi, 60)
    assert table.shape == (61, rod.n_nodes + 1)
    np.testing.assert_array_equal(table[0, 1:], phi)
    for row, after in zip(table[:-1], table[1:]):
        stepped = stepper.march(row[1:], 1)[1]
        assert stepped[0] == dt and stepped[1:].tobytes() == after[1:].tobytes()
    R, load = M - (1.0 - theta) * dt * A, dt * b
    solve = _band_solver(M + theta * dt * A, bc, "singular")
    time = 0.0
    for row in table:
        assert row[0] == time
        np.testing.assert_array_equal(row[1:], phi)
        rhs = R[:, 1] * phi
        rhs[1:] += R[1:, 0] * phi[:-1]
        rhs[:-1] += R[:-1, 2] * phi[1:]
        rhs += load
        time, phi = time + dt, solve(rhs)


def test_march_of_no_steps_is_the_initial_row():
    stepper = ThetaStepper(*assemble_1d(Rod1D(1.0, 3)), 0.1, 1.0, EndConditions(0.0, 1.0))
    table = stepper.march([0.25, -0.0, 2.0, 7.0], 0)
    np.testing.assert_array_equal(table, [[0.0, 0.25, -0.0, 2.0, 7.0]])
    assert np.signbit(table[0, 2])
    with pytest.raises(ValueError, match="steps must be >= 0"):
        stepper.march(np.zeros(4), -1)


@pytest.mark.parametrize("initial", [np.zeros(3), np.zeros(5), np.zeros((1, 4)), 0.0],
                         ids=["short", "long", "two-dimensional", "scalar"])
def test_march_rejects_initial_values_of_another_shape(initial):
    stepper = ThetaStepper(*assemble_1d(Rod1D(1.0, 3)), 0.1, 1.0, EndConditions(0.0, 1.0))
    with pytest.raises(ValueError, match=r"need 4 initial nodal values, got shape"):
        stepper.march(initial, 2)


def count_dgttrf(monkeypatch):
    calls = []
    original = lapack.dgttrf

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(lapack, "dgttrf", counting)
    return calls


@pytest.mark.parametrize("steps,factorizations", [(200, 1), (0, 0)])
def test_rod_run_factors_the_step_matrix_once(monkeypatch, tmp_path, steps, factorizations):
    calls = count_dgttrf(monkeypatch)
    cfg = tmp_path / "rod.ini"
    cfg.write_text(f"[rod]\nn_elems = 40\nsteps = {steps}\ndt = 5e-4\nu1 = 0.5\n")
    assert main(["rod", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == factorizations


@pytest.mark.parametrize("left", ["0", "-3.7"])
@pytest.mark.parametrize("dt", [1e-3, 0.05, 0.5, 20.0])
@pytest.mark.parametrize("n_elems", [1, 2, 10, 40])
def test_fixed_ends_print_exactly_their_values(tmp_path, n_elems, dt, left):
    """Node 0 prints its fixed value exactly, also where |S[1, 0]| > 1 (10
    elements at dt = 0.5 give 4.98); partial pivoting on row 1 used to
    print back-substitution noise there, such as -2.42e-16 for 0."""
    cfg = tmp_path / "rod.ini"
    cfg.write_text(f"[rod]\nn_elems = {n_elems}\nsteps = 5\ndt = {dt}\nu1 = 0.5\nleft = {left}\n"
                   "right = 2.5\n")
    assert main(["rod", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "rod_timeseries.csv").read_text().splitlines()[2:]
    assert [row.split(",")[1] for row in rows] == [left] * 5
    assert [row.split(",")[-1] for row in rows] == ["2.5"] * 5


# --- pure convection (k = 0, Q_src = 0) ------------------------------------------


def test_zero_velocity_leaves_state_unchanged():
    rod = Rod1D(1.0, 10, k=0.0, u1=0.0)
    phi = np.sin(np.linspace(0, np.pi, rod.n_nodes))
    stepper = ThetaStepper(*assemble_1d(rod), 0.1, 1.0, EndConditions())
    np.testing.assert_allclose(stepper.march(phi, 1)[1, 1:], phi, atol=1e-14)


def test_uniform_field_in_convection_nullspace():
    rod = Rod1D(10.0, 50, k=0.0, u1=1.0)
    stepper = ThetaStepper(*assemble_1d(rod), 0.05, 1.0, EndConditions(left=1.0))
    np.testing.assert_allclose(stepper.march(np.ones(rod.n_nodes), 1)[1, 1:], 1.0, atol=1e-12)


def front_position(x, phi, level=0.5):
    """Interpolated first downward crossing of ``level``."""
    for i in range(len(phi) - 1):
        a, b = phi[i], phi[i + 1]
        if (a - level) * (b - level) <= 0.0 and a != b:
            return x[i] + (a - level) / (a - b) * (x[i + 1] - x[i])
    raise AssertionError("front left the domain")


def test_advected_front_tracks_velocity():
    """Front displacement after n steps approximates u1 * n * dt, checked
    against a fine-step reference run of the same solver."""
    L, u1, t_final = 10.0, 1.0, 2.0
    rod = Rod1D(L, 100, k=0.0, u1=u1)
    x = rod.node_positions()
    phi0 = 0.5 * (1.0 - np.tanh((x - 2.0) / 0.4))
    bc = EndConditions(left=1.0)

    def run(dt, steps):
        return ThetaStepper(*assemble_1d(rod), dt, 0.5, bc).march(phi0, steps)[-1, 1:]

    assert courant_number(rod, 0.02) == pytest.approx(0.2)
    coarse = run(0.02, 100)
    fine = run(0.001, 2000)

    start = front_position(x, phi0)
    displacement = front_position(x, coarse) - start
    assert displacement == pytest.approx(u1 * t_final, rel=0.05)
    assert front_position(x, coarse) == pytest.approx(front_position(x, fine), abs=0.01)


# --- CSV dump -----------------------------------------------------------------------


def test_timeseries_csv_format():
    table = np.array([[0.0, 0.0, 1.0], [0.25, 0.123456789123, 1.0]])
    buf = io.StringIO()
    write_timeseries(buf, table)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "time,node_0,node_1"
    assert lines[1] == "0,0,1"
    assert lines[2] == "0.25,0.123456789,1"


def test_timeseries_rejects_empty():
    for empty in ([], np.empty((0, 3))):
        with pytest.raises(ValueError, match="at least one row"):
            write_timeseries(io.StringIO(), empty)


def test_timeseries_rejects_ragged_states():
    with pytest.raises(ValueError):
        write_timeseries(io.StringIO(), [[0.0, 0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("table", [
    np.zeros(3), np.zeros((2, 1)), np.zeros((2, 2, 2)), 0.0,
], ids=["one-dimensional", "one-column", "three-dimensional", "scalar"])
def test_timeseries_rejects_what_is_no_table(table):
    buf = io.StringIO()
    with pytest.raises(ValueError, match=r"got shape"):
        write_timeseries(buf, table)
    assert buf.getvalue() == ""
