"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line
per criterion; each passing criterion also prints an ``[acceptance]``
line (visible with ``-s`` or in captured output).
"""

import time

import numpy as np
import pytest

from fuzzyheat.cli import main, parse_config
from fuzzyheat.fem1d import (
    EndConditions,
    Rod1D,
    TransientState,
    assemble_1d,
    steady_state,
    theta_step,
)
from fuzzyheat.fem2d import (
    BCKind,
    BoundaryConditionSet,
    LinearSystem,
    PlateParameters,
    apply_dirichlet,
    assemble,
    element_source_vector,
    solve,
    solve_crisp,
)
from fuzzyheat.fuzzy import (
    AlphaLevels,
    Interval,
    TriangularFuzzyNumber,
    alpha_cut,
    interval_add,
    interval_div,
    interval_mul,
    interval_sub,
    tfn_from_tolerance,
)
from fuzzyheat.mesh import Wall, generate_structured_mesh, nodes_on_wall
from fuzzyheat.uq import FuzzyScenario, compare_scenarios, propagate, sensitivity

TOL_ENDPOINT = 1e-12


def _pass(name: str) -> None:
    print(f"[acceptance] PASS {name}")


def _interval(rng, lo=-30.0, hi=30.0) -> Interval:
    a, b = sorted(rng.uniform(lo, hi, 2))
    return Interval(a, b)


def _nonzero_interval(rng) -> Interval:
    a, b = sorted(rng.uniform(0.5, 30.0, 2))
    if rng.random() < 0.5:
        return Interval(-b, -a)
    return Interval(a, b)


def test_fuzzy_arithmetic_suite():
    """Interval ops: inclusion monotonicity and point containment over
    1000 samples each; alpha-cut nesting over 1000 random TFN/alpha pairs.
    Endpoint tolerance 1e-12, runtime < 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(1234)

    ops = {
        "add": (interval_add, lambda u, v: u + v, False),
        "sub": (interval_sub, lambda u, v: u - v, False),
        "mul": (interval_mul, lambda u, v: u * v, False),
        "div": (interval_div, lambda u, v: u / v, True),
    }

    for name, (op, scalar_op, needs_nonzero) in ops.items():
        for _ in range(1000):
            x = _interval(rng)
            y = _nonzero_interval(rng) if needs_nonzero else _interval(rng)

            # Point containment: pointwise results stay inside the result.
            u = rng.uniform(x.lo, x.hi)
            v = rng.uniform(y.lo, y.hi)
            result = op(x, y)
            assert result.contains(scalar_op(u, v), tol=TOL_ENDPOINT), name

            # Inclusion monotonicity: widening operands widens the result.
            x_wide = Interval(x.lo - rng.uniform(0, 5), x.hi + rng.uniform(0, 5))
            if needs_nonzero:
                pad = rng.uniform(0, 5)
                y_wide = Interval(y.lo, y.hi + pad) if y.lo > 0 else Interval(y.lo - pad, y.hi)
            else:
                y_wide = Interval(y.lo - rng.uniform(0, 5), y.hi + rng.uniform(0, 5))
            assert op(x_wide, y_wide).contains_interval(result, tol=TOL_ENDPOINT), name

    for _ in range(1000):
        a_l = rng.uniform(-10.0, 10.0)
        t = TriangularFuzzyNumber(
            a_l, a_l + rng.uniform(0.0, 5.0), a_l + rng.uniform(5.0, 10.0)
        )
        a1, a2 = sorted(rng.uniform(0.0, 1.0, 2))
        outer, inner = alpha_cut(t, a1), alpha_cut(t, a2)
        assert outer.contains_interval(inner, tol=TOL_ENDPOINT)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"fuzzy arithmetic suite took {elapsed:.2f}s"
    _pass("fuzzy arithmetic suite")


def test_fem_patch_affine():
    """Affine exact solutions reproduced at every node within 1e-9 on the
    default 5x5 mesh. Runtime < 1 s."""
    start = time.perf_counter()
    m = generate_structured_mesh(20, 10, 5, 5)
    coords = m.coords
    adiabatic = BoundaryConditionSet(
        left=BCKind.ADIABATIC, right=BCKind.ADIABATIC,
        top=BCKind.ADIABATIC, bottom=BCKind.ADIABATIC,
    )
    for a, b, c in [(7.0, 0.25, -0.4), (100.0, 0.0, 0.0), (-3.0, 1.5, 2.5)]:
        exact = a + b * coords[:, 0] + c * coords[:, 1]
        sys = assemble(m, PlateParameters(k=1.5, h=0.0, q=0.0, G=0.0), adiabatic)
        boundary = sorted({i for w in Wall for i in nodes_on_wall(m, w)})
        T = solve(apply_dirichlet(sys, boundary, exact[boundary]))
        assert np.abs(T.values - exact).max() <= 1e-9, (a, b, c)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"patch test took {elapsed:.2f}s"
    _pass("FEM patch test (affine exactness, 1e-9)")


def _manufactured_l2_error(n: int, W=20.0, H=10.0, k=1.5) -> float:
    """L2 norm of the nodal error field for the sine manufactured solution.

    The matching source is sampled at element centroids (exact enough to
    keep the quadratic rate); the norm is the exact L2 norm of the
    piecewise-linear error, i.e. sqrt(e' M e) with the consistent mass
    matrix.
    """
    m = generate_structured_mesh(W, H, n, n)
    coords = m.coords
    adiabatic = BoundaryConditionSet(
        left=BCKind.ADIABATIC, right=BCKind.ADIABATIC,
        top=BCKind.ADIABATIC, bottom=BCKind.ADIABATIC,
    )
    sys = assemble(m, PlateParameters(k=k, h=0.0, q=0.0, G=0.0), adiabatic)

    coef = k * np.pi**2 * (1.0 / W**2 + 1.0 / H**2)
    f = np.zeros(m.n_nodes)
    for tri in m.elements:
        idx = list(tri)
        cx, cy = coords[idx].mean(axis=0)
        g = coef * np.sin(np.pi * cx / W) * np.sin(np.pi * cy / H)
        f[idx] += element_source_vector(tri, coords, g)

    boundary = sorted({i for w in Wall for i in nodes_on_wall(m, w)})
    T = solve(apply_dirichlet(LinearSystem(sys.K, f), boundary, 0.0)).values

    e = T - np.sin(np.pi * coords[:, 0] / W) * np.sin(np.pi * coords[:, 1] / H)
    mass_e = (1.0 / 12.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    l2_sq = 0.0
    for tri in m.elements:
        idx = list(tri)
        (x0, y0), (x1, y1), (x2, y2) = coords[idx]
        area = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        ee = e[idx]
        l2_sq += area * (ee @ mass_e @ ee)
    return float(np.sqrt(l2_sq))


def test_manufactured_convergence():
    """Observed L2 convergence order >= 1.9 over 5x5 -> 10x10 -> 20x20.
    Runtime < 10 s."""
    start = time.perf_counter()
    errors = [_manufactured_l2_error(n) for n in (5, 10, 20)]
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9, f"errors {errors}, orders {orders}"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"convergence study took {elapsed:.2f}s"
    _pass(f"manufactured-solution convergence (orders {orders[0]:.3f}, {orders[1]:.3f})")


def test_analytic_linear_profile():
    """Left flux q=2, right wall fixed, h=0: every node matches
    T(x) = T_fixed + (q/k)(W - x) within 1e-8, for configurable k."""
    W = 20.0
    bc = BoundaryConditionSet(
        left=BCKind.FLUX, right=BCKind.DIRICHLET,
        top=BCKind.CONVECTION, bottom=BCKind.ADIABATIC,
    )
    for k in (1.5, 0.35, 4.0):
        m = generate_structured_mesh(W, 10.0, 5, 5)
        p = PlateParameters(k=k, G=0.0, h=0.0, q=2.0, t_inf=25.0, t_fixed=100.0)
        T = solve_crisp(m, p, bc)
        coords = m.coords
        exact = 100.0 + (2.0 / k) * (W - coords[:, 0])
        assert np.abs(T.values - exact).max() <= 1e-8, f"k={k}"
    _pass("analytic linear conduction profile (1e-8)")


def test_crisp_consistency_bitwise():
    """The alpha = 1 level of any fuzzy sweep equals the crisp solve
    bit-for-bit (same code path)."""
    m = generate_structured_mesh(20, 10, 5, 5)
    base = PlateParameters()
    bc = BoundaryConditionSet()
    crisp = solve_crisp(m, base, bc).values

    scenarios = [
        FuzzyScenario(h=tfn_from_tolerance(base.h, 0.05), q=base.q, t_inf=base.t_inf),
        FuzzyScenario(h=base.h, q=tfn_from_tolerance(base.q, 0.05), t_inf=base.t_inf),
        FuzzyScenario(
            h=tfn_from_tolerance(base.h, 0.05),
            q=tfn_from_tolerance(base.q, 0.05),
            t_inf=tfn_from_tolerance(base.t_inf, 0.02),
        ),
    ]
    for sc in scenarios:
        env = propagate(m, base, bc, sc)
        assert np.array_equal(env.crisp, crisp)
        assert np.array_equal(env.lower[-1], crisp)
        assert np.array_equal(env.upper[-1], crisp)
    _pass("crisp consistency (alpha=1 bit-for-bit)")


def test_vertex_vs_grid_oracle():
    """On a 2-triangle mesh with h and q fuzzy, 21x21 grid sampling of the
    alpha = 0 box reproduces the vertex-method min/max within 1e-8.
    Runtime < 5 s."""
    start = time.perf_counter()
    m = generate_structured_mesh(2.0, 1.0, 1, 1)
    base = PlateParameters(k=1.0, G=0.0, h=1.2, q=2.0, t_inf=25.0, t_fixed=100.0)
    bc = BoundaryConditionSet()
    h_tfn = tfn_from_tolerance(base.h, 0.05)
    q_tfn = tfn_from_tolerance(base.q, 0.05)

    sc = FuzzyScenario(h=h_tfn, q=q_tfn, t_inf=base.t_inf,
                       alpha_levels=AlphaLevels.uniform(2))
    env = propagate(m, base, bc, sc)

    samples = []
    for h in np.linspace(h_tfn.a_l, h_tfn.a_r, 21):
        for q in np.linspace(q_tfn.a_l, q_tfn.a_r, 21):
            p = PlateParameters(k=base.k, G=base.G, h=float(h), q=float(q),
                                t_inf=base.t_inf, t_fixed=base.t_fixed)
            samples.append(solve_crisp(m, p, bc).values)
    grid_lo = np.minimum.reduce(samples)
    grid_hi = np.maximum.reduce(samples)

    assert np.abs(grid_lo - env.lower[0]).max() <= 1e-8
    assert np.abs(grid_hi - env.upper[0]).max() <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"vertex-vs-grid oracle took {elapsed:.2f}s"
    _pass("vertex-vs-grid oracle (441 samples, 1e-8)")


def test_envelope_nesting_default_plate():
    """Default plate with h = 1.2 +/- 5% and q = 2 +/- 5%: all 11 alpha
    levels nested at every node within 1e-10."""
    m = generate_structured_mesh(20, 10, 5, 5)
    base = PlateParameters()
    sc = FuzzyScenario(
        h=tfn_from_tolerance(1.2, 0.05),
        q=tfn_from_tolerance(2.0, 0.05),
        t_inf=base.t_inf,
        alpha_levels=AlphaLevels.uniform(11),
    )
    env = propagate(m, base, BoundaryConditionSet(), sc)
    assert len(env.levels) == 11
    for li in range(10):
        assert np.all(env.lower[li + 1] >= env.lower[li] - 1e-10)
        assert np.all(env.upper[li + 1] <= env.upper[li] + 1e-10)
    _pass("envelope nesting across 11 alpha levels (1e-10)")


def test_sensitivity_pipeline_structural(tmp_path, capsys):
    """h-only and q-only sweeps on the default config emit two sensitivity
    reports and a comparison verdict; statistics agree with the per-node
    widths within 1e-12.  The measured h/q ordering is recorded in
    RESULTS.md, not asserted here."""
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[parameters]\nh = 1.2\nq = 2.0\n")
    cfg = parse_config(cfg_file)

    mesh = cfg.mesh()
    base = cfg.parameters()
    bc = cfg.boundary_conditions()
    reports = []
    for selector in ("h-only", "q-only"):
        env = propagate(mesh, base, bc, cfg.scenario(selector))
        reports.append(sensitivity(env, selector))

    for report in reports:
        assert np.all(report.widths >= 0.0)
        assert report.average_width == pytest.approx(
            float(np.mean(report.widths)), abs=1e-12
        )
        assert report.variance_of_widths == pytest.approx(
            float(np.mean((report.widths - report.average_width) ** 2)), abs=1e-12
        )

    verdict = compare_scenarios(reports[0], reports[1])
    assert verdict.summary()  # a verdict is always produced
    assert {reports[0].label, reports[1].label} == {"h-only", "q-only"}
    _pass("sensitivity pipeline (structural; ordering recorded in RESULTS.md)")


def test_rod_transient():
    """Backward-Euler diffusion rod reaches the analytic linear steady
    profile within 1e-6; the steady state is a fixed point to 1e-12 per
    step. Runtime < 2 s."""
    start = time.perf_counter()
    rod = Rod1D(1.0, 10, k=1.0, u1=0.0, Q_src=0.0)
    M, A, b = assemble_1d(rod)
    bc = EndConditions(0.0, 1.0)

    state = TransientState(0.0, np.zeros(rod.n_nodes))
    for _ in range(100):
        state = theta_step(M, A, b, state, dt=0.5, theta=1.0, bc=bc)
    assert np.abs(state.values - rod.node_positions()).max() <= 1e-6

    fixed = steady_state(A, b, bc)
    s = TransientState(0.0, fixed)
    for _ in range(5):
        s = theta_step(M, A, b, s, dt=0.7, theta=1.0, bc=bc)
        assert np.abs(s.values - fixed).max() <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"rod transient took {elapsed:.2f}s"
    _pass("1D transient rod (steady 1e-6, fixed point 1e-12)")


def test_determinism_across_worker_counts(tmp_path):
    """fuzzy-sweep runs with different worker counts produce byte-identical
    envelope.csv."""
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[parameters]\nh = 1.2\nq = 2.0\n")
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    assert main(
        ["fuzzy-sweep", "--config", str(cfg_file), "--out", str(out1),
         "--scenario", "all", "--workers", "1"]
    ) == 0
    assert main(
        ["fuzzy-sweep", "--config", str(cfg_file), "--out", str(out4),
         "--scenario", "all", "--workers", "4"]
    ) == 0
    b1 = (out1 / "envelope.csv").read_bytes()
    b4 = (out4 / "envelope.csv").read_bytes()
    assert b1 == b4 and len(b1) > 0
    _pass("determinism across worker counts (byte-identical envelope.csv)")
