"""Tests for fuzzy propagation, envelopes, and sensitivity statistics."""

import numpy as np
import pytest

from fuzzyheat.fem2d import (
    AffinePlate,
    BCKind,
    BoundaryConditionSet,
    PlateParameters,
    SingularSystemError,
    solve_crisp,
)
from fuzzyheat.fuzzy import AlphaLevels, TriangularFuzzyNumber, tfn_from_tolerance
from fuzzyheat.mesh import generate_structured_mesh, nodes_on_wall, Wall
from fuzzyheat.uq import (
    FuzzyScenario,
    FuzzyTemperatureField,
    SensitivityReport,
    compare_scenarios,
    mean_power,
    propagate,
    sensitivity,
)

DEFAULT_BC = BoundaryConditionSet()


def default_plate():
    return generate_structured_mesh(20, 10, 5, 5), PlateParameters(), DEFAULT_BC


# --- scenario plumbing ------------------------------------------------------


def test_scenario_cut_mixes_crisp_and_fuzzy():
    sc = FuzzyScenario(h=tfn_from_tolerance(1.2, 0.05), q=2.0, t_inf=25.0)
    cuts = sc.cut(0.0)
    assert cuts["h"].lo == pytest.approx(1.14, abs=1e-12)
    assert cuts["q"].lo == cuts["q"].hi == 2.0
    assert sc.fuzzy_names() == ["h"]


def test_scenario_unknown_parameter_rejected():
    sc = FuzzyScenario(h=1.0, q=1.0, t_inf=1.0)
    with pytest.raises(KeyError):
        sc.entry("k")


# --- propagation -------------------------------------------------------------


def test_all_crisp_scenario_gives_degenerate_envelopes():
    mesh, base, bc = default_plate()
    sc = FuzzyScenario(h=base.h, q=base.q, t_inf=base.t_inf,
                       alpha_levels=AlphaLevels.uniform(3))
    env = propagate(mesh, base, bc, sc)
    crisp = solve_crisp(mesh, base, bc).values
    for li in range(len(env.levels)):
        np.testing.assert_array_equal(env.lower[li], crisp)
        np.testing.assert_array_equal(env.upper[li], crisp)


def test_linear_response_envelope_is_scaled_support():
    """Left flux q with right wall pinned at 0 and no convection gives
    T(0) = (W/k) * q exactly; with W/k = 2 the response at the left wall
    is T = 2q, so a (1,2,3) fuzzy q maps to the envelope [2, 6]."""
    mesh = generate_structured_mesh(2.0, 1.0, 2, 2)
    base = PlateParameters(k=1.0, G=0.0, h=0.0, q=2.0, t_inf=0.0, t_fixed=0.0)
    bc = BoundaryConditionSet(
        left=BCKind.FLUX, right=BCKind.DIRICHLET,
        top=BCKind.ADIABATIC, bottom=BCKind.ADIABATIC,
    )
    sc = FuzzyScenario(h=0.0, q=TriangularFuzzyNumber(1.0, 2.0, 3.0), t_inf=0.0,
                       alpha_levels=AlphaLevels.uniform(3))
    env = propagate(mesh, base, bc, sc)
    for node in nodes_on_wall(mesh, Wall.LEFT):
        iv0 = env.interval_at(0.0, node)
        assert iv0.lo == pytest.approx(2.0, abs=1e-8)
        assert iv0.hi == pytest.approx(6.0, abs=1e-8)
        iv1 = env.interval_at(1.0, node)
        assert iv1.lo == iv1.hi == pytest.approx(4.0, abs=1e-8)


def test_envelopes_nest_across_alpha_levels():
    mesh, base, bc = default_plate()
    sc = FuzzyScenario(h=tfn_from_tolerance(1.2, 0.05), q=base.q, t_inf=base.t_inf)
    env = propagate(mesh, base, bc, sc)
    for li in range(len(env.levels) - 1):
        assert np.all(env.lower[li + 1] >= env.lower[li] - 1e-10)
        assert np.all(env.upper[li + 1] <= env.upper[li] + 1e-10)


def test_modal_level_is_bitwise_crisp_solve():
    mesh, base, bc = default_plate()
    sc = FuzzyScenario(
        h=tfn_from_tolerance(base.h, 0.05),
        q=tfn_from_tolerance(base.q, 0.05),
        t_inf=base.t_inf,
    )
    env = propagate(mesh, base, bc, sc)
    crisp = solve_crisp(mesh, base, bc).values
    np.testing.assert_array_equal(env.crisp, crisp)
    np.testing.assert_array_equal(env.lower[-1], crisp)
    np.testing.assert_array_equal(env.upper[-1], crisp)


def test_random_samples_inside_zero_alpha_box_stay_inside_envelope():
    mesh, base, bc = default_plate()
    h_tfn = tfn_from_tolerance(base.h, 0.05)
    q_tfn = tfn_from_tolerance(base.q, 0.05)
    sc = FuzzyScenario(h=h_tfn, q=q_tfn, t_inf=base.t_inf,
                       alpha_levels=AlphaLevels.uniform(2))
    env = propagate(mesh, base, bc, sc)

    rng = np.random.default_rng(20240817)
    for _ in range(50):
        h = rng.uniform(h_tfn.a_l, h_tfn.a_r)
        q = rng.uniform(q_tfn.a_l, q_tfn.a_r)
        sample = solve_crisp(
            mesh,
            PlateParameters(k=base.k, G=base.G, h=h, q=q,
                            t_inf=base.t_inf, t_fixed=base.t_fixed),
            bc,
        ).values
        assert np.all(sample >= env.lower[0] - 1e-8)
        assert np.all(sample <= env.upper[0] + 1e-8)


def test_worker_count_does_not_change_results():
    mesh, base, bc = default_plate()
    sc = FuzzyScenario(h=tfn_from_tolerance(base.h, 0.05),
                       q=tfn_from_tolerance(base.q, 0.05), t_inf=base.t_inf)
    one = propagate(mesh, base, bc, sc, workers=1)
    four = propagate(mesh, base, bc, sc, workers=4)
    np.testing.assert_array_equal(one.lower, four.lower)
    np.testing.assert_array_equal(one.upper, four.upper)
    np.testing.assert_array_equal(one.crisp, four.crisp)


def test_failed_vertex_identified():
    # h = 0 at the lower vertex makes the system pure Neumann (singular):
    # no fixed wall, no convection once h vanishes.
    mesh = generate_structured_mesh(1.0, 1.0, 1, 1)
    base = PlateParameters(k=1.0, G=0.0, h=0.5, q=1.0, t_inf=25.0)
    bc = BoundaryConditionSet(
        left=BCKind.FLUX, right=BCKind.ADIABATIC,
        top=BCKind.CONVECTION, bottom=BCKind.ADIABATIC,
    )
    sc = FuzzyScenario(h=TriangularFuzzyNumber(0.0, 0.5, 1.0), q=1.0, t_inf=25.0,
                       alpha_levels=AlphaLevels.uniform(2))
    with pytest.raises(SingularSystemError, match="h=0"):
        propagate(mesh, base, bc, sc)


@pytest.mark.parametrize("h,q,solves", [
    # A crisp h written as a fuzzy number: every level cuts to 1.2.
    (TriangularFuzzyNumber(1.2, 1.2, 1.2), 2.0, 1),
    # A zero-width right leg: every level shares the corner q = 2.0, so
    # 10 lower bounds plus 2.0 make 11 distinct corners of 21.
    (1.2, TriangularFuzzyNumber(1.9, 2.0, 2.0), 11),
])
def test_sweep_solves_each_distinct_corner_once(monkeypatch, h, q, solves):
    corners = []
    original = AffinePlate.solve

    def counting(self, factor, q, t_inf):
        corners.append((factor.h, q, t_inf))
        return original(self, factor, q, t_inf)

    monkeypatch.setattr(AffinePlate, "solve", counting)
    mesh, base, bc = default_plate()
    propagate(mesh, base, bc, FuzzyScenario(h=h, q=q, t_inf=25.0))
    assert len(corners) == len(set(corners)) == solves


# --- envelope container -------------------------------------------------------


def synthetic_field(widths, center=10.0):
    widths = np.asarray(widths, dtype=float)
    crisp = np.full(widths.shape, center)
    lower = np.vstack([crisp - widths / 2.0, crisp])
    upper = np.vstack([crisp + widths / 2.0, crisp])
    return FuzzyTemperatureField((0.0, 1.0), lower, upper, crisp)


def test_field_shape_validation():
    with pytest.raises(ValueError):
        FuzzyTemperatureField((0.0, 1.0), np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(2))


def test_field_accessors():
    field = synthetic_field([1.0, 2.0, 3.0])
    assert field.n_nodes == 3
    assert field.level_index(1.0) == 1
    with pytest.raises(KeyError):
        field.level_index(0.25)
    iv = field.interval_at(0.0, 2)
    assert iv.width == pytest.approx(3.0, abs=1e-12)


# --- sensitivity ---------------------------------------------------------------


def test_sensitivity_hand_statistics():
    report = sensitivity(synthetic_field([1.0, 2.0, 3.0]), "demo")
    assert report.average_width == pytest.approx(2.0, abs=1e-12)
    assert report.variance_of_widths == pytest.approx(2.0 / 3.0, abs=1e-12)
    np.testing.assert_allclose(report.widths, [1.0, 2.0, 3.0], atol=1e-12)


def test_sensitivity_all_crisp_field():
    report = sensitivity(synthetic_field([0.0, 0.0]), "crisp")
    assert report.average_width == 0.0
    assert report.variance_of_widths == 0.0


def test_sensitivity_scaling_law():
    base = sensitivity(synthetic_field([1.0, 2.0, 3.0]), "x1")
    doubled = sensitivity(synthetic_field([2.0, 4.0, 6.0]), "x2")
    assert doubled.average_width == pytest.approx(2.0 * base.average_width, rel=1e-12)
    assert doubled.variance_of_widths == pytest.approx(
        4.0 * base.variance_of_widths, rel=1e-12
    )


def test_sensitivity_average_is_finite_at_huge_widths():
    report = sensitivity(synthetic_field([1e308, 1e308, 1.5e308], center=0.0), "huge")
    assert report.average_width == pytest.approx(3.5 / 3 * 1e308, rel=1e-15)
    # The deviations are about 3e307, so the true variance is beyond the float range.
    assert report.variance_of_widths == np.inf


def test_mean_power_is_finite_whenever_the_true_value_is():
    assert mean_power(np.full(5, 1e308)) == 1e308
    assert mean_power(np.array([1e308, 1e308, -1e308, -1e308])) == 0.0
    # Squares of 1e155 overflow, but their mean over 100 values does not.
    assert mean_power(np.array([1e155] + [0.0] * 99), 2) == pytest.approx(1e308, rel=1e-14)
    assert mean_power(np.full(3, 1e200), 2) == np.inf
    assert np.isnan(mean_power(np.array([np.inf, -np.inf])))


def test_mean_power_matches_numpy_bit_for_bit_on_ordinary_values():
    x = np.random.default_rng(3).normal(50.0, 20.0, 1001)
    assert mean_power(x) == float(np.mean(x))
    assert mean_power(x - 50.0, 2) == float(np.mean((x - 50.0) ** 2))


# --- comparison -----------------------------------------------------------------


def report(label, avg, var, n=3):
    return SensitivityReport(label, np.full(n, avg), avg, var)


def test_comparison_by_average_width():
    cmp = compare_scenarios(report("h-only", 0.3748, 0.046), report("q-only", 0.4694, 0.194))
    assert cmp.more_sensitive_by_average == "q-only"
    assert cmp.more_sensitive_by_variance == "q-only"
    assert "more sensitive by average width: q-only" in cmp.summary()


def test_comparison_tie_reported():
    cmp = compare_scenarios(report("a", 0.5, 0.1), report("b", 0.5, 0.1))
    assert cmp.more_sensitive_by_average is None
    assert cmp.more_sensitive_by_variance is None
    assert "tie" in cmp.summary()


def test_comparison_mixed_verdict():
    cmp = compare_scenarios(report("a", 0.6, 0.1), report("b", 0.5, 0.2))
    assert cmp.more_sensitive_by_average == "a"
    assert cmp.more_sensitive_by_variance == "b"


def test_comparison_rejects_mismatched_nodes():
    with pytest.raises(ValueError):
        compare_scenarios(report("a", 1.0, 0.0, n=3), report("b", 1.0, 0.0, n=4))
