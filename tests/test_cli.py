"""End-to-end tests of the command line front end."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fuzzyheat.cli import CliError, main, parse_config
from fuzzyheat.fem2d import BCKind


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """
[parameters]
h = 1.2
q = 2.0
"""

LINEAR_PROFILE = """
[material]
k = 1.5

[parameters]
h = 0.0
q = 2.0
t_fixed = 100.0

[boundary]
top = adiabatic
"""

SINGULAR = """
[boundary]
left = adiabatic
right = adiabatic
top = adiabatic
bottom = adiabatic
"""

ROD_DIFFUSION = """
[rod]
length = 1.0
n_elems = 10
k = 1.0
u1 = 0.0
dt = 0.5
steps = 100
theta = 1.0
left = 0.0
right = 1.0
initial = 0.0
"""


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# --- config parsing -----------------------------------------------------------


def test_minimal_config_fills_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL))
    assert (cfg.width_cm, cfg.height_cm, cfg.nx, cfg.ny) == (20.0, 10.0, 5, 5)
    assert len(cfg.mesh().elements) == 50
    assert cfg.left is BCKind.FLUX
    assert cfg.right is BCKind.DIRICHLET
    assert cfg.h == 1.2 and cfg.q == 2.0
    assert cfg.h_pct == 0.05
    assert cfg.alpha_level_count == 11


def test_unknown_key_rejected_by_name(tmp_path):
    path = write_config(tmp_path, "[plate]\nwidht_cm = 20\n")
    with pytest.raises(CliError, match="widht_cm") as info:
        parse_config(path)
    assert info.value.category == "config-error"


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(CliError, match="mystery"):
        parse_config(write_config(tmp_path, "[mystery]\nx = 1\n"))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CliError, match="not found"):
        parse_config(tmp_path / "nope.ini")


def test_duplicate_key_rejected(tmp_path):
    path = write_config(tmp_path, "[boundary]\nleft = flux\nleft = dirichlet\n")
    with pytest.raises(CliError) as info:
        parse_config(path)
    assert info.value.category == "config-error"


def test_bad_boundary_kind_rejected(tmp_path):
    with pytest.raises(CliError, match="boundary kind"):
        parse_config(write_config(tmp_path, "[boundary]\nleft = roasting\n"))


def test_negative_k_rejected(tmp_path):
    with pytest.raises(CliError, match="k must be positive"):
        parse_config(write_config(tmp_path, "[material]\nk = -1.0\n"))


def test_single_alpha_level_rejected(tmp_path):
    with pytest.raises(CliError, match="alpha_levels"):
        parse_config(write_config(tmp_path, "[fuzzy]\nalpha_levels = 1\n"))


def test_non_numeric_value_rejected(tmp_path):
    with pytest.raises(CliError, match=r"\[plate\] nx"):
        parse_config(write_config(tmp_path, "[plate]\nnx = five\n"))


def test_rod_free_end(tmp_path):
    cfg = parse_config(write_config(tmp_path, "[rod]\nright = free\n"))
    assert cfg.rod.right is None
    assert cfg.rod.left == 0.0


def test_scenario_selector_validation(tmp_path):
    cfg = parse_config(
        write_config(tmp_path, "[fuzzy]\nh_fuzzy = false\nq_fuzzy = false\n")
    )
    with pytest.raises(CliError) as info:
        cfg.scenario("custom")
    assert info.value.category == "invalid-scenario"
    # Named selectors still work: they force their parameter fuzzy.
    sc = cfg.scenario("h-only")
    assert sc.fuzzy_names() == ["h"]
    sc = cfg.scenario("all")
    assert sc.fuzzy_names() == ["h", "q", "t_inf"]


# --- solve command ---------------------------------------------------------------


def test_solve_writes_nodes_and_temperature(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = read_csv(out / "nodes.csv")
    assert header == ["node_id", "x_cm", "y_cm"]
    assert len(rows) == 36
    header, rows = read_csv(out / "temperature.csv")
    assert header == ["node_id", "T"]
    assert len(rows) == 36
    assert "temperature: min" in capsys.readouterr().out


def test_solve_matches_linear_profile(tmp_path):
    cfg_path = write_config(tmp_path, LINEAR_PROFILE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
    _, node_rows = read_csv(out / "nodes.csv")
    _, temp_rows = read_csv(out / "temperature.csv")
    x = {row[0]: float(row[1]) for row in node_rows}
    for node_id, t in temp_rows:
        expected = 100.0 + (2.0 / 1.5) * (20.0 - x[node_id])
        assert float(t) == pytest.approx(expected, abs=1e-6)


def test_solve_reruns_are_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, MINIMAL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "temperature.csv").read_bytes() == (out2 / "temperature.csv").read_bytes()
    assert (out1 / "nodes.csv").read_bytes() == (out2 / "nodes.csv").read_bytes()


@pytest.mark.parametrize("command", [
    pytest.param(["solve"], id="solve"),
    pytest.param(["fuzzy-sweep", "--workers", "1"], id="fuzzy-sweep"),
    pytest.param(["fuzzy-sweep", "--workers", "2"], id="fuzzy-sweep-workers-2"),
])
def test_solve_singular_system_reports_category(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, SINGULAR)
    code = main(command[:1] + ["--config", cfg_path, "--out", str(tmp_path / "out")]
                + command[1:])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: singular-system:")
    assert err.count("\n") == 1  # a single line


def test_solve_mean_is_finite_at_huge_temperatures(tmp_path, capsys):
    """The temperatures are finite and so is their mean, though their
    plain sum overflows."""
    cfg_path = write_config(tmp_path, "[parameters]\nt_fixed = 1e308\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
    mean = float(capsys.readouterr().out.split("mean ")[1])
    _, rows = read_csv(out / "temperature.csv")
    expected = math.fsum(float(t) / 16 for _, t in rows) / len(rows) * 16
    assert math.isfinite(mean)
    assert mean == pytest.approx(expected, rel=1e-8)


def test_config_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, "[material]\nk = -2\n")
    code = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: config-error:")


# --- fuzzy-sweep command -----------------------------------------------------------


def test_sweep_single_scenario_outputs(tmp_path):
    cfg_path = write_config(tmp_path, MINIMAL + "\n[fuzzy]\nalpha_levels = 5\n")
    out = tmp_path / "out"
    assert main(
        ["fuzzy-sweep", "--config", cfg_path, "--out", str(out), "--scenario", "h-only"]
    ) == 0
    header, rows = read_csv(out / "envelope.csv")
    assert header == ["node_id", "alpha", "lower", "upper"]
    assert len(rows) == 36 * 5
    # each node carries each configured level exactly once
    per_node = {}
    for node_id, alpha, lo, hi in rows:
        per_node.setdefault(node_id, []).append(alpha)
        assert float(lo) <= float(hi)
    for alphas in per_node.values():
        assert alphas == ["0", "0.25", "0.5", "0.75", "1"]

    header, rows = read_csv(out / "sensitivity.csv")
    assert header == ["scenario", "node_id", "width"]
    assert rows[-2][1] == "average_width"
    assert rows[-1][1] == "variance"
    widths = [float(r[2]) for r in rows[:-2]]
    assert float(rows[-2][2]) == pytest.approx(np.mean(widths), rel=1e-6)


def test_sweep_two_scenarios_compared(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    code = main(
        [
            "fuzzy-sweep", "--config", cfg_path, "--out", str(out),
            "--scenario", "h-only", "--scenario", "q-only",
        ]
    )
    assert code == 0
    for name in ("h-only", "q-only"):
        assert (out / name / "envelope.csv").is_file()
        assert (out / name / "sensitivity.csv").is_file()
    stdout = capsys.readouterr().out
    assert "more sensitive by average width:" in stdout or "by average width: tie" in stdout


def test_sweep_all_crisp_rejected_with_guidance(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path, "[fuzzy]\nh_fuzzy = false\nq_fuzzy = false\nt_inf_fuzzy = false\n"
    )
    code = main(["fuzzy-sweep", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-scenario:")
    assert "h_fuzzy" in err


def test_sweep_duplicate_scenario_rejected(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    code = main(
        [
            "fuzzy-sweep", "--config", cfg_path, "--out", str(tmp_path / "o"),
            "--scenario", "h-only", "--scenario", "h-only",
        ]
    )
    assert code == 3


def test_sweep_worker_count_is_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, MINIMAL)
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    assert main(
        ["fuzzy-sweep", "--config", cfg_path, "--out", str(out1),
         "--scenario", "all", "--workers", "1"]
    ) == 0
    assert main(
        ["fuzzy-sweep", "--config", cfg_path, "--out", str(out4),
         "--scenario", "all", "--workers", "4"]
    ) == 0
    assert (out1 / "envelope.csv").read_bytes() == (out4 / "envelope.csv").read_bytes()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_workers_below_one(tmp_path, capsys, workers):
    cfg_path = write_config(tmp_path, MINIMAL)
    code = main(["fuzzy-sweep", "--config", cfg_path, "--out", str(tmp_path / "out"),
                 "--workers", workers])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: config-error: --workers must be >= 1, got {workers}\n"
    assert not (tmp_path / "out").exists()


def test_cli_import_does_not_load_scipy_sparse():
    """``scipy.sparse`` would add about a fifth to the CLI start-up time."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, fuzzyheat.cli; print([m for m in sys.modules if 'scipy.sparse' in m])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# --- rod command ----------------------------------------------------------------------


def test_rod_reaches_linear_steady_profile(tmp_path):
    cfg_path = write_config(tmp_path, ROD_DIFFUSION)
    out = tmp_path / "out"
    assert main(["rod", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = read_csv(out / "rod_timeseries.csv")
    assert header[0] == "time" and header[1] == "node_0"
    assert len(rows) == 101  # initial state plus one row per step
    final = np.array([float(v) for v in rows[-1][1:]])
    expected = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(final, expected, atol=1e-6)


ROD_CONVECTION = """
[rod]
length = 10.0
n_elems = 100
k = 0.0
u1 = 1.0
dt = {dt}
steps = {steps}
theta = 1.0
left = 1.0
right = free
initial = 0.0
"""


def _front(header, row, level=0.5):
    """Interpolated 0.5-crossing of the final profile; x from node index."""
    phi = [float(v) for v in row[1:]]
    x = np.linspace(0.0, 10.0, len(phi))
    for i in range(len(phi) - 1):
        if (phi[i] - level) * (phi[i + 1] - level) <= 0.0 and phi[i] != phi[i + 1]:
            return x[i] + (phi[i] - level) / (phi[i] - phi[i + 1]) * (x[i + 1] - x[i])
    raise AssertionError("no front found")


def test_rod_convection_front_displacement(tmp_path):
    """Inflow front travels at u1 (within 5% of u1*t at small Courant),
    cross-checked against a fine-step run of the same pipeline."""
    out_c, out_f = tmp_path / "coarse", tmp_path / "fine"
    coarse_cfg = write_config(tmp_path, ROD_CONVECTION.format(dt=0.02, steps=100), "c.ini")
    fine_cfg = write_config(tmp_path, ROD_CONVECTION.format(dt=0.002, steps=1000), "f.ini")
    assert main(["rod", "--config", coarse_cfg, "--out", str(out_c)]) == 0
    assert main(["rod", "--config", fine_cfg, "--out", str(out_f)]) == 0

    header, rows_c = read_csv(out_c / "rod_timeseries.csv")
    _, rows_f = read_csv(out_f / "rod_timeseries.csv")
    front_c = _front(header, rows_c[-1])
    front_f = _front(header, rows_f[-1])
    t_final = 2.0
    assert front_c == pytest.approx(1.0 * t_final, rel=0.05)
    assert front_c == pytest.approx(front_f, abs=0.05)


def test_rod_zero_steps_echoes_initial_condition(tmp_path):
    cfg_path = write_config(
        tmp_path, "[rod]\nsteps = 0\ninitial = 0.75\nleft = free\nright = free\n"
    )
    out = tmp_path / "out"
    assert main(["rod", "--config", cfg_path, "--out", str(out)]) == 0
    _, rows = read_csv(out / "rod_timeseries.csv")
    assert len(rows) == 1
    assert rows[0][0] == "0"
    assert all(v == "0.75" for v in rows[0][1:])


@pytest.mark.parametrize("command", ["solve", "fuzzy-sweep"])
@pytest.mark.parametrize(
    "section,key", [("parameters", "q"), ("parameters", "t_inf"), ("material", "k"), ("rod", "dt")]
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_is_config_error(tmp_path, capsys, command, section, key, value):
    path = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
    code = main([command, "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config-error: bad value for [{section}] {key}:")
    assert err.count("\n") == 1
