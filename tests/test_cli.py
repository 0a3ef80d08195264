"""End-to-end tests of the command line front end."""

import hashlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fuzzyheat.cli import CliError, main, parse_config
from fuzzyheat.fem2d import AffinePlate, BCKind


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
    """The all-adiabatic plate's band Cholesky fails as the plate is
    built, which does not depend on h: every command prints the line
    that ``solve`` prints, naming no alpha or h."""
    cfg_path = write_config(tmp_path, SINGULAR)
    lines = []
    for argv in (["solve"], command):
        code = main(argv[:1] + ["--config", cfg_path, "--out", str(tmp_path / "out")] + argv[1:])
        assert code == 4
        lines.append(capsys.readouterr().err)
    assert lines[0].startswith("error: singular-system: matrix not positive definite")
    assert lines[0].count("\n") == 1  # a single line
    assert lines[1] == lines[0]


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
    lines = stdout.splitlines()
    assert len(lines) == 4  # one summary line per scenario, then one verdict per metric
    for name in ("h-only", "q-only"):
        assert sum(line.startswith(f"{name}: average width ") for line in lines) == 1


def test_sweep_all_crisp_rejected_with_guidance(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path, "[fuzzy]\nh_fuzzy = false\nq_fuzzy = false\nt_inf_fuzzy = false\n"
    )
    code = main(["fuzzy-sweep", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-scenario:")
    assert "h_fuzzy" in err


@pytest.mark.parametrize("selector", ["custom", "h-only", "all"])
def test_fuzzy_h_below_zero_is_invalid_scenario(tmp_path, capsys, selector):
    cfg_path = write_config(tmp_path, "[fuzzy]\nh_pct = 1.5\n")
    out = tmp_path / "out"
    code = main(["fuzzy-sweep", "--config", cfg_path, "--out", str(out), "--scenario", selector])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-scenario: fuzzy h goes below 0:")
    assert err.count("\n") == 1
    assert not out.exists()


def test_fuzzy_h_down_to_zero_is_accepted(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "[fuzzy]\nh_pct = 1\n")
    code = main(["fuzzy-sweep", "--config", cfg_path, "--out", str(tmp_path / "out"),
                 "--scenario", "h-only"])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_every_scenario_is_checked_before_any_output(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "[fuzzy]\nh_pct = 1.5\n")
    out = tmp_path / "out"
    code = main(["fuzzy-sweep", "--config", cfg_path, "--out", str(out),
                 "--scenario", "q-only", "--scenario", "h-only"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid-scenario: fuzzy h goes below 0:")
    assert captured.err.count("\n") == 1
    assert not out.exists()


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


def test_sweep_factors_on_the_calling_thread_for_any_worker_count(tmp_path, monkeypatch):
    threads = []
    original = AffinePlate.sweep

    def recording(*args):
        for item in original(*args):
            threads.append(threading.get_ident())
            yield item

    monkeypatch.setattr(AffinePlate, "sweep", recording)
    cfg_path = write_config(tmp_path, MINIMAL)
    assert main(["fuzzy-sweep", "--config", cfg_path, "--out", str(tmp_path / "out"),
                 "--workers", "2"]) == 0
    assert len(threads) == 21  # default h+q sweep: one factorization per distinct h
    assert set(threads) == {threading.get_ident()}


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_workers_below_one(tmp_path, capsys, workers):
    cfg_path = write_config(tmp_path, MINIMAL)
    code = main(["fuzzy-sweep", "--config", cfg_path, "--out", str(tmp_path / "out"),
                 "--workers", workers])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: config-error: --workers must be >= 1, got {workers}\n"
    assert not (tmp_path / "out").exists()


# SHA-256 of output files recorded with the earlier per-step dense rod solve
# and per-value CSV writes; they pin the factored rod stepper and the
# streaming writers to the same bytes.  rod-theta-1 holds one value that
# lies 5e-16 from a rounding tie: node_5 at t = 0.0985, 0.02985936695.  The
# band LU (dgbtrs) put it on the other side (0.029859367); the tridiagonal
# solve (dgttrs) prints 0.0298593669 again, as the dense solve did.
ROD_GOLDEN = "[rod]\nn_elems = 40\nsteps = 200\ndt = 5e-4\nu1 = 0.5\ntheta = {}\n"
GOLDEN = {
    "rod-theta-1": (ROD_GOLDEN.format(1.0), ["rod"], {
        "rod_timeseries.csv": "54a0af3f6268359e8112370d67f892e923f254c07638c2b12c2ca1372e5cb7c1",
    }),
    "rod-theta-0.5": (ROD_GOLDEN.format(0.5), ["rod"], {
        "rod_timeseries.csv": "17f5665d0b162aa2327b2907bedf3153b05508608216f5f98eaa49ac93f73c7f",
    }),
    "sweep-all-5x5": ("", ["fuzzy-sweep", "--scenario", "all"], {
        "envelope.csv": "10e549f2c37ffcdcff63036d1e180a194c9ca3e6f54fa961466b6e2aff3a9c37",
        "sensitivity.csv": "4375dbda48b68343a2be22b610b81015b1b0e9c0bcab8bffa28be8bc874b6885",
    }),
    "solve-5x5": ("", ["solve"], {
        "nodes.csv": "e7e388362d66678a4c10d479c5ad2f68d1277de9e392367decbca03f2b3b530b",
        "temperature.csv": "895fc3b9e2857de4ee9a2f0cdeaf5b902fb312cf3b2d9043b45c4bdbe06de75c",
    }),
    # 162 of the 396 envelope rows hold a negative bound.
    "sweep-negative-q": ("[parameters]\nq = -30\n", ["fuzzy-sweep", "--scenario", "q-only"], {
        "envelope.csv": "afadbdfe2f59495f6ebe0daf6518cae3f99d1dad64f0f0093c807d0da15c2a16",
        "sensitivity.csv": "6df683c2319056e914a22be4d3ba92a30b0d5f388e3ec09d59afd4f52c1f143f",
    }),
    # Times from 1e-05 and early temperatures down to 1e-9: 415 exponent-form values.
    "rod-exponents": (
        "[rod]\nn_elems = 20\nsteps = 30\ndt = 1e-5\nu1 = 0.5\ntheta = 0.5\n", ["rod"], {
            "rod_timeseries.csv": "c9ca83862dc3aedbe06d0659b4c54af911a6d68cf4eee6c90d0c54d38b73891c",
        }),
    # Sweeps beyond the 5x5 one-wall plate: the 40x40 default; three
    # convective walls with a 30 % h, two scenarios in subfolders; and a
    # plate without a convective wall, which is solved at one h only.
    "sweep-custom-40x40": ("[plate]\nnx = 40\nny = 40\n", ["fuzzy-sweep"], {
        "envelope.csv": "24917a7338369a200182481cea60b9b1546ed7eaed855108a2fb559c36e54ecf",
        "sensitivity.csv": "3b3125453fbf077fb7a1805b7ceb650c9b7ad401dab8c5ae5dce4864d9ae8cce",
    }),
    "sweep-three-walls": (
        "[plate]\nnx = 6\nny = 4\n[boundary]\nleft = convection\nright = convection\n"
        "top = convection\nbottom = dirichlet\n[fuzzy]\nh_pct = 0.3\n",
        ["fuzzy-sweep", "--scenario", "all", "--scenario", "tinf-only"], {
            "all/envelope.csv":
                "90fc213a865819638e682f7c4837728960484d71f2411c4840bb336daf8b0096",
            "all/sensitivity.csv":
                "96e1d5d10c511a18ddbad4c47e95252475ca09783a0668576489f4cc12ed4727",
            "tinf-only/envelope.csv":
                "b15feded614b0c39d3d6376ac2a164541f717b92155cf74fdacd05f272c64b09",
            "tinf-only/sensitivity.csv":
                "95a1b9e9c2df5ed7c7e7dcb42c41c5e93605ca6e36fc0a001ce4220da6496fb8",
        }),
    "sweep-no-wall": (
        "[boundary]\ntop = adiabatic\n",
        ["fuzzy-sweep", "--scenario", "all", "--scenario", "h-only"], {
            "all/envelope.csv":
                "b71ffe1f386495303c87820a7a5b2efef1ed09d6059aa4f292c9599287ddb375",
            "all/sensitivity.csv":
                "7fe6f5232bf7e5aa2ac58aaff2a41646dd649a7634ffc5aead190d00a8c4a229",
            "h-only/envelope.csv":
                "209a411a29a74c0af2caee3b75d7caa2cf4fbcfa4487c97d2a5be1284fa835be",
            "h-only/sensitivity.csv":
                "719ce8297e73d012d36d35b1f4821eefd8861b39ea2a4fe980e28e0153bef958",
        }),
}


@pytest.mark.parametrize("case", GOLDEN)
def test_outputs_match_golden_bytes(tmp_path, case):
    text, command, digests = GOLDEN[case]
    out = tmp_path / "out"
    assert main([command[0], "--config", write_config(tmp_path, text), "--out", str(out)]
                + command[1:]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# Packages the CLI does not use.  ``scipy.sparse`` would add about a fifth
# to its start-up time, and ``scipy.linalg`` about half: on scipy 1.17 it
# loads ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``.  ``scipy``
# itself loads ``subprocess``, ``sysconfig`` and ``scipy._lib``; the LAPACK
# and BLAS extension modules are loaded without it.  ``np.unique`` and
# ``np.setdiff1d`` load ``numpy.ma`` too.
UNUSED = ("scipy", "scipy.linalg", "scipy.sparse", "numpy.ma", "numpy.f2py", "numpy.testing")
LOADED = ("[m for m in sys.modules "
          f"if any(m == p or m.startswith(p + '.') for p in {UNUSED!r})]")


def run_python(code):
    """Standard output of ``code`` run by a fresh interpreter on ``src/``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_does_not_load_scipy_sparse():
    assert run_python(f"import sys, fuzzyheat.cli; print({LOADED})") == "[]\n"


def test_cli_commands_load_no_unused_package(tmp_path):
    """Running ``solve``, ``fuzzy-sweep`` and ``rod`` loads none of them either."""
    config = write_config(tmp_path, "[plate]\nnx = 3\nny = 2\n[rod]\nn_elems = 4\nsteps = 3\n")
    commands = [["solve"], ["fuzzy-sweep", "--scenario", "all"], ["rod"]]
    code = (
        "import sys\n"
        "from fuzzyheat.cli import main\n"
        f"for command in {commands!r}:\n"
        f"    argv = [command[0], '--config', {config!r}, '--out', {str(tmp_path / 'out')!r}]\n"
        "    assert main(argv + command[1:]) == 0\n"
        f"print({LOADED})\n"
    )
    assert run_python(code).splitlines()[-1] == "[]"


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


@pytest.mark.parametrize("command", ["solve", "fuzzy-sweep", "rod"])
@pytest.mark.parametrize("data", [
    pytest.param(b"[plate]\nnx = 5 \xe9\n", id="latin-1"),
    pytest.param("[plate]\nnx = 5\n".encode("utf-16"), id="utf-16-bom"),
])
def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys, command, data):
    path = tmp_path / "run.ini"
    path.write_bytes(data)
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config-error: cannot parse {path}: ")
    assert err.count("\n") == 1
