"""The command line failure contract: success with an empty stderr, or
exactly one ``error: <category>: <message>`` line and the category's
exit code, whatever the config holds."""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyheat import cli, fem2d, memory
from fuzzyheat._lapack import lapack
from fuzzyheat.fem2d import BCKind

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv, out=None):
    """``cli.main`` in-process, stdout into ``out`` if given; any warning fails the run."""
    out, err = out or io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, err.getvalue()


def assert_contract(code, err):
    if code == 0:
        assert err == ""
        return
    assert err.count("\n") == 1 and err.endswith("\n"), err
    match = re.match(r"error: ([a-z-]+): ", err)
    assert match, err
    assert cli._EXIT_CODES[match.group(1)] == code, err


@pytest.mark.parametrize("command", [["solve"], ["fuzzy-sweep", "--workers", "2"]])
@pytest.mark.parametrize("key,value", [("q", "1e308"), ("q", "-1e308"), ("t_inf", "1e308")])
def test_overflowing_loads_are_solver_errors(tmp_path, command, key, value):
    config = tmp_path / "run.ini"
    config.write_text(f"[parameters]\n{key} = {value}\n")
    code, err = run([command[0], "--config", str(config), "--out", str(tmp_path / "out")]
                    + command[1:])
    assert code == 4
    assert err.startswith("error: solver-error: ") and err.count("\n") == 1
    assert_contract(code, err)


@pytest.mark.parametrize("config,scenario", [
    ("[fuzzy]\nq_pct = 1e307\n", "q-only"),
    ("[fuzzy]\nq_pct = 1e307\n", "all"),
    ("[parameters]\nt_inf = 1\n[fuzzy]\nt_inf_pct = 1.5e308\n", "tinf-only"),
], ids=["q_pct-q-only", "q_pct-all", "t_inf_pct-tinf-only"])
def test_envelopes_beyond_the_float_range_are_solver_errors(tmp_path, config, scenario):
    """Every solve at a distinct h succeeds here; the bounds taken from the
    slopes, or their widths, overflow."""
    (tmp_path / "run.ini").write_text(config)
    out = io.StringIO()
    code, err = run(["fuzzy-sweep", "--config", str(tmp_path / "run.ini"),
                     "--out", str(tmp_path / "out"), "--scenario", scenario], out)
    assert code == 4
    assert err.startswith("error: solver-error: ") and err.count("\n") == 1
    assert "nan" not in out.getvalue()


def test_failing_scenario_leaves_no_partial_output(tmp_path):
    """``h-only`` succeeds and ``q-only`` overflows; the sweep of both
    writes no file and prints nothing but the error line."""
    (tmp_path / "run.ini").write_text("[fuzzy]\nq_pct = 1e307\n")
    out = io.StringIO()
    code, err = run(["fuzzy-sweep", "--config", str(tmp_path / "run.ini"),
                     "--out", str(tmp_path / "out"), "--scenario", "h-only",
                     "--scenario", "q-only"], out)
    assert code == 4
    assert err.startswith("error: solver-error: ") and err.count("\n") == 1
    assert out.getvalue() == ""
    assert not (tmp_path / "out").exists()


def test_plate_without_convective_wall_is_solved_at_one_h(tmp_path):
    """No wall reads ``h``, so the sweep solves once, at the first ``h``
    (the low end of the alpha = 0 cut), as ``solve`` does at the modal
    one.  ``h * t_inf`` overflows only at the high end of that cut, which
    is never solved: exit 0 and zero widths, as ``solve`` exits 0."""
    (tmp_path / "run.ini").write_text(
        "[boundary]\ntop = adiabatic\n[parameters]\nh = 1.75e298\nt_inf = 1e10\n"
    )
    for command in (["solve"], ["fuzzy-sweep", "--scenario", "h-only"]):
        out = io.StringIO()
        code, err = run([command[0], "--config", str(tmp_path / "run.ini"),
                         "--out", str(tmp_path / command[0])] + command[1:], out)
        assert (code, err) == (0, "")
    assert out.getvalue() == "h-only: average width 0, variance 0\n"
    lines = (tmp_path / "fuzzy-sweep" / "envelope.csv").read_text().splitlines()
    assert lines[1] == "0,0,126.666667,126.666667"


@pytest.mark.parametrize("rod,message", [
    ("k = 1e308", "step matrices or load overflow the float range at dt=0.01"),
    ("dt = 1e308", "step matrices or load overflow the float range at dt=1e+308"),
    ("u1 = 1e308", "temperatures overflow the float range at t=0.01"),
    # Explicit, far above its stable dt.  The temperatures are checked once,
    # after the last step, and the message names the first step that overflowed.
    ("n_elems = 40\ntheta = 0\ndt = 1e-2\nsteps = 400",
     "temperatures overflow the float range at t=1.38"),
], ids=["k", "dt", "u1", "unstable-explicit"])
def test_overflowing_rods_are_solver_errors(tmp_path, rod, message):
    config = tmp_path / "run.ini"
    config.write_text(f"[rod]\n{rod}\n")
    code, err = run(["rod", "--config", str(config), "--out", str(tmp_path / "out")])
    assert (code, err) == (4, f"error: solver-error: {message}\n")
    assert_contract(code, err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("message,shown", [
    ("Unable to allocate 193. GiB for an array", "Unable to allocate 193. GiB for an array"),
    ("", "out of memory"),
])
def test_memory_error_is_one_categorized_line(tmp_path, monkeypatch, message, shown):
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "generate_structured_mesh", exhausted)
    config = tmp_path / "run.ini"
    config.write_text("[plate]\nnx = 2\n")
    code, err = run(["solve", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli._EXIT_CODES["memory-error"] == 6
    assert err == f"error: memory-error: {shown}\n"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_memory_error_in_a_sweep_keeps_its_category(tmp_path, monkeypatch, workers):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 1.5 GiB for an array")

    monkeypatch.setattr(fem2d.AffinePlate, "sweep", exhausted)
    config = tmp_path / "run.ini"
    config.write_text("[plate]\nnx = 2\n")
    code, err = run(["fuzzy-sweep", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--workers", workers])
    assert code == 6
    assert err == "error: memory-error: Unable to allocate 1.5 GiB for an array\n"


@pytest.mark.parametrize("command", [["solve"], ["fuzzy-sweep"]])
def test_plate_too_large_for_memory_fails_fast(tmp_path, monkeypatch, command):
    """The plate's memory estimate is checked against the available
    memory before the band is allocated.  The 2x5 plate (20 triangles, 18
    nodes, 10 leading ones, 2 per row, and 2 on the wall) has 3
    superdiagonals and reach 3, so its estimate is 8 * (4 * 10 + 3 * 2 +
    5 * 2**2 + 31 * 20 + 10 * 18) + 2**2 + 2**15 = 39700 bytes."""
    monkeypatch.setattr(memory, "available_memory", lambda: 39699)
    config = tmp_path / "run.ini"
    config.write_text("[plate]\nnx = 2\n")
    code, err = run([command[0], "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 6
    assert re.fullmatch(r"error: memory-error: plate needs 39700 bytes .*, 39699 available\n", err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("available,code", [(10908, 0), (10907, 6)])
def test_rod_states_beyond_memory_fail_before_the_first_step(tmp_path, monkeypatch, available,
                                                             code):
    """The default rod's time-series table and its finiteness mask, 9 * (100
    steps + 1) * (1 + 11 nodes) = 10908 bytes, are checked against the
    available memory before stepping: no band solve (one per step) runs
    when they do not fit."""
    solves, dgttrs = [], lapack.dgttrs

    def counted(*args, **kwargs):
        solves.append(None)
        return dgttrs(*args, **kwargs)

    monkeypatch.setattr(lapack, "dgttrs", counted)
    monkeypatch.setattr(memory, "available_memory", lambda: available)
    config = tmp_path / "run.ini"
    config.write_text("[rod]\n")
    got, err = run(["rod", "--config", str(config), "--out", str(tmp_path / "out")])
    assert got == code
    if code:
        assert err == "error: memory-error: rod needs 10908 bytes (1.02e-05 GiB), 10907 available\n"
        assert solves == [] and not (tmp_path / "out").exists()
    else:
        assert len(solves) == 100 and (tmp_path / "out" / "rod_timeseries.csv").exists()


@pytest.mark.parametrize("available,what,need", [
    (79040, None, None),
    (79039, "sweep", 79040),
    (10000, "envelope table", 12672),
], ids=["fits", "sweep", "table"])
def test_sweep_arrays_beyond_memory_fail_before_any_output(tmp_path, monkeypatch, available,
                                                           what, need):
    """The default custom sweep: 36 nodes, 11 levels, h and q fuzzy.  The
    envelope table needs 32 * 11 levels * 36 nodes = 12672 bytes, checked
    before the level grids and the plate are built; the sweep, checked
    before its first wall-block factor, 8 * 36 * (21 h values * (1 solve
    + 1 slope) + 2 * 11 envelope rows) = 18432 plus the plate's
    ``work_bytes``: 8 * (3 * 5**2 wall blocks + 3 * 25 held forward rows
    of a three-column block + 128 stored entries of the free-node matrix
    + 2 * 13 of its wall block + 10 * 36 nodes) = 5312, plus 2**15 +
    2**11 * 11 levels = 55296 for the Python objects, so 79040.  The
    stored entries are the 30 free
    nodes with themselves and, 98 times, with a grid neighbour (the cells'
    diagonals give exact zeros, which are not stored); the wall block's 13
    are its 5 free nodes with themselves and, 8 times, with a neighbour on
    the wall.  The band
    Cholesky runs in place as the plate is built, so ``work_bytes``
    counts no copy of the band.  The plate's own estimate, 50713 bytes
    (``test_plate_fails_fast_when_memory_is_short``), is recorded here,
    not checked; a table that does not fit stops the run before it.  A
    run that does not fit solves nothing and writes nothing."""
    solves, sweep = [], fem2d.AffinePlate.sweep

    def counted(*args):
        for item in sweep(*args):
            solves.append(None)
            yield item

    plate = []
    monkeypatch.setattr(fem2d, "check_memory", lambda need, what: plate.append((need, what)))
    monkeypatch.setattr(fem2d.AffinePlate, "sweep", counted)
    monkeypatch.setattr(memory, "available_memory", lambda: available)
    config = tmp_path / "run.ini"
    config.write_text("[plate]\n")
    code, err = run(["fuzzy-sweep", "--config", str(config), "--out", str(tmp_path / "out")])
    assert plate == ([] if what == "envelope table" else [(50713, "plate")])
    if what is None:
        assert (code, err) == (0, "") and len(solves) == 21
        assert (tmp_path / "out" / "envelope.csv").exists()
    else:
        assert code == 6
        assert err == (f"error: memory-error: {what} needs {need} bytes "
                       f"({need / 2**30:.3g} GiB), {available} available\n")
        assert solves == [] and not (tmp_path / "out").exists()


def test_readme_config_block_is_the_defaults(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    config = tmp_path / "readme.ini"
    config.write_text("\n".join(line.split(";")[0].rstrip() for line in block.splitlines()))
    assert cli.parse_config(config) == cli.RunConfig()


# Values per converter: valid ones, out-of-range ones, junk, `free` and
# the float extremes.  Integers stay <= 6, so meshes stay <= 6 x 6 and
# the rod takes at most 20 steps.
_FLOATS = ["1.0", "0.5", "2.5", "25", "0", "-1", "1e308", "-1e308", "1e-300",
           "nan", "free", "abc"]
_VALUES = {
    cli._finite: _FLOATS,
    cli._end: _FLOATS,
    int: ["1", "2", "6", "0", "-1", "1.5", "x", "1e308"],
    cli._bool: ["true", "no", "1", "maybe", "1e308"],
    cli._bc_kind: [kind.value for kind in BCKind] + ["free", "1e308"],
    str: ["out", "free"],
}
_KEYS = [(section, key, f.metadata["convert"]) for (section, key), (_, f) in cli._KEYS.items()]
_COMMANDS = [["solve"], ["rod"]] + [
    ["fuzzy-sweep", "--scenario", name, "--workers", workers]
    for name in cli.SCENARIO_NAMES
    for workers in ("1", "2")
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_configs_keep_the_contract(data):
    sections = {"rod": {"steps": str(data.draw(st.integers(0, 20)))}}
    for section, key, convert in data.draw(st.lists(st.sampled_from(_KEYS), max_size=8,
                                                     unique=True)):
        sections.setdefault(section, {})[key] = data.draw(st.sampled_from(_VALUES[convert]))
    text = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())
    command = data.draw(st.sampled_from(_COMMANDS))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.ini"
        config.write_text(text)
        code, err = run([command[0], "--config", str(config), "--out", tmp + "/out"]
                        + command[1:])
    assert_contract(code, err)
