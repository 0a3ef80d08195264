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

from fuzzyheat import cli, fem2d
from fuzzyheat.fem2d import BCKind

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv):
    """``cli.main`` in-process; any warning fails the run."""
    out, err = io.StringIO(), io.StringIO()
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
    def exhausted(self, h):
        raise MemoryError("Unable to allocate 1.5 GiB for an array")

    monkeypatch.setattr(fem2d.AffinePlate, "factor", exhausted)
    config = tmp_path / "run.ini"
    config.write_text("[plate]\nnx = 2\n")
    code, err = run(["fuzzy-sweep", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--workers", workers])
    assert code == 6
    assert err == "error: memory-error: Unable to allocate 1.5 GiB for an array\n"


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
