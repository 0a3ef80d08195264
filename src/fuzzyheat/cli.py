"""Config-driven command line front end.

Three subcommands cover the pipeline end to end:

* ``solve``       - one crisp plate solve; writes ``nodes.csv`` and
                    ``temperature.csv`` and prints a min/max/mean summary.
* ``fuzzy-sweep`` - alpha-cut envelope sweep for one or more named
                    scenarios; writes ``envelope.csv`` and
                    ``sensitivity.csv`` per scenario and prints the
                    sensitivity comparison when two scenarios run.
* ``rod``         - 1D transient run; writes ``rod_timeseries.csv``.

Configuration is an INI file with sections ``plate``, ``material``,
``boundary``, ``parameters``, ``fuzzy``, ``rod`` and ``output``; every
key is optional and falls back to the documented default, unknown keys
are rejected by name.  On failure the process exits nonzero after
printing a single line ``error: <category>: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import fem1d
from .fem2d import (
    AffinePlate,
    BCKind,
    BoundaryConditionSet,
    PlateParameters,
    SingularSystemError,
    solve_crisp,
)
from .fuzzy import AlphaLevels, tfn_from_tolerance
from .ioutil import fmt, write_csv
from .memory import check_memory
from .mesh import Mesh2D, generate_structured_mesh
from .uq import (
    FuzzyScenario,
    FuzzyTemperatureField,
    SensitivityReport,
    compare_scenarios,
    mean_power,
    propagate,
    sensitivity,
)

SCENARIO_NAMES = ("h-only", "q-only", "tinf-only", "all", "custom")

_EXIT_CODES = {
    "config-error": 2,
    "invalid-scenario": 3,
    "singular-system": 4,
    "solver-error": 4,
    "io-error": 5,
    "memory-error": 6,
}


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category
        self.exit_code = _EXIT_CODES.get(category, 1)


@contextlib.contextmanager
def _solver_errors():
    # The solvers' exceptions; any other exception is a bug and keeps its traceback.
    try:
        yield
    except (SingularSystemError, fem1d.SingularStepError) as exc:
        raise CliError("singular-system", str(exc)) from exc
    except ValueError as exc:  # degenerate elements, overflowing loads or matrices
        raise CliError("solver-error", str(exc)) from exc
    except MemoryError as exc:
        raise CliError("memory-error", str(exc) or "out of memory") from exc


_BC_KINDS = {kind.value: kind for kind in BCKind}
_TRUTHY = configparser.ConfigParser.BOOLEAN_STATES  # 1/0, yes/no, true/false, on/off


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _bool(raw: str) -> bool:
    if raw.lower() not in _TRUTHY:
        raise ValueError(f"not a boolean: {raw!r}")
    return _TRUTHY[raw.lower()]


def _bc_kind(raw: str) -> BCKind:
    if raw.lower() not in _BC_KINDS:
        raise ValueError(
            f"not a boundary kind: {raw!r} (choose from {', '.join(sorted(_BC_KINDS))})"
        )
    return _BC_KINDS[raw.lower()]


def _end(raw: str) -> Optional[float]:
    return None if raw.lower() == "free" else _finite(raw)


def _ini(section: str, default, convert: Callable[[str], object], key: str = ""):
    """A config field read from ``[section] key`` (the field name unless
    ``key`` is given) through ``convert``, which raises ``ValueError``."""
    return field(default=default, metadata={"section": section, "key": key, "convert": convert})


@dataclass(frozen=True)
class RodRunConfig:
    length: float = _ini("rod", 1.0, _finite)
    n_elems: int = _ini("rod", 10, int)
    k: float = _ini("rod", fem1d.Rod1D.k, _finite)
    u1: float = _ini("rod", fem1d.Rod1D.u1, _finite)
    q_src: float = _ini("rod", fem1d.Rod1D.Q_src, _finite)
    dt: float = _ini("rod", 0.01, _finite)
    steps: int = _ini("rod", 100, int)
    theta: float = _ini("rod", 1.0, _finite)
    left: Optional[float] = _ini("rod", 0.0, _end)
    right: Optional[float] = _ini("rod", 1.0, _end)
    initial: float = _ini("rod", 0.0, _finite)


@dataclass(frozen=True)
class RunConfig:
    """Validated run settings; every field has a documented default."""

    width_cm: float = _ini("plate", 20.0, _finite)
    height_cm: float = _ini("plate", 10.0, _finite)
    nx: int = _ini("plate", 5, int)
    ny: int = _ini("plate", 5, int)
    k: float = _ini("material", PlateParameters.k, _finite)
    g: float = _ini("material", PlateParameters.G, _finite)
    left: BCKind = _ini("boundary", BoundaryConditionSet.left, _bc_kind)
    right: BCKind = _ini("boundary", BoundaryConditionSet.right, _bc_kind)
    top: BCKind = _ini("boundary", BoundaryConditionSet.top, _bc_kind)
    bottom: BCKind = _ini("boundary", BoundaryConditionSet.bottom, _bc_kind)
    h: float = _ini("parameters", PlateParameters.h, _finite)
    q: float = _ini("parameters", PlateParameters.q, _finite)
    t_inf: float = _ini("parameters", PlateParameters.t_inf, _finite)
    t_fixed: float = _ini("parameters", PlateParameters.t_fixed, _finite)
    h_fuzzy: bool = _ini("fuzzy", True, _bool)
    q_fuzzy: bool = _ini("fuzzy", True, _bool)
    t_inf_fuzzy: bool = _ini("fuzzy", False, _bool)
    h_pct: float = _ini("fuzzy", 0.05, _finite)
    q_pct: float = _ini("fuzzy", 0.05, _finite)
    t_inf_pct: float = _ini("fuzzy", 0.05, _finite)
    alpha_level_count: int = _ini("fuzzy", len(FuzzyScenario.alpha_levels), int, "alpha_levels")
    out_dir: str = _ini("output", "out", str, "directory")
    rod: RodRunConfig = RodRunConfig()

    def mesh(self) -> Mesh2D:
        try:
            return generate_structured_mesh(self.width_cm, self.height_cm, self.nx, self.ny)
        except ValueError as exc:
            raise CliError("config-error", str(exc)) from exc

    def parameters(self) -> PlateParameters:
        return PlateParameters(self.k, self.g, self.h, self.q, self.t_inf, self.t_fixed)

    def boundary_conditions(self) -> BoundaryConditionSet:
        return BoundaryConditionSet(self.left, self.right, self.top, self.bottom)

    def scenario(self, selector: str) -> FuzzyScenario:
        """Build the fuzzy scenario a selector names.

        Named selectors force exactly one (or all) parameters fuzzy;
        ``custom`` honours the per-parameter fuzzy flags from the config.
        """
        if selector not in SCENARIO_NAMES:
            raise CliError(
                "invalid-scenario",
                f"unknown scenario {selector!r}; choose from {', '.join(SCENARIO_NAMES)}",
            )
        flags = {
            "h-only": (True, False, False),
            "q-only": (False, True, False),
            "tinf-only": (False, False, True),
            "all": (True, True, True),
            "custom": (self.h_fuzzy, self.q_fuzzy, self.t_inf_fuzzy),
        }[selector]
        if not any(flags):
            raise CliError(
                "invalid-scenario",
                "scenario has no fuzzy parameter; enable at least one of "
                "h_fuzzy, q_fuzzy, t_inf_fuzzy in [fuzzy] or pick a named scenario",
            )
        values = (self.h, self.q, self.t_inf)
        pcts = (self.h_pct, self.q_pct, self.t_inf_pct)
        try:
            entries = [
                tfn_from_tolerance(value, pct) if fuzzy else value
                for fuzzy, value, pct in zip(flags, values, pcts)
            ]
        except ValueError as exc:
            raise CliError("invalid-scenario", str(exc)) from exc
        if flags[0] and entries[0].a_l < 0:
            raise CliError(
                "invalid-scenario",
                f"fuzzy h goes below 0: h = {self.h} with h_pct = {self.h_pct} "
                f"gives a lower bound of {entries[0].a_l}",
            )
        return FuzzyScenario(
            h=entries[0], q=entries[1], t_inf=entries[2],
            alpha_levels=AlphaLevels.uniform(self.alpha_level_count),
        )


# (section, key) -> (config class, field): the INI keys parse_config accepts.
_KEYS = {
    (f.metadata["section"], f.metadata["key"] or f.name): (cls, f)
    for cls in (RunConfig, RodRunConfig)
    for f in fields(cls)
    if f.metadata
}


def parse_config(path) -> RunConfig:
    """Read, validate, and default-fill a run configuration file."""
    path = Path(path)
    if not path.is_file():
        raise CliError("config-error", f"config file not found: {path}")

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise CliError("config-error", f"cannot parse {path}: {exc}") from exc
    except OSError as exc:
        raise CliError("io-error", f"cannot read {path}: {exc}") from exc

    given: dict[type, dict] = {RunConfig: {}, RodRunConfig: {}}
    for section in parser.sections():
        if section not in {known for known, _ in _KEYS}:
            raise CliError("config-error", f"unknown section [{section}] in {path}")
        for key, raw in parser.items(section):
            if (section, key) not in _KEYS:
                raise CliError(
                    "config-error", f"unknown key {key!r} in section [{section}]"
                )
            cls, f = _KEYS[section, key]
            try:
                given[cls][f.name] = f.metadata["convert"](raw)
            except ValueError as exc:
                raise CliError(
                    "config-error", f"bad value for [{section}] {key}: {exc}"
                ) from exc

    cfg = RunConfig(**given[RunConfig], rod=RodRunConfig(**given[RodRunConfig]))
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    checks = [
        (cfg.width_cm > 0, "plate width_cm must be positive"),
        (cfg.height_cm > 0, "plate height_cm must be positive"),
        (cfg.nx >= 1, "plate nx must be >= 1"),
        (cfg.ny >= 1, "plate ny must be >= 1"),
        (cfg.k > 0, "material k must be positive"),
        (cfg.h >= 0, "parameter h must be >= 0"),
        (cfg.h_pct >= 0, "fuzzy h_pct must be >= 0"),
        (cfg.q_pct >= 0, "fuzzy q_pct must be >= 0"),
        (cfg.t_inf_pct >= 0, "fuzzy t_inf_pct must be >= 0"),
        (
            cfg.alpha_level_count >= 2,
            "fuzzy alpha_levels must be >= 2 so the grid includes both 0 and 1",
        ),
        (cfg.rod.length > 0, "rod length must be positive"),
        (cfg.rod.n_elems >= 1, "rod n_elems must be >= 1"),
        (cfg.rod.k >= 0, "rod k must be >= 0"),
        (cfg.rod.dt > 0, "rod dt must be positive"),
        (cfg.rod.steps >= 0, "rod steps must be >= 0"),
        (0.0 <= cfg.rod.theta <= 1.0, "rod theta must be in [0, 1]"),
    ]
    for ok, message in checks:
        if not ok:
            raise CliError("config-error", message)


def _open_out(out_dir: Path, name: str):
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        return open(out_dir / name, "w", newline="\n")
    except OSError as exc:
        raise CliError("io-error", f"cannot write {out_dir / name}: {exc}") from exc


def _ids(n: int) -> np.ndarray:
    """Node ids ``0 .. n-1`` as floats, which print exactly below 10**9."""
    if n >= 10**9:
        raise ValueError(f"{n} nodes: node ids from 10**9 on do not fit in 9 digits")
    return np.arange(n, dtype=float)


def write_nodes_csv(stream, mesh: Mesh2D) -> None:
    write_csv(stream, "node_id,x_cm,y_cm\n", np.column_stack((_ids(mesh.n_nodes), mesh.coords)))


def write_temperature_csv(stream, T: np.ndarray) -> None:
    write_csv(stream, "node_id,T\n", np.column_stack((_ids(T.shape[0]), T)))


def write_envelope_csv(stream, envelope: FuzzyTemperatureField) -> None:
    levels, n = envelope.lower.shape
    table = np.empty((n, levels, 4))  # node by node, each of its levels
    table[:, :, 0] = _ids(n)[:, None]
    table[:, :, 1] = envelope.levels
    table[:, :, 2] = envelope.lower.T
    table[:, :, 3] = envelope.upper.T
    write_csv(stream, "node_id,alpha,lower,upper\n", table.reshape(n * levels, 4))


def write_sensitivity_csv(stream, report: SensitivityReport) -> None:
    label, widths = report.label, report.widths
    write_csv(stream, "scenario,node_id,width\n",
              np.column_stack((_ids(widths.shape[0]), widths)), f"{label},")
    write_csv(stream, None, [[report.average_width]], f"{label},average_width,")
    write_csv(stream, None, [[report.variance_of_widths]], f"{label},variance,")


def cmd_solve(cfg: RunConfig, out_dir: Path) -> None:
    mesh = cfg.mesh()
    T = solve_crisp(mesh, cfg.parameters(), cfg.boundary_conditions())

    with _open_out(out_dir, "nodes.csv") as fh:
        write_nodes_csv(fh, mesh)
    with _open_out(out_dir, "temperature.csv") as fh:
        write_temperature_csv(fh, T)
    print(f"temperature: min {fmt(T.min())} max {fmt(T.max())} mean {fmt(mean_power(T))}")


def cmd_fuzzy_sweep(
    cfg: RunConfig, selectors: Sequence[str], out_dir: Path, workers: int = 1
) -> list[SensitivityReport]:
    if not selectors:
        raise CliError("invalid-scenario", "no scenario selected")
    if len(set(selectors)) != len(selectors):
        raise CliError("invalid-scenario", f"duplicate scenario in {list(selectors)}")
    if workers < 1:  # only validated: the sweep is serial, the option kept for old command lines
        raise CliError("config-error", f"--workers must be >= 1, got {workers}")

    mesh = cfg.mesh()
    # write_envelope_csv's table: 4 floats per node and level, checked
    # before the level grids that imply it are built.
    check_memory(32 * cfg.alpha_level_count * mesh.n_nodes, "envelope table")
    scenarios = [cfg.scenario(selector) for selector in selectors]  # all checked before any output
    plate = AffinePlate(mesh, cfg.parameters(), cfg.boundary_conditions())  # one for all scenarios
    # Every scenario is swept before any file is written or line printed,
    # so a failing one leaves no partial output.
    envelopes = [propagate(plate, scenario) for scenario in scenarios]
    del plate  # its factors are freed before the output tables are built
    reports = [sensitivity(envelope, selector) for envelope, selector in zip(envelopes, selectors)]
    for selector, envelope, report in zip(selectors, envelopes, reports):
        target = out_dir if len(selectors) == 1 else out_dir / selector
        with _open_out(target, "envelope.csv") as fh:
            write_envelope_csv(fh, envelope)
        with _open_out(target, "sensitivity.csv") as fh:
            write_sensitivity_csv(fh, report)
        print(
            f"{selector}: average width {fmt(report.average_width)}, "
            f"variance {fmt(report.variance_of_widths)}"
        )

    if len(reports) == 2:
        print(compare_scenarios(reports[0], reports[1]).summary())
    return reports


def cmd_rod(cfg: RunConfig, out_dir: Path) -> None:
    rc = cfg.rod
    rod = fem1d.Rod1D(rc.length, rc.n_elems, k=rc.k, u1=rc.u1, Q_src=rc.q_src)
    # The time-series table march fills, one row per state, 8 bytes a value,
    # and the finiteness mask march checks it with, at most 1 byte a value.
    check_memory(9 * (rc.steps + 1) * (rod.n_nodes + 1), "rod")
    M, A, b = fem1d.assemble_1d(rod)
    bc = fem1d.EndConditions(rc.left, rc.right)

    initial = np.full(rod.n_nodes, rc.initial)
    if rc.steps > 0:
        stepper = fem1d.ThetaStepper(M, A, b, rc.dt, rc.theta, bc)
        table = stepper.march(initial, rc.steps)
    else:  # no step, so no step matrix to form or factor
        table = np.append(0.0, initial)[np.newaxis]

    with _open_out(out_dir, "rod_timeseries.csv") as fh:
        fem1d.write_timeseries(fh, table)
    print(f"rod: {rc.steps} steps of dt={fmt(rc.dt)}, final time {fmt(table[-1, 0])}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyheat",
        description="Crisp and fuzzy finite element heat transfer on a rectangular plate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the INI run config")
        p.add_argument("--out", help="output directory (overrides [output] directory)")

    p_solve = sub.add_parser("solve", help="single crisp solve")
    common(p_solve)

    p_sweep = sub.add_parser("fuzzy-sweep", help="alpha-cut envelope sweep")
    common(p_sweep)
    p_sweep.add_argument(
        "--scenario",
        action="append",
        choices=SCENARIO_NAMES,
        help="scenario selector; repeat to sweep and compare two scenarios",
    )
    p_sweep.add_argument(
        "--workers", type=int, default=1, help="accepted for compatibility; no effect (>= 1)"
    )

    p_rod = sub.add_parser("rod", help="1D transient rod run")
    common(p_rod)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
        with _solver_errors():
            if args.command == "solve":
                cmd_solve(cfg, out_dir)
            elif args.command == "fuzzy-sweep":
                cmd_fuzzy_sweep(cfg, args.scenario or ["custom"], out_dir, workers=args.workers)
            elif args.command == "rod":
                cmd_rod(cfg, out_dir)
    except CliError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
