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
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import fem1d
from .fem2d import (
    BCKind,
    BoundaryConditionSet,
    PlateParameters,
    SingularSystemError,
    TemperatureField,
    solve_crisp,
)
from .fuzzy import AlphaLevels, tfn_from_tolerance
from .ioutil import fmt
from .mesh import Mesh2D, Wall, generate_structured_mesh
from .uq import (
    FuzzyScenario,
    FuzzyTemperatureField,
    PropagationError,
    SensitivityReport,
    compare_scenarios,
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
}


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category
        self.exit_code = _EXIT_CODES.get(category, 1)


@dataclass(frozen=True)
class RodRunConfig:
    length: float = 1.0
    n_elems: int = 10
    k: float = 1.0
    u1: float = 0.0
    q_src: float = 0.0
    dt: float = 0.01
    steps: int = 100
    theta: float = 1.0
    left: Optional[float] = 0.0
    right: Optional[float] = 1.0
    initial: float = 0.0


@dataclass(frozen=True)
class RunConfig:
    """Validated run settings; every field has a documented default."""

    width_cm: float = 20.0
    height_cm: float = 10.0
    nx: int = 5
    ny: int = 5
    k: float = 1.5
    g: float = 0.0
    boundary: dict = field(
        default_factory=lambda: {
            Wall.LEFT: BCKind.FLUX,
            Wall.RIGHT: BCKind.DIRICHLET,
            Wall.TOP: BCKind.CONVECTION,
            Wall.BOTTOM: BCKind.ADIABATIC,
        }
    )
    h: float = 1.2
    q: float = 2.0
    t_inf: float = 25.0
    t_fixed: float = 100.0
    h_fuzzy: bool = True
    q_fuzzy: bool = True
    t_inf_fuzzy: bool = False
    h_pct: float = 0.05
    q_pct: float = 0.05
    t_inf_pct: float = 0.05
    alpha_level_count: int = 11
    out_dir: str = "out"
    rod: RodRunConfig = RodRunConfig()

    def mesh(self) -> Mesh2D:
        return generate_structured_mesh(self.width_cm, self.height_cm, self.nx, self.ny)

    def parameters(self) -> PlateParameters:
        return PlateParameters(
            k=self.k, G=self.g, h=self.h, q=self.q,
            t_inf=self.t_inf, t_fixed=self.t_fixed,
        )

    def boundary_conditions(self) -> BoundaryConditionSet:
        return BoundaryConditionSet(
            left=self.boundary[Wall.LEFT],
            right=self.boundary[Wall.RIGHT],
            top=self.boundary[Wall.TOP],
            bottom=self.boundary[Wall.BOTTOM],
        )

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
        crisp_and_pct = (
            (self.h, self.h_pct),
            (self.q, self.q_pct),
            (self.t_inf, self.t_inf_pct),
        )
        entries = [
            tfn_from_tolerance(value, pct) if fuzzy else value
            for fuzzy, (value, pct) in zip(flags, crisp_and_pct)
        ]
        return FuzzyScenario(
            h=entries[0], q=entries[1], t_inf=entries[2],
            alpha_levels=AlphaLevels.uniform(self.alpha_level_count),
        )


_BC_KINDS = {kind.value: kind for kind in BCKind}

# section -> key -> (converter name, default); parse_config walks this
# schema and rejects anything outside it by name.
_SCHEMA = {
    "plate": {
        "width_cm": ("float", 20.0),
        "height_cm": ("float", 10.0),
        "nx": ("int", 5),
        "ny": ("int", 5),
    },
    "material": {"k": ("float", 1.5), "g": ("float", 0.0)},
    "boundary": {
        "left": ("bc", BCKind.FLUX),
        "right": ("bc", BCKind.DIRICHLET),
        "top": ("bc", BCKind.CONVECTION),
        "bottom": ("bc", BCKind.ADIABATIC),
    },
    "parameters": {
        "h": ("float", 1.2),
        "q": ("float", 2.0),
        "t_inf": ("float", 25.0),
        "t_fixed": ("float", 100.0),
    },
    "fuzzy": {
        "h_fuzzy": ("bool", True),
        "q_fuzzy": ("bool", True),
        "t_inf_fuzzy": ("bool", False),
        "h_pct": ("float", 0.05),
        "q_pct": ("float", 0.05),
        "t_inf_pct": ("float", 0.05),
        "alpha_levels": ("int", 11),
    },
    "rod": {
        "length": ("float", 1.0),
        "n_elems": ("int", 10),
        "k": ("float", 1.0),
        "u1": ("float", 0.0),
        "q_src": ("float", 0.0),
        "dt": ("float", 0.01),
        "steps": ("int", 100),
        "theta": ("float", 1.0),
        "left": ("end", 0.0),
        "right": ("end", 1.0),
        "initial": ("float", 0.0),
    },
    "output": {"directory": ("str", "out")},
}

_TRUTHY = {"1": True, "yes": True, "true": True, "on": True,
           "0": False, "no": False, "false": False, "off": False}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _convert(kind: str, raw: str, where: str):
    try:
        if kind == "float":
            return _finite(raw)
        if kind == "int":
            return int(raw)
        if kind == "str":
            return raw
        if kind == "bool":
            if raw.lower() not in _TRUTHY:
                raise ValueError(f"not a boolean: {raw!r}")
            return _TRUTHY[raw.lower()]
        if kind == "bc":
            if raw.lower() not in _BC_KINDS:
                raise ValueError(
                    f"not a boundary kind: {raw!r} "
                    f"(choose from {', '.join(sorted(_BC_KINDS))})"
                )
            return _BC_KINDS[raw.lower()]
        if kind == "end":
            return None if raw.lower() == "free" else _finite(raw)
    except ValueError as exc:
        raise CliError("config-error", f"bad value for {where}: {exc}") from exc
    raise AssertionError(f"unhandled converter {kind}")


def parse_config(path) -> RunConfig:
    """Read, validate, and default-fill a run configuration file."""
    path = Path(path)
    if not path.is_file():
        raise CliError("config-error", f"config file not found: {path}")

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise CliError("config-error", f"cannot parse {path}: {exc}") from exc
    except OSError as exc:
        raise CliError("io-error", f"cannot read {path}: {exc}") from exc

    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise CliError("config-error", f"unknown section [{section}] in {path}")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise CliError(
                    "config-error", f"unknown key {key!r} in section [{section}]"
                )
            kind, _ = _SCHEMA[section][key]
            values[section][key] = _convert(kind, raw, f"[{section}] {key}")

    def get(section: str, key: str):
        return values.get(section, {}).get(key, _SCHEMA[section][key][1])

    cfg = RunConfig(
        width_cm=get("plate", "width_cm"),
        height_cm=get("plate", "height_cm"),
        nx=get("plate", "nx"),
        ny=get("plate", "ny"),
        k=get("material", "k"),
        g=get("material", "g"),
        boundary={
            Wall.LEFT: get("boundary", "left"),
            Wall.RIGHT: get("boundary", "right"),
            Wall.TOP: get("boundary", "top"),
            Wall.BOTTOM: get("boundary", "bottom"),
        },
        h=get("parameters", "h"),
        q=get("parameters", "q"),
        t_inf=get("parameters", "t_inf"),
        t_fixed=get("parameters", "t_fixed"),
        h_fuzzy=get("fuzzy", "h_fuzzy"),
        q_fuzzy=get("fuzzy", "q_fuzzy"),
        t_inf_fuzzy=get("fuzzy", "t_inf_fuzzy"),
        h_pct=get("fuzzy", "h_pct"),
        q_pct=get("fuzzy", "q_pct"),
        t_inf_pct=get("fuzzy", "t_inf_pct"),
        alpha_level_count=get("fuzzy", "alpha_levels"),
        out_dir=get("output", "directory"),
        rod=RodRunConfig(
            length=get("rod", "length"),
            n_elems=get("rod", "n_elems"),
            k=get("rod", "k"),
            u1=get("rod", "u1"),
            q_src=get("rod", "q_src"),
            dt=get("rod", "dt"),
            steps=get("rod", "steps"),
            theta=get("rod", "theta"),
            left=get("rod", "left"),
            right=get("rod", "right"),
            initial=get("rod", "initial"),
        ),
    )
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


def write_nodes_csv(stream, mesh: Mesh2D) -> None:
    stream.write("node_id,x_cm,y_cm\n")
    for n in mesh.nodes:
        stream.write(f"{n.id},{fmt(n.x)},{fmt(n.y)}\n")


def write_temperature_csv(stream, result: TemperatureField) -> None:
    stream.write("node_id,T\n")
    for i, t in enumerate(result.values):
        stream.write(f"{i},{fmt(t)}\n")


def write_envelope_csv(stream, envelope: FuzzyTemperatureField) -> None:
    stream.write("node_id,alpha,lower,upper\n")
    for node in range(envelope.n_nodes):
        for li, alpha in enumerate(envelope.levels):
            stream.write(
                f"{node},{fmt(alpha)},{fmt(envelope.lower[li, node])},"
                f"{fmt(envelope.upper[li, node])}\n"
            )


def write_sensitivity_csv(stream, report: SensitivityReport) -> None:
    stream.write("scenario,node_id,width\n")
    for i, w in enumerate(report.widths):
        stream.write(f"{report.label},{i},{fmt(w)}\n")
    stream.write(f"{report.label},average_width,{fmt(report.average_width)}\n")
    stream.write(f"{report.label},variance,{fmt(report.variance_of_widths)}\n")


def cmd_solve(cfg: RunConfig, out_dir: Path) -> None:
    mesh = cfg.mesh()
    try:
        result = solve_crisp(mesh, cfg.parameters(), cfg.boundary_conditions())
    except SingularSystemError as exc:
        raise CliError("singular-system", str(exc)) from exc

    with _open_out(out_dir, "nodes.csv") as fh:
        write_nodes_csv(fh, mesh)
    with _open_out(out_dir, "temperature.csv") as fh:
        write_temperature_csv(fh, result)
    T = result.values
    print(
        f"temperature: min {fmt(T.min())} max {fmt(T.max())} "
        f"mean {fmt(float(np.mean(T)))}"
    )


def cmd_fuzzy_sweep(
    cfg: RunConfig, selectors: Sequence[str], out_dir: Path, workers: int = 1
) -> list[SensitivityReport]:
    if not selectors:
        raise CliError("invalid-scenario", "no scenario selected")
    if len(set(selectors)) != len(selectors):
        raise CliError("invalid-scenario", f"duplicate scenario in {list(selectors)}")

    mesh = cfg.mesh()
    base = cfg.parameters()
    bc = cfg.boundary_conditions()

    reports = []
    for selector in selectors:
        scenario = cfg.scenario(selector)
        try:
            envelope = propagate(mesh, base, bc, scenario, workers=workers)
        except PropagationError as exc:
            raise CliError("solver-error", str(exc)) from exc
        report = sensitivity(envelope, selector)
        reports.append(report)

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
    M, A, b = fem1d.assemble_1d(rod)
    bc = fem1d.EndConditions(rc.left, rc.right)

    state = fem1d.TransientState(0.0, np.full(rod.n_nodes, rc.initial))
    states = [state]
    try:
        for _ in range(rc.steps):
            state = fem1d.theta_step(M, A, b, state, rc.dt, rc.theta, bc)
            states.append(state)
    except fem1d.SingularStepError as exc:
        raise CliError("singular-system", str(exc)) from exc

    with _open_out(out_dir, "rod_timeseries.csv") as fh:
        fem1d.write_timeseries(fh, states)
    print(f"rod: {rc.steps} steps of dt={fmt(rc.dt)}, final time {fmt(state.time)}")


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
        "--workers", type=int, default=1, help="solver threads (output is identical)"
    )

    p_rod = sub.add_parser("rod", help="1D transient rod run")
    common(p_rod)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
        if args.command == "solve":
            cmd_solve(cfg, out_dir)
        elif args.command == "fuzzy-sweep":
            selectors = args.scenario or ["custom"]
            cmd_fuzzy_sweep(cfg, selectors, out_dir, workers=args.workers)
        elif args.command == "rod":
            cmd_rod(cfg, out_dir)
    except CliError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
