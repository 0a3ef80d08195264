"""fuzzyheat benchmark: one workload, run for a fixed time, one JSON line out.

Usage (from the root of a fuzzyheat checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs one ``fuzzyheat`` command in a fresh interpreter
(``perfbench/child.py``) on an INI config generated from the seed, and
repetitions continue until ``S`` seconds of them have been measured.
Outputs are checked after each repetition, outside the timed interval.
With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of traced repetitions, which alternate with untraced ones so that the
tracing overhead is measured too.  ``--quick`` shrinks every workload to
a tiny size for the benchmark's own tests.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE_DIR = HERE / "reference"

DEFAULT_SEED = 0  # the seed of the stored reference; it perturbs nothing
PERTURBATION = 0.02  # seeded relative change of h, q, t_inf and k
SETUP_SPAWNS = 3  # import-only processes per run, for the set-up median
TIME_LIMIT_S = 170.0  # every run ends within this, whatever --seconds asks

# Crisp values the seed perturbs: (section, key, default in fuzzyheat).
PERTURBED = (
    ("parameters", "h", 1.2),
    ("parameters", "q", 2.0),
    ("parameters", "t_inf", 25.0),
    ("material", "k", 1.5),
    ("rod", "k", 1.0),
)

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]
    ini: dict
    quick: dict  # overrides for --quick

    def sections(self, quick: bool) -> dict:
        merged = {s: dict(kv) for s, kv in self.ini.items()}
        if quick:
            for s, kv in self.quick.items():
                merged.setdefault(s, {}).update(kv)
        return merged


# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "sweep-hq-40": Workload(
        ("fuzzy-sweep", "--scenario", "custom", "--workers", "2"),
        {"plate": {"nx": 40, "ny": 40}},
        {"plate": {"nx": 4, "ny": 4}, "fuzzy": {"alpha_levels": 3}},
    ),
    "solve-80": Workload(
        ("solve",),
        {"plate": {"nx": 80, "ny": 80}},
        {"plate": {"nx": 6, "ny": 6}},
    ),
    # Not listed in BENCHMARK.json, so never gated: on a shared 2-vCPU host
    # its run-to-run spread reaches the largest bound a metric may have.
    "sweep-all-5-fine": Workload(
        ("fuzzy-sweep", "--scenario", "all"),
        {"fuzzy": {"alpha_levels": 201}},
        {"fuzzy": {"alpha_levels": 5}},
    ),
    "rod-2000": Workload(
        ("rod",),
        {"rod": {"n_elems": 200, "steps": 2000, "dt": 5e-4, "u1": 0.5}},
        {"rod": {"n_elems": 10, "steps": 20}},
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
}
PER_LAYER_UNITS = {
    "mesh.generate_s": "s",
    "mesh.nodes": "count",
    "mesh.triangles": "count",
    "fem2d.assemble_s": "s",
    "fem2d.assemble_calls": "count",
    "fem2d.dirichlet_s": "s",
    "fem2d.solve_s": "s",
    "fem2d.solve_calls": "count",
    "fem2d.system_bytes": "B",
    "uq.propagate_s": "s",
    "uq.self_s": "s",
    "uq.vertex_solves": "count",
    "uq.parallel_eff": "frac",
    "uq.sensitivity_s": "s",
    "fem1d.assemble_s": "s",
    "fem1d.step_s": "s",
    "fem1d.steps": "count",
    "cli.parse_config_s": "s",
    "cli.csv_write_s": "s",
    "cli.csv_bytes": "B",
    "cli.csv_identical": "bool",
    "trace.absent": "count",
    "trace_overhead_frac": "frac",
}


def config_values(workload: Workload, seed: int, quick: bool) -> dict:
    """Section -> key -> value of the INI the program receives."""
    sections = workload.sections(quick)
    rng = random.Random(seed)
    for section, key, default in PERTURBED:
        factor = 1.0 if seed == DEFAULT_SEED else 1.0 + rng.uniform(-PERTURBATION, PERTURBATION)
        sections.setdefault(section, {})[key] = default * factor
    return sections


def write_ini(path: Path, sections: dict) -> None:
    with open(path, "w") as fh:
        for section, kv in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in kv.items():
                fh.write(f"{key} = {value!r}\n")


def work_units(workload: Workload, sections: dict) -> int:
    """Vertex solves from the scenario's box corners, or rod time steps.

    Below alpha = 1 every fuzzy parameter (a nonzero tolerance) has two
    distinct endpoints, so a level has 2**m corners; the top level is one.
    """
    command = workload.command[0]
    if command == "rod":
        return sections["rod"]["steps"]
    if command == "solve":
        return 1
    levels = sections.get("fuzzy", {}).get("alpha_levels", 11)
    fuzzy = 3 if "all" in workload.command else 2  # custom: h and q by default
    return (levels - 1) * 2**fuzzy + 1


def check_outputs(workload: Workload, sections: dict, out_dir: Path) -> list[str]:
    plate = sections.get("plate", {})
    nx, ny = plate.get("nx", 5), plate.get("ny", 5)
    n_nodes = (nx + 1) * (ny + 1)
    command = workload.command[0]
    if command == "solve":  # fuzzyheat's default plate width and fixed-wall temperature
        return checks.check_solve(out_dir / "nodes.csv", out_dir / "temperature.csv", n_nodes, 20.0, 100.0)
    if command == "rod":
        rod = sections["rod"]
        return checks.check_rod(out_dir / "rod_timeseries.csv", rod["steps"], rod["n_elems"], rod["dt"], 0.0, 1.0)
    levels = sections.get("fuzzy", {}).get("alpha_levels", 11)
    envelope = out_dir / "envelope.csv"
    problems = checks.check_envelope(envelope, n_nodes, levels)
    if not problems:
        problems = checks.check_sensitivity(out_dir / "sensitivity.csv", envelope, n_nodes, levels)
    return problems


def output_files(out_dir: Path) -> list[Path]:
    return sorted(p for p in out_dir.iterdir() if p.is_file())


class Runner:
    """Spawns repetitions of one workload in a private work directory."""

    def __init__(self, root: Path, work: Path, workload: Workload, deadline: float):
        self.root = root
        self.work = work
        self.workload = workload
        self.deadline = deadline
        self.count = 0

    def spawn(self, argv: list[str], trace: bool) -> tuple[dict | None, float]:
        """Run child.py once; returns (its record or None, wall seconds)."""
        self.count += 1
        result = self.work / f"result-{self.count}.json"
        cmd = [sys.executable, str(CHILD), str(result)] + (["--trace"] if trace else []) + ["--"] + argv
        log = self.work / f"child-{self.count}.log"
        with open(log, "w") as fh:
            start = time.monotonic()
            try:
                proc = subprocess.run(
                    cmd, cwd=self.root, stdout=fh, stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.deadline - start),
                )
                ok = proc.returncode == 0
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                ok = False
            wall = time.monotonic() - start
        if not ok or not result.is_file():
            sys.stderr.write(log.read_text()[-2000:])
            return None, wall
        record = json.loads(result.read_text())
        record["setup_s"] = record["setup_end"] - start
        return record, wall

    def repetition(self, sections: dict, trace: bool) -> tuple[dict | None, float, Path]:
        """One timed run of the workload; returns (record, wall, output dir)."""
        out_dir = self.work / f"out-{self.count + 1}"
        ini = self.work / f"run-{self.count + 1}.ini"
        write_ini(ini, sections)
        argv = [self.workload.command[0], "--config", str(ini), "--out", str(out_dir)]
        argv += list(self.workload.command[1:])
        record, wall = self.spawn(argv, trace)
        return record, wall, out_dir


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "fuzzyheat" / "cli.py").is_file():
        print(f"error: no fuzzyheat source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the repetition in flight and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return measure(args, root, work, workload, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass


def measure(args, root: Path, work: Path, workload: Workload, started: float) -> int:
    runner = Runner(root, work, workload, started + TIME_LIMIT_S)
    sections = config_values(workload, args.seed, args.quick)
    units = work_units(workload, sections)
    reference_path = REFERENCE_DIR / f"{args.workload}.json"
    reference = None if args.quick else json.loads(reference_path.read_text())

    # Set-up: one warm-up import (fills bytecode and file caches), then
    # SETUP_SPAWNS timed ones; every repetition adds its own sample too.
    runner.spawn([], False)
    setup_samples, env = [], {}
    for _ in range(SETUP_SPAWNS):
        record, _ = runner.spawn([], False)
        if record is None:
            print("error: importing fuzzyheat.cli failed", file=sys.stderr)
            return 3
        setup_samples.append(record["setup_s"])
        env = record["env"]
    if not Path(env["fuzzyheat_file"]).resolve().is_relative_to(root / "src"):
        print(f"error: imported {env['fuzzyheat_file']}, not the checkout's source", file=sys.stderr)
        return 3

    attempted = failed = 0
    verdicts: dict[tuple, list[str]] = {}  # output digests -> problems
    samples = {False: [], True: []}  # traced? -> successful records
    csv_bytes: list[int] = []
    identical = None
    problems_seen: list[str] = []

    def judge(record, out_dir: Path) -> list[str]:
        nonlocal identical
        if record is None:
            return ["the run crashed or timed out"]
        if record["exit_code"] != 0:
            return [f"exit code {record['exit_code']}"]
        key = tuple(checks.digest(p) for p in output_files(out_dir))
        if key not in verdicts:
            verdicts[key] = check_outputs(workload, sections, out_dir)
            if reference is not None and args.seed == DEFAULT_SEED:
                same, problems = checks.compare_reference(out_dir, reference)
                identical = same if identical is None else identical and same
                verdicts[key] += problems
        return verdicts[key]

    walls: list[float] = []
    modes = [False, True] if args.trace else [False]
    # Stop when one more repetition would end further from --seconds than
    # stopping now, so that runs of slow and fast workloads last alike.
    while attempted < len(modes) or sum(walls) + median(walls) / 2 < args.seconds:
        trace = modes[attempted % len(modes)]
        record, wall, out_dir = runner.repetition(sections, trace)
        walls.append(wall)
        attempted += 1
        problems = judge(record, out_dir)
        if problems:
            failed += 1
            problems_seen += problems
        else:
            samples[trace].append(record)
            setup_samples.append(record["setup_s"])
            if trace:
                csv_bytes.append(sum(p.stat().st_size for p in output_files(out_dir)))
        shutil.rmtree(out_dir, ignore_errors=True)
        if time.monotonic() + 2 * wall > runner.deadline:
            break  # leave time for the reference run and the report

    if args.trace and reference is not None and args.seed != DEFAULT_SEED:
        # Byte identity needs the reference inputs: one untimed default-seed run.
        ref_sections = config_values(workload, DEFAULT_SEED, False)
        record, _, out_dir = runner.repetition(ref_sections, False)
        attempted += 1
        if record is None or record["exit_code"] != 0:
            failed += 1
            problems_seen.append("default-seed reference run failed")
        else:
            problems = check_outputs(workload, ref_sections, out_dir)
            identical, more = checks.compare_reference(out_dir, reference)
            if problems or more:
                failed += 1
                problems_seen += problems + more

    for problem in problems_seen[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    untraced = samples[False]
    run_s = [r["run_s"] for r in untraced]
    if args.trace:
        traced = samples[True]
        layers = {
            name: median([r["layers"][name] for r in traced])
            for name in PER_LAYER_UNITS
            if traced and name in traced[0]["layers"]
        }
        traced_run = median([r["run_s"] for r in traced])
        layers["cli.csv_bytes"] = median(csv_bytes)
        layers["cli.csv_identical"] = int(bool(identical))
        layers["trace_overhead_frac"] = traced_run / median(run_s) - 1.0 if run_s and traced else 0.0
        values = {name: layers.get(name, 0) for name in PER_LAYER_UNITS}
        units_of = PER_LAYER_UNITS
        absent = sorted({a for r in traced for a in r.get("absent", [])})
    else:
        values = {
            "setup_s": median(setup_samples),
            "run_s": median(run_s),
            "work_per_s": median([units / t for t in run_s]),
            "peak_rss_mib": max((r["maxrss_kib"] / 1024.0 for r in untraced), default=0.0),
            "ok_frac": (attempted - failed) / attempted,
        }
        units_of = END_TO_END_UNITS
        absent = []

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "config": sections,
        "work_units": units,
        "environment": {
            **env,
            "git_commit": git_commit(root),
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ},
        },
        # With 1 to 10 repetitions per run no percentile above the median
        # has ten samples beyond it, so the tail is kept here, not reported.
        "samples": {"setup_s": setup_samples, "run_s": run_s, "run_s_max": max(run_s, default=None),
                    "traced_run_s": [r["run_s"] for r in samples[True]]},
        "absent": absent,
    }
    results = root / ".perfbench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": record["environment"], "seed": args.seed, "absent": absent}))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units_of[n]} for n in units_of},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
