"""Record the reference outputs the benchmark compares against.

Usage (from the root of a fuzzyheat checkout):

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload once at the default seed, checks its outputs, and
writes ``perfbench/reference/<workload>.json``.  Re-record only when a
change to fuzzyheat alters its output on purpose, and say why.
"""

import json
import shutil
import sys
import time
from pathlib import Path

import checks
from run import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, Runner, check_outputs, config_values, output_files


def main(names: list[str]) -> int:
    root = Path.cwd().resolve()
    work = root / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name in names or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            sections = config_values(workload, DEFAULT_SEED, False)
            (work / name).mkdir()
            runner = Runner(root, work / name, workload, time.monotonic() + 600)
            record, _, out_dir = runner.repetition(sections, False)
            if record is None or record["exit_code"] != 0:
                print(f"{name}: run failed", file=sys.stderr)
                return 1
            problems = check_outputs(workload, sections, out_dir)
            if problems:
                print(f"{name}: output check failed: {problems}", file=sys.stderr)
                return 1
            reference = {
                "seed": DEFAULT_SEED,
                "config": sections,
                "rtol": checks.RTOL,
                "atol": checks.ATOL,
                "files": {p.name: checks.reference_entry(p) for p in output_files(out_dir)},
            }
            REFERENCE_DIR.mkdir(exist_ok=True)
            (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(reference, indent=1) + "\n")
            print(f"{name}: recorded {', '.join(reference['files'])}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
