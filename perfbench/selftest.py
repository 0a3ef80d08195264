"""Tests of the benchmark itself.

Usage (from the root of a fuzzyheat checkout, about a minute):

    python3 perfbench/selftest.py

1. Quick mode: every workload runs at a tiny size, untraced and traced,
   and the last output line must name every metric of BENCHMARK.json
   with its unit, with ``correct`` true and nothing failed.
2. The output check must pass a real envelope and reject corrupted
   copies of it: lower above upper, an alpha level not nested in the
   one below, a non-degenerate top level, and a missing row.
3. The tracer must report a renamed attribute as absent, and subtract
   children on other threads from their parent's self time.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import spans
from run import WORKLOADS

ROOT = Path.cwd()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_quick(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_quick_mode_prints_every_metric() -> None:
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_quick(workload, trace)
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, got, want)
            print(f"ok: {workload} --trace {trace}: {len(got)} metrics")


def _rewrite(src: Path, dst: Path, edit) -> None:
    lines = src.read_text().splitlines()
    edit(lines)
    dst.write_text("\n".join(lines) + "\n")


def _set(lines: list[str], index: int, lower: str = None, upper: str = None) -> None:
    fields = lines[index].split(",")
    fields[2] = lower if lower is not None else fields[2]
    fields[3] = upper if upper is not None else fields[3]
    lines[index] = ",".join(fields)


def test_output_check_rejects_corrupted_envelope() -> None:
    work = Path(tempfile.mkdtemp(prefix="perfbench-selftest-", dir=ROOT / ".perfbench_work"))
    try:
        out = work / "out"
        config = work / "run.ini"
        config.write_text("[plate]\nnx = 3\nny = 3\n[fuzzy]\nalpha_levels = 4\n")
        subprocess.run(
            [sys.executable, "-m", "fuzzyheat.cli", "fuzzy-sweep", "--config", str(config), "--out", str(out)],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True, capture_output=True,
            timeout=120,
        )
        good = out / "envelope.csv"
        n_nodes, n_levels = 16, 4
        assert checks.check_envelope(good, n_nodes, n_levels) == []
        assert checks.check_sensitivity(out / "sensitivity.csv", good, n_nodes, n_levels) == []

        lines = good.read_text().splitlines()
        row = 1  # node 0, alpha 0: on the flux wall, so its envelope has width
        lo, hi = lines[row].split(",")[2:4]
        top = row + n_levels - 1
        top_value = float(lines[top].split(",")[2])
        corruptions = {
            "lower above upper": (lambda ls: _set(ls, row, lower=hi, upper=lo), "> upper"),
            "not nested": (lambda ls: _set(ls, row + 1, lower=repr(float(lo) - 1.0)), "not inside"),
            "top level not degenerate": (
                lambda ls: _set(ls, top, upper=repr(top_value + 1e-6)), "not degenerate"),
            "missing row": (lambda ls: ls.pop(row), "rows, expected"),
        }
        for name, (edit, message) in corruptions.items():
            bad = work / f"{name.replace(' ', '_')}.csv"
            _rewrite(good, bad, edit)
            problems = checks.check_envelope(bad, n_nodes, n_levels)
            assert any(message in p for p in problems), f"{name}: got {problems}"
            print(f"ok: rejected {name}: {problems[0]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_tracer_absent_names_and_self_time() -> None:
    tracer = spans.Tracer()
    tracer.install([("fuzzyheat.cli", "no_such_function", "cli.none", None)])
    assert tracer.absent == ["fuzzyheat.cli.no_such_function"], tracer.absent

    parent = spans.Span("p", 1, None, 0.0, 10.0)
    on_other_threads = [spans.Span("c", 2, 0, 1.0, 4.0), spans.Span("c", 3, 0, 2.0, 6.0)]
    assert spans.self_times([parent] + on_other_threads) == [5.0, 3.0, 4.0]
    print("ok: tracer reports absent names and subtracts overlapping children once")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    test_tracer_absent_names_and_self_time()
    test_output_check_rejects_corrupted_envelope()
    test_quick_mode_prints_every_metric()
    print("selftest passed")
