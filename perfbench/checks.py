"""Output checks for benchmark runs; each returns a list of problems.

They run after a repetition ends, outside the timed interval.  A run
passes when every check returns no problem.

Numbers in fuzzyheat's CSVs carry 9 significant digits, so two values
whose exact order is right may still read one unit of the 9th digit out
of order after rounding.  Invariant comparisons therefore allow
``ROUNDING`` times the larger magnitude (at least 1).

The stored reference (``reference/<workload>.json``, recorded with
``record_reference.py`` at the default seed) keeps each file's SHA-256,
row count and an evenly spaced sample of its rows.  Sampled values must
agree within ``|got - want| <= RTOL * |want| + ATOL``; byte identity is
reported separately and is not required.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

ROUNDING = 2e-8
RTOL = 1e-6
ATOL = 1e-9
SAMPLE_VALUES = 4000  # at most this many numbers sampled per reference file


def _slack(*values: float) -> float:
    return ROUNDING * max(1.0, *(abs(v) for v in values))


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV; a missing file reads as empty."""
    lines = path.read_text().splitlines() if path.is_file() else []
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _floats(rows: list[list[str]], columns: slice) -> list[list[float]] | None:
    try:
        out = [[float(v) for v in row[columns]] for row in rows]
    except ValueError:
        return None
    return out if all(math.isfinite(v) for row in out for v in row) else None


def check_envelope(path: Path, n_nodes: int, n_levels: int) -> list[str]:
    """Row count, lower <= upper, nesting across levels, degenerate top level."""
    header, rows = read_rows(path)
    if header != ["node_id", "alpha", "lower", "upper"]:
        return [f"{path.name}: unexpected header {header}"]
    if len(rows) != n_nodes * n_levels:
        return [f"{path.name}: {len(rows)} rows, expected {n_nodes * n_levels}"]
    values = _floats(rows, slice(0, 4))
    if values is None:
        return [f"{path.name}: non-numeric or non-finite value"]
    problems = []
    for node in range(n_nodes):
        block = values[node * n_levels : (node + 1) * n_levels]
        if any(int(r[0]) != node for r in block):
            problems.append(f"{path.name}: node {node} rows out of order")
            continue
        alphas = [r[1] for r in block]
        if alphas != sorted(alphas) or alphas[0] != 0.0 or alphas[-1] != 1.0:
            problems.append(f"{path.name}: node {node} alpha levels {alphas}")
            continue
        for _, alpha, lo, hi in block:
            if lo > hi + _slack(lo, hi):
                problems.append(f"{path.name}: node {node} alpha {alpha}: lower {lo} > upper {hi}")
        for (_, a0, lo0, hi0), (_, a1, lo1, hi1) in zip(block, block[1:]):
            if lo1 < lo0 - _slack(lo0, lo1) or hi1 > hi0 + _slack(hi0, hi1):
                problems.append(
                    f"{path.name}: node {node}: alpha {a1} interval [{lo1}, {hi1}] "
                    f"not inside alpha {a0} interval [{lo0}, {hi0}]"
                )
        top = rows[(node + 1) * n_levels - 1]
        if top[2] != top[3]:
            problems.append(f"{path.name}: node {node}: top level [{top[2]}, {top[3]}] not degenerate")
    return problems[:20]


def check_sensitivity(path: Path, envelope: Path, n_nodes: int, n_levels: int) -> list[str]:
    """Per-node widths equal the alpha = 0 envelope widths."""
    header, rows = read_rows(path)
    if header != ["scenario", "node_id", "width"] or len(rows) != n_nodes + 2:
        return [f"{path.name}: header {header} with {len(rows)} rows, expected {n_nodes + 2}"]
    widths = _floats(rows, slice(2, 3))
    if widths is None:
        return [f"{path.name}: non-numeric or non-finite width"]
    _, env_rows = read_rows(envelope)
    problems = []
    for node in range(n_nodes):
        lo, hi = (float(v) for v in env_rows[node * n_levels][2:4])
        w = widths[node][0]
        if abs(w - (hi - lo)) > _slack(lo, hi):
            problems.append(f"{path.name}: node {node} width {w} != {hi} - {lo}")
    mean = sum(w for (w,) in widths[:n_nodes]) / n_nodes
    if abs(widths[n_nodes][0] - mean) > _slack(mean):
        problems.append(f"{path.name}: average width {widths[n_nodes][0]} != mean {mean}")
    return problems[:20]


def check_solve(nodes: Path, temperature: Path, n_nodes: int, width_cm: float, t_fixed: float) -> list[str]:
    """Row counts, finite temperatures, and the fixed right wall at t_fixed."""
    n_header, n_rows = read_rows(nodes)
    t_header, t_rows = read_rows(temperature)
    if n_header != ["node_id", "x_cm", "y_cm"] or len(n_rows) != n_nodes:
        return [f"{nodes.name}: header {n_header} with {len(n_rows)} rows, expected {n_nodes}"]
    if t_header != ["node_id", "T"] or len(t_rows) != n_nodes:
        return [f"{temperature.name}: header {t_header} with {len(t_rows)} rows, expected {n_nodes}"]
    coords = _floats(n_rows, slice(0, 3))
    temps = _floats(t_rows, slice(0, 2))
    if coords is None or temps is None:
        return ["solve output: non-numeric or non-finite value"]
    problems = []
    for (i, x, _), (j, t) in zip(coords, temps):
        if i != j:
            problems.append(f"node ids differ: {i} vs {j}")
        elif x == width_cm and t != t_fixed:
            problems.append(f"node {int(i)} on the fixed wall reads {t}, expected {t_fixed}")
    return problems[:20]


def check_rod(path: Path, steps: int, n_elems: int, dt: float, left: float, right: float) -> list[str]:
    """One row per state, time = step * dt, both ends held at their values."""
    header, rows = read_rows(path)
    if len(header) != n_elems + 2 or len(rows) != steps + 1:
        return [f"{path.name}: {len(header)} columns, {len(rows)} rows; "
                f"expected {n_elems + 2} and {steps + 1}"]
    values = _floats(rows, slice(0, None))
    if values is None:
        return [f"{path.name}: non-numeric or non-finite value"]
    problems = []
    for step, row in enumerate(values):
        if abs(row[0] - step * dt) > _slack(step * dt):
            problems.append(f"{path.name}: row {step} time {row[0]}, expected {step * dt}")
        if step and (row[1] != left or row[-1] != right):
            problems.append(f"{path.name}: row {step} ends {row[1]}, {row[-1]}; expected {left}, {right}")
    return problems[:20]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_entry(path: Path) -> dict:
    """What the stored reference keeps of one output file."""
    lines = path.read_text().splitlines()
    per_row = max(1, len(lines[0].split(",")))
    stride = max(1, math.ceil(len(lines) * per_row / SAMPLE_VALUES))
    return {
        "sha256": digest(path),
        "rows": len(lines),
        "sample": [[i, lines[i]] for i in range(0, len(lines), stride)],
    }


def _fields_agree(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    return abs(g - w) <= RTOL * abs(w) + ATOL


def compare_reference(out_dir: Path, reference: dict) -> tuple[bool, list[str]]:
    """(all bytes identical, problems beyond tolerance) against the reference."""
    identical = True
    problems = []
    for name, entry in reference["files"].items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            identical = False
            continue
        identical &= digest(path) == entry["sha256"]
        lines = path.read_text().splitlines()
        if len(lines) != entry["rows"]:
            problems.append(f"{name}: {len(lines)} lines, reference has {entry['rows']}")
            continue
        for i, want in entry["sample"]:
            got_fields, want_fields = lines[i].split(","), want.split(",")
            if len(got_fields) != len(want_fields) or not all(
                _fields_agree(g, w) for g, w in zip(got_fields, want_fields)
            ):
                problems.append(f"{name}: line {i} differs from the reference beyond tolerance")
                break
    return identical, problems
