"""Tests for the package surface: the export list and the demo scripts."""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import fuzzyheat

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves_once():
    repeats = [name for name, count in Counter(fuzzyheat.__all__).items() if count > 1]
    assert repeats == []
    missing = [name for name in fuzzyheat.__all__ if not hasattr(fuzzyheat, name)]
    assert missing == []


# SHA-256 of each demo's stdout, recorded with the dense plate solver still in
# the package; they pin the demos to the same bytes.  Demo 03 prints the
# rounding error of a solve against its closed form: re-recorded when the plate
# factor split into an h-independent band and a wall block (1.279e-13 K to
# 5.684e-14 K), and again when the solve dropped its refinement step
# (5.684e-14 K to 1.279e-13 K).
DEMO_STDOUT = {
    "01_fuzzy_numbers.py": "0c9d42fb23e3b5f9e6b30798010a65458b037e223699e1af9262936e85808bf8",
    "02_plate_mesh.py": "45be15a53b3fc0a8b962af07ce295d218e58f463ba8cbe7ce84792ab1b5449e3",
    "03_crisp_plate.py": "7ac723574dc74f0d2d22337f3ed923254013e3acd22f414946d938a19af61745",
    "04_fuzzy_envelopes.py": "8fc6308717117f546481b29145027136ade1c0afa201e972c542af472508d212",
    "05_rod_transient.py": "9a5fd61a621ddc5335e4a3ce550828412986d56a13a12430f569906b10e2f579",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT))
def test_demo_prints_golden_bytes(demo):
    """Each demo runs in a fresh interpreter that fails on any warning."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b""
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT[demo]
