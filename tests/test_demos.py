"""Each demo runs as a script and prints exactly its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout. The demos print library results to fixed
# precision, so a refactor that moves any of them shows up here.
DEMO_STDOUT_SHA256 = {
    "01_spectral_smoothing.py": "8cfe102434545c4f67e9936db00b6899dcff1f0f2f29ca646b8f57e70370fe1f",
    "02_head_scoring.py": "41f97fe50cf9c7d0747c0288a1278a9e19dfbeecab82b081c2bd40a7f5cee682",
    "03_budget_allocation.py": "15cf3dbe7894b63cb1a3aa66c31105cb083d62575c7f3fa2ce9a61a25b391e70",
    "04_policy_comparison.py": "14a62246696c10de7bd68512f2016a5c5a9017aa4e4f94f8c2a2d3408282c2ed",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_output_is_pinned(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo], run.stdout.decode()
