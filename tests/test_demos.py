"""Smoke test: every demo script runs to completion at small sizes."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "envelope_sweep.py": ["--n-values", "16", "24", "32"],
    "local_moments.py": ["--r-values", "64", "128", "256", "--n-seeds", "2"],
    "moment_identities.py": ["--N", "4"],
    "cap_geometry_tour.py": ["--samples", "500"],
}


def test_every_demo_is_covered():
    assert sorted(DEMOS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_exits_0(name, child_env):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *DEMOS[name]],
        env=child_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
