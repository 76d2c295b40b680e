"""Smoke tests for the user-facing scripts: each runs once with its defaults."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scripts_run_with_their_defaults():
    # one process at a time; the sweep is the only user-facing three-way check
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for script, last_line in (
        ("degeneracy_sweep.py", "all three computations agree everywhere"),
        ("worked_examples.py", None),
    ):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()
        if last_line is not None:
            assert proc.stdout.splitlines()[-1] == last_line
