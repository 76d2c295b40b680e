"""Smoke tests for the user-facing scripts: each runs once with its defaults."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scripts_run_with_their_defaults():
    # every script in scripts/, so that a new one is covered without editing
    # this test; one process at a time
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    for script in scripts:
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, (script.name, proc.stderr)
        assert proc.stdout.strip(), script.name
