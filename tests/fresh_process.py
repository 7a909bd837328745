"""Run a snippet in a fresh interpreter: what a process start pays for and loads."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(script: str) -> str:
    """The stdout of ``script`` run by a new interpreter with ``src`` on its path."""
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout
