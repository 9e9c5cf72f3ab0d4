"""The benchmark's layer tracer (bench/tracer.py) resolves every traced
name, so renaming a traced function fails here, not only in
bench/selftest.py (which pytest does not collect)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.Tracer().install()"],
        cwd=ROOT / "bench", env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
