"""Smoke tests of the scripts under scripts/: they run against the
current API and print what they promise.  No timing is asserted."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_moments_runs_every_row_once():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_moments.py"), "--repeat", "1"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # one "label  time ms/call" line per row of the script
    source = (ROOT / "scripts" / "bench_moments.py").read_text()
    assert len(lines) == source.count("    clock(\"")
    assert all(line.endswith(" ms/call") for line in lines)
