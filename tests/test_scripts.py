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


def test_size_report_totals_its_module_rows():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "size_report.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    header, *modules, total = done.stdout.splitlines()
    assert header.split() == ["module", "lines", "settable"]
    rows = {name: (int(lines), int(values)) for name, lines, values in map(str.split, modules)}
    package = ROOT / "src" / "holonoise"
    assert sorted(rows) == sorted(path.name for path in package.glob("*.py"))
    assert total.split()[0] == "total"
    assert int(total.split()[1]) == sum(lines for lines, _ in rows.values())
    assert int(total.split()[2]) == sum(values for _, values in rows.values())
    assert rows["config.py"][0] == (package / "config.py").read_text().count("\n")
