"""Smoke tests of the scripts under scripts/: they run against the
current API and print what they promise.  No timing is asserted."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_moments_runs_every_row_once(tmp_path):
    record_path = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_moments.py"), "--quick",
         "--json", str(record_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # one "label  time ms/call" line per row, and the same rows in the record
    assert all(line.endswith(" ms/call") for line in lines)
    record = json.loads(record_path.read_text())
    assert len(record["rows"]) == len(lines)
    assert all(line.startswith(row["label"]) for row, line in zip(record["rows"], lines))
    assert {"git_revision", "python", "numpy", "nproc", "blas_threads"} <= set(record)
    for row in record["rows"]:
        assert row["repeat"] == 1 and row["min_ms"] <= row["median_ms"] and row["inputs"]
    scans = [row["inputs"]["argv"] for row in record["rows"] if row["label"].startswith("scan ")]
    assert len(scans) == 5


def test_bench_moments_keeps_each_rows_median_over_its_rounds(tmp_path):
    record_path = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_moments.py"), "--quick", "--rounds", "3",
         "--json", str(record_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    headers = [line for line in done.stdout.splitlines() if line.startswith("-- ")]
    assert headers == ["-- round 1 of 3", "-- round 2 of 3", "-- round 3 of 3",
                       "-- median over 3 rounds"]
    record = json.loads(record_path.read_text())
    assert record["rounds"] == 3
    for row in record["rows"]:
        rounds = sorted(row["round_medians_ms"])
        assert len(rounds) == 3 and row["median_ms"] == rounds[1]
        assert sorted(row["round_cpu_medians_ms"])[1] == row["cpu_median_ms"]
    labels = [row["label"].strip() for row in record["rows"]]
    # the oracle's stages: inputs, tables, Grams, distributions, readout
    at = labels.index("its inputs and cutoffs")
    assert labels[at + 1].startswith("the tables of its ")
    assert labels[at + 2 : at + 5] == ["its Grams from those tables", "its joint distributions",
                                       "its moment readout"]


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


def test_snapshot_outputs_commands_parse_and_one_runs(tmp_path):
    path = ROOT / "scripts" / "snapshot_outputs.py"
    spec = importlib.util.spec_from_file_location("snapshot_outputs", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    parser = script.cli._parser()
    for argv in script.COMMANDS.values():
        parser.parse_args(argv + ["--out", str(tmp_path / "unused.csv")])
    assert len(script.COMMANDS) == 32
    # the "wrote" line is dropped and the exit code appended
    argv = ["nrf-scan", "--grid", "0.5", "--lambdas", "1"]
    assert script.snapshot("nrf", argv, tmp_path) == 0
    assert (tmp_path / "nrf.txt").read_text() == "exit code: 0\n"
    assert (tmp_path / "nrf.csv").read_text().splitlines()[-1].startswith("0.5,1.0,")
