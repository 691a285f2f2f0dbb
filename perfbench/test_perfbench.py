"""Tests of the benchmark itself: quick mode, the gate's negative
controls, and the tracer.  Run with ``python3 -m pytest perfbench -q``.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
workloads.import_holonoise(ROOT)

from holonoise import crosscheck, estimation, holometer, observables  # noqa: E402
from holonoise.config import HolometerConfig  # noqa: E402


def _last_json(stdout: str):
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    return json.loads(last) if last.startswith("{") else None


def test_quick_mode_runs_every_workload_and_passes_the_gate():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    for name in workloads.WORKLOADS:
        assert {f"{name}.items_per_s", f"{name}.peak_rss_mb"} <= set(result["metrics"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scans", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert _last_json(proc.stdout) is None


def test_gate_rejects_the_broken_convention():
    work = workloads.Workload("oracle", seed=1, quick=True)
    argv = work.argvs["oracle-check"] + ["--broken-convention"]
    verdict = gate.check(work, {"oracle-check": workloads._cli(argv)})
    assert not verdict.ok
    assert verdict.failed == work.items


@pytest.fixture(scope="module")
def quick_scans():
    work = workloads.Workload("scans", seed=1, quick=True)
    return work, work.run_pass()


def _perturbed(outputs: dict, scan: str, columns: list[str] | None) -> dict:
    """Copy of the outputs with the middle data row of one scan scaled by
    1 + 1e-5 in the given columns (every numeric column when None)."""
    lines = outputs[scan]["stdout"].splitlines()
    names = next(line for line in lines if line.startswith("# columns: "))[11:].split(",")
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    at = data[len(data) // 2]
    cells = lines[at].split(",")
    for k, name in enumerate(names):
        if (columns is None or name in columns) and name != "flag":
            cells[k] = repr(float(cells[k]) * (1.0 + 1e-5))
    lines[at] = ",".join(cells)
    return {**outputs, scan: {**outputs[scan], "stdout": "\n".join(lines)}}


def _scan_columns():
    for scan, argv in workloads.SCANS.items():
        if argv[0] == "nrf-scan":
            yield scan, ["tau", "lambda", "nrf_minus", "nrf_plus", "regime_k"]
        else:
            yield scan, [argv[argv.index("--variable") + 1]] + gate._UNCERTAINTY_COLUMNS


def test_gate_passes_the_unperturbed_scans(quick_scans):
    work, outputs = quick_scans
    verdict = gate.check(work, outputs)
    assert verdict.ok and verdict.failed == 0, verdict.messages


@pytest.mark.parametrize("scan,column", [(s, c) for s, cols in _scan_columns() for c in [None] + cols])
def test_gate_rejects_a_scan_row_perturbed_by_1e5(quick_scans, scan, column):
    work, outputs = quick_scans
    verdict = gate.check(work, _perturbed(outputs, scan, None if column is None else [column]))
    assert not verdict.ok
    assert verdict.failed == 1


def test_exception_on_valid_input_is_counted_but_never_rejects():
    work = workloads.Workload("domain", seed=1, quick=True)
    outputs = work.run_pass()
    outputs["results"][0] = {"error": "ArithmeticError: moment (1,3) has imaginary residue 1e-7"}
    verdict = gate.check(work, outputs)
    assert verdict.ok and verdict.failed == 1


def test_tracer_times_each_lookup_site_and_restores_it():
    config = HolometerConfig(mu=2.0, psi=0.3, lam=0.5, eta=0.9, phi0_1=0.8, phi0_2=0.8,
                             input_kind="TWB")
    original = holometer.readout_moments
    with tracer.Tracer() as t:
        crosscheck.readout_moments(config)  # bound by name in crosscheck
        estimation.u0(config.replace(psi=math.pi / 2.0, mu=1e6),
                      estimation.EstimatorSpec(kind="TwbDifferenceSquared"))
    stats = t.stats()
    assert holometer.readout_moments is original and crosscheck.readout_moments is original
    assert stats["order4"] == 2 and stats["order2"] == 8
    assert stats["calls"]["holometer.readout_moments"] == 10
    assert stats["calls"]["holometer.propagate"] == 10
    assert stats["calls"]["estimation.u0"] == 1
    assert all(value >= 0.0 for value in stats["self_s"].values())


def test_tracer_reports_a_deleted_function_as_absent(monkeypatch):
    monkeypatch.delattr(observables, "nrf")
    with tracer.Tracer() as t:
        pass
    stats = t.stats()
    assert stats["absent"] == ["observables.nrf"]
    metrics = tracer.layer_metrics([{"wall_s": 1.0, "items": 1, "layers": stats}], [1.0])
    assert metrics["observables.nrf.calls"] == (0, "count")
