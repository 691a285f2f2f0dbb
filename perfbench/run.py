#!/usr/bin/env python3
"""Benchmark of holonoise: end-to-end metrics per workload, per-layer
metrics from a traced run, and a correctness gate on every output.

    python3 perfbench/run.py --workload scans --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --quick

Workloads: scans, oracle, noise, domain (see perfbench/NOTES.md); "all"
runs the four one after another.  ``--trace 1`` reports the per-layer
metrics instead of the end-to-end ones.  ``--quick`` runs every
workload once at minimal size and checks its outputs, with no timing.
The last line printed is one JSON object with the keys correct,
attempted, failed and metrics.  Run from the root of a checkout; the
program is imported from its ``src``.
"""
import os

# one BLAS thread, one workload process at a time: sized for a 2-core host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 9  # fresh processes per run; setup_s is their median
RUN_LIMIT_S = 170.0  # one run of one workload must end within 180 s


def run_worker(flags: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return the JSON it printed last."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *flags], cwd=ROOT, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(flags)} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: int, quick: bool,
            deadline: float) -> dict:
    """One workload: worker run, gate on every pass, set-up probes, metrics."""
    flags = ["--workload", name, "--seed", str(seed)]
    result = run_worker(flags + ["--seconds", str(seconds), "--trace", str(trace)]
                        + (["--quick"] if quick else []), deadline)
    passes = result["passes"]
    verdicts: dict[tuple[int, str], gate.Verdict] = {}
    for p in passes:
        key = (p["seed"], p["digest"])
        if key not in verdicts:
            work = workloads.Workload(name, p["seed"], quick)
            verdicts[key] = gate.check(work, result["outputs"][p["digest"]])
        p["failed"] = verdicts[key].failed
    # Every pass over an input set, traced or not, must give the same
    # outputs; so items and failures are counted once per input set.
    repeatable = len(verdicts) == len({seed for seed, _ in verdicts})
    first = {p["seed"]: p for p in reversed(passes)}
    attempted = sum(p["items"] for p in first.values())
    failed = sum(p["failed"] for p in first.values())
    untraced = [p for p in passes if not p["traced"]]
    lines = [f"== {name}  seed {seed}  {len(untraced)} passes over {len(first)} input sets of "
             f"{untraced[0]['items']} items" + (", each followed by a traced pass" if trace else "")]
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = tracer.layer_metrics(traced, [p["wall_s"] for p in untraced])
        raised = statistics.median(p["layers"]["readout_failed"] for p in traced)
        lines.append(f"holometer.readout_moments.failed: {raised:g} calls raised (median per traced pass)")
        absent = traced[0]["layers"]["absent"]
        if absent:
            lines.append(f"absent layers (reported as 0): {', '.join(absent)}")
    else:
        metrics = {
            "items_per_s": (statistics.median((p["items"] - p["failed"]) / p["cpu_s"] for p in untraced),
                            "1/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        lines.append(f"items_per_s: median over {len(untraced)} passes, per second of process CPU "
                     f"time (wall-clock median "
                     f"{statistics.median(p['items'] / p['wall_s'] for p in untraced):.6g} 1/s)")
        if not quick:
            setup = [run_worker(flags + ["--probe"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            metrics["setup_s"] = (statistics.median(setup), "s")
            lines.append(f"setup_s: median of {SETUP_PROBES} fresh processes, in process CPU time")
    lines += [f"{key:<56} {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    lines.append(f"{'failed_share':<56} {failed / attempted:.6g} share "
                 f"({failed} of {attempted} items over the input sets)")
    worst = max(v.worst_margin for v in verdicts.values())
    correct = repeatable and all(v.ok for v in verdicts.values())
    lines.append(f"gate: {'PASS' if correct else 'FAIL'} on {len(verdicts)} output sets, worst margin "
                 f"{worst:.3g} of the allowance"
                 + ("" if repeatable else "; passes over the same inputs gave different outputs"))
    lines += [f"  rejected: {m}" for v in verdicts.values() for m in v.messages][:10]
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "items": untraced[0]["items"], "lines": lines}


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def run_record(seed: int, items: dict[str, int]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"git_sha": _git_sha(), "python": platform.python_version(), "numpy": np.__version__,
            "blas": openblas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "seed": seed, "items_per_pass": items}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="every workload once at minimal size, no timing")
    args = parser.parse_args()
    if args.workload is None and not args.quick:
        parser.error("--workload is required unless --quick is given")
    workloads.import_holonoise(ROOT)

    names = workloads.WORKLOADS if args.quick or args.workload == "all" else (args.workload,)
    seconds = 0.0 if args.quick else args.seconds
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        results[name] = measure(name, args.seed, seconds, args.trace, args.quick, deadline)
        print("\n".join(results[name]["lines"]), flush=True)
    print("record: " + json.dumps(run_record(args.seed, {n: r["items"] for n, r in results.items()})))

    prefix = len(names) > 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}" if prefix else key: {"value": value, "unit": unit}
                    for name, r in results.items() for key, (value, unit) in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] or not args.quick else 1


if __name__ == "__main__":
    raise SystemExit(main())
