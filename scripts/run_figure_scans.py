#!/usr/bin/env python3
"""Regenerate the standard survey CSVs with the packaged CLI.

Each scan reproduces one of the canonical parameter sweeps: noise
reduction factors against transmissivity, uncertainty ratios against the
working-point phase (the regime-A-to-B transition), against efficiency
deep in the quantum-dominated regime, and against the quantum occupancy.
Outputs land in --out-dir as plain CSV with a commented header, ready
for any plotting tool.

Usage:
    python3 scripts/run_figure_scans.py --out-dir results/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from holonoise import cli

SCANS: dict[str, list[str]] = {
    # difference/sum noise reduction across the transmissivity range, one
    # trace per quantum occupancy
    "nrf_vs_tau.csv": [
        "nrf-scan", "--variable", "tau", "--grid", "0.02:0.9999:120",
        "--lambdas", "0.1,1,10",
    ],
    # uncertainty ratios across the working-point phase: the plateau on the
    # right, the quantum-dominated floor on the left, the break in between
    "uncertainty_vs_phi0.csv": [
        "uncertainty-scan", "--variable", "phi0", "--grid", "1e-8:1e-1:71:log",
    ],
    # efficiency dependence at a deep-quantum working point, where twin
    # beams beat independent squeezing only at high efficiency
    "uncertainty_vs_eta.csv": [
        "uncertainty-scan", "--variable", "eta", "--grid", "0.80:0.999:81",
    ],
    # occupancy dependence on the coherent-regime plateau
    "uncertainty_vs_lambda.csv": [
        "uncertainty-scan", "--variable", "lambda", "--grid", "1e-3:10:61:log",
        "--phi0", "1e-2",
    ],
    # covariance recovery at the default desk-scale configuration
    "mc_recovery.csv": [
        "mc-estimate", "--estimator", "quadrature-product",
        "--sigma2", "1e-5", "--epsilons", "0,1e-8,1e-7,1e-6",
        "--n-samples", "100000",
    ],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results", help="output directory")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name, scan_args in SCANS.items():
        target = out_dir / name
        print(f"==> {target}")
        code = cli.main(scan_args + ["--out", str(target)])
        if code != 0:
            print(f"scan {name} failed with exit code {code}", file=sys.stderr)
            return code
    print(f"all {len(SCANS)} scans written to {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
