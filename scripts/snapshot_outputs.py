#!/usr/bin/env python3
"""Write every CLI output that a byte-identity check compares, so that
two checkouts compare with one ``diff -r``.

Each command runs in-process through the CLI with ``--out`` pointing at
DIR/<name>.csv; what it prints, stdout and stderr together, goes to
DIR/<name>.txt with its exit code as the last line.  The ``runtime:``
and ``wrote`` lines are dropped, since they change from run to run and
with DIR.  The commands are the five figure scans of
run_figure_scans.py, ``nrf-scan`` and ``uncertainty-scan`` on their
default grids for each sweep variable, ``uncertainty-scan`` at phi0 =
0.01 for mu = 1e40 and 1e80, far above the documented domain, where
its ratio columns must not drift, ``mc-estimate`` for each
estimator, ``mc-estimate`` for the quadrature-product and difference
estimators at sample counts on both edges of the 8 192-pair blocks in
which phase_noise.mc_expectation draws its normals and evaluates its
surface, and
``oracle-check`` on 100 configurations at the default seed, at seeds
1000 and 1003, and with the broken convention.  A full run takes about
four seconds on a 2-core x86-64 host.

The script imports holonoise from the src/ of its own checkout.  To
compare two checkouts, copy it into the other one's scripts/ as well:

    python3 scripts/snapshot_outputs.py --out-dir /tmp/new
    cp scripts/snapshot_outputs.py ../old/scripts/
    python3 ../old/scripts/snapshot_outputs.py --out-dir /tmp/old
    diff -r /tmp/old /tmp/new
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run_figure_scans import SCANS, cli  # noqa: E402 - puts src/ on the path

_ORACLE = ["oracle-check", "--n-configs", "100"]
_MC_NOISE = ["--sigma2", "3e-6", "--epsilons", "0,-1e-7,2e-7,5e-7,1e-6,3e-6", "--seed", "5"]

COMMANDS: dict[str, list[str]] = {
    **{Path(name).stem: argv for name, argv in SCANS.items()},
    **{f"nrf-scan_{v}": ["nrf-scan", "--variable", v] for v in cli.SWEEP_VARIABLES},
    **{f"uncertainty-scan_{v}": ["uncertainty-scan", "--variable", v] for v in cli.SWEEP_VARIABLES},
    **{f"uncertainty-scan_mu{mu}": ["uncertainty-scan", "--grid", "0.01", "--mu", mu]
       for mu in ("1e40", "1e80")},
    **{f"mc-estimate_{e}": ["mc-estimate", "--estimator", e]
       for e in ("difference-squared", "sum-squared", "quadrature-product")},
    **{f"mc-estimate_{e}_n{n}": ["mc-estimate", "--estimator", e, "--n-samples", str(n), *_MC_NOISE]
       for e in ("quadrature-product", "difference-squared") for n in (8191, 8192, 8193, 100001)},
    "oracle-check": _ORACLE,
    "oracle-check_seed1000": _ORACLE + ["--seed", "1000"],
    "oracle-check_seed1003": _ORACLE + ["--seed", "1003"],
    "oracle-check_broken": _ORACLE + ["--broken-convention"],
}

_VOLATILE = ("runtime:", "wrote ")


def snapshot(name: str, argv: list[str], out_dir: Path) -> int:
    """Run one command into out_dir/<name>.csv and out_dir/<name>.txt;
    returns its exit code."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        code = cli.main(argv + ["--out", str(out_dir / f"{name}.csv")])
    kept = [line for line in printed.getvalue().splitlines() if not line.startswith(_VOLATILE)]
    (out_dir / f"{name}.txt").write_text("\n".join(kept + [f"exit code: {code}"]) + "\n")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", required=True, help="output directory")
    out_dir = Path(parser.parse_args().out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, argv in COMMANDS.items():
        print(f"{name}: exit code {snapshot(name, argv, out_dir)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
