"""The inputs each workload feeds the program, and one pass over them.

Every workload drives holonoise from outside: through ``cli.main`` with
default flags, or through the public module functions.  holonoise is
imported only inside functions, so the set-up probe can time that
import.
"""
from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

WORKLOADS = ("scans", "oracle", "noise", "domain")

# The four sweeps of scripts/run_figure_scans.py that reproduce the
# paper's figures, with the CLI's default flags.
SCANS = {
    "nrf_vs_tau": ["nrf-scan", "--variable", "tau", "--grid", "0.02:0.9999:120",
                   "--lambdas", "0.1,1,10"],
    "uncertainty_vs_phi0": ["uncertainty-scan", "--variable", "phi0",
                            "--grid", "1e-8:1e-1:71:log"],
    "uncertainty_vs_eta": ["uncertainty-scan", "--variable", "eta", "--grid", "0.80:0.999:81"],
    "uncertainty_vs_lambda": ["uncertainty-scan", "--variable", "lambda",
                              "--grid", "1e-3:10:61:log", "--phi0", "1e-2"],
}
ESTIMATORS = ("difference-squared", "sum-squared", "quadrature-product")
MC_EPSILONS = "0,1e-8,1e-7,1e-6"  # mc-estimate's default --epsilons
ORACLE_CONFIGS = 100
DOMAIN_CONFIGS = 300

# --quick sizes: every workload at minimal size, for the benchmark's own tests
QUICK_GRID_POINTS = 3
QUICK_ORACLE_CONFIGS = 3
QUICK_MC = ["--n-samples", "1000", "--epsilons", "0,1e-6"]
QUICK_DOMAIN_CONFIGS = 6
# input sets a run cycles over, for the workloads whose inputs are random
INPUT_SETS = 5

# the first item of each command-line workload: one row of the first
# sweep of each kind, one oracle configuration, one cheap estimator run
# (domain: one configuration).  Its inputs are drawn at a fixed seed:
# the cost of one oracle configuration varies about fivefold between
# draws, which would make set-up time depend on the run's seed.
FIRST_CALL_SEED = 0
FIRST_CALLS = {
    "scans": [["nrf-scan", "--variable", "tau", "--grid", "0.02", "--lambdas", "0.1"],
              ["uncertainty-scan", "--variable", "phi0", "--grid", "1e-08"]],
    "oracle": [["oracle-check", "--n-configs", "1"]],
    "noise": [["mc-estimate", "--estimator", "quadrature-product"] + QUICK_MC],
}


def pass_seed(seed: int, index: int, input_sets: int) -> int:
    """Input seed of pass ``index`` of a run at ``seed``.  A run cycles
    over ``input_sets`` input sets, so its median averages over several
    draws, and the same sets are used whatever the speed.  Runs at
    different seeds never share inputs."""
    return seed * 1000 + index % input_sets


def import_holonoise(root: Path) -> None:
    """Import holonoise from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    if not (src / "holonoise" / "__init__.py").is_file():
        raise SystemExit(f"no holonoise sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import holonoise

    if Path(holonoise.__file__).resolve().parent != src / "holonoise":
        raise SystemExit(f"imported holonoise from {holonoise.__file__}, not from {src}")


def grid_points(text: str) -> list[float]:
    """The sweep values a "min:max:points[:scale]" grid flag stands for."""
    import numpy as np

    if ":" not in text:
        return [float(v) for v in text.split(",")]
    lo, hi, n, *scale = text.split(":")
    space = np.geomspace if scale == ["log"] else np.linspace
    return [float(v) for v in space(float(lo), float(hi), int(n))]


def scan_argv(name: str, quick: bool) -> list[str]:
    argv = list(SCANS[name])
    if quick:
        at = argv.index("--grid") + 1
        points = grid_points(argv[at])
        step = (len(points) - 1) // (QUICK_GRID_POINTS - 1)
        argv[at] = ",".join(repr(v) for v in points[::step][:QUICK_GRID_POINTS])
    return argv


def oracle_argv(seed: int, quick: bool) -> list[str]:
    n = QUICK_ORACLE_CONFIGS if quick else ORACLE_CONFIGS
    return ["oracle-check", "--n-configs", str(n), "--seed", str(seed)]


def noise_argv(estimator: str, seed: int, quick: bool) -> list[str]:
    return ["mc-estimate", "--estimator", estimator, "--seed", str(seed)] + (QUICK_MC if quick else [])


def domain_configs(seed: int, n: int) -> list:
    """Seeded configurations across the documented domain: all three
    input kinds, mu in [0.1, 3e12] and lambda in [1e-3, 10] log-uniform,
    phi0 in [1e-8, 2.5] log-uniform with half the draws at unequal
    phases, and half the draws with a second detector efficiency."""
    import numpy as np
    from holonoise.config import HolometerConfig, InputKind

    rng = np.random.default_rng(seed)
    kinds = list(InputKind)
    configs = []
    for _ in range(n):
        kind = kinds[int(rng.integers(len(kinds)))]
        mu = 10.0 ** rng.uniform(-1.0, math.log10(3e12))
        lam = 10.0 ** rng.uniform(-3.0, 1.0)
        phi_1 = 10.0 ** rng.uniform(-8.0, math.log10(2.5))
        unequal, asymmetric = rng.random(2) < 0.5
        phi_2 = min(phi_1 * 10.0 ** rng.uniform(-0.5, 0.5), 2.5) if unequal else phi_1
        eta = rng.uniform(0.5, 1.0)
        eta_2 = rng.uniform(0.5, 1.0) if asymmetric else None
        configs.append(HolometerConfig(
            mu=mu, psi=rng.uniform(0.0, 2.0 * math.pi),
            lam=0.0 if kind is InputKind.COHERENT_ONLY else lam,
            eta=eta, eta_2=eta_2, phi0_1=phi_1, phi0_2=phi_2, input_kind=kind,
            theta=rng.uniform(0.0, 2.0 * math.pi),
        ))
    return configs


def _cli(argv: list[str]) -> dict:
    """Run one CLI command, capturing what it prints.  An exception on
    valid input is a measured failure, so it is recorded, not raised."""
    from holonoise import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - counted in failed_share
        return {"code": None, "error": f"{type(exc).__name__}: {exc}", "stdout": ""}
    # the oracle's wall-time line is the only output that differs between passes
    lines = [line for line in buf.getvalue().splitlines() if not line.startswith("runtime:")]
    return {"code": code, "stdout": "\n".join(lines)}


class Workload:
    """One workload at a seed: its items per pass and how to run a pass."""

    def __init__(self, name: str, seed: int, quick: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
        self.name, self.seed, self.quick = name, seed, quick
        if name == "scans":
            self.argvs = {scan: scan_argv(scan, quick) for scan in SCANS}
        elif name == "oracle":
            self.argvs = {"oracle-check": oracle_argv(seed, quick)}
        elif name == "noise":
            self.argvs = {est: noise_argv(est, seed, quick) for est in ESTIMATORS}
        else:
            self.configs = domain_configs(seed, QUICK_DOMAIN_CONFIGS if quick else DOMAIN_CONFIGS)

    @property
    def input_sets(self) -> int:
        """Distinct input sets one run covers (the scans have no randomness)."""
        return 1 if self.quick or self.name == "scans" else INPUT_SETS

    @property
    def items(self) -> int:
        """Items one pass completes when nothing fails: CSV data rows for
        scans, configurations for oracle and domain, recovered
        covariances for noise."""
        if self.name == "domain":
            return len(self.configs)
        total = 0
        for argv in self.argvs.values():
            flags = dict(zip(argv[1::2], argv[2::2]))
            if argv[0] == "oracle-check":
                total += int(flags["--n-configs"])
            elif argv[0] == "mc-estimate":
                total += len(flags.get("--epsilons", MC_EPSILONS).split(","))
            else:
                lambdas = flags.get("--lambdas", "").split(",") if argv[0] == "nrf-scan" else [""]
                total += len(grid_points(flags["--grid"])) * len(lambdas)
        return total

    def first_call(self) -> None:
        """The smallest unit of the workload: what a fresh process must
        finish before its first result, and the warm-up before timing."""
        if self.name == "domain":
            self._domain(domain_configs(FIRST_CALL_SEED, 1))
        for argv in FIRST_CALLS.get(self.name, []):
            _cli(argv + ["--seed", str(FIRST_CALL_SEED)])

    def run_pass(self) -> dict:
        if self.name == "domain":
            return {"results": self._domain(self.configs)}
        return {key: _cli(argv) for key, argv in self.argvs.items()}

    @staticmethod
    def _domain(configs: list) -> list[dict]:
        from holonoise import holometer

        results = []
        for config in configs:
            try:
                m = holometer.readout_moments(config, max_order=4)
                q = holometer.quadrature_readout(config)
            except Exception as exc:  # noqa: BLE001 - counted in failed_share
                results.append({"error": f"{type(exc).__name__}: {exc}"})
                continue
            centered = getattr(m, "centered", None) or {}
            results.append({
                "moments": [m.mean_1, m.mean_2, m.var_1, m.var_2, m.cov],
                "quadrature": [q.mean_1, q.mean_2, q.var_1, q.var_2, q.cov],
                "order4_finite": len(centered) > 0 and all(map(math.isfinite, centered.values())),
            })
        return results
