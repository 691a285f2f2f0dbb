"""Command-line front end.

Four subcommands cover the package's workflows:

``nrf-scan``
    Noise-reduction factors of the photon-count difference and sum over
    a parameter sweep, one row per (grid point, quantum occupancy).
``uncertainty-scan``
    Photon-noise-limited uncertainty of the phase-covariance estimators,
    their ratios to the coherent-only benchmark, and the closed-form
    limit curves, over a parameter sweep.
``oracle-check``
    Blind cross-validation of the Gaussian engine against the
    truncated-Fock oracle, with a negative control.
``mc-estimate``
    Monte-Carlo recovery of an injected phase covariance from the
    difference of parallel- and perpendicular-noise expectations.

Common flags: ``--out`` (CSV path; stdout when omitted) and ``--seed``.
The three commands that build a configuration also take ``--config``
(JSON file whose keys mirror the configuration dataclass; explicit flags
override it).  Grids over MAX_GRID_POINTS points and ``--n-samples``
over MAX_SAMPLES are usage errors.

Exit codes: 0 success, 1 invalid input, 2 verification failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import estimation, phase_noise
from .config import HolometerConfig, InputKind
from .crosscheck import DEFAULT_SEED, run_crosscheck
from .estimation import EstimatorKind, EstimatorSpec, PsiPairingError, SingularConfigurationError
from .fock_oracle import CutoffError
from .observables import UndefinedResultError, nrf, regime_parameter

__all__ = ["entrypoint", "main"]

SWEEP_VARIABLES = ("phi0", "eta", "lambda", "tau", "psi")
# upper bounds that keep a run's memory bounded; the largest shipped grid
# has 120 points and mc-estimate defaults to 1e5 samples
MAX_GRID_POINTS = 10_000
MAX_SAMPLES = 1_000_000


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, keeping
    exit code 2 reserved for verification failures."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_grid(text: str) -> np.ndarray:
    """The sweep values of "min:max:points[:linear|log]" (at least 2
    points) or of a comma-separated value list, at most MAX_GRID_POINTS
    of them; argparse reports a bad grid as a usage error."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            values = [float(part) for part in text.split(",") if part.strip()]
            if not values:
                raise ValueError("empty sweep grid")
            points = len(values)
        elif len(parts) in (3, 4):
            lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
            scale = (parts + ["linear"])[3]
            if points < 2:
                raise ValueError("a min:max:points grid needs at least 2 points")
            if scale not in ("linear", "log"):
                raise ValueError(f"unknown grid scale {scale!r}; expected 'linear' or 'log'")
            if scale == "log" and (lo <= 0.0 or hi <= 0.0):
                raise ValueError("log grids need strictly positive endpoints")
        else:
            raise ValueError(f"grid {text!r} must be min:max:points[:linear|log]")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if points > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} has {points} points; at most {MAX_GRID_POINTS} are allowed"
        )
    if len(parts) == 1:
        return np.asarray(values, dtype=float)
    return (np.geomspace if scale == "log" else np.linspace)(lo, hi, points)


def _config_at(base: HolometerConfig, variable: str, value: float) -> HolometerConfig:
    """The base configuration with the swept variable set to ``value``."""
    if variable == "phi0":
        return base.replace(phi0_1=value, phi0_2=value)
    if variable == "eta":
        return base.replace(eta=value)
    if variable == "lambda":
        return base.replace(lam=value)
    if variable == "tau":
        if not 0.0 < value <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {value}")
        phi = 2.0 * math.acos(math.sqrt(value))
        return base.replace(phi0_1=phi, phi0_2=phi)
    return base.replace(psi=value)


def _parse_n_samples(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid sample count {text!r}") from None
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"{value} samples; at most {MAX_SAMPLES} are allowed")
    return value


def _parse_sigma2(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid variance {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        # at 0 no phase noise is injected: the runs coincide and nothing is recovered
        raise argparse.ArgumentTypeError(f"sigma2 must be finite and positive, got {text!r}")
    return value


def _parse_rtol(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        # a nan, infinite or negative tolerance would pass any disagreement
        raise argparse.ArgumentTypeError(f"rtol must be finite and non-negative, got {text!r}")
    return value


def _parse_float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return raw


_CONFIG_FLAG_FIELDS = ("mu", "psi", "lam", "eta", "phi0", "theta", "theta_xi", "kind")


def _resolve_config(defaults: Mapping[str, object], args: argparse.Namespace) -> HolometerConfig:
    """defaults < config file < explicit flags, then build the dataclass."""
    data = dict(defaults)
    data.update(_load_config_file(args.config))
    for name in _CONFIG_FLAG_FIELDS:
        value = getattr(args, name, None)
        if value is None:
            continue
        if name == "kind":
            data["input_kind"] = value
        elif name == "phi0":
            data.pop("phi0_1", None)
            data.pop("phi0_2", None)
            data[name] = value
        else:
            data[name] = value
    return HolometerConfig.from_dict(data)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="CSV output path (stdout when omitted)")
    # the scans draw no random numbers but take --seed too: perfbench
    # appends one seed to every subcommand it runs
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed")


def _add_config_flags(parser: argparse.ArgumentParser, *, with_phi0_lam: bool = True) -> None:
    """Flags of the configuration fields; nrf-scan goes without --phi0
    and --lam, taking the phase from its sweep and lambda from
    --lambdas or the lambda grid."""
    parser.add_argument("--config", metavar="PATH", help="JSON file of configuration fields")
    parser.add_argument("--mu", type=float, help="mean photon number of each coherent input")
    if with_phi0_lam:
        parser.add_argument("--lam", "--lambda", dest="lam", type=float,
                            help="mean photon number of each quantum input")
        parser.add_argument("--phi0", type=float, help="central interferometer phase (radians)")
    parser.add_argument("--eta", type=float, help="detection efficiency")
    parser.add_argument("--psi", type=float, help="coherent phase (radians)")
    parser.add_argument("--theta", type=float, help="pair-correlation phase (radians)")
    parser.add_argument("--theta-xi", dest="theta_xi", type=float,
                        help="squeezing phase (radians)")
    parser.add_argument("--kind", choices=[k.value for k in InputKind],
                        help="what is injected at the quantum ports")


def _format_cell(value: object) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    # quoted as RFC 4180 asks, so a moment name such as centered[1,3]
    # stays one cell
    return f'"{text}"' if "," in text else text


def _write_csv(
    out: str | None,
    command: str,
    header_extra: Sequence[str],
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    lines = [f"# holonoise {command}"]
    lines.extend(f"# {extra}" for extra in header_extra)
    lines.append("# columns: " + ",".join(columns))
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
        print(f"wrote {out}")


def _config_json(config: HolometerConfig) -> str:
    return json.dumps(config.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# nrf-scan
# ---------------------------------------------------------------------------

_NRF_BASE = {
    "mu": 1e6,
    "psi": math.pi / 2.0,
    "lam": 1.0,
    "eta": 1.0,
    "phi0": 2.0 * math.acos(math.sqrt(0.9)),
    "input_kind": "TWB",
}
_NRF_LAMBDAS = "0.1,1,10"


def _cmd_nrf_scan(args: argparse.Namespace) -> int:
    base = _resolve_config(_NRF_BASE, args)
    if args.variable == "lambda":
        if args.lambdas is not None:
            raise ValueError("--lambdas does not apply to --variable lambda; the grid sets lambda")
        lam_values = (base.lam,)
    else:
        lam_values = _parse_float_list(_NRF_LAMBDAS if args.lambdas is None else args.lambdas)
    psi_minus = args.psi if args.psi is not None else math.pi / 2.0
    psi_plus = args.psi if args.psi is not None else 0.0

    tasks = [(value, lam) for value in args.grid for lam in lam_values]

    def one(task: tuple[float, float]) -> tuple:
        value, lam = task
        config = _config_at(base, args.variable, value)
        if args.variable != "lambda":
            config = config.replace(lam=lam)
        pm = psi_minus if args.variable != "psi" else value
        pp = psi_plus if args.variable != "psi" else value
        minus = nrf(config.replace(psi=pm)).nrf_minus
        plus = nrf(config.replace(psi=pp)).nrf_plus
        return (value, config.lam, minus, plus, regime_parameter(config))

    rows = [one(task) for task in tasks]
    _write_csv(
        args.out,
        "nrf-scan",
        [
            f"base: {_config_json(base)}",
            f"difference column at psi={psi_minus!r}, sum column at psi={psi_plus!r}",
        ],
        [args.variable, "lambda", "nrf_minus", "nrf_plus", "regime_k"],
        rows,
    )
    return 0


# ---------------------------------------------------------------------------
# uncertainty-scan
# ---------------------------------------------------------------------------

_UNCERTAINTY_BASE = {
    "mu": 3e12,
    "psi": math.pi / 2.0,
    "lam": 10.0,
    "eta": 0.95,
    "phi0": 1e-2,
    "input_kind": "TWB",
}

_UNCERTAINTY_DEFAULT_GRIDS = {
    "phi0": "1e-5:1e-1:41:log",
    "eta": "0.80:0.999:41",
    "lambda": "1e-3:10:41:log",
    "tau": "0.5:0.9999:41",
    "psi": f"0:{math.pi!r}:41",
}


def _cmd_uncertainty_scan(args: argparse.Namespace) -> int:
    defaults = dict(_UNCERTAINTY_BASE)
    if args.variable == "eta" and args.phi0 is None:
        # deep-quantum working point, where the efficiency dependence is sharpest
        defaults["phi0"] = 1e-8
    base = _resolve_config(defaults, args)
    grid = args.grid
    if grid is None:
        grid = _parse_grid(_UNCERTAINTY_DEFAULT_GRIDS[args.variable])

    columns = [
        args.variable,
        "u0_twb",
        "u0_sq",
        "u0_twb_sum",
        "u_cl",
        "ratio_twb",
        "ratio_sq",
        "ratio_twb_sum",
        "regime_k",
        "asym_sq_plateau",
        "asym_twb_plateau",
        "asym_twb_deep_quantum",
        "asym_twb_deep_quantum_small_lam",
        "flag",
    ]

    def one(value: float) -> tuple:
        config = _config_at(base, args.variable, value)
        twb = config.replace(input_kind="TWB")
        sq = config.replace(input_kind="TwoSqueezed")
        # the sum readout pairs with the coherent phase rotated a quarter
        # turn from the difference readout's pairing
        twb_sum = twb.replace(psi=twb.psi - math.pi / 2.0)
        flags: list[str] = []
        u_cl = estimation.classical_benchmark(config)

        def guarded(cfg: HolometerConfig, kind: str, label: str) -> tuple[float, float]:
            try:
                value = estimation.u0(cfg, EstimatorSpec(kind=kind))
                return value, value / u_cl
            except SingularConfigurationError:
                flags.append(f"singular:{label}")
                return math.nan, math.nan
            except PsiPairingError:
                # off the canonical psi of this readout (a psi sweep)
                flags.append(f"psi_mismatch:{label}")
                return math.nan, math.nan

        u_twb, r_twb = guarded(twb, "TwbDifferenceSquared", "twb")
        u_sq, r_sq = guarded(sq, "QuadratureProduct", "sq")
        u_sum, r_sum = guarded(twb_sum, "TwbSumSquared", "twb_sum")

        def asym(branch: str) -> float:
            try:
                return estimation.u0_asymptotic(config, branch)
            except (UndefinedResultError, ValueError):
                return math.nan

        return (
            value,
            u_twb,
            u_sq,
            u_sum,
            u_cl,
            r_twb,
            r_sq,
            r_sum,
            regime_parameter(config),
            asym("SQ_large_lambda"),
            asym("TWB_B"),
            asym("TWB_A_large_lambda"),
            asym("TWB_A_small_lambda"),
            ";".join(flags),
        )

    rows = [one(value) for value in grid]
    _write_csv(
        args.out,
        "uncertainty-scan",
        [f"base: {_config_json(base)}",
         "uncertainties are absolute; ratio columns divide by the coherent-only benchmark"],
        columns,
        rows,
    )
    return 0


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    convention = "real-symmetric" if args.broken_convention else "i"
    report = run_crosscheck(
        n_configs=args.n_configs,
        seed=args.seed,
        rtol=args.rtol,
        convention=convention,
    )
    for line in report.summary_lines():
        print(line)
    if args.broken_convention:
        print(
            "negative control: the broken convention is expected to fail; "
            + ("it did" if not report.ok else "IT DID NOT")
        )
    if args.out:
        rows = [
            (
                check.index,
                check.config.input_kind.value,
                check.config.mu,
                check.config.lam,
                check.config.tau_1,
                check.config.eta,
                check.config.psi,
                check.comparison.max_relative,
                check.comparison.worst_margin,
                check.comparison.worst_field,
                "pass" if check.ok else "fail",
            )
            for check in report.checks
        ]
        _write_csv(
            args.out,
            "oracle-check",
            [f"convention: {convention}", f"seed: {args.seed}", f"rtol: {report.rtol!r}"],
            ["index", "kind", "mu", "lambda", "tau", "eta", "psi", "max_relative",
             "worst_margin", "worst_field", "verdict"],
            rows,
        )
    return 0 if report.ok else 2


# ---------------------------------------------------------------------------
# mc-estimate
# ---------------------------------------------------------------------------

_MC_BASE = {
    "mu": 1e3,
    "psi": math.pi / 2.0,
    "lam": 1.0,
    "eta": 0.9,
    "phi0": 0.1,
    "input_kind": "TwoSqueezed",
}

_ESTIMATOR_CHOICES = {
    "difference-squared": EstimatorKind.TWB_DIFFERENCE_SQUARED,
    "sum-squared": EstimatorKind.TWB_SUM_SQUARED,
    "quadrature-product": EstimatorKind.QUADRATURE_PRODUCT,
}


def _cmd_mc_estimate(args: argparse.Namespace) -> int:
    kind = _ESTIMATOR_CHOICES[args.estimator]
    defaults = dict(_MC_BASE)
    if kind is not EstimatorKind.QUADRATURE_PRODUCT:
        defaults["input_kind"] = "TWB"
    if kind is EstimatorKind.TWB_SUM_SQUARED:
        defaults["psi"] = 0.0
    config = _resolve_config(defaults, args)
    spec = EstimatorSpec(kind=kind)
    epsilons = _parse_float_list(args.epsilons)
    sigma2 = args.sigma2
    n_samples = args.n_samples

    def one(task: tuple[int, float]) -> tuple:
        index, epsilon = task
        # the parallel and perpendicular runs share one seed: common random
        # numbers cancel most of the sampling noise in their difference
        eps_hat, se = phase_noise.recover_covariance(
            config, spec, sigma2, epsilon, n_samples, args.seed + index
        )
        pull = (eps_hat - epsilon) / se if se > 0.0 else math.nan
        return (epsilon, eps_hat, se, pull)

    rows = [one(task) for task in enumerate(epsilons)]

    summary: list[str] = []
    worst_pull = max(abs(row[3]) for row in rows)
    summary.append(f"worst |pull| over {len(rows)} injected covariances: {worst_pull:.2f}")
    if len(rows) >= 3:
        eps = np.array([row[0] for row in rows])
        hats = np.array([row[1] for row in rows])
        design = np.column_stack([eps, np.ones_like(eps)])
        coef, _, _, _ = np.linalg.lstsq(design, hats, rcond=None)
        fitted = design @ coef
        ss_res = float(np.sum((hats - fitted) ** 2))
        ss_tot = float(np.sum((hats - hats.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else math.nan
        summary.append(f"linearity of recovered vs injected: slope {coef[0]:.4f}, R^2 {r2:.6f}")
    try:
        predicted = phase_noise.variance_expansion(config, spec).predict(sigma2, 0.0)
        direct = phase_noise.direct_variance(config, spec, sigma2, 0.0)
        rel = predicted / direct - 1.0
        summary.append(
            f"estimator variance at sigma2={sigma2!r}: expansion {predicted!r} "
            f"vs direct quadrature {direct!r} ({100.0 * rel:+.3f}%)"
        )
    except ValueError as exc:
        summary.append(f"variance expansion skipped: {exc}")

    _write_csv(
        args.out,
        "mc-estimate",
        [
            f"config: {_config_json(config)}",
            f"estimator: {args.estimator}, sigma2: {sigma2!r}, "
            f"n_samples: {n_samples}, seed: {args.seed}",
        ],
        ["epsilon", "epsilon_hat", "std_error", "pull"],
        rows,
    )
    for line in summary:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="holonoise",
        description="Photon statistics and phase-covariance estimation for a pair "
        "of correlated interferometers with quantum-enhanced readout.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # without prefix matching, so --lam and --lambda are refused rather
    # than read as --lambdas
    p_nrf = sub.add_parser(
        "nrf-scan",
        help="noise-reduction factors of the count difference and sum over a sweep",
        allow_abbrev=False,
    )
    _add_common_flags(p_nrf)
    _add_config_flags(p_nrf, with_phi0_lam=False)
    p_nrf.add_argument("--variable", choices=SWEEP_VARIABLES, default="tau",
                       help="swept variable (default tau)")
    p_nrf.add_argument("--grid", type=_parse_grid, default="0.02:0.9999:50",
                       help='sweep grid, "min:max:points[:linear|log]" or "v1,v2,..."')
    p_nrf.add_argument("--lambdas",
                       help=f"comma list of quantum occupancies (default {_NRF_LAMBDAS}); "
                       "not with --variable lambda")
    p_nrf.set_defaults(handler=_cmd_nrf_scan)

    p_unc = sub.add_parser(
        "uncertainty-scan",
        help="phase-covariance uncertainty and its ratio to the coherent benchmark",
    )
    _add_common_flags(p_unc)
    _add_config_flags(p_unc)
    p_unc.add_argument("--variable", choices=SWEEP_VARIABLES, default="phi0",
                       help="swept variable (default phi0)")
    p_unc.add_argument("--grid", type=_parse_grid,
                       help='sweep grid, "min:max:points[:linear|log]" or "v1,v2,..."')
    p_unc.set_defaults(handler=_cmd_uncertainty_scan)

    p_oracle = sub.add_parser(
        "oracle-check",
        help="cross-validate the Gaussian engine against the truncated-Fock oracle",
    )
    _add_common_flags(p_oracle)
    p_oracle.add_argument("--n-configs", type=int, default=100,
                          help="number of random configurations (default 100)")
    p_oracle.add_argument("--rtol", type=_parse_rtol, default=1e-8,
                          help="relative tolerance on every moment (default 1e-8)")
    p_oracle.add_argument("--broken-convention", action="store_true",
                          help="run with the deliberately broken beam-splitter "
                          "convention as a negative control")
    p_oracle.set_defaults(handler=_cmd_oracle_check)

    p_mc = sub.add_parser(
        "mc-estimate",
        help="Monte-Carlo recovery of an injected phase covariance",
    )
    _add_common_flags(p_mc)
    _add_config_flags(p_mc)
    p_mc.add_argument("--estimator", choices=sorted(_ESTIMATOR_CHOICES),
                      default="quadrature-product", help="readout estimator")
    p_mc.add_argument("--sigma2", type=_parse_sigma2, default=1e-5,
                      help="marginal phase-noise variance, > 0 (default 1e-5)")
    p_mc.add_argument("--epsilons", default="0,1e-8,1e-7,1e-6",
                      help="comma list of injected covariances")
    p_mc.add_argument("--n-samples", type=_parse_n_samples, default=100_000,
                      help=f"Monte-Carlo samples per run (default 100000, at most {MAX_SAMPLES})")
    p_mc.set_defaults(handler=_cmd_mc_estimate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OverflowError, OSError, CutoffError, SingularConfigurationError) as exc:
        print(f"holonoise {args.command}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> int:
    return main()


if __name__ == "__main__":
    sys.exit(main())
