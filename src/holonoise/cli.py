"""Command-line front end.

Four subcommands cover the package's workflows:

``nrf-scan``
    Noise-reduction factors of the photon-count difference and sum over
    a parameter sweep, one row per (grid point, quantum occupancy).  The
    occupancies are the default list, or the config file's lambda as
    the one trace, or an explicit ``--lambdas``, in rising precedence.
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
override it).  Grids over MAX_GRID_POINTS points, ``--n-configs`` over
MAX_GRID_POINTS, ``--n-samples`` over MAX_SAMPLES and counts below 1 are
usage errors.

The two scans evaluate a whole grid at once: the swept field of the
configuration holds the grid (a stacked configuration, see config.py)
and each CSV column is one array call.  Every subcommand hands the
writer named columns, and the writer formats each column in one pass.

Exit codes: 0 success, 1 invalid input, 2 verification failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import estimation, phase_noise
from .config import HolometerConfig, InputKind
from .crosscheck import DEFAULT_SEED, run_crosscheck
from .estimation import EstimatorKind, EstimatorSpec, SingularConfigurationError
from .fock_oracle import CutoffError
from .observables import nrf, regime_parameter

__all__ = ["entrypoint", "main"]

SWEEP_VARIABLES = ("phi0", "eta", "lambda", "tau", "psi")
# the configuration fields each sweep variable sets (tau through phi0)
_SWEPT_FIELDS = {"phi0": ("phi0_1", "phi0_2"), "tau": ("phi0_1", "phi0_2"),
                 "eta": ("eta",), "lambda": ("lam",), "psi": ("psi",)}
# upper bounds that keep a run's memory bounded; the largest shipped grid
# has 120 points, mc-estimate defaults to 1e5 samples and oracle-check
# to 100 configurations (MAX_GRID_POINTS caps those too)
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


def _config_at(base: HolometerConfig, variable: str, grid: np.ndarray) -> HolometerConfig:
    """The base configuration stacked over the grid of the swept variable."""
    grid = np.asarray(grid, dtype=float)
    if variable == "tau":
        outside = ~((0.0 < grid) & (grid <= 1.0))
        if np.any(outside):
            raise ValueError(f"tau must lie in (0, 1], got {grid[outside].flat[0]}")
        grid = 2.0 * np.arccos(np.sqrt(grid))
    return base.replace(**dict.fromkeys(_SWEPT_FIELDS[variable], grid))


def _parse_count(text: str, cap: int) -> int:
    """A count of samples or configurations, from 1 to cap."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid count {text!r}") from None
    if not 1 <= value <= cap:
        raise argparse.ArgumentTypeError(f"count {value}; at least 1 and at most {cap} allowed")
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


def _resolve_config(data: Mapping[str, object], args: argparse.Namespace) -> HolometerConfig:
    """``data`` (the defaults updated by the config file) < explicit
    flags, then build the dataclass."""
    data = dict(data)
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


def _column_cells(column: object, shape: tuple[int, ...]) -> list[str]:
    """The CSV cells of one column, a scalar repeated over the rows."""
    values = np.broadcast_to(column, shape)
    if values.dtype.kind == "f":
        # a float list's repr is each cell's repr(float), joined by ", "
        return repr(values.tolist())[1:-1].split(", ")
    # quoted as RFC 4180 asks, so a moment name such as centered[1,3]
    # stays one cell
    return [f'"{text}"' if "," in text else text for text in map(str, values.tolist())]


def _write_csv(
    out: str | None,
    command: str,
    header_extra: Sequence[str],
    columns: Mapping[str, object],
) -> None:
    """Write the named columns (arrays, lists, or scalars repeated on
    every row) under the ``#`` header lines."""
    shape = np.broadcast_shapes(*map(np.shape, columns.values()))
    cells = [_column_cells(column, shape) for column in columns.values()]
    lines = [f"# holonoise {command}"]
    lines.extend(f"# {extra}" for extra in header_extra)
    lines.append("# columns: " + ",".join(columns))
    lines.extend(map(",".join, zip(*cells)))
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
    config_file = _load_config_file(args.config)
    base = _resolve_config({**_NRF_BASE, **config_file}, args)
    if args.variable == "lambda":
        if args.lambdas is not None:
            raise ValueError("--lambdas does not apply to --variable lambda; the grid sets lambda")
        values = args.grid
        config = _config_at(base, "lambda", values)
    else:
        if args.lambdas is not None:
            lam_values = _parse_float_list(args.lambdas)
        elif "lambda" in config_file or "lam" in config_file:
            lam_values = (base.lam,)
        else:
            lam_values = _parse_float_list(_NRF_LAMBDAS)
        # one row per (grid point, lambda), the lambdas varying fastest
        values = np.repeat(args.grid, len(lam_values))
        config = _config_at(base, args.variable, values)
        config = config.replace(lam=np.tile(lam_values, len(args.grid)))
    if args.variable == "psi":
        both = nrf(config)
        minus, plus = both.nrf_minus, both.nrf_plus
        psi_line = "both columns at the swept psi"
    else:
        # each column at its own best coherent phase, unless a flag or the
        # config file sets psi (base.psi), which then holds for both
        if args.psi is None and "psi" not in config_file:
            psi_minus, psi_plus = math.pi / 2.0, 0.0
        else:
            psi_minus = psi_plus = base.psi
        minus = nrf(config.replace(psi=psi_minus)).nrf_minus
        plus = nrf(config.replace(psi=psi_plus)).nrf_plus
        psi_line = f"difference column at psi={psi_minus!r}, sum column at psi={psi_plus!r}"
    # under --variable lambda the swept column is the lambda column
    columns = {args.variable: values, "lambda": config.lam, "nrf_minus": minus,
               "nrf_plus": plus, "regime_k": regime_parameter(config)}
    _write_csv(args.out, "nrf-scan", [f"base: {_config_json(base)}", psi_line], columns)
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
    config_file = _load_config_file(args.config)
    if "input_kind" in config_file:
        raise ValueError("the config file takes no input_kind: each readout sets its own input")
    base = _resolve_config({**defaults, **config_file}, args)
    grid = args.grid
    if grid is None:
        grid = _parse_grid(_UNCERTAINTY_DEFAULT_GRIDS[args.variable])

    # the base input is the twin beam, which the regime and limit columns describe
    twb = _config_at(base, args.variable, grid)
    sq = twb.replace(input_kind="TwoSqueezed")
    # the sum readout pairs with the coherent phase rotated a quarter
    # turn from the difference readout's pairing
    twb_sum = twb.replace(psi=twb.psi - math.pi / 2.0)
    u_cl = estimation.classical_benchmark(twb)

    def readout(cfg: HolometerConfig, kind: str, label: str) -> tuple[np.ndarray, list[str]]:
        """u0 over the grid, and the flag of each row where it is nan: off
        the readout's psi pairing (a psi sweep), without phase response,
        with a negative computed Var[C], or else overflowing float64."""
        spec = EstimatorSpec(kind=kind)
        value = estimation.u0(cfg, spec)
        off = estimation.off_pairing(cfg, spec)
        flag = np.full(value.shape, "")
        unexplained = np.isnan(value) & ~off
        # rare: only then are the derivative and Var[C] read again (a
        # member without phase response reads nan in u0)
        if unexplained.any():
            singular = np.isnan(estimation.estimator_mixed_derivative(cfg, spec))
            flag = np.where(singular, f"singular:{label}", flag)
            undefined = unexplained & ~singular
            if undefined.any():
                negative = np.isnan(estimation.estimator_variance(cfg, spec))
                flag = np.where(undefined, np.where(negative, f"negative_variance:{label}",
                                                    f"overflow:{label}"), flag)
        return value, np.where(off, f"psi_mismatch:{label}", flag).tolist()

    u_twb, flag_twb = readout(twb, "TwbDifferenceSquared", "twb")
    u_sq, flag_sq = readout(sq, "QuadratureProduct", "sq")
    u_sum, flag_sum = readout(twb_sum, "TwbSumSquared", "twb_sum")
    asymptote = functools.partial(estimation.u0_asymptotic, twb)
    columns = {
        args.variable: grid,
        "u0_twb": u_twb,
        "u0_sq": u_sq,
        "u0_twb_sum": u_sum,
        "u_cl": u_cl,
        "ratio_twb": u_twb / u_cl,
        "ratio_sq": u_sq / u_cl,
        "ratio_twb_sum": u_sum / u_cl,
        "regime_k": regime_parameter(twb),
        "asym_sq_plateau": asymptote("SQ_large_lambda"),
        "asym_twb_plateau": asymptote("TWB_B"),
        "asym_twb_deep_quantum": asymptote("TWB_A_large_lambda"),
        "asym_twb_deep_quantum_small_lam": asymptote("TWB_A_small_lambda"),
    }
    columns["flag"] = _uncertainty_flags(columns, grid.shape, {"twb": flag_twb, "sq": flag_sq,
                                                               "twb_sum": flag_sum})
    _write_csv(
        args.out,
        "uncertainty-scan",
        [f"base: {_config_json(base)}",
         "uncertainties are absolute; ratio columns divide by the coherent-only benchmark"],
        columns,
    )
    return 0


def _uncertainty_flags(columns: Mapping[str, object], shape: tuple[int, ...],
                       readouts: Mapping[str, list[str]]) -> list[str]:
    """Each row's flag: the readout flags, then ``nonfinite:<column>``
    for every other non-finite uncertainty cell (u0, u_cl, ratio).  A
    flagged readout accounts for its own u0 and ratio cells; regime_k
    and the asymptotes are limit forms, infinite or nan by their
    formulas."""
    flags = [";".join(filter(None, row)) for row in zip(*readouts.values())]
    names = [name for name in columns if name.startswith(("u0_", "u_cl", "ratio_"))]
    faulty = ~np.isfinite(np.column_stack([np.broadcast_to(columns[name], shape)
                                           for name in names]))
    for row in np.nonzero(faulty.any(axis=1))[0]:
        accounted = {f"{prefix}_{label}" for label, flag in readouts.items() if flag[row]
                     for prefix in ("u0", "ratio")}
        extra = [f"nonfinite:{name}" for name, bad in zip(names, faulty[row])
                 if bad and name not in accounted]
        flags[row] = ";".join(filter(None, [flags[row], *extra]))
    return flags


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
        configs, comparison = report.configs, report.comparison
        quantum_cutoff, coherent_cutoff = report.cutoffs
        columns = {
            "index": np.arange(len(configs)),
            "kind": [config.input_kind.value for config in configs],
            "mu": [config.mu for config in configs],
            "lambda": [config.lam for config in configs],
            "tau": [config.tau_1 for config in configs],
            "eta": [config.eta for config in configs],
            "psi": [config.psi for config in configs],
            # the oracle's truncation: pair index, squeezed port or 1; coherent port
            "quantum_cutoff": quantum_cutoff,
            "coherent_cutoff": coherent_cutoff,
            "max_relative": comparison.max_relative,
            "worst_margin": comparison.worst_margin,
            "worst_field": comparison.worst_field,
            "verdict": np.where(comparison.ok, "pass", "fail"),
        }
        _write_csv(
            args.out,
            "oracle-check",
            [f"convention: {convention}", f"seed: {args.seed}", f"rtol: {report.rtol!r}"],
            columns,
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
# distinct injected covariances the linearity fit needs: a line through
# two fits any recovery, and repeats of one value have no slope
_MIN_FIT_VALUES = 3


def _cmd_mc_estimate(args: argparse.Namespace) -> int:
    kind = _ESTIMATOR_CHOICES[args.estimator]
    defaults = dict(_MC_BASE)
    if kind is not EstimatorKind.QUADRATURE_PRODUCT:
        defaults["input_kind"] = "TWB"
    if kind is EstimatorKind.TWB_SUM_SQUARED:
        defaults["psi"] = 0.0
    config = _resolve_config({**defaults, **_load_config_file(args.config)}, args)
    spec = EstimatorSpec(kind=kind)
    eps = np.array(_parse_float_list(args.epsilons))
    sigma2 = args.sigma2
    n_samples = args.n_samples
    # the parallel and perpendicular runs share one seed: common random
    # numbers cancel most of the sampling noise in their difference
    hats, errors = np.array([
        phase_noise.recover_covariance(config, spec, sigma2, epsilon, n_samples, args.seed + index)
        for index, epsilon in enumerate(eps.tolist())
    ]).T
    with np.errstate(divide="ignore", invalid="ignore"):
        pull = np.where(errors > 0.0, (hats - eps) / errors, math.nan)

    summary: list[str] = []
    worst_pull = max(map(abs, pull.tolist()))
    summary.append(f"worst |pull| over {len(eps)} injected covariances: {worst_pull:.2f}")
    distinct = len(set(eps.tolist()))
    if distinct < _MIN_FIT_VALUES:
        summary.append(f"linearity fit skipped: the injected covariances take {distinct} "
                       f"distinct value(s), and a fit needs at least {_MIN_FIT_VALUES}")
    else:
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
        {"epsilon": eps, "epsilon_hat": hats, "std_error": errors, "pull": pull},
    )
    for line in summary:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by
    every later main call: parsing leaves it unchanged."""
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
    # capped because every configuration is drawn before the first is compared
    p_oracle.add_argument("--n-configs", type=functools.partial(_parse_count, cap=MAX_GRID_POINTS),
                          default=100, help="number of random configurations "
                          f"(default 100, at most {MAX_GRID_POINTS})")
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
    p_mc.add_argument("--n-samples", type=functools.partial(_parse_count, cap=MAX_SAMPLES),
                      default=100_000,
                      help=f"Monte-Carlo samples per run (default 100000, at most {MAX_SAMPLES})")
    p_mc.set_defaults(handler=_cmd_mc_estimate)

    # uncertainty-scan sets the input of each of its readouts itself
    for command in (p_nrf, p_mc):
        command.add_argument("--kind", choices=[k.value for k in InputKind],
                             help="what is injected at the quantum ports")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OverflowError, OSError, CutoffError, SingularConfigurationError) as exc:
        print(f"holonoise {args.command}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> int:
    return main()


if __name__ == "__main__":
    sys.exit(main())
