"""Correctness gate: checks each workload's outputs in the benchmark's own
code, by an independent route wherever one exists.

An exception on valid input is counted as a failed item; it never
fails the gate and is never dropped.  A value the gate rejects is a
failed item and fails the gate.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path

from workloads import MC_EPSILONS, Workload, grid_points

REFERENCE = Path(__file__).resolve().parent / "reference" / "scans_twb.json"

# The twin-beam u0 columns have no independent route; they are held to
# values recorded at the seed commit.  An exact mixed derivative in
# place of finite differences moves them by at most ~1e-6 relative.
TWB_RTOL = 3e-6
# u0_sq against the closed form: finite differences agree with the exact
# separable derivative to <= 7.1e-9 relative at the seed.
U0_SQ_RTOL = 1e-7
# NRF columns against engine order-2 moments
NRF_RTOL = 1e-9
# engine order-2 moments and quadratures against the closed forms
DOMAIN_RTOL = 1e-8
# quantities recomputed from the same formula the program uses
IDENTITY_RTOL = 1e-12
# a systematic engine/oracle disagreement, as opposed to an isolated one
ORACLE_ISOLATED_SHARE = 0.1
PULL_LIMIT = 5.0
EXPANSION_RTOL = 0.01


class Verdict:
    """Failed items of one pass, and the gate's rejections."""

    def __init__(self) -> None:
        self.failed = 0
        self.rejections = 0
        self.messages: list[str] = []
        self.worst_margin = 0.0  # max |error| / allowance over every comparison

    @property
    def ok(self) -> bool:
        return self.rejections == 0

    def reject(self, message: str) -> bool:
        self.rejections += 1
        if len(self.messages) < 10:
            self.messages.append(message)
        return False

    def close(self, label: str, got: float, want: float, rtol: float, floor: float = 0.0) -> bool:
        allowance = rtol * max(abs(got), abs(want)) + floor
        error = abs(got - want)
        if not (math.isfinite(got) and math.isfinite(want)):
            return self.reject(f"{label}: non-finite value {float(got)!r} (want {float(want)!r})")
        margin = error / allowance if allowance > 0.0 else (0.0 if error == 0.0 else math.inf)
        self.worst_margin = max(self.worst_margin, margin)
        if margin > 1.0:
            return self.reject(f"{label}: {float(got)!r} vs {float(want)!r} "
                               f"({margin:.3g} x the allowance)")
        return True

    def item(self, ok: bool) -> None:
        self.failed += not ok


def parse_csv(text: str) -> list[dict[str, str]]:
    """Data rows of a holonoise CSV, keyed by the "# columns:" header."""
    columns: list[str] = []
    rows = []
    for line in text.splitlines():
        if line.startswith("# columns: "):
            columns = line[len("# columns: "):].split(",")
        elif columns and line and not line.startswith("#"):
            cells = line.split(",")
            if len(cells) == len(columns):
                rows.append(dict(zip(columns, cells)))
    return rows


def check(work: Workload, outputs: dict) -> Verdict:
    verdict = Verdict()
    {"scans": _scans, "oracle": _oracle, "noise": _noise, "domain": _domain}[work.name](
        work, outputs, verdict)
    return verdict


def _flags(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def _command_ok(label: str, out: dict, items: int, verdict: Verdict) -> bool:
    if out.get("code") == 0:
        return True
    verdict.failed += items
    if out.get("code") is None:  # raised: a failure on valid input, not a rejection
        return False
    return verdict.reject(f"{label}: exit code {out['code']}")


def _rows(label: str, out: dict, expected: int, verdict: Verdict) -> list[dict[str, str]]:
    if not _command_ok(label, out, expected, verdict):
        return []
    rows = parse_csv(out["stdout"])
    if len(rows) != expected:
        verdict.failed += expected
        verdict.reject(f"{label}: {len(rows)} data rows, expected {expected}")
        return []
    return rows


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def _scans(work: Workload, outputs: dict, verdict: Verdict) -> None:
    reference = json.loads(REFERENCE.read_text())
    for name, argv in work.argvs.items():
        flags = _flags(argv)
        grid = grid_points(flags["--grid"])
        if name == "nrf_vs_tau":
            lambdas = [float(v) for v in flags["--lambdas"].split(",")]
            points = [(tau, lam) for tau in grid for lam in lambdas]
            rows = _rows(name, outputs[name], len(points), verdict)
            for (tau, lam), row in zip(points, rows):
                verdict.item(_nrf_row(f"{name}[{tau!r},{lam!r}]", row, tau, lam, verdict))
        else:
            rows = _rows(name, outputs[name], len(grid), verdict)
            variable = flags["--variable"]
            for x, row in zip(grid, rows):
                verdict.item(_uncertainty_row(
                    f"{name}[{x!r}]", row, variable, x, reference[name][repr(x)], verdict))


def _numbers(label: str, row: dict[str, str], names: list[str], verdict: Verdict):
    try:
        values = [float(row[name]) for name in names]
    except (KeyError, ValueError) as exc:
        return verdict.reject(f"{label}: unreadable row ({exc})")
    if not all(map(math.isfinite, values)):
        return verdict.reject(f"{label}: non-finite cell in {row}")
    return values


def _nrf_row(label: str, row: dict[str, str], tau: float, lam: float, verdict: Verdict) -> bool:
    from holonoise import holometer
    from holonoise.config import HolometerConfig

    values = _numbers(label, row, ["tau", "lambda", "nrf_minus", "nrf_plus", "regime_k"], verdict)
    if not values:
        return False
    got_tau, got_lam, nrf_minus, nrf_plus, regime_k = values
    phi = 2.0 * math.acos(math.sqrt(tau))
    # the paper's NRF configuration: bright coherent light, lossless detection
    config = HolometerConfig(mu=1e6, psi=math.pi / 2.0, lam=lam, eta=1.0,
                             phi0_1=phi, phi0_2=phi, input_kind="TWB")
    checks = [
        verdict.close(f"{label} tau", got_tau, tau, IDENTITY_RTOL),
        verdict.close(f"{label} lambda", got_lam, lam, IDENTITY_RTOL),
        verdict.close(f"{label} regime_k", regime_k, 1e6 * (1.0 - tau) / (tau * lam), 1e-9),
    ]
    for column, psi, sign, got in (("nrf_minus", math.pi / 2.0, -1.0, nrf_minus),
                                   ("nrf_plus", 0.0, 1.0, nrf_plus)):
        m = holometer.readout_moments(config.replace(psi=psi), max_order=2)
        total = m.mean_1 + m.mean_2
        want = (m.var_1 + m.var_2 + 2.0 * sign * m.cov) / total
        # absolute floor: the cancellation in var_1 + var_2 -+ 2 cov
        floor = NRF_RTOL * (m.var_1 + m.var_2 + 2.0 * abs(m.cov)) / total
        checks.append(verdict.close(f"{label} {column}", got, want, NRF_RTOL, floor))
    return all(checks)


_UNCERTAINTY_COLUMNS = ["u0_twb", "u0_sq", "u0_twb_sum", "u_cl", "ratio_twb", "ratio_sq",
                        "ratio_twb_sum", "regime_k", "asym_sq_plateau", "asym_twb_plateau",
                        "asym_twb_deep_quantum", "asym_twb_deep_quantum_small_lam"]
# the paper's uncertainty configuration; the efficiency sweep sits at the
# deep-quantum phase 1e-8, the other sweeps at 1e-2
_UNCERTAINTY_BASE = {"mu": 3e12, "lam": 10.0, "eta": 0.95}
_SWEPT = {"phi0": "phi0", "eta": "eta", "lambda": "lam"}


def _uncertainty_row(label: str, row: dict[str, str], variable: str, x: float,
                     recorded: list[float], verdict: Verdict) -> bool:
    if row.get("flag", "") != "":
        return verdict.reject(f"{label}: flagged {row['flag']!r}")
    values = _numbers(label, row, [variable] + _UNCERTAINTY_COLUMNS, verdict)
    if not values:
        return False
    got_x, *cells = values
    v = dict(zip(_UNCERTAINTY_COLUMNS, cells))
    p = dict(_UNCERTAINTY_BASE, phi0=1e-8 if variable == "eta" else 1e-2)
    p[_SWEPT[variable]] = x
    mu, eta, lam, phi0 = p["mu"], p["eta"], p["lam"], p["phi0"]
    half_s, half_c = math.sin(phi0 / 2.0), math.cos(phi0 / 2.0)
    u_cl = math.sqrt(2.0) / (eta * mu * half_c ** 2)
    sq_plateau = 1.0 - eta * (1.0 + math.cos(phi0)) / 2.0 + eta * half_c ** 2 / (4.0 * lam)
    checks = [
        verdict.close(f"{label} {variable}", got_x, x, IDENTITY_RTOL),
        verdict.close(f"{label} u_cl", v["u_cl"], u_cl, IDENTITY_RTOL),
        verdict.close(f"{label} u0_sq", v["u0_sq"], _u0_sq(mu, eta, lam, phi0), U0_SQ_RTOL),
        verdict.close(f"{label} u0_twb", v["u0_twb"], recorded[0], TWB_RTOL),
        verdict.close(f"{label} u0_twb_sum", v["u0_twb_sum"], recorded[1], TWB_RTOL),
        verdict.close(f"{label} regime_k", v["regime_k"], mu * half_s ** 2 / (half_c ** 2 * lam), 1e-9),
        verdict.close(f"{label} asym_sq_plateau", v["asym_sq_plateau"], sq_plateau, IDENTITY_RTOL),
        verdict.close(f"{label} asym_twb_plateau", v["asym_twb_plateau"],
                      math.sqrt(2.0) * sq_plateau, IDENTITY_RTOL),
        verdict.close(f"{label} asym_twb_deep_quantum", v["asym_twb_deep_quantum"],
                      2.0 * math.sqrt(5.0) * (1.0 - eta), IDENTITY_RTOL),
        verdict.close(f"{label} asym_twb_deep_quantum_small_lam",
                      v["asym_twb_deep_quantum_small_lam"],
                      math.sqrt(2.0 * (1.0 - eta) / eta), IDENTITY_RTOL),
    ]
    for kind in ("twb", "sq", "twb_sum"):
        checks.append(verdict.close(f"{label} ratio_{kind}", v[f"ratio_{kind}"],
                                    v[f"u0_{kind}"] / v["u_cl"], IDENTITY_RTOL))
    return all(checks)


def _u0_sq(mu: float, eta: float, lam: float, phi0: float) -> float:
    """Quadrature-product u0 on independently squeezed inputs, in closed
    form: Var[C] from closed_form_quadrature at the working point over
    the exact separable mixed derivative of <Y1 Y2>.  With no cross
    correlation <Y1 Y2> = mean_1(phi_1) mean_2(phi_2), and each mean is
    sqrt(2 eta mu) sin(phi/2) on the signal quadrature."""
    from holonoise.config import HolometerConfig
    from holonoise.observables import closed_form_quadrature

    config = HolometerConfig(mu=mu, psi=math.pi / 2.0, lam=lam, eta=eta, phi0_1=phi0,
                             phi0_2=phi0, input_kind="TwoSqueezed")
    q = closed_form_quadrature(config)
    variance = float(q["var_1"] * q["var_2"] + q["cov"] ** 2)
    slope = math.sqrt(2.0 * eta * mu) * 0.5 * math.cos(phi0 / 2.0)
    return math.sqrt(2.0 * variance) / (slope * slope)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _oracle(work: Workload, outputs: dict, verdict: Verdict) -> None:
    """Each configuration on which engine and oracle disagree is a failed
    item.  An isolated disagreement is a defect of one route at one
    input; a broken beam-splitter convention (the coincidence null) or
    disagreement on more than ORACLE_ISOLATED_SHARE of the configurations
    is systematic and fails the gate."""
    out = outputs["oracle-check"]
    n = work.items
    if out["code"] is None:  # raised: a failure on valid input, not a rejection
        verdict.failed += n
        return
    text = out["stdout"]
    counted = re.search(r"configurations checked: (\d+), failed: (\d+)", text)
    # exit code 2 is the verification's own failure, judged by its count below
    if out["code"] not in (0, 2) or "(null ok)" not in text or not counted or int(counted[1]) != n:
        verdict.failed += n
        verdict.reject(f"oracle-check: exit code {out['code']}, coincidence null violated "
                       "or configurations missing")
        return
    failed = int(counted[2])
    verdict.failed += failed
    if failed > ORACLE_ISOLATED_SHARE * n or ("RESULT: PASS" in text) != (failed == 0):
        verdict.reject(f"oracle-check: engine and oracle disagree on {failed} of {n} configurations")


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

_EXPANSION = re.compile(r"expansion (\S+) vs direct quadrature (\S+) ")


def _noise(work: Workload, outputs: dict, verdict: Verdict) -> None:
    for estimator, argv in work.argvs.items():
        epsilons = [float(v) for v in _flags(argv).get("--epsilons", MC_EPSILONS).split(",")]
        out = outputs[estimator]
        rows = _rows(estimator, out, len(epsilons), verdict)
        if not rows:
            continue
        found = _EXPANSION.search(out["stdout"])
        agrees = (verdict.close(f"{estimator} variance expansion vs direct quadrature",
                                float(found[1]), float(found[2]), EXPANSION_RTOL) if found
                  else verdict.reject(f"{estimator}: no variance expansion line"))
        if not agrees:
            verdict.failed += len(rows)
            continue
        for epsilon, row in zip(epsilons, rows):
            verdict.item(_noise_row(f"{estimator}[{epsilon!r}]", row, epsilon, verdict))


def _noise_row(label: str, row: dict[str, str], epsilon: float, verdict: Verdict) -> bool:
    values = _numbers(label, row, ["epsilon", "epsilon_hat", "std_error", "pull"], verdict)
    if not values:
        return False
    got_epsilon, eps_hat, std_error, pull = values
    if std_error <= 0.0:
        return verdict.reject(f"{label}: standard error {std_error!r} is not positive")
    checks = [
        verdict.close(f"{label} epsilon", got_epsilon, epsilon, IDENTITY_RTOL),
        verdict.close(f"{label} pull", pull, (eps_hat - epsilon) / std_error, IDENTITY_RTOL),
    ]
    # common random numbers: with nothing injected the two runs are identical
    if epsilon == 0.0 and eps_hat != 0.0:
        checks.append(verdict.reject(f"{label}: epsilon_hat {eps_hat!r} is not exactly 0"))
    if abs(pull) > PULL_LIMIT:
        checks.append(verdict.reject(f"{label}: |pull| {abs(pull):.2f} > {PULL_LIMIT}"))
    return all(checks)


# ---------------------------------------------------------------------------
# domain
# ---------------------------------------------------------------------------

_FIELDS = ("mean_1", "mean_2", "var_1", "var_2", "cov")


def _domain(work: Workload, outputs: dict, verdict: Verdict) -> None:
    from holonoise.observables import closed_form_moments, closed_form_quadrature

    results = outputs["results"]
    if len(results) != len(work.configs):
        verdict.failed += len(work.configs)
        verdict.reject(f"domain: {len(results)} results for {len(work.configs)} configurations")
        return
    for index, (config, result) in enumerate(zip(work.configs, results)):
        if "error" in result:  # the known engine defects show here, as failed items
            verdict.failed += 1
            continue
        label = f"domain[{index}]"
        checks = [result["order4_finite"] or verdict.reject(f"{label}: order-4 table not finite")]
        for route, got, closed in (("photon", result["moments"], closed_form_moments(config)),
                                   ("quadrature", result["quadrature"], closed_form_quadrature(config))):
            want = [float(closed[name]) for name in _FIELDS]
            sd = math.sqrt(max(want[2], 0.0) * max(want[3], 0.0))
            for name, g, w in zip(_FIELDS, got, want):
                # entries whose exact value is 0 sit at roundoff of the scales around them
                floor = 1e-13 + (1e-11 * sd if name == "cov" else 0.0)
                checks.append(verdict.close(f"{label} {route} {name}", g, w, DOMAIN_RTOL, floor))
        verdict.item(all(checks))
