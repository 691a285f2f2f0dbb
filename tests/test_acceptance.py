"""Acceptance gate: one pass/fail line per criterion at its stated tolerance.

Each test prints exactly one line of the form

    [PASS|FAIL] criterion N (<label>): measured ... expected ... tol ...

and then asserts.  Criteria are encoded faithfully at their stated
tolerances; a failing line is a true statement about this implementation,
not a broken test.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from holonoise.config import HolometerConfig
from holonoise.crosscheck import DEFAULT_SEED, run_crosscheck
from holonoise.estimation import (
    EstimatorSpec,
    classical_benchmark,
    estimator_mean_and_square,
    estimator_mixed_derivative,
    u0,
)
from holonoise.holometer import readout_moments
from holonoise.observables import nrf
from holonoise.phase_noise import recover_covariance, sample_phase_offsets, variance_expansion

DIFF = EstimatorSpec(kind="TwbDifferenceSquared")
QUAD = EstimatorSpec(kind="QuadratureProduct")


def check(number: str, label: str, measured: str, expected: str, tol: str, ok: bool) -> None:
    line = (
        f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({label}): "
        f"measured {measured} expected {expected} tol {tol}"
    )
    print(line)
    assert ok, line


def cfg(**kw) -> HolometerConfig:
    base = dict(mu=3e12, psi=math.pi / 2, lam=10.0, eta=0.95,
                phi0_1=1e-2, phi0_2=1e-2, input_kind="TWB")
    base.update(kw)
    if "phi0" in base:
        phi = base.pop("phi0")
        base["phi0_1"] = base["phi0_2"] = phi
    return HolometerConfig(**base)


def sq_ratio(eta: float, lam: float, phi0: float, mu: float = 3e12) -> float:
    config = cfg(mu=mu, eta=eta, lam=lam, phi0=phi0, input_kind="TwoSqueezed")
    return u0(config, QUAD) / classical_benchmark(config)


def twb_ratio(eta: float, lam: float, phi0: float, mu: float = 3e12) -> float:
    config = cfg(mu=mu, eta=eta, lam=lam, phi0=phi0, input_kind="TWB")
    return u0(config, DIFF) / classical_benchmark(config)


# ---------------------------------------------------------------------------
# 1: engine/oracle equivalence over the guardrail domain
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    report = run_crosscheck(n_configs=100, seed=DEFAULT_SEED, rtol=1e-8)
    runtime = time.perf_counter() - start
    ok = report.ok and report.coincidence_ok and runtime < 120.0
    check(
        "1", "oracle equivalence",
        f"{report.n_failed}/100 failed, worst rel {report.max_relative:.3e}, {runtime:.1f}s",
        "0 failed", "rel 1e-8 per moment, runtime < 120 s", ok,
    )


# ---------------------------------------------------------------------------
# 2: photon cross-covariance structure
# ---------------------------------------------------------------------------


def test_criterion_2_covariance_structure():
    worst = 0.0
    for tau in (0.3, 0.6, 0.9, 0.99):
        for psi in (0.0, math.pi / 8, math.pi / 4, 1.1, math.pi / 2):
            for lam in (0.2, 1.0, 5.0):
                for eta in (0.6, 1.0):
                    mu = 7.0
                    phi = 2.0 * math.acos(math.sqrt(tau))
                    config = cfg(mu=mu, psi=psi, lam=lam, eta=eta, phi0=phi)
                    root = math.sqrt(lam * (1.0 + lam))
                    expected = eta**2 * (
                        tau**2 * lam * (1.0 + lam)
                        - 2.0 * mu * tau * (1.0 - tau) * root * math.cos(2.0 * psi)
                    )
                    got = readout_moments(config, max_order=2).cov
                    scale = max(abs(expected), 1e-12)
                    worst = max(worst, abs(got - expected) / scale)
    check(
        "2", "cross-covariance structure, -cos(2 psi) dependence",
        f"worst rel dev {worst:.3e} over 120 grid points",
        "engine == analytic", "rel 1e-10", worst <= 1e-10,
    )


# ---------------------------------------------------------------------------
# 3: noise-reduction-factor figure point
# ---------------------------------------------------------------------------


def test_criterion_3a_nrf_minus_figure_point():
    config = cfg(mu=1e6, eta=1.0, lam=10.0, phi0=2.0 * math.acos(math.sqrt(0.9)),
                 psi=math.pi / 2)
    value = nrf(config).nrf_minus
    check(
        "3a", "difference NRF at the figure point",
        f"{value:.6f}", "0.121", "abs 0.001", abs(value - 0.121) <= 0.001,
    )


def test_criterion_3b_nrf_plus_equals_nrf_minus_in_regime_b():
    phi = 2.0 * math.acos(math.sqrt(0.9))
    minus = nrf(cfg(mu=1e6, eta=1.0, lam=10.0, phi0=phi, psi=math.pi / 2)).nrf_minus
    plus = nrf(cfg(mu=1e6, eta=1.0, lam=10.0, phi0=phi, psi=0.0)).nrf_plus
    rel = abs(plus - minus) / minus
    check(
        "3b", "sum NRF at psi=0 vs difference NRF at psi=pi/2",
        f"nrf_plus {plus:.6f} vs nrf_minus {minus:.6f}, rel diff {100 * rel:.3f}%",
        "equal", "rel 1%", rel <= 0.01,
    )


# ---------------------------------------------------------------------------
# 4: coherent-regime plateau
# ---------------------------------------------------------------------------

PLATEAU_PHI0 = np.geomspace(1e-5, 1e-1, 41)


@pytest.mark.parametrize("eta", [0.9, 0.95, 1.0])
def test_criterion_4_sq_plateau_constancy(eta):
    ratios = np.array([sq_ratio(eta, 10.0, p) for p in PLATEAU_PHI0])
    half_spread = (ratios.max() - ratios.min()) / (ratios.max() + ratios.min())
    check(
        "4a", f"SQ ratio constancy, eta={eta}",
        f"half-spread {100 * half_spread:.3f}% over phi0 in [1e-5, 1e-1]",
        "constant", "2%", half_spread <= 0.02,
    )


@pytest.mark.parametrize("eta", [0.9, 0.95, 1.0])
def test_criterion_4_sq_plateau_value(eta):
    target = 1.0 - eta + eta / 40.0
    ratios = np.array([sq_ratio(eta, 10.0, p) for p in PLATEAU_PHI0])
    worst = float(np.max(np.abs(ratios - target) / target))
    check(
        "4c", f"SQ ratio vs 1 - eta + eta/(4 lam), eta={eta}",
        f"worst rel dev {100 * worst:.3f}%", f"{target:.6f}", "2%", worst <= 0.02,
    )


@pytest.mark.parametrize("eta", [0.9, 0.95, 1.0])
def test_criterion_4_twb_ratio_is_root_two_times_sq(eta):
    worst = 0.0
    for p in PLATEAU_PHI0:
        sq = sq_ratio(eta, 10.0, p)
        twb = twb_ratio(eta, 10.0, p)
        worst = max(worst, abs(twb - math.sqrt(2.0) * sq) / (math.sqrt(2.0) * sq))
    check(
        "4e", f"TWB ratio vs sqrt(2) x SQ ratio, eta={eta}",
        f"worst rel dev {100 * worst:.3f}% over phi0 in [1e-5, 1e-1]",
        "equal", "2%", worst <= 0.02,
    )


# ---------------------------------------------------------------------------
# 5: headline plateau reduction
# ---------------------------------------------------------------------------


def test_criterion_5_headline_reduction():
    value = sq_ratio(0.9, 3.0, 1e-2)
    check(
        "5", "SQ ratio at eta=0.9, lam=3, coherent regime",
        f"{value:.6f}", "0.175", "abs 0.004", abs(value - 0.175) <= 0.004,
    )


# ---------------------------------------------------------------------------
# 6: small-lam squeezing limit
# ---------------------------------------------------------------------------


def test_criterion_6_small_lam_limit():
    value = sq_ratio(0.95, 0.1, 1e-5)
    check(
        "6", "SQ ratio at eta=0.95, lam=0.1, phi0 -> 0",
        f"{value:.6f}", "0.59", "abs 0.02", abs(value - 0.59) <= 0.02,
    )


# ---------------------------------------------------------------------------
# 7: quantum-regime limits
# ---------------------------------------------------------------------------


def test_criterion_7a_large_lam_quantum_limit():
    worst = 0.0
    report = []
    for eta in (0.95, 0.97, 0.99, 0.999):
        measured = twb_ratio(eta, 10.0, 1e-8)
        limit = 2.0 * math.sqrt(5.0) * (1.0 - eta)
        rel = abs(measured - limit) / limit
        worst = max(worst, rel)
        report.append(f"eta={eta}: {100 * rel:.1f}%")
    check(
        "7a", "TWB ratio vs 2 sqrt(5) (1 - eta), lam=10, phi0=1e-8",
        "; ".join(report), "within 10% each", "10%", worst <= 0.10,
    )


def test_criterion_7b_small_lam_quantum_limit():
    worst = 0.0
    report = []
    for eta in (0.95, 0.99):
        measured = twb_ratio(eta, 1e-3, 1e-8)
        limit = math.sqrt(2.0 * (1.0 - eta) / eta)
        rel = abs(measured - limit) / limit
        worst = max(worst, rel)
        report.append(f"eta={eta}: {100 * rel:.1f}%")
    check(
        "7b", "TWB ratio vs sqrt(2 (1 - eta) / eta), lam=1e-3, phi0=1e-8",
        "; ".join(report), "within 10% each", "10%", worst <= 0.10,
    )


def test_criterion_7c_crossover_efficiency():
    def gap(eta: float) -> float:
        return twb_ratio(eta, 3.0, 1e-8) - sq_ratio(eta, 3.0, 1e-8)

    crossover = brentq(gap, 0.97, 0.999, xtol=1e-6)
    check(
        "7c", "efficiency where TWB overtakes SQ at lam=3, phi0=1e-8",
        f"eta = {crossover:.6f}", "0.99", "abs 0.005", abs(crossover - 0.99) <= 0.005,
    )


# ---------------------------------------------------------------------------
# 8: regime-transition location
# ---------------------------------------------------------------------------


def test_criterion_8_transition_location():
    lam, mu = 10.0, 3e12
    phis = np.geomspace(1e-7, 1e-2, 41)
    ratios = np.array([twb_ratio(0.95, lam, p, mu) for p in phis])
    slope = np.gradient(np.log(ratios), np.log(phis))
    measured = float(phis[int(np.argmax(np.abs(slope)))])
    predicted = 2.0 * math.sqrt(lam / mu)
    factor = max(measured / predicted, predicted / measured)
    check(
        "8", "regime-transition phase",
        f"phi0 = {measured:.3e}, predicted 2 sqrt(lam/mu) = {predicted:.3e}, "
        f"factor {factor:.2f}",
        "same location", "within factor 3", factor <= 3.0,
    )


# ---------------------------------------------------------------------------
# 9: Monte-Carlo covariance recovery
# ---------------------------------------------------------------------------


def test_criterion_9_mc_recovery():
    config = cfg(mu=1e3, lam=1.0, eta=0.9, phi0=0.1, psi=math.pi / 2,
                 input_kind="TwoSqueezed")
    sigma2, n_samples = 1e-5, 100_000
    epsilons = (0.0, 1e-8, 1e-7, 1e-6)
    pulls, hats = [], []
    for index, epsilon in enumerate(epsilons):
        eps_hat, se = recover_covariance(
            config, QUAD, sigma2, epsilon, n_samples, DEFAULT_SEED + index
        )
        pulls.append(abs(eps_hat - epsilon) / se)
        hats.append(eps_hat)
    eps = np.asarray(epsilons)
    hats = np.asarray(hats)
    design = np.column_stack([eps, np.ones_like(eps)])
    coef, _, _, _ = np.linalg.lstsq(design, hats, rcond=None)
    fitted = design @ coef
    r2 = 1.0 - float(np.sum((hats - fitted) ** 2) / np.sum((hats - hats.mean()) ** 2))

    predicted = variance_expansion(config, QUAD).predict(sigma2, 0.0)
    normals = np.random.default_rng(DEFAULT_SEED).standard_normal((n_samples, 2))
    offsets = config.phi0_1 + sample_phase_offsets(sigma2, 0.0, normals)
    means, squares = estimator_mean_and_square(config, QUAD, offsets[:, 0], offsets[:, 1])
    e_h = float(np.mean(means))
    mc_var = float(np.mean(squares)) - e_h * e_h
    mc_se = float(np.std(squares - 2.0 * e_h * means, ddof=1) / math.sqrt(n_samples))
    var_ok = abs(predicted - mc_var) <= 0.05 * mc_var + 3.0 * mc_se

    ok = max(pulls) <= 3.0 and r2 >= 0.99 and var_ok
    check(
        "9", "covariance recovery",
        f"worst |pull| {max(pulls):.2f}, R^2 {r2:.6f}, "
        f"variance prediction {predicted:.6e} vs MC {mc_var:.6e} +- {mc_se:.1e}",
        "|pull| <= 3, R^2 >= 0.99, variance within 5% + MC error",
        "as stated", ok,
    )


# ---------------------------------------------------------------------------
# 10: mixed-derivative verification
# ---------------------------------------------------------------------------


def test_criterion_10_mixed_derivative_closed_form():
    worst = 0.0
    mu, eta = 1e6, 0.9
    for phi0 in np.geomspace(1e-3, 1.0, 9):
        config = cfg(mu=mu, eta=eta, lam=0.0, phi0=float(phi0),
                     input_kind="CoherentOnly")
        expected = (eta * mu * math.sin(phi0)) ** 2 / 4.0
        # the difference estimator's derivative is -2 d^2<N1 N2>
        got = -0.5 * estimator_mixed_derivative(config, DIFF)
        worst = max(worst, abs(got - expected) / expected)
    check(
        "10", "mixed derivative vs coherent-only closed form",
        f"worst rel err {worst:.3e} over phi0 in [1e-3, 1]",
        "eta^2 mu^2 sin(phi1) sin(phi2) / 4", "rel 1e-6", worst <= 1e-6,
    )
