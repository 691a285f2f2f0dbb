"""Closed-form photon statistics and noise-reduction factors.

Each interferometer is equivalent to a beam splitter of transmissivity
tau = cos^2(phi/2) mixing its quantum port into the coherent port; the
detected mode is

    d_i = cos(phi_i/2) * b_i + i sin(phi_i/2) * a_i,

with ``b_i`` the quantum input (twin-beam arm, squeezed vacuum, or
vacuum) and ``a_i`` the coherent input of amplitude sqrt(mu) e^{i psi}.
Every first/second-order photon observable then follows from four
Gaussian correlators of the detected mode: the displacement m_i, the
thermal occupancy n_i = <dd_i^+ dd_i>, the self-anomalous term
S_i = <dd_i^2>, and the cross-anomalous term G = <dd_1 dd_2> (the only
nonzero cross correlator for the inputs modeled here):

    <N_i>       = |m_i|^2 + n_i
    Var(N_i)    = |m_i|^2 (1 + 2 n_i) + 2 Re(conj(m_i)^2 S_i)
                  + n_i (1 + n_i) + |S_i|^2
    Cov(N1,N2)  = 2 Re(conj(m_1) conj(m_2) G) + |G|^2

Detection loss eta maps mean -> eta*mean, Var -> eta^2*Var +
eta(1-eta)*mean, Cov -> eta_1*eta_2*Cov.  These identities hold exactly
for displaced Gaussian states.  The Gaussian engine builds its detected
state from the correlators (holometer.propagate), so the independent
check of both is the truncated-Fock oracle, at 1e-8 relative.

With the correlators written out, every moment is a real polynomial in
the half-angle cosines and sines of the two phases, with coefficients
folded from mu, lam, psi, theta and the quadrature angles.
closed_form_moments and closed_form_quadrature evaluate those real
products directly, skipping the terms that vanish for the input kind;
the Monte-Carlo layer calls them over 1e5-sample phase arrays.  The
estimators' exact mixed phase derivatives, taken from the same products,
live with the estimators (estimation.estimator_mixed_derivative).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .config import HolometerConfig, InputKind
from .moments import ReadoutMoments

__all__ = [
    "UndefinedResultError",
    "NrfResult",
    "detected_correlators",
    "closed_form_moments",
    "closed_form_quadrature",
    "analytic_moments",
    "nrf",
    "nrf_asymptotic",
    "regime_parameter",
]


class UndefinedResultError(ValueError):
    """A requested quantity has no defined value at this operating point."""


# ---------------------------------------------------------------------------
# correlator primitives
# ---------------------------------------------------------------------------


def _half_angles(config: HolometerConfig, phi_1: Any, phi_2: Any) -> tuple[Any, ...]:
    """cos and sin of phi_i / 2, with the phases defaulted and broadcast."""
    phi_1 = config.phi0_1 if phi_1 is None else phi_1
    phi_2 = config.phi0_2 if phi_2 is None else phi_2
    phi_1, phi_2 = np.broadcast_arrays(np.asarray(phi_1, float), np.asarray(phi_2, float))
    half_1, half_2 = phi_1 / 2.0, phi_2 / 2.0
    return np.cos(half_1), np.sin(half_1), np.cos(half_2), np.sin(half_2)


def detected_correlators(
    config: HolometerConfig,
    phi_1: Any = None,
    phi_2: Any = None,
) -> dict[str, Any]:
    """Pre-loss Gaussian correlators of the two detected modes.

    ``phi_1``/``phi_2`` override the configured operating phases and may
    be numpy arrays (broadcast together); holometer.propagate builds the
    engine's detected state from them.

    Returns a dict with keys ``m1, m2`` (complex displacement), ``n1,
    n2`` (thermal occupancy), ``s1, s2`` (self-anomalous ``<dd^2>``) and
    ``g`` (cross-anomalous ``<dd1 dd2>``).
    """
    c1, s1, c2, s2 = _half_angles(config, phi_1, phi_2)
    alpha = config.coherent_amplitude  # sqrt(mu) e^{i psi}
    m1 = 1j * s1 * alpha
    m2 = 1j * s2 * alpha

    lam = config.lam
    zeros = np.zeros_like(c1, dtype=complex)
    n1 = np.zeros_like(c1)
    n2 = np.zeros_like(c2)
    s_anom_1 = zeros.copy()
    s_anom_2 = zeros.copy()
    g_anom = zeros.copy()
    if config.input_kind is InputKind.TWB:
        n1 = c1 * c1 * lam
        n2 = c2 * c2 * lam
        g_anom = c1 * c2 * math.sqrt(lam * (1.0 + lam)) * np.exp(1j * config.theta)
    elif config.input_kind is InputKind.TWO_SQUEEZED:
        n1 = c1 * c1 * lam
        n2 = c2 * c2 * lam
        chi = config.squeezed_quadrature_angle
        b_sq = -math.sqrt(lam * (1.0 + lam)) * np.exp(2j * chi)
        s_anom_1 = c1 * c1 * b_sq
        s_anom_2 = c2 * c2 * b_sq
    return {"m1": m1, "m2": m2, "n1": n1, "n2": n2, "s1": s_anom_1, "s2": s_anom_2, "g": g_anom}


def closed_form_moments(
    config: HolometerConfig,
    phi_1: Any = None,
    phi_2: Any = None,
) -> dict[str, Any]:
    """Vectorized first/second photon-number moments after detection loss.

    Returns a dict with keys ``mean_1, mean_2, var_1, var_2, cov`` whose
    values are real float64 and broadcast like the phase inputs.  With
    c_i, s_i = cos, sin(phi_i / 2), A = sqrt(lam (1 + lam)) and lam_n =
    lam (0 for coherent-only input), the pre-loss moments are

        <N_i>      = mu s_i^2 + lam_n c_i^2
        Var(N_i)   = mu s_i^2 (1 + 2 w c_i^2) + c_i^2 (lam_n + v c_i^2)
        Cov(N1,N2) = A c_1 c_2 (A c_1 c_2 - 2 mu kappa s_1 s_2)   (twin beam)

    with w = lam_n and v = lam_n^2, plus A cos 2(chi - psi) in w and A^2
    in v for squeezed input (chi its squeezed quadrature angle), and
    kappa = cos(theta - 2 psi).  These are the correlator identities of
    the module docstring in real arithmetic; terms that vanish for the
    input kind are never formed.
    """
    c1, s1, c2, s2 = _half_angles(config, phi_1, phi_2)
    eta_1, eta_2 = config.eta_pair
    kind, mu, lam = config.input_kind, config.mu, config.lam
    pair = math.sqrt(lam * (1.0 + lam))
    weight, quartic = lam, lam * lam
    if kind is InputKind.TWO_SQUEEZED:
        weight += pair * math.cos(2.0 * (config.squeezed_quadrature_angle - config.psi))
        quartic += pair * pair

    def port(c: Any, s: Any, eta: float) -> tuple[Any, Any]:
        amp2 = mean = var = mu * s * s  # |m_i|^2
        if kind is not InputKind.COHERENT_ONLY:
            cc = c * c
            mean = amp2 + lam * cc
            var = amp2 * (1.0 + 2.0 * weight * cc) + cc * (lam + quartic * cc)
        return eta * mean, eta * eta * var + eta * (1.0 - eta) * mean

    mean_1, var_1 = port(c1, s1, eta_1)
    mean_2, var_2 = port(c2, s2, eta_2)
    if kind is InputKind.TWB:
        pair_cc = pair * c1 * c2
        kappa = math.cos(config.theta - 2.0 * config.psi)
        cov = eta_1 * eta_2 * pair_cc * (pair_cc - 2.0 * mu * kappa * s1 * s2)
    else:
        cov = np.zeros_like(c1)
    return {"mean_1": mean_1, "mean_2": mean_2, "var_1": var_1, "var_2": var_2, "cov": cov}


def closed_form_quadrature(
    config: HolometerConfig,
    phi_1: Any = None,
    phi_2: Any = None,
) -> dict[str, Any]:
    """Vectorized closed-form quadrature readout after detection loss.

    Both detectors measure the signal quadrature chi = psi + pi/2,
    where the coherent leak carries the phase information.  Returns
    ``mean_1, mean_2, var_1, var_2, cov`` for Y_chi = (a e^{-i chi} +
    a^+ e^{i chi})/sqrt(2), as real float64 values that broadcast like
    the phase inputs.  Before loss, in the notation of
    closed_form_moments,

        <Y_i>      = sqrt(2 mu) sin(chi - psi) s_i
        Var(Y_i)   = 1/2 + (lam_n - A cos 2(chi_sq - chi)) c_i^2
        Cov(Y1,Y2) = A cos(theta - 2 chi) c_1 c_2   (twin beam)

    where the A term of the variance is present for squeezed input only.
    """
    chi = config.signal_quadrature_angle
    c1, s1, c2, s2 = _half_angles(config, phi_1, phi_2)
    eta_1, eta_2 = config.eta_pair
    kind, lam = config.input_kind, config.lam
    pair = math.sqrt(lam * (1.0 + lam))

    def port(c: Any, s: Any, eta: float) -> tuple[Any, Any]:
        mean = math.sqrt(2.0 * eta * config.mu) * math.sin(chi - config.psi) * s
        if kind is InputKind.COHERENT_ONLY:
            return mean, np.full_like(c, 0.5 * eta + (1.0 - eta) / 2.0)
        weight = lam
        if kind is InputKind.TWO_SQUEEZED:
            weight -= pair * math.cos(2.0 * (config.squeezed_quadrature_angle - chi))
        return mean, eta * (0.5 + weight * c * c) + (1.0 - eta) / 2.0

    mean_1, var_1 = port(c1, s1, eta_1)
    mean_2, var_2 = port(c2, s2, eta_2)
    if kind is InputKind.TWB:
        cov = math.sqrt(eta_1 * eta_2) * pair * math.cos(config.theta - chi - chi) * c1 * c2
    else:
        cov = np.zeros_like(c1)
    return {"mean_1": mean_1, "mean_2": mean_2, "var_1": var_1, "var_2": var_2, "cov": cov}


def analytic_moments(config: HolometerConfig) -> ReadoutMoments:
    """Closed-form second-order readout moments at the operating phases.

    Exact for all three input kinds and for unequal interferometer
    phases; the returned carrier holds no third/fourth-order table.
    """
    vals = closed_form_moments(config)
    return ReadoutMoments(
        mean_1=float(vals["mean_1"]),
        mean_2=float(vals["mean_2"]),
        var_1=float(vals["var_1"]),
        var_2=float(vals["var_2"]),
        cov=float(vals["cov"]),
    )


# ---------------------------------------------------------------------------
# noise reduction factor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NrfResult:
    """Noise reduction factors of the difference and sum photocurrents.

    ``nrf_minus``/``nrf_plus`` are Var(N1 -+ N2) / <N1 + N2>; values
    below 1 certify nonclassical correlation.
    """

    nrf_minus: float
    nrf_plus: float


def regime_parameter(config: HolometerConfig) -> float:
    """Coherent-to-quantum photon ratio k at the detected port.

    k = mu(1-tau)/(tau*lambda); 0 when no coherent light reaches the
    detector, +inf when no quantum light does.  1-tau is evaluated as
    sin^2(phi/2), which stays accurate for phases far below the double
    rounding step of cos^2.
    """
    half = 0.5 * config.phi0_1
    coherent = config.mu * math.sin(half) ** 2
    quantum = math.cos(half) ** 2 * config.lam
    if config.input_kind is InputKind.COHERENT_ONLY:
        return math.inf if coherent > 0.0 else 0.0
    if quantum == 0.0:
        return math.inf if coherent > 0.0 else 0.0
    return coherent / quantum


def nrf(config: HolometerConfig) -> NrfResult:
    """Noise reduction factors at the configured operating point.

    Requires equal interferometer phases and efficiencies (the
    difference/sum photocurrents are only balanced then).  Raises
    UndefinedResultError when no light reaches the detectors.
    """
    if not config.is_symmetric():
        raise UndefinedResultError(
            "noise reduction factors are defined for equal phases and efficiencies"
        )
    moments = analytic_moments(config)
    total = moments.total_mean
    if total <= 0.0:
        raise UndefinedResultError(
            "no photons reach the detectors; the noise reduction factor is undefined"
        )
    # Var(N1 - N2) vanishes identically for lossless fully transmitted twin
    # beams, so the subtraction var_1 + var_2 - 2 cov can leave pure
    # cancellation noise; clamp only that, never a genuinely negative value.
    cancellation = 64.0 * math.ulp(1.0) * (
        moments.var_1 + moments.var_2 + 2.0 * abs(moments.cov)
    )

    def ratio(variance: float) -> float:
        if variance < 0.0 and -variance <= cancellation:
            return 0.0
        return variance / total

    return NrfResult(
        nrf_minus=ratio(moments.difference_variance()),
        nrf_plus=ratio(moments.sum_variance()),
    )


def nrf_asymptotic(config: HolometerConfig, regime: str, sign: str) -> float:
    """Limit forms of the noise reduction factor in the two dominance regimes.

    regime "A" (quantum light dominates the readout):
        sign "-":  (1 - eta*tau) + eta*tau*(1 + 2*lam - 2*sqrt(lam(1+lam))) * k
        sign "+":  1 + eta*tau*(2*lam + 1)
    regime "B" (coherent light dominates, lam >> 1):
        both signs:  1 - eta*tau + eta*tau/(4*lam)
    taken verbatim from the limit expressions; no interpolation between
    regimes is attempted.
    """
    regime_key = str(regime).strip().upper()
    if regime_key not in ("A", "B"):
        raise ValueError(f"regime must be 'A' or 'B', got {regime!r}")
    sign_key = {"+": "+", "-": "-", "plus": "+", "minus": "-", "1": "+", "-1": "-"}.get(
        str(sign).strip().lower()
    )
    if sign_key is None:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if not config.is_symmetric():
        raise UndefinedResultError("asymptotic forms assume equal phases and efficiencies")
    if config.lam <= 0.0:
        raise UndefinedResultError(
            "asymptotic noise-reduction forms assume quantum light present (lambda > 0)"
        )
    eta, tau, lam = config.eta, config.tau_1, config.lam
    if regime_key == "A":
        if sign_key == "+":
            return 1.0 + eta * tau * (2.0 * lam + 1.0)
        k = regime_parameter(config)
        squeeze_factor = 1.0 + 2.0 * lam - 2.0 * math.sqrt(lam * (1.0 + lam))
        return (1.0 - eta * tau) + eta * tau * squeeze_factor * k
    return 1.0 - tau * eta + eta * tau / (4.0 * lam)
