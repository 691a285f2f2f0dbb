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
for displaced Gaussian states.  Here m_i = i s_i sqrt(mu) e^{i psi},
n_i = lam c_i^2, S_i = -A c_i^2 e^{2 i chi} for squeezed input (chi its
squeezed quadrature angle) and G = A c_1 c_2 e^{i theta} for twin beams,
with c_i, s_i = cos, sin(phi_i / 2) and A = sqrt(lam (1 + lam)), so
every moment is a real polynomial in the half-angle cosines and sines,
with coefficients folded from mu, lam, psi, theta and the quadrature
angles.  closed_form_moments and closed_form_quadrature evaluate those
real products directly, skipping the terms that vanish for the input
kind.  Each is one function of the half-angle cosines and sines with
the configuration's coefficients folded once (_photon_moments_at; the
quadrature readout in two steps, _quadrature_means_at for the means and
the covariance and _quadrature_variances_at for the variances): the
closed forms feed it the configuration's own phases, and the
Monte-Carlo estimator surface (estimation.estimator_mean_curve) feeds
it sampled phases, block by block, in place, running only the steps
that its <C> reads.  holometer.propagate writes the engine's detected
state from the same products, so the independent check of both is the
truncated-Fock oracle, at 1e-8 relative.  The estimators' exact mixed
phase derivatives live with the estimators
(estimation.estimator_mixed_derivative).

Everything here evaluates at the configuration's phases.  A stacked
configuration (config.py) gives arrays over its stack, so a stack over
phi0_1 and phi0_2 evaluates many phase pairs at once; nrf raises only
where a whole sweep must stop, as for a scalar configuration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .config import HolometerConfig, InputKind

__all__ = [
    "UndefinedResultError",
    "NrfResult",
    "closed_form_moments",
    "closed_form_quadrature",
    "nrf",
    "nrf_asymptotic",
    "regime_parameter",
]


class UndefinedResultError(ValueError):
    """A requested quantity has no defined value at this operating point."""


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _half_angles(config: HolometerConfig) -> tuple[Any, ...]:
    """cos and sin of phi0_i / 2 over the configuration's whole stack,
    also where only other fields (lam, eta, ...) are stacked."""
    half_1 = np.full(config.shape, config.phi0_1 / 2.0)
    half_2 = np.full(config.shape, config.phi0_2 / 2.0)
    return np.cos(half_1), np.sin(half_1), np.cos(half_2), np.sin(half_2)


_MOMENT_FIELDS = ("mean_1", "mean_2", "var_1", "var_2", "cov")


def _at_half_angles(
    moments: Callable[..., tuple[Any, ...]], config: HolometerConfig,
) -> dict[str, Any]:
    """The five moments at the configuration's own phases, as floats for
    a single configuration."""
    values = moments(*(np.asarray(part) for part in _half_angles(config)))
    return {name: value[()] for name, value in zip(_MOMENT_FIELDS, values)}


def closed_form_moments(config: HolometerConfig) -> dict[str, Any]:
    """Vectorized first/second photon-number moments after detection loss.

    Returns a dict with keys ``mean_1, mean_2, var_1, var_2, cov`` whose
    values are real float64, arrays over a stacked configuration.  With
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
    return _at_half_angles(_photon_moments_at(config), config)


def _photon_moments_at(config: HolometerConfig) -> Callable[..., tuple[Any, ...]]:
    """closed_form_moments as a function of the half-angle cosines and
    sines: moments(c1, s1, c2, s2) -> (mean_1, mean_2, var_1, var_2,
    cov), with the coefficients of ``config`` folded once here.  Its four
    arguments are distinct arrays of one shape, which it overwrites and
    returns as the means and variances.  Every step is an in-place ufunc,
    which rounds as the same step out of place would, so a block of
    phases gets the bits of one evaluation over all of them."""
    eta_1, eta_2 = config.eta_pair
    kind, mu, lam = config.input_kind, config.mu, config.lam
    pair = np.sqrt(lam * (1.0 + lam))
    weight, quartic = lam, lam * lam
    if kind is InputKind.TWO_SQUEEZED:
        weight = weight + pair * np.cos(2.0 * (config.squeezed_quadrature_angle - config.psi))
        quartic = quartic + pair * pair
    twice_weight = 2.0 * weight
    if kind is InputKind.TWB:
        coupling = 2.0 * mu * np.cos(config.theta - 2.0 * config.psi)
        loss = eta_1 * eta_2

    def moments(c1: np.ndarray, s1: np.ndarray, c2: np.ndarray, s2: np.ndarray) -> tuple[Any, ...]:
        cov, amp2, spare = (np.empty_like(c1) for _ in range(3))
        if kind is InputKind.TWB:
            np.multiply(c1, pair, out=cov)
            cov *= c2
            np.multiply(s1, coupling, out=spare)
            spare *= s2
            np.subtract(cov, spare, out=spare)
            cov *= loss
            cov *= spare
        else:
            cov[...] = 0.0
        # per port |m_i|^2 into amp2, then the mean into s and the variance into c
        for c, s, eta in ((c1, s1, eta_1), (c2, s2, eta_2)):
            np.multiply(s, mu, out=amp2)
            amp2 *= s
            if kind is InputKind.COHERENT_ONLY:
                np.copyto(s, amp2)
                np.copyto(c, amp2)
            else:
                c *= c
                np.multiply(c, lam, out=s)
                s += amp2
                np.multiply(c, twice_weight, out=spare)
                spare += 1.0
                spare *= amp2
                np.multiply(c, quartic, out=amp2)
                amp2 += lam
                c *= amp2
                c += spare
            c *= eta * eta
            np.multiply(s, eta * (1.0 - eta), out=amp2)
            c += amp2
            s *= eta
        return s1, s2, c1, c2, cov

    return moments


def closed_form_quadrature(config: HolometerConfig) -> dict[str, Any]:
    """Vectorized closed-form quadrature readout after detection loss.

    Both detectors measure the signal quadrature chi = psi + pi/2,
    where the coherent leak carries the phase information.  Returns
    ``mean_1, mean_2, var_1, var_2, cov`` for Y_chi = (a e^{-i chi} +
    a^+ e^{i chi})/sqrt(2), as real float64 values, arrays over a
    stacked configuration.  Before loss, in the notation of
    closed_form_moments,

        <Y_i>      = sqrt(2 mu) s_i
        Var(Y_i)   = 1/2 + (lam_n - A cos 2(chi_sq - chi)) c_i^2
        Cov(Y1,Y2) = A cos(theta - 2 chi) c_1 c_2   (twin beam)

    where the A term of the variance is present for squeezed input only;
    the mean's factor sin(chi - psi) is 1 on the signal quadrature.
    """
    means_and_cov = _quadrature_means_at(config)
    variances = _quadrature_variances_at(config)

    def moments(c1: np.ndarray, s1: np.ndarray, c2: np.ndarray, s2: np.ndarray) -> tuple[Any, ...]:
        mean_1, mean_2, cov = means_and_cov(c1, s1, c2, s2)
        return (mean_1, mean_2, *variances(c1, c2), cov)

    return _at_half_angles(moments, config)


def _quadrature_means_at(config: HolometerConfig) -> Callable[..., tuple[Any, ...]]:
    """The means and the covariance of closed_form_quadrature as a
    function of the half-angle cosines and sines, as _photon_moments_at
    is closed_form_moments: the coefficients are folded once, and
    means(c1, s1, c2, s2) -> (mean_1, mean_2, cov) overwrites its sine
    arguments with the means, in place, and leaves the cosines.  Only
    the twin-beam covariance reads the cosines: means.reads_cosines
    says so, and where it is False c1 and c2 may be None."""
    eta_1, eta_2 = config.eta_pair
    twin = config.input_kind is InputKind.TWB
    if twin:
        chi = config.signal_quadrature_angle
        pair = np.sqrt(config.lam * (1.0 + config.lam))
        coupling = np.sqrt(eta_1 * eta_2) * pair * np.cos(config.theta - chi - chi)
    amplitude_1, amplitude_2 = np.sqrt(2.0 * eta_1 * config.mu), np.sqrt(2.0 * eta_2 * config.mu)

    def means(c1: np.ndarray, s1: np.ndarray, c2: np.ndarray, s2: np.ndarray) -> tuple[Any, ...]:
        cov = np.empty_like(s1)
        if twin:
            np.multiply(c1, coupling, out=cov)
            cov *= c2
        else:
            cov[...] = 0.0
        s1 *= amplitude_1
        s2 *= amplitude_2
        return s1, s2, cov

    means.reads_cosines = twin
    return means


def _quadrature_variances_at(config: HolometerConfig) -> Callable[..., tuple[Any, ...]]:
    """The two variances of closed_form_quadrature as a function of the
    half-angle cosines, variances(c1, c2) -> (var_1, var_2), with the
    coefficients folded once; the cosines are left as they are.  The
    Monte-Carlo <C> of the quadrature product reads no variance, so
    only the closed form runs this step."""
    eta_1, eta_2 = config.eta_pair
    kind, lam = config.input_kind, config.lam
    weight = lam
    if kind is InputKind.TWO_SQUEEZED:
        pair = np.sqrt(lam * (1.0 + lam))
        weight = weight - pair * np.cos(2.0 * (config.squeezed_quadrature_angle
                                               - config.signal_quadrature_angle))

    def variances(c1: np.ndarray, c2: np.ndarray) -> tuple[Any, ...]:
        var_1, var_2 = np.empty_like(c1), np.empty_like(c1)
        for c, eta, var in ((c1, eta_1, var_1), (c2, eta_2, var_2)):
            if kind is InputKind.COHERENT_ONLY:
                var[...] = 0.5 * eta + (1.0 - eta) / 2.0
                continue
            np.multiply(c, weight, out=var)
            var *= c
            var += 0.5
            var *= eta
            var += (1.0 - eta) / 2.0
        return var_1, var_2

    return variances


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


def half_angle_cos(phi: Any) -> Any:
    """cos(phi/2), read as exactly 0 at phi = pi (tau = 0), where no
    quantum light reaches the detector.

    cos(pi/2) never rounds to zero in floats (it leaves 6.1e-17), so
    phi = pi is caught within 4 ulp of it rather than by equality.
    """
    half = np.cos(0.5 * phi)
    return np.where(np.abs(half) <= 4.0 * math.ulp(1.0), 0.0, half)


def regime_parameter(config: HolometerConfig) -> float:
    """Coherent-to-quantum photon ratio k at the detected port.

    k = mu(1-tau)/(tau*lambda); 0 when no coherent light reaches the
    detector, +inf when no quantum light does (at phi = pi, as
    half_angle_cos reads it).  1-tau is evaluated as sin^2(phi/2), which
    stays accurate for phases far below the double rounding step of cos^2.
    """
    coherent = config.mu * np.sin(0.5 * config.phi0_1) ** 2
    quantum = half_angle_cos(config.phi0_1) ** 2 * config.lam
    if config.input_kind is InputKind.COHERENT_ONLY:
        quantum = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = coherent / quantum
    return config.per_row(np.where(quantum == 0.0, np.where(coherent > 0.0, np.inf, 0.0), ratio))


def nrf(config: HolometerConfig) -> NrfResult:
    """Noise reduction factors at the configured operating point.

    Requires equal interferometer phases and efficiencies (the
    difference/sum photocurrents are only balanced then).  Raises
    UndefinedResultError when no light reaches the detectors, on a
    stack when that holds for any of its members.
    """
    if not config.is_symmetric():
        raise UndefinedResultError(
            "noise reduction factors are defined for equal phases and efficiencies"
        )
    moments = closed_form_moments(config)
    total = moments["mean_1"] + moments["mean_2"]
    if np.any(total <= 0.0):
        raise UndefinedResultError(
            "no photons reach the detectors; the noise reduction factor is undefined"
        )
    # Var(N1 - N2) vanishes identically for lossless fully transmitted twin
    # beams, so the subtraction var_1 + var_2 - 2 cov can leave pure
    # cancellation noise; clamp only that, never a genuinely negative value.
    var_sum, cov = moments["var_1"] + moments["var_2"], moments["cov"]
    cancellation = 64.0 * math.ulp(1.0) * (var_sum + 2.0 * abs(cov))

    def ratio(variance: Any) -> Any:
        clamped = (variance < 0.0) & (-variance <= cancellation)
        return config.per_row(np.where(clamped, 0.0, variance) / total)

    return NrfResult(nrf_minus=ratio(var_sum - 2.0 * cov), nrf_plus=ratio(var_sum + 2.0 * cov))


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
    if regime not in ("A", "B"):
        raise ValueError(f"regime must be 'A' or 'B', got {regime!r}")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if not config.is_symmetric():
        raise UndefinedResultError("asymptotic forms assume equal phases and efficiencies")
    if config.lam <= 0.0:
        raise UndefinedResultError(
            "asymptotic noise-reduction forms assume quantum light present (lambda > 0)"
        )
    eta, tau, lam = config.eta, config.tau_1, config.lam
    if regime == "A":
        if sign == "+":
            return 1.0 + eta * tau * (2.0 * lam + 1.0)
        k = regime_parameter(config)
        squeeze_factor = 1.0 + 2.0 * lam - 2.0 * math.sqrt(lam * (1.0 + lam))
        return (1.0 - eta * tau) + eta * tau * squeeze_factor * k
    return 1.0 - tau * eta + eta * tau / (4.0 * lam)
