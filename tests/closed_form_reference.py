"""Complex-correlator references for the real-valued production routes.

``holonoise.observables.closed_form_moments`` and
``closed_form_quadrature`` evaluate folded real products of half-angle
sines and cosines, and ``holonoise.holometer.propagate`` writes the
detected state from the same products.  The functions here take the
other road: they build the complex Gaussian correlators (m_i, n_i, S_i,
G) of the detected modes d_i = cos(phi_i/2) b_i + i sin(phi_i/2) a_i
themselves and apply the displaced-Gaussian identities

    <N_i>       = |m_i|^2 + n_i
    Var(N_i)    = |m_i|^2 (1 + 2 n_i) + 2 Re(conj(m_i)^2 S_i)
                  + n_i (1 + n_i) + |S_i|^2
    Cov(N1,N2)  = 2 Re(conj(m_1) conj(m_2) G) + |G|^2
    <Y_i>       = sqrt(2) Re(m_i e^{-i chi_i})
    Var(Y_i)    = 1/2 + n_i + Re(S_i e^{-2i chi_i})
    Cov(Y1,Y2)  = Re(G e^{-i(chi_1 + chi_2)})

literally, in complex arithmetic, followed by detection loss; they
share no code with either production route.
"""
from __future__ import annotations

import math
from typing import Any

import numpy as np

from holonoise.config import HolometerConfig, InputKind


def complex_correlators(config: HolometerConfig) -> dict[str, Any]:
    """Pre-loss correlators of the two detected modes: ``m1, m2`` (complex
    displacement), ``n1, n2`` (thermal occupancy), ``s1, s2``
    (self-anomalous <dd^2>) and ``g`` (cross-anomalous <dd1 dd2>), with
    complex zeros for the terms the input kind lacks."""
    half_1 = np.full(config.shape, config.phi0_1 / 2.0)
    half_2 = np.full(config.shape, config.phi0_2 / 2.0)
    c1, s1, c2, s2 = np.cos(half_1), np.sin(half_1), np.cos(half_2), np.sin(half_2)
    alpha = np.sqrt(config.mu) * (np.cos(config.psi) + 1j * np.sin(config.psi))
    lam = config.lam
    zeros = np.zeros_like(c1, dtype=complex)
    cor = {"m1": 1j * s1 * alpha, "m2": 1j * s2 * alpha,
           "n1": np.zeros_like(c1), "n2": np.zeros_like(c2),
           "s1": zeros, "s2": zeros, "g": zeros}
    if config.input_kind is not InputKind.COHERENT_ONLY:
        cor["n1"], cor["n2"] = c1 * c1 * lam, c2 * c2 * lam
    if config.input_kind is InputKind.TWB:
        cor["g"] = c1 * c2 * np.sqrt(lam * (1.0 + lam)) * np.exp(1j * config.theta)
    elif config.input_kind is InputKind.TWO_SQUEEZED:
        b_sq = -np.sqrt(lam * (1.0 + lam)) * np.exp(2j * config.squeezed_quadrature_angle)
        cor["s1"], cor["s2"] = c1 * c1 * b_sq, c2 * c2 * b_sq
    return cor


def complex_state(config: HolometerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Detected quadrature mean (..., 4) and covariance (..., 4, 4) after
    loss: sqrt(2 eta_i) (Re m_i, Im m_i), diagonal blocks I/2 + eta_i (n_i I
    + [[Re S_i, Im S_i], [Im S_i, -Re S_i]]) and cross block
    sqrt(eta_1 eta_2) [[Re G, Im G], [Im G, -Re G]]."""
    cor = complex_correlators(config)
    etas = config.eta_pair
    shape = np.shape(cor["m1"])
    mean = np.empty(shape + (4,))
    cov = np.empty(shape + (4, 4))
    for k, eta in enumerate(etas):
        m, n, s = cor[f"m{k + 1}"], cor[f"n{k + 1}"], cor[f"s{k + 1}"]
        x, y = 2 * k, 2 * k + 1
        mean[..., x] = np.sqrt(2.0 * eta) * m.real
        mean[..., y] = np.sqrt(2.0 * eta) * m.imag
        cov[..., x, x] = 0.5 + eta * (n + s.real)
        cov[..., y, y] = 0.5 + eta * (n - s.real)
        cov[..., x, y] = cov[..., y, x] = eta * s.imag
    root = np.sqrt(etas[0] * etas[1])
    g = cor["g"]
    cov[..., 0, 2] = cov[..., 2, 0] = root * g.real
    cov[..., 0, 3] = cov[..., 3, 0] = cov[..., 1, 2] = cov[..., 2, 1] = root * g.imag
    cov[..., 1, 3] = cov[..., 3, 1] = root * -g.real
    return mean, cov


def complex_moments(config: HolometerConfig) -> dict[str, Any]:
    """Photon-number mean, variance and covariance after detection loss."""
    cor = complex_correlators(config)
    eta_1, eta_2 = config.eta_pair

    def port(m: Any, n: Any, s: Any, eta: float) -> tuple[Any, Any]:
        amp2 = np.abs(m) ** 2
        mean = amp2 + n
        var = amp2 * (1.0 + 2.0 * n) + 2.0 * np.real(np.conj(m) ** 2 * s) + n * (1.0 + n) + np.abs(s) ** 2
        return eta * mean, eta * eta * var + eta * (1.0 - eta) * mean

    mean_1, var_1 = port(cor["m1"], cor["n1"], cor["s1"], eta_1)
    mean_2, var_2 = port(cor["m2"], cor["n2"], cor["s2"], eta_2)
    cov = eta_1 * eta_2 * (
        2.0 * np.real(np.conj(cor["m1"]) * np.conj(cor["m2"]) * cor["g"]) + np.abs(cor["g"]) ** 2
    )
    return {"mean_1": mean_1, "mean_2": mean_2, "var_1": var_1, "var_2": var_2, "cov": cov}


def complex_quadrature(config: HolometerConfig) -> dict[str, Any]:
    """Signal-quadrature mean, variance and covariance after detection
    loss, both readouts at chi_1 = chi_2 = psi + pi/2."""
    chi_1 = chi_2 = config.signal_quadrature_angle
    cor = complex_correlators(config)
    eta_1, eta_2 = config.eta_pair

    def port(m: Any, n: Any, s: Any, chi: float, eta: float) -> tuple[Any, Any]:
        mean = math.sqrt(2.0) * np.real(m * np.exp(-1j * chi))
        var = 0.5 + n + np.real(s * np.exp(-2j * chi))
        return math.sqrt(eta) * mean, eta * var + (1.0 - eta) / 2.0

    mean_1, var_1 = port(cor["m1"], cor["n1"], cor["s1"], chi_1, eta_1)
    mean_2, var_2 = port(cor["m2"], cor["n2"], cor["s2"], chi_2, eta_2)
    cov = math.sqrt(eta_1 * eta_2) * np.real(cor["g"] * np.exp(-1j * (chi_1 + chi_2)))
    return {"mean_1": mean_1, "mean_2": mean_2, "var_1": var_1, "var_2": var_2, "cov": cov}
