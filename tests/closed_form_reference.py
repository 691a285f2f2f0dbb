"""Complex-correlator closed forms, the reference for the real-valued ones.

``holonoise.observables.closed_form_moments`` and
``closed_form_quadrature`` evaluate folded real products of half-angle
sines and cosines.  The functions here take the other road: they build
the complex Gaussian correlators (m_i, n_i, S_i, G) of
``detected_correlators`` and apply the displaced-Gaussian identities

    <N_i>       = |m_i|^2 + n_i
    Var(N_i)    = |m_i|^2 (1 + 2 n_i) + 2 Re(conj(m_i)^2 S_i)
                  + n_i (1 + n_i) + |S_i|^2
    Cov(N1,N2)  = 2 Re(conj(m_1) conj(m_2) G) + |G|^2
    <Y_i>       = sqrt(2) Re(m_i e^{-i chi_i})
    Var(Y_i)    = 1/2 + n_i + Re(S_i e^{-2i chi_i})
    Cov(Y1,Y2)  = Re(G e^{-i(chi_1 + chi_2)})

literally, in complex arithmetic, followed by detection loss.
"""
from __future__ import annotations

import math
from typing import Any

import numpy as np

from holonoise.config import HolometerConfig
from holonoise.observables import detected_correlators


def complex_moments(config: HolometerConfig) -> dict[str, Any]:
    """Photon-number mean, variance and covariance after detection loss."""
    cor = detected_correlators(config)
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
    cor = detected_correlators(config)
    eta_1, eta_2 = config.eta_pair

    def port(m: Any, n: Any, s: Any, chi: float, eta: float) -> tuple[Any, Any]:
        mean = math.sqrt(2.0) * np.real(m * np.exp(-1j * chi))
        var = 0.5 + n + np.real(s * np.exp(-2j * chi))
        return math.sqrt(eta) * mean, eta * var + (1.0 - eta) / 2.0

    mean_1, var_1 = port(cor["m1"], cor["n1"], cor["s1"], chi_1, eta_1)
    mean_2, var_2 = port(cor["m2"], cor["n2"], cor["s2"], chi_2, eta_2)
    cov = math.sqrt(eta_1 * eta_2) * np.real(cor["g"] * np.exp(-1j * (chi_1 + chi_2)))
    return {"mean_1": mean_1, "mean_2": mean_2, "var_1": var_1, "var_2": var_2, "cov": cov}
