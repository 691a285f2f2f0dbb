"""Model of two phase-correlated interferometers sharing quantum light.

Each interferometer is reduced to its equivalent beam splitter: the
detected port mixes the quantum input port with the coherent beam,
transmitting the quantum side with cos(phi/2).  At phi = 0 the readout
therefore sees only the quantum light, and the coherent beam leaks in
proportionally to sin^2(phi/2).

The detected pair is a two-mode Gaussian state, readout 1 on mode 0 and
readout 2 on mode 1.  ``propagate`` writes its mean and covariance from
the detected-mode correlators of ``observables.detected_correlators``
and applies the detection loss; the Gaussian engine takes the photon and
quadrature statistics from there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian_engine as ge
from .config import HolometerConfig
from .moments import QuadratureMoments, ReadoutMoments
from .observables import detected_correlators

__all__ = [
    "HolometerConfig",
    "PropagatedState",
    "propagate",
    "readout_moments",
    "quadrature_readout",
]


@dataclass(frozen=True)
class PropagatedState:
    """Two-mode state of the detected ports at given working phases."""

    state: ge.GaussianState
    config: HolometerConfig
    phi_1: float
    phi_2: float


def _quadrature_block(z: complex) -> np.ndarray:
    """Symmetrized quadrature covariance contributed by a correlator
    <da db> = z: [[Re z, Im z], [Im z, -Re z]]."""
    return np.array([[z.real, z.imag], [z.imag, -z.real]])


def propagate(
    config: HolometerConfig,
    phi_1: float | None = None,
    phi_2: float | None = None,
) -> PropagatedState:
    """Detected two-mode state after both readout beam splitters and the loss.

    phi_1/phi_2 override the configured working phases; derivative code
    leans on that.  With m = <d>, n = <dd+ dd>, s = <dd^2> per mode and
    g = <dd1 dd2> (the only cross correlator of these inputs), the
    quadrature mean is sqrt(2) (Re m, Im m), each diagonal block is
    n I + [[Re s, Im s], [Im s, -Re s]] + I/2 and the cross block is
    [[Re g, Im g], [Im g, -Re g]].  Loss eta_i scales the mean by
    sqrt(eta_i), the fluctuations by eta_i and the cross block by
    sqrt(eta_1 eta_2).
    """
    p1 = config.phi0_1 if phi_1 is None else phi_1
    p2 = config.phi0_2 if phi_2 is None else phi_2
    cor = {key: complex(value) for key, value in detected_correlators(config, p1, p2).items()}
    etas = config.eta_pair
    mean = np.zeros(4)
    cov = 0.5 * np.eye(4)
    for k, eta in enumerate(etas):
        m, n, s = cor[f"m{k + 1}"], cor[f"n{k + 1}"].real, cor[f"s{k + 1}"]
        block = slice(2 * k, 2 * k + 2)
        mean[block] = math.sqrt(2.0 * eta) * m.real, math.sqrt(2.0 * eta) * m.imag
        cov[block, block] += eta * (n * np.eye(2) + _quadrature_block(s))
    cross = math.sqrt(etas[0] * etas[1]) * _quadrature_block(cor["g"])
    cov[0:2, 2:4] = cross
    cov[2:4, 0:2] = cross.T
    return PropagatedState(ge.GaussianState(mean, cov), config, p1, p2)


def readout_moments(
    config: HolometerConfig,
    phi_1: float | None = None,
    phi_2: float | None = None,
    max_order: int = 4,
) -> ReadoutMoments:
    """Joint photon-number moments of the two readouts via the engine."""
    prop = propagate(config, phi_1, phi_2)
    return ge.centered_photon_moments(prop.state, (0, 1), max_order=max_order)


def quadrature_readout(
    config: HolometerConfig,
    phi_1: float | None = None,
    phi_2: float | None = None,
    chi_1: float | None = None,
    chi_2: float | None = None,
) -> QuadratureMoments:
    """First and second moments of one quadrature per readout, default
    the quadrature that carries the phase signal."""
    chi1 = config.signal_quadrature_angle if chi_1 is None else chi_1
    chi2 = config.signal_quadrature_angle if chi_2 is None else chi_2
    prop = propagate(config, phi_1, phi_2)
    means, cov = ge.quadrature_mean_cov(prop.state, ((0, chi1), (1, chi2)))
    return QuadratureMoments(
        mean_1=float(means[0]),
        mean_2=float(means[1]),
        var_1=float(cov[0, 0]),
        var_2=float(cov[1, 1]),
        cov=float(cov[0, 1]),
    )
