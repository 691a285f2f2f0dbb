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
quadrature statistics from there.  Everything is evaluated at the
configured phases; a stacked configuration, over the phases or any other
of its STACK_FIELDS, gives a stack of detected states, and the readouts
then hold arrays over it.
"""
from __future__ import annotations

import numpy as np

from . import gaussian_engine as ge
from .config import HolometerConfig
from .moments import QuadratureMoments, ReadoutMoments
from .observables import detected_correlators

__all__ = [
    "HolometerConfig",
    "propagate",
    "readout_moments",
    "quadrature_readout",
]


def propagate(config: HolometerConfig) -> ge.GaussianState:
    """Detected two-mode state after both readout beam splitters and the loss.

    A stacked configuration gives a stack of states, mean (..., 4) and
    covariance (..., 4, 4).  With m = <d>, n = <dd+ dd>,
    s = <dd^2> per mode and g = <dd1 dd2> (the only cross correlator of
    these inputs), the quadrature mean is sqrt(2) (Re m, Im m), each
    diagonal block is n I + [[Re s, Im s], [Im s, -Re s]] + I/2 and the
    cross block is [[Re g, Im g], [Im g, -Re g]].  Loss eta_i scales the
    mean by sqrt(eta_i), the fluctuations by eta_i and the cross block
    by sqrt(eta_1 eta_2).
    """
    cor = detected_correlators(config)
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
    return ge.GaussianState(mean, cov)


def readout_moments(config: HolometerConfig, max_order: int = 4) -> ReadoutMoments:
    """Joint photon-number moments of the two readouts via the engine;
    floats for a single configuration, arrays over a stack."""
    return ge.centered_photon_moments(propagate(config), max_order=max_order)


def quadrature_readout(config: HolometerConfig) -> QuadratureMoments:
    """First and second moments of the quadrature that carries the phase
    signal, per readout; floats for a single configuration, arrays over
    a stack."""
    means, cov = ge.quadrature_mean_cov(propagate(config), config.signal_quadrature_angle)
    values = (means[..., 0], means[..., 1], cov[..., 0, 0], cov[..., 1, 1], cov[..., 0, 1])
    if means.ndim == 1:
        values = tuple(map(float, values))
    return QuadratureMoments(*values)
