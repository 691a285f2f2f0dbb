"""Model of two phase-correlated interferometers sharing quantum light.

Each interferometer is reduced to its equivalent beam splitter: the
detected port mixes the quantum input port with the coherent beam,
transmitting the quantum side with cos(phi/2).  At phi = 0 the readout
therefore sees only the quantum light, and the coherent beam leaks in
proportionally to sin^2(phi/2).

The detected pair is a two-mode Gaussian state, readout i on the
quadratures (x_i, y_i).  With the detected-mode correlators m_i, n_i,
S_i and G of observables' docstring and the detection loss, its mean is
sqrt(2 eta_i) (Re m_i, Im m_i), its diagonal blocks are I/2 + eta_i (n_i
I + [[Re S_i, Im S_i], [Im S_i, -Re S_i]]) and its cross block is
sqrt(eta_1 eta_2) [[Re G, Im G], [Im G, -Re G]].  ``propagate`` writes
each entry as the real product of half-angle cosines and sines with the
configuration's scalars that the closed forms use, and leaves the terms
the input kind lacks at zero; the Gaussian engine takes the photon and
quadrature statistics from there.  A stacked configuration, over the
phases or any other of its STACK_FIELDS, gives a stack of detected
states, and the readouts then hold arrays over it.
"""
from __future__ import annotations

import numpy as np

from . import gaussian_engine as ge
from .config import HolometerConfig, InputKind
from .moments import QuadratureMoments, ReadoutMoments
from .observables import _half_angles

__all__ = [
    "HolometerConfig",
    "propagate",
    "readout_moments",
    "quadrature_readout",
]


def propagate(config: HolometerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Mean (..., 4) and covariance (..., 4, 4) of the detected two-mode
    state after both readout beam splitters and the loss."""
    c1, s1, c2, s2 = _half_angles(config)
    kind, lam = config.input_kind, config.lam
    eta_1, eta_2 = config.eta_pair
    amp = np.sqrt(config.mu)
    amp_cos, amp_sin = amp * np.cos(config.psi), amp * np.sin(config.psi)
    pair = np.sqrt(lam * (1.0 + lam))
    if kind is InputKind.TWO_SQUEEZED:
        two_chi = 2.0 * config.squeezed_quadrature_angle
        squeeze_cos, squeeze_sin = -pair * np.cos(two_chi), -pair * np.sin(two_chi)
    mean = np.empty(c1.shape + (4,))
    cov = np.zeros(c1.shape + (4, 4))
    for x, c, s, eta in ((0, c1, s1, eta_1), (2, c2, s2, eta_2)):
        y, scale, cc = x + 1, np.sqrt(2.0 * eta), c * c
        mean[..., x], mean[..., y] = scale * -(s * amp_sin), scale * (s * amp_cos)
        n = 0.0 if kind is InputKind.COHERENT_ONLY else cc * lam
        if kind is InputKind.TWO_SQUEEZED:
            cov[..., x, x] = 0.5 + eta * (n + cc * squeeze_cos)
            cov[..., y, y] = 0.5 + eta * (n - cc * squeeze_cos)
            cov[..., x, y] = cov[..., y, x] = eta * (cc * squeeze_sin)
        else:
            cov[..., x, x] = cov[..., y, y] = 0.5 + eta * n
    root = np.sqrt(eta_1 * eta_2)
    if kind is InputKind.TWB:
        term = c1 * c2 * pair
        g_cos, g_sin = term * np.cos(config.theta), term * np.sin(config.theta)
        cov[..., 0, 2] = cov[..., 2, 0] = root * g_cos
        cov[..., 0, 3] = cov[..., 3, 0] = cov[..., 1, 2] = cov[..., 2, 1] = root * g_sin
        cov[..., 1, 3] = cov[..., 3, 1] = root * -g_cos
    else:
        # -(G cos theta) at G = 0, as the twin-beam branch writes it
        cov[..., 1, 3] = cov[..., 3, 1] = -0.0
    return mean, cov


def readout_moments(config: HolometerConfig, max_order: int = 4) -> ReadoutMoments:
    """Joint photon-number moments of the two readouts via the engine;
    floats for a single configuration, arrays over a stack."""
    return ge.centered_photon_moments(*propagate(config), max_order=max_order)


def quadrature_readout(config: HolometerConfig) -> QuadratureMoments:
    """First and second moments of the quadrature that carries the phase
    signal, per readout; floats for a single configuration, arrays over
    a stack."""
    means, cov = ge.quadrature_mean_cov(*propagate(config), config.signal_quadrature_angle)
    values = (means[..., 0], means[..., 1], cov[..., 0, 0], cov[..., 1, 1], cov[..., 0, 1])
    if means.ndim == 1:
        values = tuple(map(float, values))
    return QuadratureMoments(*values)
