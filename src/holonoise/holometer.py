"""Model of two phase-correlated interferometers sharing quantum light.

Each interferometer is reduced to its equivalent beam splitter: the
detected port mixes the quantum input port with the coherent beam,
transmitting the quantum side with cos(phi/2).  At phi = 0 the readout
therefore sees only the quantum light, and the coherent beam leaks in
proportionally to sin^2(phi/2).

Mode layout before propagation (same convention as the Fock oracle):
0 and 1 quantum ports of readout 1 and 2, modes 2 and 3 the coherent
ports.  After propagation only the two detected modes survive.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import gaussian_engine as ge
from .config import HolometerConfig, InputKind
from .moments import QuadratureMoments, ReadoutMoments

__all__ = [
    "HolometerConfig",
    "InputKind",
    "PropagatedState",
    "build_input",
    "propagate",
    "readout_moments",
    "quadrature_readout",
]


def build_input(config: HolometerConfig) -> ge.GaussianState:
    """Four-mode input state: quantum light on modes 0/1, coherent beams
    displaced on modes 2/3."""
    state = ge.vacuum(4)
    if config.input_kind is InputKind.TWB:
        state = ge.apply_two_mode_squeeze(state, 0, 1, config.squeeze_r, config.theta)
    elif config.input_kind is InputKind.TWO_SQUEEZED:
        chi = config.squeezed_quadrature_angle
        state = ge.apply_single_mode_squeeze(state, 0, config.squeeze_r, chi)
        state = ge.apply_single_mode_squeeze(state, 1, config.squeeze_r, chi)
    alpha = config.coherent_amplitude
    state = ge.displace(state, 2, alpha)
    state = ge.displace(state, 3, alpha)
    return state


@dataclass(frozen=True)
class PropagatedState:
    """Two-mode state of the detected ports at given working phases."""

    state: ge.GaussianState
    config: HolometerConfig
    phi_1: float
    phi_2: float


def propagate(
    config: HolometerConfig,
    phi_1: float | None = None,
    phi_2: float | None = None,
) -> PropagatedState:
    """Run the input through both readout beam splitters and the loss.

    phi_1/phi_2 override the configured working phases; derivative code
    leans on that.  The returned state keeps only the detected modes,
    readout 1 on mode 0 and readout 2 on mode 1.
    """
    p1 = config.phi0_1 if phi_1 is None else phi_1
    p2 = config.phi0_2 if phi_2 is None else phi_2
    eta1, eta2 = config.eta_pair
    state = build_input(config)
    state = ge.apply_beam_splitter(state, 0, 2, phi=p1)
    state = ge.apply_beam_splitter(state, 1, 3, phi=p2)
    if eta1 == eta2:
        state = ge.apply_loss(state, eta1, (0, 1))
    else:
        state = ge.apply_loss(state, eta1, (0,))
        state = ge.apply_loss(state, eta2, (1,))
    return PropagatedState(ge.marginal(state, (0, 1)), config, p1, p2)


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
