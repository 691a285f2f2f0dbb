"""Photon-noise-limited uncertainty of the phase-covariance estimator.

The holometer infers the covariance of correlated phase fluctuations
from the mean of a quadratic readout estimator C measured at a fixed
working point (phi_0, phi_0).  Three estimator kinds are supported:

* ``TwbDifferenceSquared``: C = (N1 - N2)^2 on twin-beam light; pairs
  with psi = pi/2 where the photon-number cross covariance is most
  negative.
* ``TwbSumSquared``: C = (N1 + N2 - s0)^2, centered on the working-point
  mean s0; pairs with psi = 0.
* ``QuadratureProduct``: C = (Y1 - y1)(Y2 - y2) on the signal
  quadratures, centered on the working-point quadrature means; the
  canonical readout for independently squeezed inputs.

The photon-noise-only (zero-order) uncertainty of the recovered
covariance is

    U0 = sqrt(2 Var[C]) / |d^2 <C> / dphi_1 dphi_2|,

with Var[C] = <C^2> - <C>^2 at the working point read from
estimator_mean_and_square, the engine surface the phase-noise layer
averages.  Its photon-number cumulants scale like mu rather than its
powers, so it survives coherent energies of mu ~ 1e12 in double
precision.  The mixed derivative is exact: every estimator mean is a
sum of separable products of half-angle sines and cosines of the two
phases.  estimator_mixed_derivative is the one estimator phase response:
u0 and the Monte-Carlo covariance recovery (phase_noise) both divide by
it, and it raises SingularConfigurationError where it vanishes or is
pure cancellation of its terms.  The estimator surfaces freeze their
centering constants (estimator_center) at the working point themselves,
so no caller passes them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from . import holometer, observables
from .config import HolometerConfig, InputKind
from .observables import UndefinedResultError

__all__ = [
    "SingularConfigurationError",
    "PsiPairingError",
    "EstimatorKind",
    "EstimatorSpec",
    "classical_benchmark",
    "estimator_mixed_derivative",
    "estimator_center",
    "estimator_mean_curve",
    "estimator_mean_and_square",
    "u0",
    "u0_asymptotic",
    "U0_ASYMPTOTIC_BRANCHES",
]


class SingularConfigurationError(RuntimeError):
    """The estimator has no usable phase response at this working point."""


class PsiPairingError(ValueError):
    """Estimator kind and coherent phase psi are not the canonical pairing."""


class EstimatorKind(str, Enum):
    TWB_DIFFERENCE_SQUARED = "TwbDifferenceSquared"
    TWB_SUM_SQUARED = "TwbSumSquared"
    QUADRATURE_PRODUCT = "QuadratureProduct"


# requests for an uncentered linear readout are rejected with an
# explanation rather than silently mapped to a squared kind
_LINEAR_READOUT_ALIASES = {
    "difference",
    "plaindifference",
    "lineardifference",
    "twbdifference",
    "m1",
    "sum",
    "plainsum",
}


@dataclass(frozen=True)
class EstimatorSpec:
    """Choice of readout estimator.

    On twin-beam input the squared photocurrent kinds pair with a
    canonical coherent phase (difference <-> psi=pi/2, sum <-> psi=0);
    u0 raises PsiPairingError off that pairing.
    """

    kind: EstimatorKind

    def __post_init__(self) -> None:
        if not isinstance(self.kind, EstimatorKind):
            label = str(self.kind)
            if label.strip().lower() in _LINEAR_READOUT_ALIASES:
                raise ValueError(
                    f"estimator kind {label!r} denotes an uncentered linear readout, whose "
                    "mean has no mixed phase derivative at the working point; use one of "
                    f"{[k.value for k in EstimatorKind]}"
                )
            try:
                object.__setattr__(self, "kind", EstimatorKind(label))
            except ValueError:
                raise ValueError(
                    f"unknown estimator kind {label!r}; expected one of "
                    f"{[k.value for k in EstimatorKind]}"
                ) from None


# photocurrent sign of each squared readout, C = (N1 + sign N2 - center)^2;
# on twin beams it is also the cos(2 psi) the readout pairs with, and half
# the factor from d^2<N1 N2> to the mixed derivative of <C>
_PHOTOCURRENT_SIGN = {
    EstimatorKind.TWB_DIFFERENCE_SQUARED: -1,
    EstimatorKind.TWB_SUM_SQUARED: +1,
}


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def _require_symmetric(config: HolometerConfig, what: str) -> float:
    if not config.is_symmetric():
        raise ValueError(f"{what} requires a symmetric working point (equal phases and efficiencies)")
    return config.phi0_1


def _check_psi_pairing(config: HolometerConfig, spec: EstimatorSpec) -> None:
    target = _PHOTOCURRENT_SIGN.get(spec.kind)
    if config.input_kind is not InputKind.TWB or target is None:
        return
    if abs(math.cos(2.0 * config.psi) - target) <= 1e-6:
        return
    raise PsiPairingError(
        f"{spec.kind.value} pairs with cos(2 psi) = {target:+.0f} "
        f"(psi = {'pi/2' if target < 0 else '0'}); got psi = {config.psi!r}. "
        "The photon cross covariance then has the wrong sign for this readout."
    )


# ---------------------------------------------------------------------------
# classical benchmark
# ---------------------------------------------------------------------------


def classical_benchmark(config: HolometerConfig) -> float:
    """Coherent-light uncertainty sqrt(2)/(eta mu cos^2(phi_0/2)).

    This is the photon-noise floor of the same covariance estimation
    performed with coherent light alone at equal detected energy.
    """
    phi0 = _require_symmetric(config, "the classical benchmark")
    if config.mu <= 0.0 or config.eta <= 0.0:
        raise ValueError("the classical benchmark requires mu > 0 and eta > 0")
    transmitted = math.cos(phi0 / 2.0) ** 2
    # cos(pi/2) never rounds to exactly zero in floats, so catch the dark
    # fringe within a few ulps of it rather than by equality
    if transmitted <= (4.0 * math.ulp(1.0)) ** 2:
        raise OverflowError(
            "phi_0 = pi sends no coherent light to the detector; the classical "
            "benchmark diverges"
        )
    return math.sqrt(2.0) / (config.eta * config.mu * transmitted)


# ---------------------------------------------------------------------------
# mixed derivative
# ---------------------------------------------------------------------------


def _derivative_terms(config: HolometerConfig, spec: EstimatorSpec) -> tuple[float, ...]:
    """Terms of d^2 <C> / dphi_1 dphi_2 at the working point phi_0.

    The squared readouts contribute their cross term only: the mixed
    derivative of the <N_i^2> terms vanishes, leaving 2 sign d^2<N1 N2>
    (sign -1 for the difference, +1 for the sum).  The quadrature
    product gives d^2<Y1 Y2>, with the quadrature angles pinned to the
    working-point signal quadrature; centering constants are held fixed,
    so they drop out.  Both cross moments are sums of separable products
    f(phi_1) g(phi_2) of half-angle sines and cosines (see
    observables.detected_correlators), so the terms are exact:

        d^2 <N1 N2> = eta^2 [(mu - lam_n)^2 sin^2(phi_0) / 4
                             - mu A kappa cos^2(phi_0) / 2
                             + A^2 sin^2(phi_0) / 4]
        d^2 <Y1 Y2> = eta [mu c^2 / 2 - A kappa s^2 / 4]

    with s, c = sin, cos(phi_0 / 2), kappa = cos(theta - 2 psi),
    A = sqrt(lam (1 + lam)) for twin-beam input and 0 otherwise, and
    lam_n = lam unless the input is coherent only.  The readout factor
    2 sign is a power of two, so folding it into the terms is exact.
    """
    phi0 = _require_symmetric(config, "the mixed derivative")
    eta, mu, lam = config.eta, config.mu, config.lam
    pair = math.sqrt(lam * (1.0 + lam)) if config.input_kind is InputKind.TWB else 0.0
    kappa = math.cos(config.theta - 2.0 * config.psi)
    sign = _PHOTOCURRENT_SIGN.get(spec.kind)
    if sign is None:
        half_cos, half_sin = math.cos(phi0 / 2.0), math.sin(phi0 / 2.0)
        return (
            eta * 0.5 * mu * half_cos * half_cos,
            -eta * 0.25 * pair * kappa * half_sin * half_sin,
        )
    lam_n = 0.0 if config.input_kind is InputKind.COHERENT_ONLY else lam
    sine, cosine = math.sin(phi0), math.cos(phi0)
    sines = sine * sine
    scale = 2.0 * sign * (eta * eta)
    return (
        scale * 0.25 * (mu - lam_n) ** 2 * sines,
        -scale * 0.5 * mu * pair * kappa * cosine * cosine,
        scale * 0.25 * pair * pair * sines,
    )


def estimator_mixed_derivative(config: HolometerConfig, spec: EstimatorSpec) -> float:
    """Mixed phase derivative of the estimator mean <C>, exact at the
    working point: the phase response by which u0 and the covariance
    recovery divide.

    Raises SingularConfigurationError where it vanishes or is pure
    cancellation of its terms (within 64 ulp of the sum of their
    magnitudes, the bound observables.nrf applies), or is not finite.
    """
    terms = _derivative_terms(config, spec)
    derivative = math.fsum(terms)
    roundoff = 64.0 * math.ulp(1.0) * math.fsum(abs(term) for term in terms)
    if not abs(derivative) > roundoff:
        raise SingularConfigurationError(
            f"the estimator mean has no mixed phase response at phi_0 = {config.phi0_1!r} "
            f"(|derivative| = {abs(derivative):.3e} <= roundoff {roundoff:.3e})"
        )
    return derivative


# ---------------------------------------------------------------------------
# estimator mean / second-moment surfaces
# ---------------------------------------------------------------------------


def estimator_center(config: HolometerConfig, spec: EstimatorSpec) -> tuple[float, ...]:
    """Working-point centering constants of the estimator.

    Empty for the difference kind (the symmetric working point centers
    it automatically), (s0,) for the sum kind, and the two quadrature
    means for the product kind.  Centers are frozen at the working point
    and do not follow the phases during derivative or noise averaging.
    """
    if spec.kind is EstimatorKind.TWB_DIFFERENCE_SQUARED:
        return ()
    if spec.kind is EstimatorKind.TWB_SUM_SQUARED:
        vals = observables.closed_form_moments(config)
        return (float(vals["mean_1"] + vals["mean_2"]),)
    qvals = observables.closed_form_quadrature(config)
    return (float(qvals["mean_1"]), float(qvals["mean_2"]))


def estimator_mean_curve(
    config: HolometerConfig, spec: EstimatorSpec, phi_1: Any, phi_2: Any
) -> np.ndarray:
    """Vectorized closed-form <C(phi_1, phi_2)> surface, centered at the
    working point of ``config``.

    Exact for all kinds (Gaussian statistics); the engine reproduces it
    pointwise, which the test-suite checks.
    """
    center = estimator_center(config, spec)
    if spec.kind is EstimatorKind.QUADRATURE_PRODUCT:
        q = observables.closed_form_quadrature(config, phi_1, phi_2)
        d1 = q["mean_1"] - center[0]
        d2 = q["mean_2"] - center[1]
        return np.asarray(q["cov"] + d1 * d2)
    sign = _PHOTOCURRENT_SIGN[spec.kind]
    c0 = 0.0 if not center else center[0]
    vals = observables.closed_form_moments(config, phi_1, phi_2)
    var_t = vals["var_1"] + vals["var_2"] + 2.0 * sign * vals["cov"]
    offset = vals["mean_1"] + sign * vals["mean_2"] - c0
    return np.asarray(var_t + offset * offset)


def estimator_mean_and_square(
    config: HolometerConfig, spec: EstimatorSpec, phi_1: Any, phi_2: Any
) -> tuple[Any, Any]:
    """Engine-exact (<C>, <C^2>) at one phase pair, as floats, or over
    phase arrays (broadcast together), as arrays from one stacked engine
    call.

    For the squared photocurrent kinds the fourth-order centered table
    supplies <C^2> = mu4 + 4 d mu3 + 6 d^2 mu2 + d^4 with d the offset
    of the (un)centered combination from its frozen center; for the
    quadrature product the Gaussian identity
    E[(Y1-c1)^2 (Y2-c2)^2] = (V1+d1^2)(V2+d2^2) + 2 Cov^2 + 4 Cov d1 d2
    closes at second order.  Centers are those of the working point of
    ``config``.
    """
    center = estimator_center(config, spec)
    if spec.kind is EstimatorKind.QUADRATURE_PRODUCT:
        q = holometer.quadrature_readout(config, phi_1, phi_2)
        d1, d2 = q.mean_1 - center[0], q.mean_2 - center[1]
        mean = q.cov + d1 * d2
        square = (
            (q.var_1 + d1 * d1) * (q.var_2 + d2 * d2)
            + 2.0 * q.cov * q.cov
            + 4.0 * q.cov * d1 * d2
        )
        return mean, square
    sign = _PHOTOCURRENT_SIGN[spec.kind]
    c0 = 0.0 if not center else center[0]
    m = holometer.readout_moments(config, phi_1, phi_2, max_order=4)
    mu2 = m.signed_sum_moment(sign, 2)
    mu3 = m.signed_sum_moment(sign, 3)
    mu4 = m.signed_sum_moment(sign, 4)
    d = m.mean_1 + sign * m.mean_2 - c0
    mean = mu2 + d * d
    square = mu4 + 4.0 * d * mu3 + 6.0 * d * d * mu2 + d ** 4
    return mean, square


# ---------------------------------------------------------------------------
# zero-order uncertainty
# ---------------------------------------------------------------------------


def u0(config: HolometerConfig, spec: EstimatorSpec) -> float:
    """Photon-noise-limited uncertainty of the covariance estimate,
    sqrt(2 Var[C]) / |d^2 <C> / dphi_1 dphi_2|.

    Numerator: Var[C] = <C^2> - <C>^2 at the working point, from one
    estimator_mean_and_square call (the surface the phase-noise layer
    reads).  Denominator: estimator_mixed_derivative, which raises
    SingularConfigurationError where the estimator has no phase
    response.  Divide by classical_benchmark for the ratio to coherent
    light.
    """
    phi0 = _require_symmetric(config, "the zero-order uncertainty")
    _check_psi_pairing(config, spec)
    mean, square = estimator_mean_and_square(config, spec, phi0, phi0)
    variance = square - mean * mean
    return math.sqrt(2.0 * max(variance, 0.0)) / abs(estimator_mixed_derivative(config, spec))


# ---------------------------------------------------------------------------
# asymptotic limit forms (ratios to the classical benchmark)
# ---------------------------------------------------------------------------

U0_ASYMPTOTIC_BRANCHES = (
    "SQ_large_lambda",
    "SQ_small_lambda",
    "TWB_A_large_lambda",
    "TWB_A_small_lambda",
    "TWB_B",
)


def u0_asymptotic(config: HolometerConfig, branch: str) -> float:
    """Limit forms of u0 / u_cl, taken verbatim with no interpolation.

    SQ branches describe the quadrature-product readout on squeezed
    inputs; TWB branches the difference-squared readout on twin beams.
    ``TWB_A_*`` hold deep in the quantum-dominated regime (phi_0 -> 0),
    ``*_large_lambda`` for lam >> 1, ``*_small_lambda`` for lam << 1,
    and ``TWB_B`` is sqrt(2) times the SQ plateau in the
    coherent-dominated regime.
    """
    if branch not in U0_ASYMPTOTIC_BRANCHES:
        raise ValueError(f"unknown branch {branch!r}; expected one of {U0_ASYMPTOTIC_BRANCHES}")
    phi0 = _require_symmetric(config, "the asymptotic uncertainty")
    eta, lam = config.eta, config.lam
    if branch in ("SQ_large_lambda", "TWB_B") and lam <= 0.0:
        raise UndefinedResultError("the large-lam plateau requires lam > 0")
    if branch == "TWB_A_small_lambda" and eta <= 0.0:
        raise UndefinedResultError("the small-lam quantum-regime limit requires eta > 0")
    if branch == "SQ_large_lambda":
        return 1.0 - eta * (1.0 + math.cos(phi0)) / 2.0 + eta * math.cos(phi0 / 2.0) ** 2 / (4.0 * lam)
    if branch == "SQ_small_lambda":
        root = math.sqrt(lam)
        return 1.0 - eta * (1.0 + math.cos(phi0)) * root * (1.0 - root)
    if branch == "TWB_A_large_lambda":
        return 2.0 * math.sqrt(5.0) * (1.0 - eta)
    if branch == "TWB_A_small_lambda":
        return math.sqrt(2.0 * (1.0 - eta) / eta)
    return math.sqrt(2.0) * u0_asymptotic(config, "SQ_large_lambda")

