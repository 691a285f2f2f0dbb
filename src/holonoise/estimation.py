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

    U0 = sqrt(2 Var[C]) / |d^2 <C> / dphi_1 dphi_2|.

At the working point each center is the mean it subtracts, so
estimator_variance, the Var[C] of u0 and of the phase-noise variance
expansion, takes no center: V1 V2 + Cov^2 of the closed-form
quadratures (Isserlis), or mu4 - mu2^2 of N1 + sign N2 from one
fourth-order engine readout, whose cumulants scale like mu.  The mixed
derivative is exact: every estimator mean is a sum of separable
products of half-angle sines and cosines of the two phases.
estimator_mixed_derivative is the one estimator phase response: u0 and
the Monte-Carlo covariance recovery (phase_noise) both divide by it,
and it raises SingularConfigurationError where it vanishes or is pure
cancellation of its terms.  Only the two estimator surfaces evaluate
away from the working point, each centered (estimator_center) once per
call at the working point of ``config``: estimator_surfaces at phases
(<C> and <C^2>, which estimator_mean_and_square returns, and the
centre-free Var[C] of each phase pair from the same readout), and
estimator_mean_curve, the closed-form <C> that phase_noise averages,
as a function of the half-angle cosines and sines of the phases,
saying whether it reads the cosines.  The quadrature product reads
only the closed forms.
require_symmetric is the one symmetric-point rule.

Every function here but estimator_mean_curve also takes a stacked
configuration (config.py) and then returns arrays over its stack.
Where a single configuration raises SingularConfigurationError,
PsiPairingError or UndefinedResultError, or u0 or classical_benchmark
overflow float64, a stack member reads nan instead; off_pairing and a
nan estimator_mixed_derivative tell the u0 cases apart.  The other
errors stop a stack as they stop a single configuration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

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
    "require_symmetric",
    "off_pairing",
    "estimator_mixed_derivative",
    "estimator_center",
    "estimator_mean_curve",
    "estimator_mean_and_square",
    "estimator_surfaces",
    "estimator_variance",
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


@dataclass(frozen=True)
class EstimatorSpec:
    """Choice of readout estimator.

    On twin-beam input the squared photocurrent kinds pair with a
    canonical coherent phase (difference <-> psi=pi/2, sum <-> psi=0);
    u0 raises PsiPairingError off that pairing.
    """

    kind: EstimatorKind

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "kind", EstimatorKind(self.kind))
        except ValueError:
            raise ValueError(
                f"unknown estimator kind {self.kind!r}; expected one of "
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


def require_symmetric(config: HolometerConfig, what: str) -> float:
    """phi_0 of a symmetric configuration (equal phases and efficiencies), else ValueError."""
    if not config.is_symmetric():
        raise ValueError(f"{what} requires a symmetric working point (equal phases and efficiencies)")
    return config.phi0_1


def off_pairing(config: HolometerConfig, spec: EstimatorSpec) -> Any:
    """Where a twin-beam photocurrent readout is off its canonical psi:
    a bool, or a bool array over a stack of coherent phases.  u0 raises
    PsiPairingError there for a single configuration and reads nan on a
    stack."""
    target = _PHOTOCURRENT_SIGN.get(spec.kind)
    if config.input_kind is not InputKind.TWB or target is None:
        return False
    return np.abs(np.cos(2.0 * config.psi) - target) > 1e-6


def _finite_or_nan(config: HolometerConfig, value: Any, what: str) -> Any:
    """``value`` per row, with its infinite members read as nan; an
    infinite single configuration is an OverflowError."""
    infinite = np.isinf(value)
    if not config.shape and infinite:
        raise OverflowError(f"{what} overflows float64 at phi_0 = {config.phi0_1!r}, "
                            f"eta = {config.eta!r}, mu = {config.mu!r}")
    return config.per_row(np.where(infinite, np.nan, value))


# ---------------------------------------------------------------------------
# classical benchmark
# ---------------------------------------------------------------------------


def classical_benchmark(config: HolometerConfig) -> float:
    """Coherent-light uncertainty sqrt(2)/(eta mu cos^2(phi_0/2)).

    This is the photon-noise floor of the same covariance estimation
    performed with coherent light alone at equal detected energy.  A
    stack with one member out of the domain raises, as that member would.
    Where the benchmark overflows float64 (a subnormal eta mu, say), a
    single configuration raises OverflowError and a stack member reads
    nan.
    """
    phi0 = require_symmetric(config, "the classical benchmark")
    if np.any(np.less_equal(config.mu, 0.0) | np.less_equal(config.eta, 0.0)):
        raise ValueError("the classical benchmark requires mu > 0 and eta > 0")
    transmitted = observables.half_angle_cos(phi0) ** 2
    if np.any(transmitted == 0.0):
        raise OverflowError(
            "at phi_0 = pi all of the coherent light reaches the detector and its "
            "signal has no phase response; the classical benchmark diverges"
        )
    with np.errstate(over="ignore", divide="ignore"):
        value = np.sqrt(2.0) / (config.eta * config.mu * transmitted)
    return _finite_or_nan(config, value, "the classical benchmark")


# ---------------------------------------------------------------------------
# mixed derivative
# ---------------------------------------------------------------------------


def _derivative_terms(config: HolometerConfig, spec: EstimatorSpec) -> tuple[Any, ...]:
    """Terms of d^2 <C> / dphi_1 dphi_2 at the working point phi_0.

    The squared readouts contribute their cross term only: the mixed
    derivative of the <N_i^2> terms vanishes, leaving 2 sign d^2<N1 N2>
    (sign -1 for the difference, +1 for the sum).  The quadrature
    product gives d^2<Y1 Y2>, with the quadrature angles pinned to the
    working-point signal quadrature; centering constants are held fixed,
    so they drop out.  Both cross moments are sums of separable products
    f(phi_1) g(phi_2) of half-angle sines and cosines (the correlators of
    observables' module docstring), so the terms are exact:

        d^2 <N1 N2> = eta^2 [(mu - lam_n)^2 sin^2(phi_0) / 4
                             - mu A kappa cos^2(phi_0) / 2
                             + A^2 sin^2(phi_0) / 4]
        d^2 <Y1 Y2> = eta [mu c^2 / 2 - A kappa s^2 / 4]

    with s, c = sin, cos(phi_0 / 2), kappa = cos(theta - 2 psi),
    A = sqrt(lam (1 + lam)) for twin-beam input and 0 otherwise, and
    lam_n = lam unless the input is coherent only.  The readout factor
    2 sign is a power of two, so folding it into the terms is exact.  At
    phi_0 = pi (observables.half_angle_cos) c and sin(phi_0) read 0, so
    the rounding residue of cos(pi/2) gives no phase response.
    """
    phi0 = require_symmetric(config, "the mixed derivative")
    eta, mu, lam = config.eta, config.mu, config.lam
    pair = np.sqrt(lam * (1.0 + lam)) if config.input_kind is InputKind.TWB else 0.0
    kappa = np.cos(config.theta - 2.0 * config.psi)
    sign = _PHOTOCURRENT_SIGN.get(spec.kind)
    half_cos = observables.half_angle_cos(phi0)
    if sign is None:
        half_sin = np.sin(phi0 / 2.0)
        return (
            eta * 0.5 * mu * half_cos * half_cos,
            -eta * 0.25 * pair * kappa * half_sin * half_sin,
        )
    lam_n = 0.0 if config.input_kind is InputKind.COHERENT_ONLY else lam
    # sin(phi_0) = 2 sin(phi_0/2) cos(phi_0/2) vanishes with the half-angle cosine
    sine, cosine = np.where(half_cos == 0.0, 0.0, np.sin(phi0)), np.cos(phi0)
    sines = sine * sine
    scale = 2.0 * sign * (eta * eta)
    return (
        scale * 0.25 * np.square(mu - lam_n) * sines,
        -scale * 0.5 * mu * pair * kappa * cosine * cosine,
        scale * 0.25 * pair * pair * sines,
    )


def _compensated_sum(terms: tuple[Any, ...]) -> Any:
    """Sum of the terms with each addition's rounding error carried
    along (Knuth's TwoSum; Ogita, Rump and Oishi, SIAM J. Sci. Comput.
    26, 1955 (2005)), element-wise over arrays.  Where the sum is not
    cancellation noise it is within about one ulp of the exact sum."""
    total, carried = terms[0], 0.0
    for term in terms[1:]:
        partial = total + term
        back = partial - total
        carried = carried + ((total - (partial - back)) + (term - back))
        total = partial
    return total + carried


def estimator_mixed_derivative(config: HolometerConfig, spec: EstimatorSpec) -> float:
    """Mixed phase derivative of the estimator mean <C>, exact at the
    working point: the phase response by which u0 and the covariance
    recovery divide.

    Raises SingularConfigurationError where it vanishes or is pure
    cancellation of its terms (within 64 ulp of the sum of their
    magnitudes, the bound observables.nrf applies), or is not finite;
    such members of a stack read nan.  Raises OverflowError, on a stack
    too, where the terms overflow float64.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _derivative_terms(config, spec)
        derivative = _compensated_sum(terms)
        roundoff = 64.0 * math.ulp(1.0) * sum(np.abs(term) for term in terms)
    if np.any(roundoff == math.inf):
        raise OverflowError("the mixed phase derivative overflows float64 (mu or lam too large)")
    singular = ~(np.abs(derivative) > roundoff)
    if not config.shape and singular:
        raise SingularConfigurationError(
            f"the estimator mean has no mixed phase response at phi_0 = {config.phi0_1!r} "
            f"(|derivative| = {abs(derivative):.3e} <= roundoff {roundoff:.3e})"
        )
    return config.per_row(np.where(singular, np.nan, derivative))


# ---------------------------------------------------------------------------
# estimator mean / second-moment surfaces
# ---------------------------------------------------------------------------

def estimator_center(config: HolometerConfig, spec: EstimatorSpec) -> tuple[float, ...]:
    """Working-point centering constants of the estimator.

    Empty for the difference kind (the symmetric working point centers
    it automatically), (s0,) for the sum kind, and the two quadrature
    means for the product kind, each a float or an array over a stack.
    Centers are frozen at the working point and do not follow the phases
    during derivative or noise averaging.
    """
    if spec.kind is EstimatorKind.TWB_DIFFERENCE_SQUARED:
        return ()
    if spec.kind is EstimatorKind.TWB_SUM_SQUARED:
        vals = observables.closed_form_moments(config)
        return (config.per_row(vals["mean_1"] + vals["mean_2"]),)
    qvals = observables.closed_form_quadrature(config)
    return (config.per_row(qvals["mean_1"]), config.per_row(qvals["mean_2"]))


def estimator_mean_curve(config: HolometerConfig, spec: EstimatorSpec) -> Callable[..., np.ndarray]:
    """Closed-form <C> away from the working point of ``config``, as a
    function curve(c1, s1, c2, s2, out) of the half-angle cosines and
    sines of the two phases.  The estimator is centred here, once, and
    the closed form's coefficients folded once; each call writes <C>
    into ``out`` and returns it.  The four arguments are distinct arrays
    of out's shape, which the call overwrites.  curve.reads_cosines says
    whether it reads c1 and c2: every photocurrent surface does, and the
    quadrature product only on twin beams, whose covariance they carry;
    where it is False they may be None.  Exact for all kinds (Gaussian
    statistics); the engine reproduces it pointwise.
    """
    center = estimator_center(config, spec)
    sign = _PHOTOCURRENT_SIGN.get(spec.kind)
    at = observables._quadrature_means_at if sign is None else observables._photon_moments_at
    moments = at(config)
    c0 = center[0] if spec.kind is EstimatorKind.TWB_SUM_SQUARED else 0.0

    def curve(c1: np.ndarray, s1: np.ndarray, c2: np.ndarray, s2: np.ndarray,
              out: np.ndarray) -> np.ndarray:
        if sign is None:  # cov + (mean_1 - y1)(mean_2 - y2)
            mean_1, mean_2, cov = moments(c1, s1, c2, s2)
            mean_1 -= center[0]
            mean_2 -= center[1]
            mean_1 *= mean_2
            return np.add(cov, mean_1, out=out)
        # var_1 + var_2 + 2 sign cov + offset^2, offset = mean_1 + sign mean_2 - c0
        mean_1, mean_2, var_1, var_2, cov = moments(c1, s1, c2, s2)
        mean_2 *= sign
        mean_1 += mean_2
        mean_1 -= c0
        var_1 += var_2
        cov *= 2.0 * sign
        var_1 += cov
        mean_1 *= mean_1
        return np.add(var_1, mean_1, out=out)

    curve.reads_cosines = sign is not None or moments.reads_cosines
    return curve


def estimator_mean_and_square(
    config: HolometerConfig, spec: EstimatorSpec, phi_1: Any, phi_2: Any
) -> tuple[Any, Any]:
    """Exact (<C>, <C^2>) at one phase pair, as floats, or over phase
    arrays of one shape, as arrays from one stacked evaluation: the
    first two surfaces of estimator_surfaces."""
    mean, square, _ = estimator_surfaces(config, spec, phi_1, phi_2)
    return mean, square


def estimator_surfaces(
    config: HolometerConfig, spec: EstimatorSpec, phi_1: Any, phi_2: Any
) -> tuple[Any, Any, Any]:
    """Exact (<C>, <C^2>, Var[C]) at one phase pair, as floats, or over
    phase arrays of one shape, as arrays from one stacked evaluation.

    <C> and <C^2> take the centers of the working point of ``config``.
    For the squared photocurrent kinds the engine's fourth-order
    centered table supplies <C^2> = mu4 + 4 d mu3 + 6 d^2 mu2 + d^4 with
    d the offset of the (un)centered combination from its frozen center;
    for the quadrature product closed_form_quadrature, the route of its
    center, and the Gaussian identity E[(Y1-c1)^2 (Y2-c2)^2] =
    (V1+d1^2)(V2+d2^2) + 2 Cov^2 + 4 Cov d1 d2 close at second order.
    Var[C] is the statistic of estimator_variance at each pair, with no
    center, from the same readout and without its negative-variance
    rule: at the working point it has estimator_variance's bits.
    """
    center = estimator_center(config, spec)
    point = config.replace(phi0_1=phi_1, phi0_2=phi_2)
    if spec.kind is EstimatorKind.QUADRATURE_PRODUCT:
        q = observables.closed_form_quadrature(point)
        var_1, var_2, cov = q["var_1"], q["var_2"], q["cov"]
        d1, d2 = q["mean_1"] - center[0], q["mean_2"] - center[1]
        square = (var_1 + d1 * d1) * (var_2 + d2 * d2) + 2.0 * cov * cov + 4.0 * cov * d1 * d2
        return (point.per_row(cov + d1 * d2), point.per_row(square),
                point.per_row(_centre_free_variance(spec, q)))
    sign = _PHOTOCURRENT_SIGN[spec.kind]
    c0 = 0.0 if not center else center[0]
    m = holometer.readout_moments(point, max_order=4)
    mu2, mu3, mu4 = (m.signed_sum_moment(sign, order) for order in (2, 3, 4))
    d = m.mean_1 + sign * m.mean_2 - c0
    return (mu2 + d * d, mu4 + 4.0 * d * mu3 + 6.0 * d * d * mu2 + d ** 4,
            _centre_free_variance(spec, m))


# ---------------------------------------------------------------------------
# zero-order uncertainty
# ---------------------------------------------------------------------------


def _centre_free_variance(spec: EstimatorSpec, readout: Any) -> Any:
    """Var[C] about the readout's own means: V1 V2 + Cov^2 of the
    closed-form quadratures (a closed_form_quadrature dict), or mu4 -
    mu2^2 of N1 + sign N2 (a fourth-order engine readout)."""
    if spec.kind is EstimatorKind.QUADRATURE_PRODUCT:
        return readout["var_1"] * readout["var_2"] + readout["cov"] * readout["cov"]
    sign = _PHOTOCURRENT_SIGN[spec.kind]
    mu2 = readout.signed_sum_moment(sign, 2)
    return readout.signed_sum_moment(sign, 4) - mu2 * mu2


def estimator_variance(config: HolometerConfig, spec: EstimatorSpec) -> float:
    """Var[C] at the symmetric working point, with no center (module
    docstring); UndefinedResultError where roundoff leaves it negative,
    as for twin beams at eta = 1, and nan for such stack members."""
    phi0 = require_symmetric(config, "the estimator variance")
    if spec.kind is EstimatorKind.QUADRATURE_PRODUCT:
        readout = observables.closed_form_quadrature(config)
    else:
        readout = holometer.readout_moments(config, max_order=4)
    variance = _centre_free_variance(spec, readout)
    negative = variance < 0.0
    if not config.shape and negative:
        raise UndefinedResultError(f"Var[C] = {float(variance):.3e} at phi_0 = {phi0!r} is "
                                   "negative; roundoff in <C^2> exceeds it")
    return config.per_row(np.where(negative, np.nan, variance))


def u0(config: HolometerConfig, spec: EstimatorSpec) -> float:
    """Photon-noise-limited uncertainty of the covariance estimate,
    sqrt(2 estimator_variance) / |estimator_mixed_derivative|; divide by
    classical_benchmark for the ratio to coherent light.

    A single configuration raises PsiPairingError off the psi pairing,
    then the derivative's errors (an OverflowError before any engine
    readout), then those of estimator_variance, then OverflowError where
    the quotient overflows float64 (a subnormal derivative).  Members of
    a stack without a phase response, with a negative Var[C], off the
    psi pairing (off_pairing) or overflowing read nan.
    """
    off = off_pairing(config, spec)
    if not config.shape and off:
        target = _PHOTOCURRENT_SIGN[spec.kind]
        raise PsiPairingError(
            f"{spec.kind.value} pairs with cos(2 psi) = {target:+.0f} "
            f"(psi = {'pi/2' if target < 0 else '0'}); got psi = {config.psi!r}. "
            "The photon cross covariance then has the wrong sign for this readout."
        )
    derivative = estimator_mixed_derivative(config, spec)
    with np.errstate(over="ignore"):
        value = np.sqrt(2.0 * estimator_variance(config, spec)) / np.abs(derivative)
    return _finite_or_nan(config, np.where(off, np.nan, value), "u0")


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
    coherent-dominated regime.  Members of a stack outside a branch's
    domain read nan.
    """
    if branch not in U0_ASYMPTOTIC_BRANCHES:
        raise ValueError(f"unknown branch {branch!r}; expected one of {U0_ASYMPTOTIC_BRANCHES}")
    phi0 = require_symmetric(config, "the asymptotic uncertainty")
    eta, lam = config.eta, config.lam
    undefined, reason = False, ""
    if branch in ("SQ_large_lambda", "TWB_B"):
        undefined, reason = np.less_equal(lam, 0.0), "the large-lam plateau requires lam > 0"
    if branch == "TWB_A_small_lambda":
        undefined = np.less_equal(eta, 0.0)
        reason = "the small-lam quantum-regime limit requires eta > 0"
    if not config.shape and undefined:
        raise UndefinedResultError(reason)
    with np.errstate(divide="ignore", invalid="ignore"):
        if branch == "SQ_large_lambda":
            value = 1.0 - eta * (1.0 + np.cos(phi0)) / 2.0 + eta * np.cos(phi0 / 2.0) ** 2 / (4.0 * lam)
        elif branch == "SQ_small_lambda":
            root = np.sqrt(lam)
            value = 1.0 - eta * (1.0 + np.cos(phi0)) * root * (1.0 - root)
        elif branch == "TWB_A_large_lambda":
            value = 2.0 * math.sqrt(5.0) * (1.0 - eta)
        elif branch == "TWB_A_small_lambda":
            value = np.sqrt(2.0 * (1.0 - eta) / eta)
        else:
            value = math.sqrt(2.0) * u0_asymptotic(config, "SQ_large_lambda")
    return config.per_row(np.where(undefined, np.nan, value))

