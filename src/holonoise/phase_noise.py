"""Monte-Carlo validation of the covariance-recovery chain.

Correlated phase fluctuations (delta_phi_1, delta_phi_2) are drawn from
a bivariate normal with equal marginal variance sigma2 in both detector
configurations and covariance epsilon only in the "parallel" one, so
the two configurations are indistinguishable by any single-detector
statistic.  Estimator expectations are evaluated analytically at the
shifted phases (photon shot noise is not resampled, isolating the
recovery algebra from detection statistics), averaged over the phase
distribution, and the injected covariance is recovered from the
parallel/perpendicular mean difference divided by the estimator's mixed
phase derivative.

recover_covariance takes the noise as (sigma2, epsilon) and a seed.  It
draws one set of standard normals from default_rng(seed), which both
runs share (common random numbers), and runs two steps per
configuration: sample_phase_offsets scales the normals by the SVD
covariance factor, the stream of numpy's
multivariate_normal(method="svd"), and mc_expectation averages the
real-valued closed-form mean surface over the offsets in one array
evaluation.  At epsilon = 0 the perpendicular run would repeat the
parallel one, so its result is reused rather than recomputed.  The
estimator's centering constants and its phase response, the divisor
of the recovery, come from estimation; an estimator without a phase
response at the working point raises SingularConfigurationError there
before any sample is drawn.

The module also evaluates the second-order expansion of the total
estimator variance under phase noise,

    Var_x[C] = Var[C]_0 + sum_k A_kk E[delta_phi_k^2]
               + A_12 E[delta_phi_1 delta_phi_2],

with A_kk = q_kk/2 - h_0 h_kk and A_12 = q_12 - 2 h_0 h_12, where h and
q are the <C> and <C^2> surfaces and subscripts denote phase
derivatives at the working point; the law of total variance
Var_x = E_x[q] - (E_x[h])^2 expanded to second order gives exactly
these coefficients.  The <C^2> surface comes from the engine's
fourth-order moments and has no closed form, so its second partials,
and those of <C>, are taken by central finite differences with
Richardson extrapolation.  Direct Gauss-Hermite integration on the
45-degree decorrelated axes cross-checks the prediction, evaluating the
engine surfaces as one stacked call over all nodes
(estimation.estimator_mean_and_square), never one call per phase point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import estimation
from .config import HolometerConfig
from .estimation import EstimatorSpec

__all__ = [
    "VarianceExpansion",
    "sample_phase_offsets",
    "mc_expectation",
    "recover_covariance",
    "variance_expansion",
    "direct_variance",
]

MIN_MC_SAMPLES = 1_000
MAX_EXPANSION_SIGMA2 = 1e-4
# finite-difference steps of the expansion: the two Richardson steps are
# these fractions of max(|phi_0|, _PHASE_FLOOR)
_RELATIVE_STEPS = (1e-3, 1e-4)
_PHASE_FLOOR = 1e-3
# the stencil at each step h, in units of h: the axis points (+-h, 0) and
# (0, +-h), then the diagonal points (+-h, +-h)
_STENCIL = np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [1, -1], [-1, 1], [-1, -1]], float)
# Gauss-Hermite nodes per decorrelated axis in direct_variance
_GH_ORDER = 9


def _check_noise(config: HolometerConfig, sigma2: float, epsilon: float) -> None:
    """The noise is a bivariate normal of marginal variance sigma2 and
    covariance epsilon about a symmetric working point."""
    if not (math.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValueError(f"sigma2 must be finite and non-negative, got {sigma2!r}")
    if not math.isfinite(epsilon) or abs(epsilon) > sigma2:
        raise ValueError(
            f"|epsilon| = {abs(epsilon)!r} exceeds the marginal variance "
            f"sigma2 = {sigma2!r}; the covariance matrix would not be positive"
        )
    if config.phi0_2 != config.phi0_1:
        raise ValueError("the noise model shifts a symmetric working point; phases must match")


def sample_phase_offsets(sigma2: float, epsilon: float, normals: np.ndarray) -> np.ndarray:
    """Phase offsets from standard normals of shape (n, 2): the normals
    times the covariance factor u sqrt(s) of the SVD u s v^T of
    [[sigma2, epsilon], [epsilon, sigma2]], the factor numpy's
    multivariate_normal(method="svd") applies to the same normals."""
    u, s, _ = np.linalg.svd(np.array([[sigma2, epsilon], [epsilon, sigma2]]))
    return normals @ (u * np.sqrt(np.abs(s))).T


def mc_expectation(
    config: HolometerConfig, spec: EstimatorSpec, offsets: np.ndarray
) -> tuple[float, float]:
    """Sample mean and standard error of <C> over the offset samples.

    Per-sample expectations come from the real-valued closed-form mean
    surface (estimation.estimator_mean_curve), centered at the working
    point.  Accumulation uses numpy's pairwise mean, so the result is
    independent of any batch split of the same offsets.
    """
    phi0 = config.phi0_1
    values = estimation.estimator_mean_curve(
        config, spec, phi0 + offsets[:, 0], phi0 + offsets[:, 1]
    )
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(values.size))


def recover_covariance(
    config: HolometerConfig,
    spec: EstimatorSpec,
    sigma2: float,
    epsilon: float,
    n_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Recovered phase covariance and its Monte-Carlo standard error.

    epsilon_hat = (E_par[C] - E_perp[C]) / (d^2<C>/dphi_1 dphi_2), where
    the parallel run has covariance epsilon and the perpendicular run
    none, both at marginal variance sigma2 and on the same n_samples
    standard normals of default_rng(seed).  The standard error combines
    the two run errors as independent.  At epsilon = 0 the runs coincide:
    the parallel result is reused and epsilon_hat is exactly +0.0.
    Raises SingularConfigurationError where the estimator has no phase
    response (estimation.estimator_mixed_derivative).
    """
    _check_noise(config, sigma2, epsilon)
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_MC_SAMPLES}")
    denominator = estimation.estimator_mixed_derivative(config, spec)
    normals = np.random.default_rng(seed).standard_normal((int(n_samples), 2))
    mean_par, se_par = mc_expectation(config, spec, sample_phase_offsets(sigma2, epsilon, normals))
    if epsilon == 0.0:
        mean_perp, se_perp = mean_par, se_par
    else:
        mean_perp, se_perp = mc_expectation(
            config, spec, sample_phase_offsets(sigma2, 0.0, normals)
        )
    difference = mean_par - mean_perp
    # equal means recover +0.0, never the -0.0 of a negative response
    epsilon_hat = difference / denominator if difference else 0.0
    return epsilon_hat, math.hypot(se_par, se_perp) / abs(denominator)


# ---------------------------------------------------------------------------
# second-order variance expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarianceExpansion:
    """Second-order expansion of the total estimator variance.

    ``predict(sigma2, epsilon)`` evaluates var_zero + (a_11 + a_22) *
    sigma2 + a_12 * epsilon for 0 <= sigma2 <= MAX_EXPANSION_SIGMA2 and
    |epsilon| <= sigma2; noise outside that is a ValueError.  The bound
    is only a guard, not an accuracy domain: the neglected fourth-order
    term grows with mu and with phi_0, so at mu = 1e6, lam = 10,
    eta = 0.95, phi_0 = 0.2 the predicted increment over var_zero is
    already 5.4% below Gauss-Hermite (direct_variance) at sigma2 = 1e-8.
    """

    a_11: float
    a_22: float
    a_12: float
    var_zero: float

    def predict(self, sigma2: float, epsilon: float) -> float:
        if not (math.isfinite(sigma2) and 0.0 <= sigma2 <= MAX_EXPANSION_SIGMA2):
            raise ValueError(
                f"the second-order expansion is valid for 0 <= sigma2 <= {MAX_EXPANSION_SIGMA2}"
            )
        if not (math.isfinite(epsilon) and abs(epsilon) <= sigma2):
            raise ValueError("epsilon must be finite with |epsilon| <= sigma2")
        return self.var_zero + (self.a_11 + self.a_22) * sigma2 + self.a_12 * epsilon


def variance_expansion(config: HolometerConfig, spec: EstimatorSpec) -> VarianceExpansion:
    """Expansion coefficients of Var_x[C] around the working point; they
    do not depend on the noise, which ``predict`` takes."""
    phi0 = config.phi0_1
    if config.phi0_2 != phi0:
        raise ValueError("the variance expansion assumes a symmetric working point")
    # one stacked engine call over the 17-point stencil: the working
    # point, then _STENCIL at each Richardson step
    steps = np.array([step * max(abs(phi0), _PHASE_FLOOR) for step in _RELATIVE_STEPS])
    offsets = np.concatenate([np.zeros((1, 2)), (steps[:, None, None] * _STENCIL).reshape(-1, 2)])
    surfaces = np.array(estimation.estimator_mean_and_square(
        config, spec, phi0 + offsets[:, 0], phi0 + offsets[:, 1]
    ))
    (h0, q0), base = surfaces[:, 0], surfaces[:, :1]
    f = surfaces[:, 1:].reshape(2, len(steps), len(_STENCIL))  # [h or q, step, point]
    square = steps * steps
    rho2 = (steps[0] / steps[1]) ** 2
    (h11, q11), (h22, q22), (h12, q12) = (
        (rho2 * d[:, 1] - d[:, 0]) / (rho2 - 1.0)
        for d in (
            (f[..., 0] - 2.0 * base + f[..., 1]) / square,
            (f[..., 2] - 2.0 * base + f[..., 3]) / square,
            (f[..., 4] - f[..., 5] - f[..., 6] + f[..., 7]) / (4.0 * square),
        )
    )
    return VarianceExpansion(
        a_11=float(0.5 * q11 - h0 * h11),
        a_22=float(0.5 * q22 - h0 * h22),
        a_12=float(q12 - 2.0 * h0 * h12),
        var_zero=float(q0 - h0 * h0),
    )


def direct_variance(
    config: HolometerConfig, spec: EstimatorSpec, sigma2: float, epsilon: float
) -> float:
    """Total estimator variance under phase noise, without expansion.

    Var_x[C] = E_x[<C^2>] - (E_x[<C>])^2, integrated by Gauss-Hermite
    quadrature on the 45-degree decorrelated axes (variances sigma2 +-
    epsilon), _GH_ORDER nodes per axis, with the surfaces from one
    stacked engine call over all nodes.
    """
    _check_noise(config, sigma2, epsilon)
    phi0 = config.phi0_1
    nodes, weights = np.polynomial.hermite_e.hermegauss(_GH_ORDER)
    weights = weights / math.sqrt(2.0 * math.pi)
    scale_u = math.sqrt(max(sigma2 + epsilon, 0.0))
    scale_v = math.sqrt(max(sigma2 - epsilon, 0.0))
    u = scale_u * nodes[:, None] * np.ones_like(nodes)[None, :]
    v = scale_v * np.ones_like(nodes)[:, None] * nodes[None, :]
    d1 = ((u + v) / math.sqrt(2.0)).ravel()
    d2 = ((u - v) / math.sqrt(2.0)).ravel()
    w = (weights[:, None] * weights[None, :]).ravel()
    means, squares = estimation.estimator_mean_and_square(config, spec, phi0 + d1, phi0 + d2)
    e_h = float(np.sum(w * means))
    e_q = float(np.sum(w * squares))
    return e_q - e_h * e_h
