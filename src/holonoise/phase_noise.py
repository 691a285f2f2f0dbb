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

The offsets are standard normals from the model's seed times the SVD
covariance factor, the stream of numpy's
multivariate_normal(method="svd").  A recovery draws the normals once
per distinct seed: the runs share them at a common seed (common random
numbers), and where the perpendicular run would repeat the parallel
one (epsilon = 0) its result is reused rather than recomputed.  The
per-sample means come from the real-valued closed forms of
observables, one array evaluation per run.

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
from enum import Enum

import numpy as np

from . import estimation
from .config import HolometerConfig
from .estimation import EstimatorSpec

__all__ = [
    "Configuration",
    "PhaseNoiseModel",
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


class Configuration(str, Enum):
    """Relative orientation of the two interferometers."""

    PARALLEL = "parallel"
    PERPENDICULAR = "perpendicular"


@dataclass(frozen=True)
class PhaseNoiseModel:
    """Bivariate-normal phase-fluctuation model for one configuration.

    ``sigma2`` is the marginal variance of each phase offset (rad^2) and
    is identical in both configurations by construction; ``epsilon`` is
    their covariance and must vanish in the perpendicular configuration,
    where the fluctuations are uncorrelated.
    """

    sigma2: float
    epsilon: float
    configuration: Configuration
    sampler_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "configuration", Configuration(self.configuration))
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise ValueError(f"sigma2 must be finite and non-negative, got {self.sigma2!r}")
        if not math.isfinite(self.epsilon) or abs(self.epsilon) > self.sigma2:
            raise ValueError(
                f"|epsilon| = {abs(self.epsilon)!r} exceeds the marginal variance "
                f"sigma2 = {self.sigma2!r}; the covariance matrix would not be positive"
            )
        if self.configuration is Configuration.PERPENDICULAR and self.epsilon != 0.0:
            raise ValueError(
                "the perpendicular configuration has uncorrelated fluctuations; "
                "epsilon must be 0"
            )

    @property
    def covariance_matrix(self) -> np.ndarray:
        return np.array([[self.sigma2, self.epsilon], [self.epsilon, self.sigma2]])


def _standard_normals(seed: int, n_samples: int) -> np.ndarray:
    """(n_samples, 2) standard normals of ``default_rng(seed)``: the one
    stream every Monte-Carlo run draws from."""
    return np.random.default_rng(seed).standard_normal((int(n_samples), 2))


def _phase_offsets(model: PhaseNoiseModel, normals: np.ndarray) -> np.ndarray:
    """Offsets from standard normals of shape (n, 2): the normals times
    the covariance factor u sqrt(s) of the SVD u s v^T of the model's
    covariance, the factor numpy's multivariate_normal(method="svd")
    applies to the same normals."""
    u, s, _ = np.linalg.svd(model.covariance_matrix)
    return normals @ (u * np.sqrt(np.abs(s))).T


def sample_phase_offsets(model: PhaseNoiseModel, n_samples: int) -> np.ndarray:
    """(n_samples, 2) phase offsets; identical seeds give identical streams.

    The stream is that of ``default_rng(model.sampler_seed)``'s
    ``multivariate_normal(..., method="svd")``.
    """
    return _phase_offsets(model, _standard_normals(model.sampler_seed, n_samples))


def _check_mc_run(config: HolometerConfig, n_samples: int) -> None:
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_MC_SAMPLES}")
    if config.phi0_2 != config.phi0_1:
        raise ValueError("the noise model shifts a symmetric working point; phases must match")


def _sample_mean(
    config: HolometerConfig,
    spec: EstimatorSpec,
    center: tuple[float, ...],
    offsets: np.ndarray,
) -> tuple[float, float]:
    """Sample mean and standard error of <C> over the offset samples."""
    phi0 = config.phi0_1
    values = estimation.estimator_mean_curve(
        config, spec, phi0 + offsets[:, 0], phi0 + offsets[:, 1], center=center
    )
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(values.size))


def mc_expectation(
    config: HolometerConfig,
    spec: EstimatorSpec,
    noise: PhaseNoiseModel,
    n_samples: int,
) -> tuple[float, float]:
    """Sample mean and standard error of E_x[<C>] under the noise model.

    Per-sample expectations come from the real-valued closed-form mean
    surface (estimation.estimator_mean_curve) with centering constants
    frozen at the working point, over the offsets of
    sample_phase_offsets.  Accumulation uses numpy's pairwise mean, so
    the result is independent of any batch split of the same stream.
    """
    _check_mc_run(config, n_samples)
    center = estimation.estimator_center(config, spec)
    return _sample_mean(config, spec, center, sample_phase_offsets(noise, n_samples))


def recover_covariance(
    config: HolometerConfig,
    spec: EstimatorSpec,
    noise_par: PhaseNoiseModel,
    noise_perp: PhaseNoiseModel,
    n_samples: int,
) -> tuple[float, float]:
    """Recovered phase covariance and its Monte-Carlo standard error.

    epsilon_hat = (E_par[C] - E_perp[C]) / (d^2<C>/dphi_1 dphi_2); the
    standard error combines the two run errors as independent.  Each
    run equals an mc_expectation call on its model, bit for bit, but
    the standard normals are drawn once per distinct sampler seed, and
    where the perpendicular run repeats the parallel one (same seed and
    marginal variance, epsilon = 0) its surface is not evaluated again:
    the parallel result is reused and epsilon_hat is exactly 0.
    """
    if noise_par.configuration is not Configuration.PARALLEL:
        raise ValueError("noise_par must use the parallel configuration")
    if noise_perp.configuration is not Configuration.PERPENDICULAR:
        raise ValueError("noise_perp must use the perpendicular configuration")
    if not math.isclose(noise_par.sigma2, noise_perp.sigma2, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(
            "mismatched marginal variances would leak single-detector differences into "
            f"the recovery: {noise_par.sigma2!r} vs {noise_perp.sigma2!r}"
        )
    _check_mc_run(config, n_samples)
    center = estimation.estimator_center(config, spec)
    normals = _standard_normals(noise_par.sampler_seed, n_samples)
    mean_par, se_par = _sample_mean(config, spec, center, _phase_offsets(noise_par, normals))
    if noise_perp.sampler_seed != noise_par.sampler_seed:
        offsets = sample_phase_offsets(noise_perp, n_samples)
        mean_perp, se_perp = _sample_mean(config, spec, center, offsets)
    elif noise_par.epsilon == 0.0 and noise_par.sigma2 == noise_perp.sigma2:
        mean_perp, se_perp = mean_par, se_par
    else:
        mean_perp, se_perp = _sample_mean(config, spec, center, _phase_offsets(noise_perp, normals))
    denominator = estimation.estimator_mixed_derivative(config, spec)
    epsilon_hat = estimation.estimate_phase_covariance(mean_par, mean_perp, denominator)
    std_error = math.hypot(se_par, se_perp) / abs(denominator)
    return epsilon_hat, std_error


# ---------------------------------------------------------------------------
# second-order variance expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarianceExpansion:
    """Second-order expansion of the total estimator variance.

    ``predict(sigma2, epsilon)`` evaluates var_zero + (a_11 + a_22) *
    sigma2 + a_12 * epsilon inside the small-noise domain of the
    expansion, 0 <= sigma2 <= MAX_EXPANSION_SIGMA2 and |epsilon| <=
    sigma2; noise outside it is a ValueError.
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
    center = estimation.estimator_center(config, spec)
    surfaces = np.array(estimation.estimator_mean_and_square(
        config, spec, phi0 + offsets[:, 0], phi0 + offsets[:, 1], center=center
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
    config: HolometerConfig, spec: EstimatorSpec, noise: PhaseNoiseModel
) -> float:
    """Total estimator variance under phase noise, without expansion.

    Var_x[C] = E_x[<C^2>] - (E_x[<C>])^2, integrated by Gauss-Hermite
    quadrature on the 45-degree decorrelated axes (variances sigma2 +-
    epsilon), _GH_ORDER nodes per axis, with the surfaces from one
    stacked engine call over all nodes.
    """
    phi0 = config.phi0_1
    if config.phi0_2 != phi0:
        raise ValueError("the noise model shifts a symmetric working point; phases must match")
    nodes, weights = np.polynomial.hermite_e.hermegauss(_GH_ORDER)
    weights = weights / math.sqrt(2.0 * math.pi)
    scale_u = math.sqrt(max(noise.sigma2 + noise.epsilon, 0.0))
    scale_v = math.sqrt(max(noise.sigma2 - noise.epsilon, 0.0))
    u = scale_u * nodes[:, None] * np.ones_like(nodes)[None, :]
    v = scale_v * np.ones_like(nodes)[:, None] * nodes[None, :]
    d1 = ((u + v) / math.sqrt(2.0)).ravel()
    d2 = ((u - v) / math.sqrt(2.0)).ravel()
    w = (weights[:, None] * weights[None, :]).ravel()
    means, squares = estimation.estimator_mean_and_square(
        config, spec, phi0 + d1, phi0 + d2, center=estimation.estimator_center(config, spec)
    )
    e_h = float(np.sum(w * means))
    e_q = float(np.sum(w * squares))
    return e_q - e_h * e_h
