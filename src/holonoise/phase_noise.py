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

This module keeps the noise model; estimation owns the estimator: its
centered <C> surface, its phase response and the symmetric-point rule.
The noise is a plain (sigma2, epsilon) pair under one rule (sigma2
finite and >= 0, epsilon finite with |epsilon| <= sigma2) that every
routine taking noise applies.  recover_covariance hands its seed to
mc_expectation, one cache-blocked pass for both runs, which share the
standard normals of default_rng(seed) (common random numbers).  Once
per call the kernel halves the runs' stacked SVD covariance factors
(the factor of numpy's multivariate_normal(method="svd")) and the
working point, an exact scaling, and checks them finite.  Per block of
_CURVE_BLOCK normal pairs it draws the block into one reused buffer
(consecutive draws give the stream of one standard_normal((n, 2))
draw), checks the normals finite, forms every run's half-angle phases
in one product with the halved factors, takes their sines, and their
cosines only where the surface reads them (every photocurrent surface
and the quadrature product on twin beams), and evaluates <C> in place
through estimation.estimator_mean_curve, which centres the estimator
and folds the closed form's coefficients once per pass; no
configuration is built per block.  The means and standard errors are
reduced in place over the one (runs, n) array of <C>, the only
allocation of a recovery that grows with n.  At epsilon = 0 the
perpendicular run would repeat the parallel one, so only one run is
made.  An estimator without a phase response at the working point
(estimation.estimator_mixed_derivative, the recovery's divisor) raises
SingularConfigurationError there before any sample is drawn.

The module also evaluates the second-order expansion of the total
estimator variance under phase noise,

    Var_x[C] = Var[C]_0 + sum_k A_kk E[delta_phi_k^2]
               + A_12 E[delta_phi_1 delta_phi_2],

with A_kk = q_kk/2 - h_0 h_kk and A_12 = q_12 - 2 h_0 h_12, where h and
q are the <C> and <C^2> surfaces and subscripts denote phase
derivatives at the working point; the law of total variance
Var_x = E_x[q] - (E_x[h])^2 expanded to second order gives exactly
these coefficients.  Var[C]_0 is estimation.estimator_variance, read
from the working-point member of the stencil's one stacked evaluation
(estimation.estimator_surfaces).  For
the squared photocurrents the <C^2> surface comes from the engine's
fourth-order moments and has no closed form, so the second partials of
both surfaces are taken by central finite differences with Richardson
extrapolation.  Direct Gauss-Hermite integration on the 45-degree
decorrelated axes cross-checks the prediction, evaluating the surfaces
as one stacked call over all nodes
(estimation.estimator_mean_and_square), never one call per phase point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import estimation
from .config import HolometerConfig
from .estimation import EstimatorSpec
from .observables import UndefinedResultError

__all__ = [
    "VarianceExpansion",
    "sample_phase_offsets",
    "mc_expectation",
    "recover_covariance",
    "variance_expansion",
    "direct_variance",
]

MIN_MC_SAMPLES = 1_000
# normal pairs per block of mc_expectation, drawn in the block, 64 KiB per
# float64 row of a run; on a 2-core x86-64 host a perfbench noise pass
# (median of 30, sizes interleaved) took 126.0 ms at 8 192 pairs, 132.1 ms
# at 4 096 and 125.3 ms at 16 384, which a second run of 40 put 9% slower
# (137.5 against 126.4 ms); 136.7 ms at 2 048 and 148.9 ms at 32 768
_CURVE_BLOCK = 8_192
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


def _check_noise(sigma2: float, epsilon: float) -> None:
    """The one noise rule: sigma2 finite and >= 0, |epsilon| <= sigma2."""
    if not (math.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValueError(f"sigma2 must be finite and non-negative, got {sigma2!r}")
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon!r}")
    if abs(epsilon) > sigma2:
        raise ValueError(
            f"|epsilon| = {abs(epsilon)!r} exceeds the marginal variance "
            f"sigma2 = {sigma2!r}; the covariance matrix would not be positive"
        )


def _offset_factors(sigma2: float, epsilons: Sequence[float]) -> np.ndarray:
    """(2 k, 2) factor of k runs' phase offsets: row r is run r's
    delta_phi_1 and row k + r its delta_phi_2 as combinations of the two
    standard normals.  Each run's rows are the covariance factor u sqrt(s)
    of the SVD u s v^T of [[sigma2, epsilon], [epsilon, sigma2]], the
    factor numpy's multivariate_normal(method="svd") applies to the same
    normals."""
    factors = []
    for epsilon in epsilons:
        u, s, _ = np.linalg.svd(np.array([[sigma2, epsilon], [epsilon, sigma2]]))
        factors.append(u * np.sqrt(np.abs(s)))
    return np.stack(factors, axis=1).reshape(-1, 2)


def sample_phase_offsets(sigma2: float, epsilon: float, normals: np.ndarray) -> np.ndarray:
    """Phase offsets of one run from standard normals of shape (n, 2):
    the (n, 2) array mc_expectation forms block by block, the normals
    times the covariance factor of _offset_factors."""
    return normals @ _offset_factors(sigma2, (epsilon,)).T


def _check_sample_count(n_samples: int) -> None:
    # a float count would be truncated by int(), and inf or nan would fail there
    if not isinstance(n_samples, (int, np.integer)):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_MC_SAMPLES}")


def mc_expectation(
    config: HolometerConfig,
    spec: EstimatorSpec,
    sigma2: float,
    epsilons: Sequence[float],
    n_samples: int,
    seed: int | np.random.Generator,
) -> list[tuple[float, float]]:
    """Sample mean and standard error of <C> for each phase covariance
    in ``epsilons`` (at marginal variance sigma2), all runs on the same
    n_samples standard normal pairs of default_rng(seed), the stream of
    one standard_normal((n_samples, 2)) draw.

    One pass, _CURVE_BLOCK pairs at a time: each block's normals are
    drawn into one reused buffer and checked finite, one product with
    the runs' stacked offset factors, halved once per call with the
    working point, gives every run's half-angle phases, and their sines,
    with their cosines where curve.reads_cosines, feed
    estimation.estimator_mean_curve, centred once per call, into one
    (runs, n_samples) array of <C>.  Its means and standard errors are
    reduced in place over that array, in the ufunc sequence of np.mean
    and np.std(ddof=1), whose bits they are.  Raises ValueError for no
    runs, a sample count that is not an integer (Python or numpy) or
    fewer than MIN_MC_SAMPLES samples, and "configuration parameters
    must be finite" where a factor (an overflowing SVD), the working
    point or a normal is not finite.
    """
    if len(epsilons) == 0:
        raise ValueError("epsilons must name at least one run")
    for epsilon in epsilons:
        _check_noise(sigma2, epsilon)
    _check_sample_count(n_samples)
    runs, n = len(epsilons), int(n_samples)
    rng = np.random.default_rng(seed)
    # the half angles: halving is exact, so folding the 0.5 into the
    # factors and the centre leaves every half-angle phase its bits
    factors = 0.5 * _offset_factors(sigma2, epsilons)
    centre = 0.5 * np.repeat([config.phi0_1, config.phi0_2], runs)[:, None]
    # finite factors (each at most sqrt of the largest float) times
    # finite normals, plus a finite centre, cannot overflow: these checks
    # and each block's normals are the whole phase check
    if not (np.isfinite(factors).all() and np.isfinite(centre).all()):
        raise ValueError("configuration parameters must be finite")
    curve = estimation.estimator_mean_curve(config, spec)
    values = np.empty((runs, n))
    width = min(_CURVE_BLOCK, n)
    normals = np.empty((width, 2))
    halves = np.empty((2 * runs, width))
    cosines = np.empty((2 * runs, width)) if curve.reads_cosines else None
    c1 = c2 = None
    for start in range(0, n, _CURVE_BLOCK):
        size = min(_CURVE_BLOCK, n - start)
        if size > 1:
            rows = rng.standard_normal(out=normals[:size])
        else:
            # numpy takes a one-row product through its matrix-vector
            # path, whose rounding differs from the matrix-matrix path of
            # longer blocks: a one-row tail is the second row of a two-row
            # product whose first is the previous block's last pair
            normals[0] = normals[-1]
            rng.standard_normal(out=normals[1])
            rows = normals[:2]
        if not np.isfinite(rows).all():
            raise ValueError("configuration parameters must be finite")
        block = np.matmul(factors, rows.T, out=halves[:, :len(rows)])[:, len(rows) - size:]
        block += centre
        if cosines is not None:
            c = np.cos(block, out=cosines[:, :size])
            c1, c2 = c[:runs], c[runs:]
        s = np.sin(block, out=block)
        curve(c1, s[:runs], c2, s[runs:], out=values[:, start:start + size])
    # an overflowing surface is recover_covariance's OverflowError, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.add.reduce(values, axis=1) / n
        values -= means[:, None]
        np.multiply(values, values, out=values)
        errors = np.sqrt(np.add.reduce(values, axis=1) / (n - 1)) / math.sqrt(n)
    return [(float(mean), float(error)) for mean, error in zip(means, errors)]


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
    standard normal pairs of default_rng(seed), which mc_expectation
    draws block by block in its one pass over both runs.  The standard
    error combines the two run errors as independent.  At epsilon = 0
    the runs coincide: only the parallel run is made, and epsilon_hat is
    exactly +0.0.  Raises where the working point is not symmetric or
    the estimator has no phase response there
    (estimation.estimator_mixed_derivative), and OverflowError where the
    standard error overflows float64.
    """
    _check_noise(sigma2, epsilon)
    _check_sample_count(n_samples)
    denominator = estimation.estimator_mixed_derivative(config, spec)
    runs = mc_expectation(config, spec, sigma2, (epsilon, 0.0) if epsilon else (epsilon,),
                          n_samples, seed)
    (mean_par, se_par), (mean_perp, se_perp) = runs[0], runs[-1]
    difference = mean_par - mean_perp
    # equal means recover +0.0, never the -0.0 of a negative response
    epsilon_hat = difference / denominator if difference else 0.0
    standard_error = math.hypot(se_par, se_perp) / abs(denominator)
    if not math.isfinite(standard_error):
        raise OverflowError("the Monte-Carlo standard error overflows float64 (mu too large)")
    return epsilon_hat, standard_error


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
        _check_noise(sigma2, epsilon)
        if sigma2 > MAX_EXPANSION_SIGMA2:
            raise ValueError(
                f"the second-order expansion is valid for 0 <= sigma2 <= {MAX_EXPANSION_SIGMA2}"
            )
        return self.var_zero + (self.a_11 + self.a_22) * sigma2 + self.a_12 * epsilon


def variance_expansion(config: HolometerConfig, spec: EstimatorSpec) -> VarianceExpansion:
    """Expansion coefficients of Var_x[C] around the working point, which
    must be symmetric (equal phases and efficiencies); they do not
    depend on the noise, which ``predict`` takes.  var_zero is
    estimation.estimator_variance, read from the working-point member of
    the stencil's one stacked evaluation, and under its rule an
    UndefinedResultError where roundoff leaves it negative."""
    phi0 = estimation.require_symmetric(config, "the variance expansion")
    # one stacked surface evaluation over the 17-point stencil: the
    # working point, then _STENCIL at each Richardson step
    steps = np.array([step * max(abs(phi0), _PHASE_FLOOR) for step in _RELATIVE_STEPS])
    offsets = np.concatenate([np.zeros((1, 2)), (steps[:, None, None] * _STENCIL).reshape(-1, 2)])
    *surfaces, variances = estimation.estimator_surfaces(
        config, spec, phi0 + offsets[:, 0], phi0 + offsets[:, 1]
    )
    var_zero = float(variances[0])
    if var_zero < 0.0:
        raise UndefinedResultError(f"Var[C] = {var_zero:.3e} at phi_0 = {phi0!r} is "
                                   "negative; roundoff in <C^2> exceeds it")
    surfaces = np.array(surfaces)
    h0, base = surfaces[0, 0], surfaces[:, :1]
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
        var_zero=var_zero,
    )


def direct_variance(
    config: HolometerConfig, spec: EstimatorSpec, sigma2: float, epsilon: float
) -> float:
    """Total estimator variance under phase noise, without expansion.

    Var_x[C] = E_x[<C^2>] - (E_x[<C>])^2, integrated by Gauss-Hermite
    quadrature on the 45-degree decorrelated axes (variances sigma2 +-
    epsilon), _GH_ORDER nodes per axis, with the surfaces from one
    stacked engine call over all nodes.  Raises UndefinedResultError
    where roundoff leaves a negative result.
    """
    _check_noise(sigma2, epsilon)
    phi0 = estimation.require_symmetric(config, "the phase-noise model")
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
    variance = e_q - e_h * e_h
    if variance < 0.0:
        raise UndefinedResultError(f"Var_x[C] = {variance:.3e} under phase noise is negative; "
                                   "roundoff in <C^2> exceeds it")
    return variance
