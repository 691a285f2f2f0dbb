import dataclasses
import math

import numpy as np
import pytest

from holonoise import estimation, phase_noise
from holonoise.config import HolometerConfig
from holonoise.estimation import (
    EstimatorSpec,
    SingularConfigurationError,
    estimator_mean_and_square,
    estimator_mean_curve,
    u0,
)
from holonoise.phase_noise import (
    MAX_EXPANSION_SIGMA2,
    MIN_MC_SAMPLES,
    direct_variance,
    mc_expectation,
    recover_covariance,
    sample_phase_offsets,
    variance_expansion,
)

DESK = HolometerConfig(
    mu=1e3, psi=math.pi / 2, lam=1.0, eta=0.9, phi0_1=0.1, phi0_2=0.1,
    input_kind="TwoSqueezed",
)
QUAD = EstimatorSpec(kind="QuadratureProduct")
DIFF = EstimatorSpec(kind="TwbDifferenceSquared")
TWB_DESK = DESK.replace(input_kind="TWB")


def normals(seed, n_samples):
    """The standard normals recover_covariance draws at ``seed``."""
    return np.random.default_rng(seed).standard_normal((n_samples, 2))


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------


# noise no bivariate normal has: a nan or negative marginal variance, and
# a covariance larger than the marginal variance
BAD_NOISE = [(math.nan, 0.0), (-1e-6, 0.0), (1e-6, 2e-6), (1e-6, math.nan)]


def test_model_validation():
    for sigma2, epsilon in BAD_NOISE:
        with pytest.raises(ValueError):
            recover_covariance(DESK, QUAD, sigma2, epsilon, 2_000, 0)
        with pytest.raises(ValueError):
            direct_variance(DESK, QUAD, sigma2, epsilon)


def test_sampling_is_seed_deterministic():
    a = sample_phase_offsets(1e-5, 5e-6, normals(7, 500))
    b = sample_phase_offsets(1e-5, 5e-6, normals(7, 500))
    assert np.array_equal(a, b)
    assert a.shape == (500, 2)


def test_sample_statistics_track_the_model():
    draws = sample_phase_offsets(1e-4, 6e-5, normals(11, 200_000))
    cov = np.cov(draws.T)
    assert cov[0, 0] == pytest.approx(1e-4, rel=0.03)
    assert cov[1, 1] == pytest.approx(1e-4, rel=0.03)
    assert cov[0, 1] == pytest.approx(6e-5, rel=0.08)


# ---------------------------------------------------------------------------
# Monte-Carlo expectation
# ---------------------------------------------------------------------------


def test_mc_expectation_at_zero_noise_is_the_working_point_mean():
    offsets = sample_phase_offsets(0.0, 0.0, normals(0, 2_000))
    mean, se = mc_expectation(DESK, QUAD, offsets)
    exact = float(estimator_mean_curve(DESK, QUAD, DESK.phi0_1, DESK.phi0_2))
    assert mean == exact
    assert se == 0.0


# ---------------------------------------------------------------------------
# covariance recovery
# ---------------------------------------------------------------------------


def test_recover_covariance_guards():
    with pytest.raises(ValueError, match=f"at least {MIN_MC_SAMPLES}"):
        recover_covariance(DESK, QUAD, 1e-6, 0.0, MIN_MC_SAMPLES - 1, 0)
    with pytest.raises(ValueError, match="phases must match"):
        recover_covariance(DESK.replace(phi0_2=0.2), QUAD, 1e-6, 0.0, 2_000, 0)


def test_recover_covariance_pull_at_desk_scale():
    epsilon = 1e-6
    eps_hat, se = recover_covariance(DESK, QUAD, 1e-5, epsilon, 20_000, 5)
    assert se > 0.0
    # the common seed correlates the two runs, so the quoted (independent)
    # standard error over-covers; 4 se is a conservative window
    assert abs(eps_hat - epsilon) <= 4.0 * se


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("spec", [QUAD, DIFF], ids=["quadrature", "difference"])
def test_recovery_at_zero_covariance_evaluates_the_surface_once(monkeypatch, spec):
    config = DESK if spec is QUAD else TWB_DESK
    surfaces = _count_calls(monkeypatch, estimation, "estimator_mean_curve")
    draws = _count_calls(monkeypatch, np.random, "default_rng")
    offsets = _count_calls(monkeypatch, phase_noise, "sample_phase_offsets")
    means = _count_calls(monkeypatch, phase_noise, "mc_expectation")
    eps_hat, se = recover_covariance(config, spec, 1e-5, 0.0, 5_000, 8)
    assert eps_hat == 0.0
    assert se > 0.0
    assert (len(surfaces), len(draws), len(offsets), len(means)) == (1, 1, 1, 1)
    # a nonzero covariance needs the second run, still on the same draw
    recover_covariance(config, spec, 1e-5, 1e-6, 5_000, 8)
    assert (len(surfaces), len(draws), len(offsets), len(means)) == (3, 2, 3, 3)


def test_recovery_equals_its_two_steps():
    sigma2, epsilon, n_samples, seed = 1e-5, 2e-6, 4_000, 21
    draw = normals(seed, n_samples)
    mean_par, se_par = mc_expectation(DESK, QUAD, sample_phase_offsets(sigma2, epsilon, draw))
    mean_perp, se_perp = mc_expectation(DESK, QUAD, sample_phase_offsets(sigma2, 0.0, draw))
    denominator = estimation.estimator_mixed_derivative(DESK, QUAD)
    eps_hat, se = recover_covariance(DESK, QUAD, sigma2, epsilon, n_samples, seed)
    assert eps_hat == (mean_par - mean_perp) / denominator
    assert se == math.hypot(se_par, se_perp) / abs(denominator)


def test_recovery_rejects_an_estimator_without_phase_response(monkeypatch):
    # coherent readouts at phi_0 = 0 have no mixed phase response: the
    # recovery divides by nothing, and says so before drawing a sample
    config = DESK.replace(input_kind="CoherentOnly", lam=0.0, phi0_1=0.0, phi0_2=0.0)
    draws = _count_calls(monkeypatch, np.random, "default_rng")
    with pytest.raises(SingularConfigurationError, match="no mixed phase response"):
        recover_covariance(config, DIFF, 1e-5, 1e-6, 2_000, 0)
    assert draws == []


@pytest.mark.parametrize("sigma2, epsilon", [
    (1e-5, 0.0), (1e-5, 1e-6), (1e-5, -3e-6), (1e-4, 6e-5), (1e-5, 1e-5), (0.0, 0.0),
])
def test_offsets_match_numpy_svd_multivariate_normal(sigma2, epsilon):
    want = np.random.default_rng(13).multivariate_normal(
        np.zeros(2), [[sigma2, epsilon], [epsilon, sigma2]], size=3_000, method="svd"
    )
    got = sample_phase_offsets(sigma2, epsilon, normals(13, 3_000))
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


# ---------------------------------------------------------------------------
# variance expansion
# ---------------------------------------------------------------------------


def test_expansion_guards():
    expansion = variance_expansion(DESK, QUAD)
    # the domain's edge is inside it
    edge = MAX_EXPANSION_SIGMA2
    assert expansion.predict(edge, -edge) == (
        expansion.var_zero + (expansion.a_11 + expansion.a_22) * edge - expansion.a_12 * edge
    )
    with pytest.raises(ValueError):
        expansion.predict(2.0 * MAX_EXPANSION_SIGMA2, 0.0)
    with pytest.raises(ValueError):
        expansion.predict(-1e-6, 0.0)
    with pytest.raises(ValueError):
        expansion.predict(1e-6, 2e-6)
    with pytest.raises(ValueError):
        expansion.predict(math.nan, 0.0)
    with pytest.raises(ValueError):
        expansion.predict(math.inf, 0.0)
    with pytest.raises(ValueError):
        expansion.predict(1e-6, math.nan)
    with pytest.raises(ValueError):
        variance_expansion(DESK.replace(phi0_2=0.2), QUAD)


def test_expansion_symmetry_and_zero_order():
    for spec, config in ((QUAD, DESK), (DIFF, TWB_DESK)):
        expansion = variance_expansion(config, spec)
        # the two axis stencils traverse the engine in different mode order,
        # so agreement is limited by second-derivative roundoff, not physics
        assert expansion.a_11 == pytest.approx(expansion.a_22, rel=1e-6)
        assert expansion.predict(0.0, 0.0) == expansion.var_zero
        assert all(type(value) is float for value in dataclasses.astuple(expansion))
        # u0's numerator, recovered from u0 and the exact derivative
        derivative = estimation.estimator_mixed_derivative(config, spec)
        numerator_var = 0.5 * (u0(config, spec) * derivative) ** 2
        assert expansion.var_zero == pytest.approx(numerator_var, rel=1e-12)


def test_expansion_predicts_direct_variance():
    sigma2, epsilon = 1e-6, 3e-7
    expansion = variance_expansion(DESK, QUAD)
    direct = direct_variance(DESK, QUAD, sigma2, epsilon)
    assert expansion.predict(sigma2, epsilon) == pytest.approx(direct, rel=5e-3)


# ---------------------------------------------------------------------------
# direct variance
# ---------------------------------------------------------------------------


def test_direct_variance_quadrature_gh_matches_mc():
    gh = direct_variance(DESK, QUAD, 1e-5, 4e-6)
    assert type(gh) is float
    # Monte-Carlo reference with a delta-method standard error
    n_samples = 50_000
    offsets = sample_phase_offsets(1e-5, 4e-6, normals(17, n_samples))
    means, squares = estimator_mean_and_square(
        DESK, QUAD, DESK.phi0_1 + offsets[:, 0], DESK.phi0_2 + offsets[:, 1]
    )
    e_h = float(np.mean(means))
    mc = float(np.mean(squares)) - e_h * e_h
    mc_err = float(np.std(squares - 2.0 * e_h * means, ddof=1) / math.sqrt(n_samples))
    assert mc_err > 0.0
    assert abs(gh - mc) <= 5.0 * mc_err


def test_direct_variance_photon_kind_agrees_with_gh():
    gh = direct_variance(TWB_DESK, DIFF, 1e-6, 0.0)
    expansion = variance_expansion(TWB_DESK, DIFF)
    assert gh == pytest.approx(expansion.predict(1e-6, 0.0), rel=5e-3)


SUM = EstimatorSpec(kind="TwbSumSquared")


def _per_point_surfaces(config, spec, d1, d2):
    """The engine walked one phase pair at a time: the reference for the
    stacked evaluation in direct_variance."""
    phi0 = config.phi0_1
    means = np.empty(d1.shape)
    squares = np.empty(d1.shape)
    for idx in np.ndindex(d1.shape):
        means[idx], squares[idx] = estimator_mean_and_square(
            config, spec, phi0 + float(d1[idx]), phi0 + float(d2[idx])
        )
    return means, squares


@pytest.mark.parametrize("spec", [DIFF, SUM], ids=["difference", "sum"])
def test_direct_variance_gh_matches_the_per_node_loop(spec):
    sigma2, epsilon = 1e-5, 4e-6
    nodes, weights = np.polynomial.hermite_e.hermegauss(9)
    weights = weights / math.sqrt(2.0 * math.pi)
    u = math.sqrt(sigma2 + epsilon) * nodes[:, None] * np.ones(9)[None, :]
    v = math.sqrt(sigma2 - epsilon) * np.ones(9)[:, None] * nodes[None, :]
    means, squares = _per_point_surfaces(
        TWB_DESK, spec, (u + v) / math.sqrt(2.0), (u - v) / math.sqrt(2.0)
    )
    w = weights[:, None] * weights[None, :]
    e_h = float(np.sum(w * means))
    reference = float(np.sum(w * squares)) - e_h * e_h
    gh = direct_variance(TWB_DESK, spec, sigma2, epsilon)
    assert type(gh) is float
    assert gh == pytest.approx(reference, rel=1e-12)


def test_direct_variance_guards():
    with pytest.raises(ValueError, match="phases must match"):
        direct_variance(DESK.replace(phi0_2=0.2), QUAD, 1e-6, 0.0)
