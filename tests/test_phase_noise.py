import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from holonoise import estimation, holometer, observables, phase_noise
from holonoise.config import HolometerConfig
from holonoise.observables import UndefinedResultError, closed_form_moments, closed_form_quadrature
from holonoise.estimation import (
    EstimatorSpec,
    SingularConfigurationError,
    estimator_center,
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
SUM = EstimatorSpec(kind="TwbSumSquared")
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
        # a nan covariance is reported as itself, not as a size violation
        message = "epsilon must be finite, got nan" if math.isnan(epsilon) else None
        with pytest.raises(ValueError, match=message):
            recover_covariance(DESK, QUAD, sigma2, epsilon, 2_000, 0)
        with pytest.raises(ValueError, match=message):
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
    [(mean, se)] = mc_expectation(DESK, QUAD, 0.0, (0.0,), 2_000, 0)
    half = np.full(1, DESK.phi0_1 / 2.0)
    [exact] = estimator_mean_curve(DESK, QUAD)(np.cos(half), np.sin(half), np.cos(half),
                                               np.sin(half), out=np.empty(1))
    assert mean == exact
    assert se == 0.0


BLOCK = phase_noise._CURVE_BLOCK
SAMPLE_COUNTS = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 100_000]
COHERENT_DESK = DESK.replace(input_kind="CoherentOnly", lam=0.0)
# the product on twin beams reads the sampled cosines, on squeezed or
# coherent-only input it does not
KIND_CONFIGS = {"quadrature": (QUAD, DESK), "difference": (DIFF, TWB_DESK),
                "sum": (SUM, TWB_DESK.replace(psi=0.0)),
                "quadrature-twb": (QUAD, TWB_DESK), "quadrature-coherent": (QUAD, COHERENT_DESK)}


@pytest.mark.parametrize("n_samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("spec", [QUAD, DIFF], ids=["quadrature", "difference"])
def test_mc_expectation_is_independent_of_its_blocks(monkeypatch, spec, n_samples):
    # the same runs in one block, drawn as one standard_normal((n, 2))
    config = DESK if spec is QUAD else TWB_DESK
    blocked = mc_expectation(config, spec, 1e-5, (3e-6, 0.0), n_samples, 17)
    monkeypatch.setattr(phase_noise, "_CURVE_BLOCK", n_samples)
    assert mc_expectation(config, spec, 1e-5, (3e-6, 0.0), n_samples, 17) == blocked


def test_mc_expectation_takes_a_seed_or_its_generator():
    runs = mc_expectation(DESK, QUAD, 1e-5, (3e-6, 0.0), 2_000, 4)
    assert mc_expectation(DESK, QUAD, 1e-5, (3e-6, 0.0), 2_000, np.random.default_rng(4)) == runs


@pytest.mark.parametrize("n_samples", [0, 1, MIN_MC_SAMPLES - 1])
def test_mc_expectation_refuses_too_few_samples(n_samples):
    # one sample has no standard error and none has no mean: both would
    # come out as nan
    with pytest.raises(ValueError, match=f"at least {MIN_MC_SAMPLES}"):
        mc_expectation(DESK, QUAD, 1e-5, (1e-6, 0.0), n_samples, 0)


def test_mc_expectation_refuses_no_runs():
    with pytest.raises(ValueError, match="at least one run"):
        mc_expectation(DESK, QUAD, 1e-5, (), 2_000, 0)


def reference_recovery(config, spec, sigma2, epsilon, n_samples, seed):
    """recover_covariance from the public closed forms, each run one
    stacked configuration over all of its offsets."""
    draw = normals(seed, n_samples)
    center = estimator_center(config, spec)
    runs = []
    for covariance in (epsilon, 0.0):
        u, s, _ = np.linalg.svd(np.array([[sigma2, covariance], [covariance, sigma2]]))
        offsets = draw @ (u * np.sqrt(np.abs(s))).T
        point = config.replace(phi0_1=config.phi0_1 + offsets[:, 0],
                               phi0_2=config.phi0_2 + offsets[:, 1])
        if spec is QUAD:
            q = closed_form_quadrature(point)
            values = q["cov"] + (q["mean_1"] - center[0]) * (q["mean_2"] - center[1])
        else:
            sign = -1 if spec is DIFF else 1
            m = closed_form_moments(point)
            offset = m["mean_1"] + sign * m["mean_2"] - (center[0] if center else 0.0)
            values = m["var_1"] + m["var_2"] + 2.0 * sign * m["cov"] + offset * offset
        runs.append((float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(n_samples))))
    (mean_par, se_par), (mean_perp, se_perp) = runs
    denominator = estimation.estimator_mixed_derivative(config, spec)
    difference = mean_par - mean_perp
    return (difference / denominator if difference else 0.0,
            math.hypot(se_par, se_perp) / abs(denominator))


@pytest.mark.parametrize("n_samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("kind", list(KIND_CONFIGS))
def test_recovery_equals_the_stacked_closed_form_reference(kind, n_samples):
    spec, config = KIND_CONFIGS[kind]
    for epsilon in (2e-6, 0.0):
        got = recover_covariance(config, spec, 1e-5, epsilon, n_samples, 23)
        assert got == reference_recovery(config, spec, 1e-5, epsilon, n_samples, 23)


def test_a_non_finite_offset_raises_the_configuration_error(monkeypatch):
    message = "configuration parameters must be finite"
    # the error a configuration at that phase raises
    with pytest.raises(ValueError, match=message):
        DESK.replace(phi0_2=DESK.phi0_2 + math.inf)

    class Poisoned:
        """Serves ``draw`` in order to the kernel's per-block draws, as
        a generator's consecutive draws serve its one stream."""

        def __init__(self, seed):
            self.stream = draw.ravel()

        def standard_normal(self, *, out):
            out.flat[:] = self.stream[:out.size]
            self.stream = self.stream[out.size:]
            return out

    # a non-finite normal in a middle block, and in a one-row tail
    draws = [normals(3, 2 * BLOCK + 3), normals(3, 2 * BLOCK + 1)]
    draws[0][BLOCK + 5, 1] = math.inf
    draws[1][2 * BLOCK, 1] = math.nan
    monkeypatch.setattr(np.random, "default_rng", Poisoned)
    for draw in draws:
        with pytest.raises(ValueError, match=message):
            mc_expectation(DESK, QUAD, 1e-5, (1e-6, 0.0), len(draw), 0)
        with pytest.raises(ValueError, match=message):
            recover_covariance(DESK, QUAD, 1e-5, 0.0, len(draw), 0)


def test_an_overflowing_offset_factor_raises_the_configuration_error():
    # at sigma2 = epsilon = 1.7e308 the SVD factor of the parallel run is
    # -inf, though the noise passes the noise rule and every normal is finite
    message = "configuration parameters must be finite"
    with pytest.raises(ValueError, match=message):
        mc_expectation(DESK, QUAD, 1.7e308, (1.7e308, 0.0), 2_000, 0)
    with pytest.raises(ValueError, match=message):
        recover_covariance(DESK, QUAD, 1.7e308, 1.7e308, 2_000, 0)


@pytest.mark.parametrize("kind, sampled", [
    ("quadrature", 0), ("quadrature-coherent", 0), ("quadrature-twb", 3), ("difference", 3),
])
def test_the_kernel_takes_cosines_only_where_the_surface_reads_them(monkeypatch, kind, sampled):
    # one cosine per block of sampled half angles, none where <C> reads
    # only the sines (the product on squeezed or coherent-only input)
    spec, config = KIND_CONFIGS[kind]
    assert estimator_mean_curve(config, spec).reads_cosines == bool(sampled)
    blocks = []
    cos = np.cos

    def counted(x, *args, **kwargs):
        if np.shape(x)[-1:] in ((BLOCK,), (3,)):
            blocks.append(np.shape(x))
        return cos(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", counted)
    mc_expectation(config, spec, 1e-5, (3e-6, 0.0), 2 * BLOCK + 3, 3)
    assert len(blocks) == sampled


# ---------------------------------------------------------------------------
# covariance recovery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_samples", [1000.9, math.inf, math.nan, MIN_MC_SAMPLES - 1],
                         ids=["fraction", "inf", "nan", "too-few"])
def test_a_sample_count_must_be_an_integer_of_at_least_the_minimum(n_samples):
    # 1000.9 was truncated to the 1 000-sample result, inf and nan failed
    # inside int() with errors that named no argument
    with pytest.raises(ValueError, match="n_samples"):
        recover_covariance(DESK, QUAD, 1e-6, 1e-7, n_samples, 0)
    with pytest.raises(ValueError, match="n_samples"):
        mc_expectation(DESK, QUAD, 1e-6, (1e-7, 0.0), n_samples, 0)


def test_a_numpy_integer_sample_count_is_a_count():
    assert (recover_covariance(DESK, QUAD, 1e-6, 1e-7, np.int64(MIN_MC_SAMPLES), 0)
            == recover_covariance(DESK, QUAD, 1e-6, 1e-7, MIN_MC_SAMPLES, 0))


def test_recover_covariance_guards():
    with pytest.raises(ValueError, match=f"at least {MIN_MC_SAMPLES}"):
        recover_covariance(DESK, QUAD, 1e-6, 0.0, MIN_MC_SAMPLES - 1, 0)
    with pytest.raises(ValueError, match="symmetric working point"):
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


@pytest.mark.parametrize("spec", [QUAD, SUM], ids=["quadrature", "sum"])
def test_mc_expectation_centres_its_three_blocks_once(monkeypatch, spec):
    # three blocks of normals and two runs: one surface, centred once at
    # the working point, and one generator for all blocks
    config = DESK if spec is QUAD else TWB_DESK.replace(psi=0.0)
    surfaces = _count_calls(monkeypatch, estimation, "estimator_mean_curve")
    centers = _count_calls(monkeypatch, estimation, "estimator_center")
    draws = _count_calls(monkeypatch, np.random, "default_rng")
    runs = mc_expectation(config, spec, 1e-5, (3e-6, 0.0), 2 * BLOCK + 3, 3)
    assert len(runs) == 2
    assert (len(surfaces), len(centers), len(draws)) == (1, 1, 1)


def test_the_quadrature_mean_curve_runs_no_variance_step(monkeypatch):
    # the product's <C> reads the means and the covariance only: the
    # variance step runs once, in the closed form of the centre
    steps = []
    variances_at = observables._quadrature_variances_at

    def counted_at(config):
        variances = variances_at(config)

        def counted(c1, c2):
            steps.append(c1.shape)
            return variances(c1, c2)

        return counted

    monkeypatch.setattr(observables, "_quadrature_variances_at", counted_at)
    mc_expectation(DESK, QUAD, 1e-5, (3e-6, 0.0), 2 * BLOCK + 3, 3)
    assert steps == [()]


@pytest.mark.parametrize("spec", [QUAD, DIFF], ids=["quadrature", "difference"])
def test_recovery_at_zero_covariance_evaluates_the_surface_once(monkeypatch, spec):
    # one normal draw per recovery, one centre per run of the kernel, and
    # at epsilon = 0 one run only
    config = DESK if spec is QUAD else TWB_DESK
    centers = _count_calls(monkeypatch, estimation, "estimator_center")
    draws = _count_calls(monkeypatch, np.random, "default_rng")
    runs = []
    kernel = phase_noise.mc_expectation

    def counted(config, spec, sigma2, epsilons, n_samples, seed):
        runs.append(tuple(epsilons))
        return kernel(config, spec, sigma2, epsilons, n_samples, seed)

    monkeypatch.setattr(phase_noise, "mc_expectation", counted)
    eps_hat, se = recover_covariance(config, spec, 1e-5, 0.0, 5_000, 8)
    assert eps_hat == 0.0
    assert se > 0.0
    assert (len(centers), len(draws), runs) == (1, 1, [(0.0,)])
    # a nonzero covariance adds the perpendicular run to the same pass
    recover_covariance(config, spec, 1e-5, 1e-6, 5_000, 8)
    assert (len(centers), len(draws), runs) == (2, 2, [(0.0,), (1e-6, 0.0)])


def test_recovery_equals_its_two_steps():
    sigma2, epsilon, n_samples, seed = 1e-5, 2e-6, 4_000, 21
    (mean_par, se_par), (mean_perp, se_perp) = mc_expectation(
        DESK, QUAD, sigma2, (epsilon, 0.0), n_samples, seed)
    denominator = estimation.estimator_mixed_derivative(DESK, QUAD)
    eps_hat, se = recover_covariance(DESK, QUAD, sigma2, epsilon, n_samples, seed)
    assert eps_hat == (mean_par - mean_perp) / denominator
    assert se == math.hypot(se_par, se_perp) / abs(denominator)


def test_recovery_memory_grows_only_with_its_values_array():
    # the one allocation of a recovery that grows with the sample count is
    # the (runs, n) array of <C>: the normals are drawn block by block and
    # the standard errors reduced in place
    def peak(n_samples):
        tracemalloc.start()
        try:
            recover_covariance(DESK, QUAD, 1e-5, 1e-6, n_samples, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    recover_covariance(DESK, QUAD, 1e-5, 1e-6, 2_000, 0)  # first-call work outside the trace
    growth = peak(200_000) - peak(100_000)
    assert growth <= 1.05 * 2 * 100_000 * 8


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


@pytest.mark.parametrize("mu, phi0", [(1e3, 0.1), (3e12, 1e-8), (1e6, 0.2)])
@pytest.mark.parametrize("kind", ["quadrature", "difference", "sum", "quadrature-twb"])
def test_expansion_reads_the_working_point_once(monkeypatch, kind, mu, phi0):
    # var_zero is the working-point member of the stencil's one readout,
    # with the bits of estimator_variance's own readout there
    spec, config = KIND_CONFIGS[kind]
    config = config.replace(mu=mu, phi0_1=phi0, phi0_2=phi0)
    want = estimation.estimator_variance(config, spec)
    readouts = _count_calls(monkeypatch, holometer, "readout_moments")
    assert variance_expansion(config, spec).var_zero == want
    assert len(readouts) == (0 if spec is QUAD else 1)


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
    with pytest.raises(ValueError, match="symmetric working point"):
        direct_variance(DESK.replace(phi0_2=0.2), QUAD, 1e-6, 0.0)


@pytest.mark.parametrize(
    "config, spec",
    [(TWB_DESK, DIFF), (TWB_DESK.replace(psi=0.0), SUM), (DESK, QUAD)],
    ids=["difference", "sum", "quadrature"],
)
def test_asymmetric_efficiency_is_refused_by_every_route(config, spec):
    # unequal efficiencies leave the working point as asymmetric as unequal
    # phases do: the variance routes refuse it as u0 and the recovery do
    lopsided = config.replace(eta_2=0.6)
    routes = (
        lambda: u0(lopsided, spec),
        lambda: recover_covariance(lopsided, spec, 1e-5, 0.0, 2_000, 0),
        lambda: variance_expansion(lopsided, spec),
        lambda: direct_variance(lopsided, spec, 1e-5, 0.0),
    )
    for route in routes:
        with pytest.raises(ValueError, match="symmetric working point"):
            route()


@pytest.mark.parametrize("mu, lam", [(1e6, 10.0), (1e3, 1.0)])
def test_negative_estimator_variance_raises(mu, lam):
    # twin beams at eta = 1 and phi_0 = 1e-8, where roundoff in <C^2> leaves
    # Var[C] < 0 (u0 raises there too): neither the expansion's var_zero
    # nor the direct variance at zero noise hands that out as a variance
    config = TWB_DESK.replace(mu=mu, lam=lam, eta=1.0, phi0_1=1e-8, phi0_2=1e-8)
    mean, square = estimator_mean_and_square(config, DIFF, 1e-8, 1e-8)
    assert square - mean * mean < 0.0
    with pytest.raises(UndefinedResultError, match=r"Var\[C\] = -"):
        variance_expansion(config, DIFF)
    with pytest.raises(UndefinedResultError, match="is negative"):
        direct_variance(config, DIFF, 0.0, 0.0)
