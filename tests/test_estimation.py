import itertools
import math

import numpy as np
import pytest

from holonoise import estimation, holometer
from holonoise.config import HolometerConfig
from holonoise.estimation import (
    U0_ASYMPTOTIC_BRANCHES,
    EstimatorKind,
    EstimatorSpec,
    SingularConfigurationError,
    classical_benchmark,
    estimator_center,
    estimator_mean_and_square,
    estimator_mean_curve,
    estimator_mixed_derivative,
    u0,
    u0_asymptotic,
)
from holonoise.holometer import quadrature_readout, readout_moments
from holonoise.observables import UndefinedResultError, closed_form_moments
from holonoise.phase_noise import variance_expansion


def make(**overrides):
    base = dict(
        mu=3e12, psi=math.pi / 2, lam=10.0, eta=0.95, phi0_1=1e-2, phi0_2=1e-2,
        input_kind="TWB",
    )
    base.update(overrides)
    return HolometerConfig(**base)


DIFF = EstimatorSpec(kind="TwbDifferenceSquared")
SUM = EstimatorSpec(kind="TwbSumSquared")
QUAD = EstimatorSpec(kind="QuadratureProduct")


def cross_derivative(config, spec):
    """d^2 <N1 N2> / dphi_1 dphi_2 (d^2 <Y1 Y2> for the quadrature kind):
    the estimator's mixed derivative without its fixed readout factor,
    -2 for the difference and 1 for the quadrature product."""
    factor = -2.0 if spec.kind is EstimatorKind.TWB_DIFFERENCE_SQUARED else 1.0
    return estimator_mixed_derivative(config, spec) / factor


# ---------------------------------------------------------------------------
# spec construction and pairing
# ---------------------------------------------------------------------------


def test_kind_casts_from_string():
    assert DIFF.kind is EstimatorKind.TWB_DIFFERENCE_SQUARED
    with pytest.raises(ValueError):
        EstimatorSpec(kind="DoubleSquared")


@pytest.mark.parametrize("alias", ["difference", "sum", "M1", "plain difference"])
def test_linear_readouts_are_rejected_with_explanation(alias):
    # a linear readout is no estimator kind; the error names the valid ones
    with pytest.raises(ValueError, match="unknown estimator kind.*TwbDifferenceSquared"):
        EstimatorSpec(kind=alias.replace(" ", ""))


def test_psi_pairing_enforced_for_twin_beam_input():
    with pytest.raises(ValueError, match="cos\\(2 psi\\)"):
        u0(make(psi=0.0), DIFF)
    with pytest.raises(ValueError):
        u0(make(psi=math.pi / 2), SUM)
    with pytest.raises(ValueError, match="cos\\(2 psi\\)"):
        u0(make(psi=0.3), DIFF)


def test_psi_pairing_not_applied_to_other_inputs():
    assert u0(make(input_kind="TwoSqueezed", psi=0.0, mu=1e4), QUAD) > 0.0


# ---------------------------------------------------------------------------
# classical benchmark
# ---------------------------------------------------------------------------


def test_classical_benchmark_value():
    config = make(mu=1e6, eta=0.8, phi0_1=0.4, phi0_2=0.4)
    expected = math.sqrt(2.0) / (0.8 * 1e6 * math.cos(0.2) ** 2)
    assert classical_benchmark(config) == pytest.approx(expected, rel=1e-12)


def test_classical_benchmark_rejects_degenerate_points():
    with pytest.raises(ValueError):
        classical_benchmark(make(mu=0.0))
    with pytest.raises(ValueError):
        classical_benchmark(make(eta=0.0))
    with pytest.raises(OverflowError):
        classical_benchmark(make(phi0_1=math.pi, phi0_2=math.pi))


def test_phi0_pi_sends_all_coherent_and_no_quantum_light_to_the_detector():
    # <N> = eta (mu sin^2(phi_0/2) + lam cos^2(phi_0/2)): at phi_0 = pi the
    # detector sees only the coherent light, whose signal there has no
    # phase response, so the classical benchmark diverges
    config = make(mu=1e4, lam=2.0, eta=0.8, phi0_1=math.pi, phi0_2=math.pi)
    assert closed_form_moments(config)["mean_1"] == pytest.approx(0.8 * 1e4, rel=1e-15)
    assert closed_form_moments(config.replace(mu=0.0))["mean_1"] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(OverflowError, match="all of the coherent light reaches the detector"):
        classical_benchmark(config)


# ---------------------------------------------------------------------------
# mixed derivative
# ---------------------------------------------------------------------------


def test_mixed_derivative_matches_coherent_closed_form():
    # independent readouts: d^2 <N1 N2> / dphi1 dphi2 = eta^2 mu^2 sin(phi1) sin(phi2) / 4
    for phi0 in (1e-3, 1e-2, 0.1, 0.5, 1.0):
        config = make(mu=1e6, eta=0.9, lam=0.0, input_kind="CoherentOnly",
                      phi0_1=phi0, phi0_2=phi0)
        expected = (0.9 * 1e6 * math.sin(phi0)) ** 2 / 4.0
        got = cross_derivative(config, DIFF)
        assert got == pytest.approx(expected, rel=1e-6), phi0


def test_estimator_mixed_derivative_sign_factors():
    # the difference and sum readouts scale one cross derivative
    # d^2<N1 N2> by -2 and +2; scaling by a power of two is exact
    for config in (make(mu=1e4), make(mu=1e4, psi=0.0)):
        diff = estimator_mixed_derivative(config, DIFF)
        assert estimator_mixed_derivative(config, SUM) == -diff
        assert diff == pytest.approx(-2.0 * closed_form_cross_difference(config), rel=1e-6)


def central_cross_difference(cross_moment, phi0, h):
    """Central-difference estimate of d^2 f / dphi_1 dphi_2 at (phi0, phi0)."""
    return (
        cross_moment(phi0 + h, phi0 + h)
        - cross_moment(phi0 + h, phi0 - h)
        - cross_moment(phi0 - h, phi0 + h)
        + cross_moment(phi0 - h, phi0 - h)
    ) / (4.0 * h * h)


def engine_finite_difference(config, spec):
    """Independent check on cross_derivative: central differences of the
    engine's <N1 N2> (or <Y1 Y2>) at steps 1e-3 and 1e-4 times
    max(|phi_0|, 1e-3), combined by Richardson extrapolation."""
    chi = config.signal_quadrature_angle

    def cross_moment(phi_1, phi_2):
        point = config.replace(phi0_1=phi_1, phi0_2=phi_2)
        if spec.kind is EstimatorKind.QUADRATURE_PRODUCT:
            q = quadrature_readout(point)
            return q.cov + q.mean_1 * q.mean_2
        m = readout_moments(point, max_order=2)
        return m.cov + m.mean_1 * m.mean_2

    phi0 = config.phi0_1
    scale = max(abs(phi0), 1e-3)
    coarse = central_cross_difference(cross_moment, phi0, 1e-3 * scale)
    fine = central_cross_difference(cross_moment, phi0, 1e-4 * scale)
    return (100.0 * fine - coarse) / 99.0


def closed_form_cross_difference(config, h=1e-3):
    """Central difference of the closed-form <N1 N2> at step h; its
    truncation error is (sin h / h)^2 - 1, about 3.3e-7 at h = 1e-3."""

    def cross_moment(phi_1, phi_2):
        vals = closed_form_moments(config.replace(phi0_1=phi_1, phi0_2=phi_2))
        return float(vals["cov"] + vals["mean_1"] * vals["mean_2"])

    return central_cross_difference(cross_moment, config.phi0_1, h)


@pytest.mark.parametrize("input_kind", ["TWB", "TwoSqueezed", "CoherentOnly"])
def test_mixed_derivative_matches_engine_finite_differences(input_kind):
    grid = itertools.product(
        (1e6, 3e12), (0.1, 1.0, 10.0), (1e-8, 1e-4, 1e-2, 0.5), (math.pi / 2, 0.3), (0.0, 1.1)
    )
    for mu, lam, phi0, psi, theta in grid:
        config = make(mu=mu, lam=lam, phi0_1=phi0, phi0_2=phi0, psi=psi, theta=theta,
                      input_kind=input_kind)
        for spec in (DIFF, QUAD):
            # For independent squeezed inputs <N1 N2> = <N1><N2>, and at
            # phi_0 < 1e-2 its derivative can sit below the engine's
            # roundoff on cov divided by h^2: the stencil itself fails
            # there (1.6e4 relative error at mu = 1e6, phi_0 = 1e-8).
            if input_kind == "TwoSqueezed" and spec is DIFF and phi0 < 1e-2:
                continue
            want = engine_finite_difference(config, spec)
            got = cross_derivative(config, spec)
            assert got == pytest.approx(want, rel=1e-6), (mu, lam, phi0, psi, theta, spec.kind)


def test_u0_resolves_a_dim_twin_beam_deep_in_the_quantum_regime():
    # the finite-difference route called this point singular: engine
    # roundoff over h^2 swamped the derivative at its floored step
    config = make(mu=10.0, lam=1.0, phi0_1=1e-4, phi0_2=1e-4)
    assert u0(config, DIFF) > 0.0
    want = 2.0 * abs(closed_form_cross_difference(config))
    assert abs(estimator_mixed_derivative(config, DIFF)) == pytest.approx(want, rel=1e-6)


def test_u0_twin_beam_at_moderate_energy_uses_the_exact_derivative():
    # the finite-difference route was off by 5.7e-4 relative here
    config = make(mu=1e3, lam=10.0, phi0_1=10.0**-3.75, phi0_2=10.0**-3.75)
    numerator_var = variance_expansion(config, DIFF).var_zero
    want = math.sqrt(2.0 * numerator_var) / (2.0 * abs(closed_form_cross_difference(config)))
    assert u0(config, DIFF) == pytest.approx(want, rel=1e-6)


def test_singular_configuration_raises():
    # independent coherent readouts at phi_0 = 0 sit at an extremum of
    # <N_i>(phi), so the mixed derivative vanishes identically
    config = make(input_kind="CoherentOnly", lam=0.0, mu=1e4, phi0_1=0.0, phi0_2=0.0)
    with pytest.raises(SingularConfigurationError, match="no mixed phase response"):
        estimator_mixed_derivative(config, DIFF)
    with pytest.raises(SingularConfigurationError, match="no mixed phase response"):
        u0(config, DIFF)


@pytest.mark.parametrize("mu, lam", [(1e6, 10.0), (1e3, 1.0)])
def test_negative_estimator_variance_raises_and_reads_nan_on_a_stack(mu, lam):
    # twin beams at eta = 1 and phi_0 = 1e-8: the difference photocurrent
    # barely fluctuates, and roundoff in <C^2> leaves Var[C] < 0; u0 must
    # not clip that to an uncertainty of 0
    config = make(mu=mu, lam=lam, eta=1.0, phi0_1=1e-8, phi0_2=1e-8)
    mean, square = estimator_mean_and_square(config, DIFF, 1e-8, 1e-8)
    assert square - mean * mean < 0.0
    with pytest.raises(UndefinedResultError, match=r"Var\[C\]"):
        u0(config, DIFF)
    stack = u0(config.replace(eta=np.array([0.95, 1.0])), DIFF)
    assert stack[0] == u0(config.replace(eta=0.95), DIFF) and np.isnan(stack[1])


@pytest.mark.parametrize("spec", [DIFF, SUM], ids=["difference", "sum"])
def test_an_overflowing_phase_response_raises_on_a_stack_too(spec):
    # at mu = 1e300 (mu - lam)^2 overflows float64: that is no singular
    # member to read as nan, and no bare "Numerical result out of range"
    for config in (make(mu=1e300, psi=0.0), make(mu=1e300, psi=0.0, phi0_1=[0.01, 0.1],
                                                  phi0_2=[0.01, 0.1])):
        with pytest.raises(OverflowError, match="mixed phase derivative overflows float64"):
            estimator_mixed_derivative(config, spec)


def test_an_overflowing_uncertainty_raises_and_reads_nan_on_a_stack():
    # a subnormal efficiency leaves the squeezed readout's mixed derivative
    # subnormal, above its roundoff test: sqrt(2 Var[C]) over it and the
    # classical benchmark overflow float64
    config = make(mu=1e-3, eta=1e-310, phi0_1=0.5, phi0_2=0.5, input_kind="TwoSqueezed")
    with pytest.raises(OverflowError, match="u0 overflows float64"):
        u0(config, QUAD)
    with pytest.raises(OverflowError, match="classical benchmark overflows float64"):
        classical_benchmark(config)
    stack = config.replace(eta=np.array([1e-310, 0.9]))
    for got, want in ((u0(stack, QUAD), u0(config.replace(eta=0.9), QUAD)),
                      (classical_benchmark(stack), classical_benchmark(config.replace(eta=0.9)))):
        assert np.isnan(got[0]) and got[1] == want


def test_non_finite_phase_response_raises():
    # at lam = 1e200 the pair amplitude overflows to inf, and at phi_0 = 0
    # its quadrature term is inf * 0 = nan
    config = make(lam=1e200, phi0_1=0.0, phi0_2=0.0)
    with pytest.raises(SingularConfigurationError, match="no mixed phase response"):
        estimator_mixed_derivative(config, QUAD)


# ---------------------------------------------------------------------------
# estimator mean surfaces
# ---------------------------------------------------------------------------


def mean_curve(config, spec, delta_1, delta_2):
    """estimator_mean_curve at phase offsets from the working point."""
    half_1, half_2 = (config.phi0_1 + delta_1) / 2.0, (config.phi0_2 + delta_2) / 2.0
    return estimator_mean_curve(config, spec)(np.cos(half_1), np.sin(half_1), np.cos(half_2),
                                              np.sin(half_2), out=np.empty(len(half_1)))


def test_mean_curve_matches_engine_moments():
    config = make(mu=1e4, lam=2.0)
    offsets = np.array([0.0, config.phi0_1 * 0.5, -config.phi0_1 * 0.5])
    curve = mean_curve(config, DIFF, offsets, offsets)
    for value, phi in zip(curve, config.phi0_1 + offsets, strict=True):
        moments = readout_moments(config.replace(phi0_1=phi, phi0_2=phi), max_order=2)
        variance = moments.var_1 + moments.var_2 - 2.0 * moments.cov
        assert value == pytest.approx(variance, rel=1e-8)


def test_mean_and_square_consistent_with_curve():
    config = make(mu=1e4, lam=2.0)
    for spec, cfg in ((DIFF, config), (QUAD, config.replace(input_kind="TwoSqueezed"))):
        mean, square = estimator_mean_and_square(cfg, spec, cfg.phi0_1 * 1.2, cfg.phi0_2 * 1.2)
        [curve] = mean_curve(cfg, spec, np.array([cfg.phi0_1 * 0.2]), np.array([cfg.phi0_2 * 0.2]))
        assert mean == pytest.approx(curve, rel=1e-8)
        assert square >= mean**2


def test_sum_estimator_centers_on_frozen_offset():
    config = make(psi=0.0, mu=1e4)
    (offset,) = estimator_center(config, SUM)
    moments = readout_moments(config, max_order=2)
    assert offset == pytest.approx(moments.mean_1 + moments.mean_2, rel=1e-9)


# ---------------------------------------------------------------------------
# u0 values
# ---------------------------------------------------------------------------


def test_u0_at_the_coherent_plateau():
    # central differences of the closed-form <N1 N2> at h = 1e-5 confirm
    # the exact derivative behind these values to 3e-11
    ratio = u0(make(), DIFF) / classical_benchmark(make())
    assert ratio == pytest.approx(0.10274980252371693, rel=1e-9)
    sq = make(input_kind="TwoSqueezed")
    assert u0(sq, QUAD) / classical_benchmark(sq) == pytest.approx(0.07265506877680042, rel=1e-9)


def test_u0_squeezed_plateau_matches_exact_noise_form():
    # deep in the coherent regime the quadrature-product ratio approaches
    # 1 - eta tau + eta tau e^{-2r}
    config = make(input_kind="TwoSqueezed", eta=0.9, lam=3.0)
    tau = config.tau_1
    e2r = math.exp(-2.0 * math.asinh(math.sqrt(3.0)))
    expected = 1.0 - 0.9 * tau + 0.9 * tau * e2r
    assert u0(config, QUAD) / classical_benchmark(config) == pytest.approx(expected, rel=2e-4)


def test_u0_invariants_over_random_domain():
    rng = np.random.default_rng(3)
    for _ in range(10):
        config = make(
            mu=float(rng.uniform(1e2, 1e8)),
            lam=float(rng.uniform(0.01, 10.0)),
            eta=float(rng.uniform(0.3, 1.0)),
            phi0_1=0.0, phi0_2=0.0,
        )
        phi = float(rng.uniform(1e-3, 1.5))
        config = config.replace(phi0_1=phi, phi0_2=phi)
        value = u0(config, DIFF)
        assert value >= 0.0
        assert value / classical_benchmark(config) >= 0.0
        assert estimator_mixed_derivative(config, DIFF) != 0.0


def _count_readouts(monkeypatch):
    """Record (name, max_order) for every engine readout made through
    the holometer module, in the style of tests/test_phase_noise.py."""
    calls = []
    for name in ("readout_moments", "quadrature_readout"):
        original = getattr(holometer, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, kwargs.get("max_order")))
            return _original(*args, **kwargs)

        monkeypatch.setattr(holometer, name, counted)
    return calls


@pytest.mark.parametrize(
    ("spec", "overrides", "readouts"),
    [
        (DIFF, {}, [("readout_moments", 4)]),
        (SUM, {"psi": 0.0}, [("readout_moments", 4)]),
        # the quadrature product reads the closed forms only
        (QUAD, {"input_kind": "TwoSqueezed"}, []),
    ],
    ids=["difference", "sum", "quadrature"],
)
def test_u0_makes_exactly_one_engine_readout(monkeypatch, spec, overrides, readouts):
    calls = _count_readouts(monkeypatch)
    assert u0(make(**overrides), spec) > 0.0
    assert calls == readouts


def test_u0_requires_symmetric_working_point():
    with pytest.raises(ValueError):
        u0(make(phi0_2=0.3), DIFF)


# ---------------------------------------------------------------------------
# asymptotic branches
# ---------------------------------------------------------------------------


def test_asymptotic_branch_names_are_stable():
    assert U0_ASYMPTOTIC_BRANCHES == (
        "SQ_large_lambda",
        "SQ_small_lambda",
        "TWB_A_large_lambda",
        "TWB_A_small_lambda",
        "TWB_B",
    )
    with pytest.raises(ValueError):
        u0_asymptotic(make(), "SQ_plateau")


def test_asymptotic_values():
    config = make(eta=0.95, phi0_1=0.0, phi0_2=0.0)
    assert u0_asymptotic(config, "TWB_A_large_lambda") == pytest.approx(
        2.0 * math.sqrt(5.0) * 0.05, rel=1e-12
    )
    assert u0_asymptotic(config, "TWB_A_small_lambda") == pytest.approx(
        math.sqrt(2.0 * 0.05 / 0.95), rel=1e-12
    )
    small = config.replace(lam=0.1)
    expected = 1.0 - 0.95 * 2.0 * math.sqrt(0.1) * (1.0 - math.sqrt(0.1))
    assert u0_asymptotic(small, "SQ_small_lambda") == pytest.approx(expected, rel=1e-12)
    assert u0_asymptotic(small, "SQ_small_lambda") == pytest.approx(0.589167, abs=1e-5)
    plateau = u0_asymptotic(config, "SQ_large_lambda")
    assert u0_asymptotic(config, "TWB_B") == pytest.approx(math.sqrt(2.0) * plateau, rel=1e-12)


def test_asymptotic_guards():
    with pytest.raises(UndefinedResultError):
        u0_asymptotic(make(lam=0.0), "SQ_large_lambda")
    with pytest.raises(ValueError):
        u0_asymptotic(make(phi0_2=0.5), "TWB_B")

