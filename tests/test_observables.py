import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from closed_form_reference import complex_moments, complex_quadrature
from holonoise.config import HolometerConfig
from holonoise.fock_oracle import oracle_moments
from holonoise.holometer import propagate, readout_moments
from holonoise.observables import (
    UndefinedResultError,
    closed_form_moments,
    closed_form_quadrature,
    nrf,
    nrf_asymptotic,
    regime_parameter,
)


def make(**overrides):
    base = dict(
        mu=1e6, psi=math.pi / 2, lam=10.0, eta=1.0,
        phi0_1=2.0 * math.acos(math.sqrt(0.9)), phi0_2=2.0 * math.acos(math.sqrt(0.9)),
        input_kind="TWB",
    )
    base.update(overrides)
    return HolometerConfig(**base)


# ---------------------------------------------------------------------------
# closed forms versus the engine (property) and the oracle
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(0.0, 1e4),
    psi=st.floats(0.0, 2 * math.pi),
    lam=st.floats(0.0, 5.0),
    eta=st.floats(0.05, 1.0),
    tau1=st.floats(0.01, 1.0),
    tau2=st.floats(0.01, 1.0),
    kind=st.sampled_from(["TWB", "TwoSqueezed", "CoherentOnly"]),
    theta=st.floats(0.0, 2 * math.pi),
)
def test_closed_form_moments_match_engine(mu, psi, lam, eta, tau1, tau2, kind, theta):
    config = HolometerConfig(
        mu=mu, psi=psi, lam=0.0 if kind == "CoherentOnly" else lam, eta=eta,
        phi0_1=2.0 * math.acos(math.sqrt(tau1)), phi0_2=2.0 * math.acos(math.sqrt(tau2)),
        input_kind=kind, theta=theta,
    )
    closed = {name: float(value) for name, value in closed_form_moments(config).items()}
    engine = readout_moments(config, max_order=2)
    scale = 1.0 + closed["mean_1"] + closed["mean_2"]
    assert closed["mean_1"] == pytest.approx(engine.mean_1, rel=1e-10, abs=1e-10 * scale)
    assert closed["mean_2"] == pytest.approx(engine.mean_2, rel=1e-10, abs=1e-10 * scale)
    assert closed["var_1"] == pytest.approx(engine.var_1, rel=1e-10, abs=1e-10 * scale**2)
    assert closed["var_2"] == pytest.approx(engine.var_2, rel=1e-10, abs=1e-10 * scale**2)
    assert closed["cov"] == pytest.approx(engine.cov, rel=1e-10, abs=1e-10 * scale**2)


def test_closed_form_moments_match_oracle_at_small_occupancy():
    rng = np.random.default_rng(5)
    for _ in range(8):
        kind = ("TWB", "TwoSqueezed", "CoherentOnly")[int(rng.integers(0, 3))]
        tau = rng.uniform(0.05, 1.0)
        config = HolometerConfig(
            mu=rng.uniform(0.0, 1.0),
            psi=rng.uniform(0.0, 2 * math.pi),
            lam=0.0 if kind == "CoherentOnly" else rng.uniform(0.0, 1.0),
            eta=rng.uniform(0.1, 1.0),
            phi0_1=2.0 * math.acos(math.sqrt(tau)),
            phi0_2=2.0 * math.acos(math.sqrt(tau)),
            input_kind=kind,
        )
        closed = closed_form_moments(config)
        oracle = oracle_moments(config)
        for field in ("mean_1", "mean_2", "var_1", "var_2", "cov"):
            a, b = float(closed[field]), getattr(oracle, field)
            assert abs(a - b) <= 1e-8 * max(abs(a), abs(b)) + 1e-12, (config, field)


def test_covariance_formula_structure():
    # cov = eta^2 [ tau^2 lam(1+lam) - 2 mu tau (1-tau) sqrt(lam(1+lam)) cos(2 psi) ]
    for tau in (0.3, 0.7, 0.95):
        for psi in (0.0, 0.4, math.pi / 4, math.pi / 2):
            for lam, eta, mu in ((0.5, 0.9, 2.0), (2.0, 0.6, 30.0)):
                phi = 2.0 * math.acos(math.sqrt(tau))
                config = make(mu=mu, psi=psi, lam=lam, eta=eta, phi0_1=phi, phi0_2=phi)
                root = math.sqrt(lam * (1.0 + lam))
                expected = eta**2 * (
                    tau**2 * lam * (1.0 + lam)
                    - 2.0 * mu * tau * (1.0 - tau) * root * math.cos(2.0 * psi)
                )
                got = closed_form_moments(config)["cov"]
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_covariance_is_minus_cosine_in_twice_psi():
    # the psi-dependent part must flip sign between psi = 0 and pi/2 and
    # vanish at pi/4
    values = {
        psi: closed_form_moments(make(mu=100.0, lam=0.5, psi=psi))["cov"]
        for psi in (0.0, math.pi / 4, math.pi / 2)
    }
    offset = values[math.pi / 4]
    assert values[0.0] < offset < values[math.pi / 2]
    assert values[0.0] + values[math.pi / 2] == pytest.approx(2 * offset, rel=1e-10)


def test_correlators_carry_the_displacement_and_occupancy():
    # the detected state holds sqrt(2 eta) m_1 as the mode-1 mean, 1/2 +
    # eta n_1 on the mode-1 diagonal and sqrt(eta_1 eta_2) G off it
    config = make(mu=4.0, lam=0.5, eta=0.8, phi0_1=0.8, phi0_2=0.8)
    mean, cov = propagate(config)
    s = math.sin(0.4)
    assert math.hypot(*mean[:2]) == pytest.approx(math.sqrt(1.6) * s * 2.0, rel=1e-12)
    occupancy = math.cos(0.4) ** 2 * 0.5
    assert cov[0, 0] == pytest.approx(0.5 + 0.8 * occupancy, rel=1e-12)
    # twin-beam input has no self-anomalous term
    assert cov[0, 0] == cov[1, 1] and cov[0, 1] == 0.0
    assert math.hypot(cov[0, 2], cov[0, 3]) == pytest.approx(
        0.8 * math.cos(0.4) ** 2 * math.sqrt(0.5 * 1.5), rel=1e-12
    )


def test_quadrature_closed_form_matches_engine_route():
    from holonoise.holometer import quadrature_readout

    for kind in ("TWB", "TwoSqueezed", "CoherentOnly"):
        config = make(mu=50.0, lam=0.8 if kind != "CoherentOnly" else 0.0,
                      eta=0.85, input_kind=kind)
        closed = closed_form_quadrature(config)
        engine = quadrature_readout(config)
        assert closed["mean_1"] == pytest.approx(engine.mean_1, rel=1e-10, abs=1e-12)
        assert closed["var_1"] == pytest.approx(engine.var_1, rel=1e-10)
        assert closed["var_2"] == pytest.approx(engine.var_2, rel=1e-10)
        assert closed["cov"] == pytest.approx(engine.cov, rel=1e-10, abs=1e-12)


def test_squeezed_signal_quadrature_variance():
    # [1 - eta tau + eta tau e^{-2r}] / 2 on the signal quadrature
    lam, eta, tau = 0.6, 0.8, 0.7
    phi = 2.0 * math.acos(math.sqrt(tau))
    config = make(input_kind="TwoSqueezed", lam=lam, eta=eta, phi0_1=phi, phi0_2=phi)
    r = math.asinh(math.sqrt(lam))
    expected = (1.0 - eta * tau + eta * tau * math.exp(-2 * r)) / 2.0
    assert closed_form_quadrature(config)["var_1"] == pytest.approx(expected, rel=1e-12)


def _reference_gaps(got, want):
    """Relative gaps per key; cov is measured against sqrt(var_1 var_2)."""
    gaps = {}
    for key in ("mean_1", "mean_2", "var_1", "var_2", "cov"):
        a, b = np.asarray(got[key]), np.asarray(want[key])
        assert a.dtype == np.float64 and a.shape == b.shape, key
        scale = np.sqrt(want["var_1"] * want["var_2"]) if key == "cov" else np.abs(b)
        gaps[key] = float(np.max(np.abs(a - b) / scale))
    return gaps


def test_real_closed_forms_match_complex_correlator_algebra():
    phases = ((1e-8, 1e-8), (0.3, 1.2), (2.5, 1e-8))
    angles = ((math.pi / 2, 0.0, None), (0.4, 1.3, 0.7))  # psi, theta, theta_xi
    worst = 0.0
    for kind, mu, lam, (phi_1, phi_2), (psi, theta, theta_xi), eta_2 in itertools.product(
        ("TWB", "TwoSqueezed", "CoherentOnly"), (0.1, 37.0, 3e12), (1e-3, 1.0, 10.0),
        phases, angles, (None, 0.6),
    ):
        config = HolometerConfig(
            mu=mu, psi=psi, lam=lam, eta=0.9, eta_2=eta_2, phi0_1=phi_1, phi0_2=phi_2,
            input_kind=kind, theta=theta, theta_xi=theta_xi,
        )
        pairs = [
            (closed_form_moments(config), complex_moments(config)),
            (closed_form_quadrature(config), complex_quadrature(config)),
        ]
        for got, want in pairs:
            worst = max(worst, *_reference_gaps(got, want).values())
    assert worst <= 1e-12


@pytest.mark.parametrize("kind", ["TWB", "TwoSqueezed", "CoherentOnly"])
def test_real_closed_forms_broadcast_like_the_phases(kind):
    # a configuration stacked over a (3, 4) grid of unequal phase pairs
    # gives (3, 4) arrays, equal to the complex reference on the stack and
    # to the real closed forms of each member alone
    config = make(mu=2e3, lam=3.0, eta=0.8, eta_2=0.7, input_kind=kind, theta=0.5)
    phi_1, phi_2 = np.broadcast_arrays(
        np.array([[1e-8], [0.2], [1.7]]), np.array([1e-6, 0.1, 0.9, 2.4])
    )
    stack = config.replace(phi0_1=phi_1, phi0_2=phi_2)
    for closed_form, reference in (
        (closed_form_moments, complex_moments), (closed_form_quadrature, complex_quadrature)
    ):
        got = closed_form(stack)
        assert all(np.shape(got[key]) == (3, 4) for key in got)
        assert max(_reference_gaps(got, reference(stack)).values()) <= 1e-12
        for idx in np.ndindex(3, 4):
            single = closed_form(config.replace(phi0_1=phi_1[idx], phi0_2=phi_2[idx]))
            assert all(got[key][idx] == single[key] for key in got)


# ---------------------------------------------------------------------------
# noise-reduction factors
# ---------------------------------------------------------------------------


def test_nrf_at_reference_point():
    result = nrf(make())
    assert result.nrf_minus == pytest.approx(0.12143880344496248, rel=1e-9)
    plus = nrf(make(psi=0.0))
    assert plus.nrf_plus == pytest.approx(0.12322064307939724, rel=1e-9)


def test_nrf_of_bare_twin_beam_is_loss_limited():
    # without coherent light the difference variance is pure loss noise:
    # NRF- = 1 - eta tau
    config = make(mu=0.0, lam=0.8, eta=0.9, phi0_1=0.6, phi0_2=0.6)
    expected = 1.0 - 0.9 * math.cos(0.3) ** 2
    assert nrf(config).nrf_minus == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    eta=st.floats(0.01, 1.0),
    tau=st.floats(0.01, 1.0),
    lam=st.floats(1e-3, 20.0),
    mu=st.floats(0.0, 1e8),
)
def test_nrf_minus_below_one_at_matched_phase(eta, tau, lam, mu):
    phi = 2.0 * math.acos(math.sqrt(tau))
    config = make(mu=mu, lam=lam, eta=eta, phi0_1=phi, phi0_2=phi, psi=math.pi / 2)
    closed = closed_form_moments(config)
    assume(closed["mean_1"] + closed["mean_2"] > 1e-12)
    result = nrf(config)
    assert result.nrf_minus < 1.0 + 1e-12
    assert result.nrf_minus >= 0.0
    assert result.nrf_plus >= 0.0


def test_nrf_extrema_over_coherent_phase():
    grid = np.linspace(0.0, math.pi, 41)
    minus = [nrf(make(psi=p)).nrf_minus for p in grid]
    plus = [nrf(make(psi=p)).nrf_plus for p in grid]
    assert np.argmin(minus) == np.argmin(np.abs(grid - math.pi / 2))
    assert np.argmin(plus) == 0


def test_nrf_requires_symmetric_working_point():
    with pytest.raises(ValueError):
        nrf(make(phi0_2=0.1))
    with pytest.raises(ValueError):
        nrf(make(eta_2=0.5))
    with pytest.raises(UndefinedResultError):
        nrf(make(mu=0.0, lam=0.0))


# ---------------------------------------------------------------------------
# regimes and asymptotics
# ---------------------------------------------------------------------------


def test_regime_parameter_counts_photon_ratio():
    config = make(mu=1e6, lam=10.0)  # tau = 0.9
    expected = 1e6 * 0.1 / (0.9 * 10.0)
    assert regime_parameter(config) == pytest.approx(expected, rel=1e-12)
    assert regime_parameter(make(input_kind="CoherentOnly", lam=0.0)) == math.inf
    assert regime_parameter(make(mu=0.0)) == 0.0
    # cos(pi/2) leaves a 6.1e-17 residue; phi_0 = pi still reads +inf
    assert regime_parameter(make(phi0_1=math.pi, phi0_2=math.pi)) == math.inf


def test_regime_parameter_survives_tiny_phases():
    config = make(mu=3e12, lam=10.0, phi0_1=1e-8, phi0_2=1e-8)
    expected = 3e12 * math.sin(0.5e-8) ** 2 / (math.cos(0.5e-8) ** 2 * 10.0)
    assert regime_parameter(config) == pytest.approx(expected, rel=1e-10)
    assert regime_parameter(config) > 0.0


def test_asymptotic_difference_formula_in_quantum_regime():
    # NRF-(A) = (1 - eta tau) + eta tau e^{-2r} k, linear in k
    lam, eta, tau = 2.0, 0.9, 0.8
    phi = 2.0 * math.acos(math.sqrt(tau))
    config = make(mu=1.0, lam=lam, eta=eta, phi0_1=phi, phi0_2=phi)
    k = regime_parameter(config)
    e2r = 1.0 + 2 * lam - 2 * math.sqrt(lam * (1 + lam))
    expected = (1 - eta * tau) + eta * tau * (1 + 2 * lam - 2 * math.sqrt(lam * (1 + lam))) * k
    assert nrf_asymptotic(config, "A", "-") == pytest.approx(expected, rel=1e-12)
    assert e2r == pytest.approx(math.exp(-2 * math.asinh(math.sqrt(lam))), rel=1e-12)


def test_asymptotic_sum_formula_in_quantum_regime():
    config = make(mu=0.0, lam=10.0, eta=1.0, phi0_1=0.0, phi0_2=0.0)
    assert nrf_asymptotic(config, "A", "+") == pytest.approx(22.0, rel=1e-12)
    # the exact factor at the fully transmissive, lossless point
    assert nrf(config).nrf_plus == pytest.approx(22.0, rel=1e-12)


def test_asymptotic_regime_b_formula():
    config = make()
    expected = 1.0 - 0.9 + 0.9 / 40.0
    assert nrf_asymptotic(config, "B", "-") == pytest.approx(expected, rel=1e-12)
    assert nrf_asymptotic(config, "B", "+") == pytest.approx(expected, rel=1e-12)
    # only the spellings "A"/"B" and "+"/"-" are taken
    for regime, sign in (("b", "-"), ("B", "minus")):
        with pytest.raises(ValueError, match="must be"):
            nrf_asymptotic(config, regime, sign)


def test_asymptotic_rejects_bad_arguments():
    with pytest.raises(UndefinedResultError):
        nrf_asymptotic(make(lam=0.0), "B", "-")
    with pytest.raises(ValueError):
        nrf_asymptotic(make(), "C", "-")
    with pytest.raises(ValueError):
        nrf_asymptotic(make(), "A", "0")
    with pytest.raises(UndefinedResultError):
        nrf_asymptotic(make(phi0_2=0.3), "A", "-")


# The coherent-dominated asymptote 1 - eta tau + eta tau/(4 lam) is an
# expansion of the exact plateau to leading order in 1/lam; the claim
# that the exact factor lands within 1% of it for every lam >= 5 once
# k >= 1e3 overstates its reach when eta tau -> 1, where the neglected
# eta tau/(8 lam^2) term is no longer small against 1 - eta tau.  The
# property is asserted as stated; the pinned example documents the
# counterexample family.
@settings(max_examples=40, deadline=None, derandomize=True)
@example(lam=5.0, tau=0.98, eta=1.0)
@given(
    lam=st.floats(5.0, 50.0),
    tau=st.floats(0.3, 0.999),
    eta=st.floats(0.3, 1.0),
)
def test_regime_b_asymptote_within_one_percent_for_large_occupancy(lam, tau, eta):
    mu = 2e3 * tau * lam / (1.0 - tau)  # places k at 2e3, inside regime B
    phi = 2.0 * math.acos(math.sqrt(tau))
    config = make(mu=mu, lam=lam, eta=eta, phi0_1=phi, phi0_2=phi, psi=math.pi / 2)
    assert regime_parameter(config) >= 1e3
    exact = nrf(config).nrf_minus
    approx = nrf_asymptotic(config, "B", "-")
    assert abs(exact - approx) / exact <= 0.01
