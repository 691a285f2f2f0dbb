import math

import numpy as np
import pytest

from holonoise.config import HolometerConfig
from holonoise.crosscheck import sample_guardrail_config
from holonoise.fock_oracle import fock_quadrature_moments, oracle_moments
from holonoise.holometer import build_input, propagate, quadrature_readout, readout_moments
from holonoise.moments import compare_moments
from holonoise.observables import closed_form_moments


def make(**overrides):
    base = dict(
        mu=2.5, psi=0.6, lam=0.5, eta=0.8, phi0_1=0.9, phi0_2=0.9, input_kind="TWB"
    )
    base.update(overrides)
    return HolometerConfig(**base)


def test_input_state_occupancies():
    config = make()
    state = build_input(config)
    from holonoise.gaussian_engine import mean_photon

    assert mean_photon(state, 0) == pytest.approx(config.lam, rel=1e-12)
    assert mean_photon(state, 1) == pytest.approx(config.lam, rel=1e-12)
    assert mean_photon(state, 2) == pytest.approx(config.mu, rel=1e-12)


def test_propagate_keeps_detected_pair_and_phase_overrides():
    config = make()
    prop = propagate(config, phi_1=0.3, phi_2=0.5)
    assert prop.state.n_modes == 2
    assert prop.phi_1 == 0.3 and prop.phi_2 == 0.5
    default = propagate(config)
    assert default.phi_1 == config.phi0_1


def test_engine_matches_oracle_across_kinds_and_asymmetries():
    rng = np.random.default_rng(11)
    configs = [sample_guardrail_config(rng) for _ in range(6)]
    configs.append(make(phi0_2=0.4))           # asymmetric transmissivities
    configs.append(make(eta=0.9, eta_2=0.5))   # asymmetric efficiencies
    configs.append(make(input_kind="TwoSqueezed", theta_xi=1.1, mu=1.0))
    for config in configs:
        result = compare_moments(readout_moments(config), oracle_moments(config))
        assert result.ok, (config, result.worst_field, result.max_relative)


def test_first_and_second_moments_match_closed_forms():
    # closed forms are exact for every input kind, so the engine must hit
    # them to near machine precision even at bright coherent powers
    for config in (
        make(mu=1e6),
        make(mu=1e6, input_kind="TwoSqueezed"),
        make(mu=1e6, input_kind="CoherentOnly", lam=0.0),
        make(mu=3e12, lam=10.0, phi0_1=1e-3, phi0_2=1e-3),
    ):
        engine = readout_moments(config, max_order=2)
        closed = closed_form_moments(config)
        assert engine.mean_1 == pytest.approx(closed["mean_1"], rel=1e-10)
        assert engine.mean_2 == pytest.approx(closed["mean_2"], rel=1e-10)
        assert engine.var_1 == pytest.approx(closed["var_1"], rel=1e-10)
        assert engine.var_2 == pytest.approx(closed["var_2"], rel=1e-10)
        assert engine.cov == pytest.approx(closed["cov"], rel=1e-10, abs=1e-12)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(mu=734519263.8334394, psi=1.1330074213207362, lam=2.0974698552000772,
             eta=0.7486062719079258, phi0_1=0.32644524124576624, phi0_2=0.253643866811585,
             theta=5.161503432092518),
        dict(mu=316561304605.78906, psi=3.2763696676647194, lam=0.09742878755294625,
             eta=0.5492451053005876, phi0_1=1.322832213927209, phi0_2=1.322832213927209,
             theta=4.743559559428867, eta_2=0.5136162344328989),
        dict(mu=64889680.203984946, psi=4.314278266360316, lam=5.641042357660584,
             eta=0.9767577752737463, phi0_1=1.8975586117465109, phi0_2=2.5,
             theta=2.353501407081778, eta_2=0.9764221377045114),
    ],
)
def test_bright_independent_squeezed_inputs_have_vanishing_cross_moments(overrides):
    # these once raised "imaginary residue" on the exactly-zero (1, 3)
    # cross moment, judged against 1 + |real| instead of its scale
    m = readout_moments(make(input_kind="TwoSqueezed", **overrides))
    sd_1, sd_2 = math.sqrt(m.var_1), math.sqrt(m.var_2)
    for p, q in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3)):
        assert abs(m.centered[(p, q)]) <= 1e-8 * sd_1**p * sd_2**q, (p, q)
    assert m.centered[(2, 2)] == pytest.approx(m.var_1 * m.var_2, rel=1e-8)


def test_symmetric_configs_have_exchange_symmetric_moments():
    for kind in ("TWB", "TwoSqueezed", "CoherentOnly"):
        moments = readout_moments(make(input_kind=kind))
        assert moments.mean_1 == pytest.approx(moments.mean_2, rel=1e-12)
        assert moments.var_1 == pytest.approx(moments.var_2, rel=1e-12)
        for (p, q), value in moments.centered.items():
            assert moments.centered[(q, p)] == pytest.approx(value, rel=1e-10, abs=1e-12)


def test_detected_occupancy_monotonicity_in_transmissivity():
    taus = np.linspace(0.05, 0.95, 10)
    phis = 2.0 * np.arccos(np.sqrt(taus))
    coherent = [
        readout_moments(make(input_kind="CoherentOnly", lam=0.0, phi0_1=p, phi0_2=p)).mean_1
        for p in phis
    ]
    assert all(a >= b - 1e-12 for a, b in zip(coherent, coherent[1:], strict=False))
    twin = [
        readout_moments(make(mu=0.0, phi0_1=p, phi0_2=p)).mean_1 for p in phis
    ]
    assert all(a <= b + 1e-12 for a, b in zip(twin, twin[1:], strict=False))


def test_quadrature_readout_matches_oracle():
    config = make(mu=1.2, eta=0.75)
    engine = quadrature_readout(config)
    oracle = fock_quadrature_moments(config)
    result = compare_moments(engine, oracle, rtol=1e-8)
    assert result.ok, (result.worst_field, result.max_relative)


def test_quadrature_angle_override():
    config = make()
    default = quadrature_readout(config)
    pinned = quadrature_readout(
        config, chi_1=config.signal_quadrature_angle, chi_2=config.signal_quadrature_angle
    )
    assert default == pinned
    rotated = quadrature_readout(config, chi_1=0.0, chi_2=0.0)
    assert rotated != default
