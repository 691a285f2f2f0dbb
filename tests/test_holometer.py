import math

import numpy as np
import pytest

from closed_form_reference import complex_state
from holonoise import holometer
from holonoise.config import HolometerConfig
from holonoise.crosscheck import sample_guardrail_config
from holonoise.estimation import EstimatorKind, EstimatorSpec, estimator_mean_and_square
from holonoise.fock_oracle import fock_quadrature_moments, oracle_moments
from holonoise.holometer import propagate, quadrature_readout, readout_moments
from holonoise.moments import compare_moments
from holonoise.observables import closed_form_moments


def make(**overrides):
    base = dict(
        mu=2.5, psi=0.6, lam=0.5, eta=0.8, phi0_1=0.9, phi0_2=0.9, input_kind="TWB"
    )
    base.update(overrides)
    return HolometerConfig(**base)


def test_input_state_occupancies():
    # at phi = 0 the readouts see only the quantum inputs, at phi = pi only
    # the coherent beams
    for kind, lam in (("TWB", 0.5), ("TwoSqueezed", 0.5), ("CoherentOnly", 0.0)):
        quantum = readout_moments(make(input_kind=kind, lam=lam, eta=1.0, phi0_1=0.0, phi0_2=0.0))
        assert quantum.mean_1 == pytest.approx(lam, rel=1e-12, abs=1e-15)
        assert quantum.mean_2 == pytest.approx(lam, rel=1e-12, abs=1e-15)
        coherent = readout_moments(make(input_kind=kind, lam=lam, eta=1.0,
                                        phi0_1=math.pi, phi0_2=math.pi))
        assert coherent.mean_1 == pytest.approx(2.5, rel=1e-12)
        assert coherent.mean_2 == pytest.approx(2.5, rel=1e-12)


def test_one_readout_builds_one_state(monkeypatch):
    # each readout calls propagate once
    built = []
    build = holometer.propagate
    monkeypatch.setattr(holometer, "propagate", lambda config: (built.append(1), build(config))[1])
    readout_moments(make(phi0_2=0.4, eta_2=0.6), max_order=4)
    assert len(built) == 1
    quadrature_readout(make())
    assert len(built) == 2
    # a stack of phase pairs is one state too
    phases = np.linspace(0.1, 2.0, 1_000)
    readout_moments(make(eta_2=0.6, phi0_1=phases, phi0_2=phases[::-1]), max_order=4)
    assert len(built) == 3


STACK_CONFIGS = [
    make(mu=3e12, lam=10.0, eta=0.95, psi=math.pi / 2, phi0_1=1e-8, phi0_2=1e-8),
    make(mu=3e12, lam=0.5, psi=0.0, phi0_1=1e-8, phi0_2=3e-8, eta_2=0.6, theta=4.0),
    make(input_kind="TwoSqueezed", mu=1e6, lam=3.0, psi=0.7, phi0_1=0.8, phi0_2=0.3, eta_2=0.6),
    make(input_kind="CoherentOnly", lam=0.0, mu=3e12, psi=2.5, phi0_1=1e-8, phi0_2=0.8,
         eta=0.75, eta_2=0.95),
]


def _close(stacked, scalar, rtol=1e-13) -> bool:
    return abs(stacked - scalar) <= rtol * max(abs(stacked), abs(scalar))


@pytest.mark.parametrize("config", STACK_CONFIGS)
def test_stacked_readouts_equal_the_per_point_calls(config):
    # a configuration stacked over a (3, 2) grid of unequal phase pairs;
    # the single configurations at each pair return Python floats
    phi_1, phi_2 = np.broadcast_arrays(config.phi0_1 * np.array([[1.0], [1.7], [0.4]]),
                                       config.phi0_2 * np.array([[1.0, 2.3]]))
    stack = config.replace(phi0_1=phi_1, phi0_2=phi_2)
    moments = readout_moments(stack)
    quadratures = quadrature_readout(stack)
    specs = [EstimatorSpec(kind=kind) for kind in EstimatorKind]
    surfaces = [estimator_mean_and_square(config, spec, phi_1, phi_2) for spec in specs]
    assert moments.mean_1.shape == quadratures.cov.shape == surfaces[0][1].shape == (3, 2)
    for i, j in np.ndindex(3, 2):
        p1, p2 = float(phi_1[i, j]), float(phi_2[i, j])
        point = config.replace(phi0_1=p1, phi0_2=p2)
        single = readout_moments(point)
        assert type(single.mean_1) is float and type(single.centered[(2, 2)]) is float
        for name in ("mean_1", "mean_2", "var_1", "var_2", "cov"):
            assert _close(getattr(moments, name)[i, j], getattr(single, name)), name
        for key, value in single.centered.items():
            assert _close(moments.centered[key][i, j], value), key
        single_q = quadrature_readout(point)
        for name in ("mean_1", "mean_2", "var_1", "var_2", "cov"):
            assert type(getattr(single_q, name)) is float
            assert _close(getattr(quadratures, name)[i, j], getattr(single_q, name)), name
        for spec, (mean, square) in zip(specs, surfaces, strict=True):
            single_mean, single_square = estimator_mean_and_square(config, spec, p1, p2)
            assert type(single_mean) is float and type(single_square) is float
            assert _close(mean[i, j], single_mean) and _close(square[i, j], single_square)


@pytest.mark.parametrize("name, kind", [("theta", "TWB"), ("theta_xi", "TwoSqueezed")])
def test_a_stack_over_the_input_phases_equals_the_per_member_calls(name, kind):
    # theta and theta_xi are stack fields too: oracle-check reads the
    # engine once per input kind over configurations with their own phases
    phases = np.array([0.0, 1.1, 2.9, 4.4, 6.0])
    config = make(input_kind=kind, mu=3.0, lam=0.8, psi=0.4, phi0_1=0.7, phi0_2=0.7)
    stack = config.replace(**{name: phases, "mu": np.linspace(0.5, 3.5, len(phases))})
    assert stack.shape == (len(phases),)
    moments, quadratures = readout_moments(stack), quadrature_readout(stack)
    for i, phase in enumerate(phases):
        point = config.replace(**{name: float(phase), "mu": float(stack.mu[i])})
        single, single_q = readout_moments(point), quadrature_readout(point)
        for field in ("mean_1", "mean_2", "var_1", "var_2", "cov"):
            assert _close(getattr(moments, field)[i], getattr(single, field)), field
            assert _close(getattr(quadratures, field)[i], getattr(single_q, field)), field
        for key, value in single.centered.items():
            assert _close(moments.centered[key][i], value), key
    # the phase moves the readouts, so the stack is no constant
    assert np.ptp(moments.cov if kind == "TWB" else moments.var_1) > 1e-3


def test_propagate_keeps_detected_pair_over_a_phase_stack():
    # one detected pair per configuration: a stack over the phases holds,
    # member by member, the state of each phase pair alone
    config = make()
    mean, cov = propagate(config.replace(phi0_1=0.3, phi0_2=0.5))
    assert mean.shape == (4,) and cov.shape == (4, 4)
    assert not np.array_equal(propagate(config)[1], cov)
    stack_mean, stack_cov = propagate(
        config.replace(phi0_1=np.array([0.9, 0.3]), phi0_2=np.array([0.9, 0.5])))
    assert stack_mean.shape == (2, 4) and stack_cov.shape == (2, 4, 4)
    assert np.array_equal(stack_mean[1], mean) and np.array_equal(stack_cov[1], cov)


KINDS = ("TWB", "TwoSqueezed", "CoherentOnly")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("overrides", [
    {}, {"mu": 0.0}, {"lam": 0.0}, {"phi0_1": 0.0, "phi0_2": 0.0}, {"psi": 0.0},
    {"phi0_2": 0.4, "eta_2": 0.6, "theta": 2.2, "theta_xi": 0.3},
], ids=["base", "mu0", "lam0", "phi0", "psi0", "asymmetric"])
def test_propagate_equals_the_complex_correlator_state(kind, overrides):
    # the real products give the state the complex correlators assemble,
    # bit for bit, also where a term vanishes
    config = make(input_kind=kind, **overrides)
    mean, cov = propagate(config)
    reference_mean, reference_cov = complex_state(config)
    assert np.array_equal(mean, reference_mean) and np.array_equal(cov, reference_cov)


@pytest.mark.parametrize("kind", KINDS)
def test_propagate_equals_the_complex_correlator_state_on_a_stack(kind):
    rng = np.random.default_rng(5)
    config = make(input_kind=kind, mu=10.0 ** rng.uniform(-1.0, 12.0, 40),
                  lam=10.0 ** rng.uniform(-3.0, 1.0, 40), psi=rng.uniform(0.0, 6.3, 40),
                  phi0_1=rng.uniform(-3.0, 3.0, 40), phi0_2=rng.uniform(-3.0, 3.0, 40),
                  eta_2=0.6, theta=1.3)
    mean, cov = propagate(config)
    reference_mean, reference_cov = complex_state(config)
    assert np.array_equal(mean, reference_mean) and np.array_equal(cov, reference_cov)


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


# Order-4 readouts in the bright regime, recorded with the Wick-contraction
# engine that preceded the cumulant route: all three input kinds, mu up to
# 3e12, phi0 from 1e-8 to 0.8, unequal phases and efficiencies, and the
# three configurations above.  The Fock oracle stops at mu <= 4, so these
# are the independent pins of orders 3 and 4 at large mu.
BRIGHT_PINS = [
    (
        dict(
            input_kind="TWB", mu=1000000.0, psi=1.5707963267948966, lam=10.0, eta=0.95,
            phi0_1=1e-08, phi0_2=1e-08,
        ),
        (9.500000000023748, 9.500000000023748),
        {
            (0, 2): 99.75000000047498, (1, 1): 99.27500000047326, (2, 0): 99.75000000047498,
            (0, 3): 1995.0000000142386, (1, 2): 1985.5000000141795, (2, 1): 1985.500000014179,
            (3, 0): 1995.0000000142386, (0, 4): 89650.31250085332, (1, 3): 89223.4062508498,
            (2, 2): 89082.16500084856, (3, 1): 89223.40625084977, (4, 0): 89650.31250085332,
        },
    ),
    (
        dict(
            input_kind="TWB", mu=3000000000000.0, psi=1.5707963267948966, lam=10.0, eta=0.95,
            phi0_1=0.01, phi0_2=0.01,
        ),
        (71249415.75174162, 71249415.75174162),
        {
            (0, 2): 1424954381.5988903, (1, 1): 1419777750.6121328, (2, 0): 1424954381.5988903,
            (0, 3): 42711990475.87568, (1, 2): 42540742921.01677, (2, 1): 42540742921.016785,
            (3, 0): 42711990475.87568, (0, 4): 6.091486675927697e+18,
            (1, 3): 6.069357279742005e+18, (2, 2): 6.062034409375091e+18,
            (3, 1): 6.069357279742006e+18, (4, 0): 6.091486675927697e+18,
        },
    ),
    (
        dict(
            input_kind="TWB", mu=1000000.0, psi=0.3, lam=2.0, eta=0.9, phi0_1=0.8, phi0_2=0.5,
            theta=1.1, eta_2=0.7,
        ),
        (136483.50782981396, 42847.41764616287),
        {
            (0, 2): 155475.08011344424, (1, 1): -232875.8776317598, (2, 0): 553311.6462008986,
            (0, 3): 824810.3782797744, (1, 2): -587041.24677853, (2, 1): -122339.48389807396,
            (3, 0): 3296499.129491834, (0, 4): 72523331954.85095, (1, 3): -108620861833.97504,
            (2, 2): 194486318912.84033, (3, 1): -386554435972.6702, (4, 0): 918487508613.3606,
        },
    ),
    (
        dict(
            input_kind="TWB", mu=3000000000000.0, psi=2.0, lam=0.5, eta=0.8, phi0_1=1e-08,
            phi0_2=3e-08, theta=4.0,
        ),
        (0.4000599999999998, 0.4005399999999996),
        {
            (0, 2): 0.5609719999999992, (1, 1): 0.47975058468370957, (2, 0): 0.5601079999999996,
            (0, 3): 1.010354399999998, (1, 2): 0.8640694524306769, (2, 1): 0.8636086524306772,
            (3, 0): 1.0082615999999989, (0, 4): 3.3931725943519937, (1, 3): 2.9018918441945405,
            (2, 2): 2.7902759689526633, (3, 1): 2.8981600106790437, (4, 0): 3.383596674991997,
        },
    ),
    (
        dict(
            input_kind="TwoSqueezed", mu=1000000.0, psi=1.5707963267948966, lam=10.0, eta=0.95,
            phi0_1=0.01, phi0_2=0.01,
        ),
        (33.24956458597221, 33.24956458597221),
        {
            (0, 2): 200.7408299532467, (1, 1): 0.0, (2, 0): 200.7408299532467,
            (0, 3): 7939.231499083363, (1, 2): -3.410605131648481e-13, (2, 1): 0.0,
            (3, 0): 7939.231499083363, (0, 4): 596965.5100925318,
            (1, 3): -3.001332515850663e-11, (2, 2): 40296.88081031828,
            (3, 1): -1.0913936421275139e-11, (4, 0): 596965.5100925318,
        },
    ),
    (
        dict(
            input_kind="TwoSqueezed", mu=3000000000000.0, psi=0.7, lam=3.0, eta=0.85,
            phi0_1=0.8, phi0_2=0.8, eta_2=0.6,
        ),
        (386698945584.5275, 272963961589.07825),
        {
            (0, 2): 143997608232.78, (1, 1): 0.0, (2, 0): 127870639195.84607,
            (0, 3): -22536657770.80566, (1, 2): -0.0001379766616960154, (2, 1): 0.0,
            (3, 0): -129924550431.42111, (0, 4): 6.220593353011508e+22,
            (1, 3): -0.0036323018181043665, (2, 2): 1.8413066207398411e+22,
            (3, 1): 0.0019531250000071054, (4, 0): 4.905270110484733e+22,
        },
    ),
    (
        dict(
            input_kind="TwoSqueezed", mu=3000000000000.0, psi=1.2, lam=1.0, eta=0.99,
            phi0_1=1e-08, phi0_2=0.02, theta_xi=0.4,
        ),
        (0.9900742499999996, 296990101.1219001),
        {
            (0, 2): 1231010923.32684, (1, 1): 0.0, (2, 0): 3.930607786341331,
            (0, 3): 10392712173.82535, (1, 2): 1.6042074379996052e-07,
            (2, 1): 8.881784197001252e-16, (3, 0): 23.3976846994415,
            (0, 4): 4.546163799390111e+18, (1, 3): 1.8244623412044803e-07,
            (2, 2): 4838621120.299706, (3, 1): 7.105427357601002e-15,
            (4, 0): 247.43688526076016,
        },
    ),
    (
        dict(
            input_kind="CoherentOnly", mu=1000000.0, psi=0.0, lam=0.0, eta=0.9, phi0_1=0.8,
            phi0_2=0.8,
        ),
        (136481.98079377555, 136481.98079377555),
        {
            (0, 2): 136481.98079377552, (1, 1): 0.0, (2, 0): 136481.98079377552,
            (0, 3): 136481.98079377544, (1, 2): 7.744458231407593e-28,
            (2, 1): -6.842277657836021e-49, (3, 0): 136481.98079377544,
            (0, 4): 55882129726.15833, (1, 3): -1.682276458527923e-27,
            (2, 2): 18627331081.392513, (3, 1): -1.615587133892632e-27,
            (4, 0): 55882129726.15833,
        },
    ),
    (
        dict(
            input_kind="CoherentOnly", mu=3000000000000.0, psi=2.5, lam=0.0, eta=0.75,
            phi0_1=0.01, phi0_2=0.8, eta_2=0.95,
        ),
        (56249531.25156249, 432192939180.28937),
        {
            (0, 2): 432192939180.2891, (1, 1): 0.0, (2, 0): 56249531.25156247,
            (0, 3): 432192939180.28894, (1, 2): -2.6635946346303245e-21,
            (2, 1): -6.842277657836021e-49, (3, 0): 56249531.25156245,
            (0, 4): 5.603722100323237e+23, (1, 3): -1.887971642532329e-20,
            (2, 2): 2.431065023912632e+19, (3, 1): -8.271806125530277e-25,
            (4, 0): 9492029354311042.0,
        },
    ),
    (
        dict(
            input_kind="TwoSqueezed", mu=734519263.8334394, psi=1.1330074213207362,
            lam=2.0974698552000772, eta=0.7486062719079258, phi0_1=0.32644524124576624,
            phi0_2=0.253643866811585, theta=5.161503432092518,
        ),
        (14519684.821746882, 8796620.351303503),
        {
            (0, 2): 2946327.699351802, (1, 1): 0.0, (2, 0): 4965338.116594627,
            (0, 3): -2917998.9867148073, (1, 2): -4.910149176140521e-09,
            (2, 1): 1.4901161193847656e-08, (3, 0): -4712774.89099764,
            (0, 4): 26042535835542.44, (1, 3): -8.230341919102102e-08,
            (2, 2): 14629513229570.48, (3, 1): 1.1920928955078125e-07,
            (4, 0): 73963739648343.06,
        },
    ),
    (
        dict(
            input_kind="TwoSqueezed", mu=316561304605.78906, psi=3.2763696676647194,
            lam=0.09742878755294625, eta=0.5492451053005876, phi0_1=1.322832213927209,
            phi0_2=1.322832213927209, theta=4.743559559428867, eta_2=0.5136162344328989,
        ),
        (65598373497.611755, 61343085729.1432),
        {
            (0, 2): 52335286069.77955, (1, 1): 0.0, (2, 0): 55297510188.53797,
            (0, 3): 36303784561.0771, (1, 2): -2.627759035248663e-07, (2, 1): 0.0,
            (3, 0): 37122088810.63847, (0, 4): 8.216946504026594e+21,
            (1, 3): -8.501700184819969e-07, (2, 2): 2.894011014663684e+21,
            (3, 1): -3.72529029846191e-07, (4, 0): 9.173443899161662e+21,
        },
    ),
    (
        dict(
            input_kind="TwoSqueezed", mu=64889680.203984946, psi=4.314278266360316,
            lam=5.641042357660584, eta=0.9767577752737463, phi0_1=1.8975586117465109,
            phi0_2=2.5, theta=2.353501407081778, eta_2=0.9764221377045114,
        ),
        (41862795.34300878, 57059978.36198688),
        {
            (0, 2): 51746265.15023896, (1, 1): 0.0, (2, 0): 28546363.074015047,
            (0, 3): 41861100.10021931, (1, 2): -4.05825573146501e-09,
            (2, 1): -7.4505797087454084e-09, (3, 0): 8267442.426546286,
            (0, 4): 8033027895175832.0, (1, 3): 6.155836085319777e-08,
            (2, 2): 1477167672702972.2, (3, 1): 5.9604642999033786e-08,
            (4, 0): 2444684516990246.5,
        },
    ),
]


@pytest.mark.parametrize(
    "case, means, centered", BRIGHT_PINS,
    ids=[f"{case['input_kind']}-{case['mu']:g}-{case['phi0_1']:g}" for case, _, _ in BRIGHT_PINS],
)
def test_bright_readouts_match_recorded_moments(case, means, centered):
    m = readout_moments(HolometerConfig(**case), max_order=4)
    assert m.mean_1 == pytest.approx(means[0], rel=1e-12)
    assert m.mean_2 == pytest.approx(means[1], rel=1e-12)
    sd_1, sd_2 = math.sqrt(centered[(2, 0)]), math.sqrt(centered[(0, 2)])
    for (p, q), value in centered.items():
        assert abs(m.centered[(p, q)] - value) <= 1e-10 * sd_1**p * sd_2**q, (p, q)


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
