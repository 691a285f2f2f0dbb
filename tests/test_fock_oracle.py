import math

import numpy as np
import pytest

import fock_reference as reference
from holonoise import fock_oracle
from holonoise.config import HolometerConfig, InputKind
from holonoise.crosscheck import DEFAULT_SEED, _mis_phased, sample_guardrail_config
from holonoise.fock_oracle import (
    CutoffError,
    fock_joint_pmf,
    fock_quadrature_moments,
    oracle_moments,
)
from holonoise.holometer import quadrature_readout, readout_moments
from holonoise.moments import CENTERED_KEYS, QuadratureMoments, ReadoutMoments, compare_moments
from holonoise.observables import closed_form_quadrature


def make(**overrides):
    base = dict(
        mu=1.5, psi=0.8, lam=0.4, eta=0.85, phi0_1=0.7, phi0_2=0.7, input_kind="TWB"
    )
    base.update(overrides)
    return HolometerConfig(**base)


# ---------------------------------------------------------------------------
# input construction
# ---------------------------------------------------------------------------


def test_twin_beam_amplitudes_are_geometric():
    # pair amplitude c_m = (lam/(1+lam))^{m/2} / sqrt(1+lam)
    lam = 0.5
    config = make(mu=0.0, lam=lam)
    amp = reference.input_state(config, cutoff=25)[:, :, 0, 0]
    base = 1.0 / math.sqrt(1.0 + lam)
    ratio = math.sqrt(lam / (1.0 + lam))
    for m in range(6):
        assert abs(amp[m, m]) == pytest.approx(base * ratio**m, rel=1e-12)
    off_diagonal = amp - np.diag(np.diag(amp))
    assert np.max(np.abs(off_diagonal)) == 0.0


def test_coherent_amplitudes_are_poissonian():
    config = make(mu=1.0, lam=0.0, input_kind="CoherentOnly", psi=0.0)
    prob = np.abs(reference.input_state(config, cutoff=30)) ** 2
    marginal = prob.sum(axis=(0, 1, 3))
    for n in range(6):
        assert marginal[n] == pytest.approx(math.exp(-1.0) / math.factorial(n), rel=1e-10)


def test_input_norm_is_one():
    for kind in ("TWB", "TwoSqueezed", "CoherentOnly"):
        amp = reference.input_state(make(input_kind=kind))
        assert np.vdot(amp, amp).real == pytest.approx(1.0, abs=3e-10)


def test_envelope_guard_raises_beyond_tractable_means():
    with pytest.raises(CutoffError):
        oracle_moments(make(mu=25.0))
    with pytest.raises(CutoffError):
        fock_joint_pmf(make(lam=3.0))


def test_joint_pmf_rejects_mass_drift(monkeypatch):
    # pair amplitudes that lost 19% of their norm leave the joint
    # distribution with total mass 0.81
    twb_weights = fock_oracle._twb_weights
    monkeypatch.setattr(
        fock_oracle, "_twb_weights", lambda *args: 0.9 * twb_weights(*args)
    )
    with pytest.raises(CutoffError, match="mass"):
        fock_joint_pmf(make())


# ---------------------------------------------------------------------------
# beam splitter
# ---------------------------------------------------------------------------


def counted_chunks(monkeypatch):
    """The phases of the members of every chunk, one list per
    _chunk_tables call."""
    chunks = []
    tables = fock_oracle._chunk_tables

    def counted(chunk, squeezed):
        chunks.append([member[2] for member in chunk])
        return tables(chunk, squeezed)

    monkeypatch.setattr(fock_oracle, "_chunk_tables", counted)
    return chunks


@pytest.mark.parametrize("phi0_2, phases", [(0.7, [0.7]), (1.9, [0.7, 1.9])])
def test_each_distinct_phase_is_one_batch_member(monkeypatch, phi0_2, phases):
    chunks = counted_chunks(monkeypatch)
    fock_joint_pmf(make(phi0_1=0.7, phi0_2=phi0_2))
    assert chunks == [phases]


def test_every_oracle_route_reads_the_chunk_tables(monkeypatch):
    # one beam splitter: the moments, the mis-phased control and the
    # quadrature route all read displacement tables and binomial splits
    chunks = counted_chunks(monkeypatch)
    configs = [make(), make(input_kind="TwoSqueezed"), make(input_kind="CoherentOnly", phi0_2=1.3)]
    oracle_moments(configs)
    assert sorted(phi for chunk in chunks for phi in chunk) == [0.7, 0.7, 0.7, 1.3]
    for call, phases in ((lambda: fock_joint_pmf(_mis_phased(make())), [[0.7]]),
                         (lambda: fock_quadrature_moments(configs[0]), [[0.7]]),
                         (lambda: fock_quadrature_moments(configs[1]), [[0.7]]),
                         (lambda: fock_quadrature_moments(configs[2]), [[0.7, 1.3]])):
        chunks.clear()
        call()
        assert chunks == phases


def test_unbalanced_coincidence_matches_closed_form():
    # for |1,1> input: P(1,1) = (1 - 2 tau)^2 under a unitary convention
    block = np.zeros((2, 2, 1), dtype=complex)
    block[1, 1, 0] = 1.0
    for tau in (0.2, 0.35, 0.8):
        out = reference.sector_beam_splitter(block, 2.0 * math.acos(math.sqrt(tau)))
        pmf = np.abs(out[:, :, 0]) ** 2
        assert pmf[1, 1] / pmf.sum() == pytest.approx((1.0 - 2.0 * tau) ** 2, rel=1e-12)


def test_schmidt_and_dense_routes_agree():
    # equal phases share one transform; unequal ones take one per arm
    for phi0_2 in (0.7, 2.1):
        config = make(phi0_2=phi0_2)
        schmidt = fock_joint_pmf(config)
        dense = reference.detected_pmf(config, coherent_tail=reference.DEEP_TAIL)
        r = min(schmidt.shape[0], dense.shape[0])
        c = min(schmidt.shape[1], dense.shape[1])
        assert np.max(np.abs(schmidt[:r, :c] - dense[:r, :c])) < 1e-13, phi0_2


def padded_difference(a, b):
    shape = np.maximum(a.shape, b.shape)
    pad = [np.pad(x, [(0, shape[0] - x.shape[0]), (0, shape[1] - x.shape[1])]) for x in (a, b)]
    return np.max(np.abs(pad[0] - pad[1]))


# the real twin-beam route folds the pair phase theta and the coherent
# phase psi into one kernel angle theta + pi - 2 psi; the grid puts
# theta - 2 psi at 0, pi/2, pi and off those points
PHASE_GRID = [
    (0.0, 0.0), (0.5 * math.pi, 0.0), (math.pi, 0.0), (1.3, 0.65),
    (0.5 * math.pi + 1.0, 0.5), (math.pi + 0.6, 0.3), (2.1, 0.5), (0.4, 1.2),
]


@pytest.mark.parametrize("phi0_2", [0.7, 2.1], ids=["equal-phases", "unequal-phases"])
@pytest.mark.parametrize("theta, psi", PHASE_GRID)
def test_twin_beam_phases_fold_into_the_kernel(theta, psi, phi0_2):
    config = make(mu=0.8, lam=0.3, theta=theta, psi=psi, phi0_2=phi0_2)
    dense = reference.detected_pmf(config, coherent_tail=reference.DEEP_TAIL)
    assert padded_difference(fock_joint_pmf(config), dense) < 1e-13


@pytest.mark.parametrize(
    "config",
    [make(mu=4.0, lam=1.0, theta=0.9, psi=1.7, phi0_1=0.9, phi0_2=2.1),
     make(mu=1.0, lam=0.0, input_kind="CoherentOnly", phi0_2=2.1)],
    ids=["envelope-edge", "coherent-only"],
)
def test_pair_diagonal_pmf_matches_dense_reference(config):
    dense = reference.detected_pmf(config, coherent_tail=reference.DEEP_TAIL)
    assert padded_difference(fock_joint_pmf(config), dense) < 1e-13


def complex_arm_pmf(config):
    # p(n1, n2) = sum_{m m'} c_m conj(c_m') W1[n1, m, m'] W2[n2, m, m'] on
    # the reference's complex arms, normalized as fock_joint_pmf
    # normalizes; the oracle's coherent port is exact, so the
    # reference's is built deep
    weights, block = reference._arm_block(config, reference.DEEP_TAIL)
    arms = (reference.sector_beam_splitter(block, phi) for phi in (config.phi0_1, config.phi0_2))
    w1, w2 = (np.einsum("nkm,nkM->nmM", arm, arm.conj()) for arm in arms)
    pmf = np.einsum("m,M,nmM,NmM->nN", weights, weights.conj(), w1, w2).real
    return np.clip(pmf, 0.0, None) / pmf.sum()


@pytest.mark.parametrize("convention", ["real-symmetric", "i"])
@pytest.mark.parametrize(
    "config",
    [make(theta=0.4, phi0_2=2.1), make(mu=4.0, lam=1.0, psi=0.3, phi0_1=0.9, phi0_2=0.9),
     make(input_kind="CoherentOnly", phi0_2=1.3)],
    ids=["twb", "twb-edge", "coherent"],
)
def test_real_route_matches_complex_arm_contraction(config, convention):
    # the input each convention feeds the oracle: under "real-symmetric"
    # the mis-phased one, twin beams at theta + pi (coherent-only input
    # has no quantum photons, so it is unchanged)
    if convention == "real-symmetric":
        config = _mis_phased(config)
    got = fock_joint_pmf(config)
    expected = complex_arm_pmf(config)
    assert padded_difference(got, expected) < 1e-12 * np.max(expected)


# ---------------------------------------------------------------------------
# displacement matrix elements
# ---------------------------------------------------------------------------

SIZE = 200
# every fifth photon number and the last, 41 x 41 entries per x^2: the
# diagonals, small counts and the far corners alike
GRID = list(range(0, SIZE, 5)) + [SIZE - 1]


@pytest.mark.parametrize("square", [0.0, 1e-6, 1e-2, 1.0, 4.0])
def test_displacement_matrix_elements_match_the_laguerre_closed_form(square):
    # <n|D(x)|q> = e^(-x^2/2) sqrt(q!/n!) x^(n-q) L_q^(n-q)(x^2) for n >= q,
    # and (-1)^(q-n) the same with n and q swapped, in 50 digits
    mpmath = pytest.importorskip("mpmath")
    x = math.sqrt(square)
    tables = fock_oracle._displacement_tables(np.array([x]), SIZE, SIZE)
    elements = fock_oracle._matrix_elements(tables)[0]
    with mpmath.workdps(50):
        t = mpmath.mpf(x) ** 2
        for n in GRID:
            for q in GRID:
                low, high = min(n, q), max(n, q)
                exact = (mpmath.exp(-t / 2) * mpmath.sqrt(mpmath.factorial(low) / mpmath.factorial(high))
                         * mpmath.mpf(x) ** (high - low)
                         * mpmath.laguerre(low, high - low, t, zeroprec=400))
                sign = (-1) ** (q - n) if n < q else 1
                assert abs(sign * float(exact) - elements[n, q]) <= 1e-14, (n, q)
    # the columns of a unitary: their mass over n < 200 for q < 40
    assert np.max(np.abs((elements[:, :40] ** 2).sum(axis=0) - 1.0)) <= 1e-13


# the zero branches of the tables: x = 0 (phi0 = 0), cos(phi/2) = 0
# (phi0 = pi), a dark coherent port, two phases far apart, and a
# quantum port in vacuum (one photon number, no odd parity)
TABLE_EDGES = {
    "phi0-zero": dict(phi0_1=0.0, phi0_2=0.0),
    "phi0-pi": dict(phi0_1=math.pi, phi0_2=math.pi),
    "dark": dict(mu=0.0),
    "unequal-phases": dict(phi0_1=0.3, phi0_2=2.9),
    "quantum-vacuum": dict(lam=0.0),
}


@pytest.mark.parametrize("kind", ["TWB", "TwoSqueezed", "CoherentOnly"])
@pytest.mark.parametrize("edge", list(TABLE_EDGES))
def test_the_oracle_meets_the_engine_at_the_edges_of_its_tables(kind, edge):
    config = make(input_kind=kind, **TABLE_EDGES[edge])
    result = compare_moments(readout_moments(config), oracle_moments(config), rtol=1e-8)
    assert result.ok, (result.worst_field, result.max_relative)


# ---------------------------------------------------------------------------
# loss and moments
# ---------------------------------------------------------------------------


def test_coherent_only_moments_stay_poissonian_under_loss():
    # full reflection puts the whole coherent beam on the detector
    config = make(mu=1.0, lam=0.0, eta=0.5, phi0_1=math.pi, phi0_2=math.pi,
                  input_kind="CoherentOnly")
    moments = oracle_moments(config)
    assert moments.mean_1 == pytest.approx(0.5, rel=1e-10)
    assert moments.var_1 == pytest.approx(0.5, rel=1e-10)
    assert moments.cov == pytest.approx(0.0, abs=1e-12)


def test_factorial_and_thinning_loss_agree():
    config = make(eta=0.65, eta_2=0.4)
    a = oracle_moments(config)
    b = reference.thinned_moments(fock_joint_pmf(config), config.eta_pair)
    result = compare_moments(a, b, rtol=1e-10)
    assert result.ok, (result.worst_field, result.max_relative)


def test_lossy_twin_beam_difference_fourth_moment():
    # Var[(N1 - N2)^2] = 2 eta (1-eta) lam + 20 eta^2 (1-eta)^2 lam^2
    # for a bare twin beam under symmetric loss
    lam, eta = 0.3, 0.7
    config = make(mu=0.0, lam=lam, eta=eta, phi0_1=0.0, phi0_2=0.0)
    moments = oracle_moments(config)
    d2 = moments.signed_sum_moment(-1, 2)
    d4 = moments.signed_sum_moment(-1, 4)
    eps = 1.0 - eta
    expected = 2 * eta * eps * lam + 20 * eta**2 * eps**2 * lam**2
    assert d4 - d2**2 == pytest.approx(expected, rel=1e-9)
    assert d4 - d2**2 == pytest.approx(0.205380, abs=1e-6)


def test_state_level_moments_match_config_level():
    config = make()
    via_state = reference.thinned_moments(
        reference.detected_pmf(config, coherent_tail=reference.DEEP_TAIL), config.eta_pair)
    via_config = oracle_moments(config)
    result = compare_moments(via_state, via_config, rtol=1e-10)
    assert result.ok, (result.worst_field, result.max_relative)


def test_asymmetric_efficiencies_scale_each_port():
    config = make(eta=0.9, eta_2=0.4)
    lossy = oracle_moments(config)
    bare = oracle_moments(make(eta=1.0))
    assert lossy.mean_1 == pytest.approx(0.9 * bare.mean_1, rel=1e-10)
    assert lossy.mean_2 == pytest.approx(0.4 * bare.mean_2, rel=1e-10)
    assert lossy.cov == pytest.approx(0.36 * bare.cov, rel=1e-9)


def test_cutoff_override_converges():
    config = make(mu=0.8, lam=0.3)
    pinned = reference.thinned_moments(reference.detected_pmf(config, cutoff=50), config.eta_pair)
    auto = oracle_moments(config)
    result = compare_moments(pinned, auto, rtol=1e-7)
    assert result.ok, (result.worst_field, result.max_relative)


@pytest.mark.parametrize(
    "config",
    [make(eta=0.8),
     make(eta=0.8, theta=0.9, phi0_2=2.1),
     make(eta=0.8, eta_2=0.45, theta=2.6, psi=0.3, phi0_2=1.6),
     make(eta=0.8, input_kind="TwoSqueezed"),
     make(eta=0.7, eta_2=0.5, input_kind="TwoSqueezed", theta_xi=1.1, phi0_2=2.1),
     make(mu=1.0, lam=0.0, eta=0.8, input_kind="CoherentOnly"),
     make(mu=1.0, lam=0.0, eta=0.6, eta_2=0.9, input_kind="CoherentOnly", phi0_2=1.3),
     make(mu=4.0, lam=1.0, theta=0.9, psi=1.7, phi0_1=0.9, phi0_2=2.1),
     make(mu=4.0, lam=1.0, psi=1.7, phi0_1=0.9, phi0_2=2.1, input_kind="TwoSqueezed")],
    ids=["twb", "twb-unequal-phases", "twb-eta2", "squeezed", "squeezed-unequal-eta2",
         "coherent", "coherent-unequal-eta2", "twb-edge", "squeezed-edge"],
)
def test_quadrature_route_matches_engine(config):
    # the worst margin over these is 1.5e-5 of the allowance (twb-unequal-phases)
    oracle = fock_quadrature_moments(config)
    engine = quadrature_readout(config)
    result = compare_moments(oracle, engine, rtol=1e-8)
    assert result.ok, (result.worst_field, result.max_relative)


@pytest.mark.parametrize(
    "config",
    [make(eta=0.8),
     make(eta=0.8, theta=0.9, phi0_2=2.1),
     make(mu=4.0, lam=1.0, theta=0.9, psi=1.7, phi0_1=0.9, phi0_2=2.1),
     make(eta=0.8, input_kind="TwoSqueezed"),
     make(eta=0.7, eta_2=0.5, input_kind="TwoSqueezed", theta_xi=1.1, phi0_2=2.1),
     make(mu=1.0, lam=0.0, eta=0.8, input_kind="CoherentOnly"),
     make(mu=1.0, lam=0.0, eta=0.6, eta_2=0.9, input_kind="CoherentOnly", phi0_2=1.3)],
    ids=["twb", "twb-unequal-phases", "twb-edge", "squeezed", "squeezed-unequal-eta2",
         "coherent", "coherent-unequal-eta2"],
)
def test_the_mis_phased_control_reaches_the_quadrature_route(config):
    # the broken convention is an input, so the quadrature route sees it
    # with no plumbing: quantum light moves off the closed form beyond
    # rtol 1e-8, and coherent-only input, which has no quantum photons,
    # stays on it
    closed = QuadratureMoments(**closed_form_quadrature(config))
    result = compare_moments(fock_quadrature_moments(_mis_phased(config)), closed, rtol=1e-8)
    assert result.ok == (config.input_kind is InputKind.COHERENT_ONLY), (
        result.worst_field, result.max_relative)


def test_engine_agrees_on_default_config():
    config = make()
    result = compare_moments(readout_moments(config), oracle_moments(config))
    assert result.ok, (result.worst_field, result.max_relative)


# ---------------------------------------------------------------------------
# the whole configuration set in one batch
# ---------------------------------------------------------------------------

EDGE = make(mu=4.0, lam=1.0, theta=0.9, psi=1.7, phi0_1=0.9, phi0_2=2.1)


def drawn(seed, n=100):
    rng = np.random.default_rng(seed)
    return [sample_guardrail_config(rng) for _ in range(n)]


def assert_same_moments(batched, single, rtol=1e-13):
    """Every moment within rtol of the larger value, or of the moment's
    scale sd1^p sd2^q for entries that are zero but for roundoff."""
    sd1, sd2 = math.sqrt(single.var_1), math.sqrt(single.var_2)
    for name in ("mean_1", "mean_2", "var_1", "var_2", "cov"):
        a, b = getattr(batched, name), getattr(single, name)
        assert abs(a - b) <= rtol * max(abs(a), abs(b), sd1 * sd2), name
    for p, q in CENTERED_KEYS:
        a, b = batched.centered[(p, q)], single.centered[(p, q)]
        assert abs(a - b) <= rtol * max(abs(a), abs(b), sd1**p * sd2**q), (p, q)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1000, 1003])
def test_batched_moments_equal_the_single_configuration_calls(seed):
    # every input kind, unequal phases and the envelope-edge twin-beam
    # block run alongside the drawn set
    configs = drawn(seed) + [
        EDGE,
        make(input_kind="TwoSqueezed", lam=1.0, phi0_1=0.4, phi0_2=2.6),
        make(input_kind="CoherentOnly", lam=0.0, mu=4.0, phi0_1=2.2, phi0_2=0.3),
    ]
    assert {config.input_kind for config in configs} == set(InputKind)
    batched = oracle_moments(configs)
    assert batched.mean_1.shape == batched.centered[(1, 3)].shape == (len(configs),)
    for index, config in enumerate(configs):
        single = oracle_moments(config)
        assert {type(single.cov)} == set(map(type, single.centered.values())) == {float}
        assert_same_moments(reference.member(batched, index), single)


def test_port_cutoffs_at_the_envelope_edge():
    # the (49, 26, 49) twin-beam block the batched runs above include
    assert fock_oracle.port_cutoffs(EDGE) == (49, 26)
    assert fock_oracle.port_cutoffs(make(input_kind="CoherentOnly", lam=0.0))[0] == 1


def test_the_default_set_runs_one_recurrence_per_chunk(monkeypatch):
    # each phase is one batch member, and the hundred configurations
    # share fewer than half as many chunks, one displacement-table
    # recurrence each
    chunks = counted_chunks(monkeypatch)
    configs = drawn(DEFAULT_SEED)
    oracle_moments(configs)
    assert sorted(phi for chunk in chunks for phi in chunk) == sorted(c.phi0_1 for c in configs)
    assert len(chunks) < len(configs) / 2
    assert max(map(len, chunks)) > 5


def test_a_mass_drift_inside_a_batch_names_its_configuration(monkeypatch):
    # the pair weights are built for the set at once, one row per configuration
    twb_weights = fock_oracle._twb_weights
    monkeypatch.setattr(fock_oracle, "_twb_weights",
                        lambda lam, *args: np.where(lam == 0.3, 0.9, 1.0)[:, None]
                        * twb_weights(lam, *args))
    with pytest.raises(CutoffError, match="configuration 1: joint distribution mass"):
        oracle_moments([make(), make(mu=0.8, lam=0.3), make(lam=0.5)])


def test_a_negative_entry_inside_a_batch_names_its_configuration(monkeypatch):
    # the second configuration's detected distribution moves 1e-6 of mass
    # onto its vacuum entry from its last one, which turns negative
    grams = fock_oracle._squeezed_grams

    def skewed(chunk, tables):
        for key, gram in grams(chunk, tables):
            if key[0] == 1:
                gram = gram.copy()
                gram[-1] -= 1e-6
                gram[0] += 1e-6
            yield key, gram

    monkeypatch.setattr(fock_oracle, "_squeezed_grams", skewed)
    squeezed = [make(input_kind="TwoSqueezed", lam=lam) for lam in (0.2, 0.5, 0.8)]
    with pytest.raises(CutoffError, match="configuration 1: joint distribution has negative entry"):
        oracle_moments(squeezed)


def test_a_negative_entry_of_a_packed_distribution_names_its_configuration(monkeypatch):
    # the second configuration's Gram rows G[0] + 2 G[1] and -G[1] keep
    # the distribution's mass and turn p(0, 1) into -p(0, 1) - 2 p(1, 1)
    grams = fock_oracle._pair_diagonal_grams

    def skewed(chunk, tables):
        for key, gram in grams(chunk, tables):
            if key[0] == 1:
                gram = gram.copy()
                gram[0] += 2.0 * gram[1]
                gram[1] *= -1.0
            yield key, gram

    monkeypatch.setattr(fock_oracle, "_pair_diagonal_grams", skewed)
    with pytest.raises(CutoffError, match="configuration 1: joint distribution has negative entry"):
        oracle_moments([make(), make(mu=0.8, lam=0.3), make(lam=0.5)])


# ---------------------------------------------------------------------------
# the packed product, the set-built inputs and the stacked readout
# ---------------------------------------------------------------------------

EDGE_EQUAL = EDGE.replace(phi0_2=EDGE.phi0_1)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1000, 1003])
def test_packed_distributions_are_symmetric_and_equal_the_general_product(monkeypatch, seed):
    # an equal-phase configuration passes one Gram array as both arms,
    # one packed factor times its own transpose; a copy of it takes the
    # product of two packed factors, as unequal phases do
    checked = fock_oracle._checked_pmf
    packed = []

    def both(index, kernel, gram1, gram2):
        pmf = checked(index, kernel, gram1, gram2)
        if kernel is not None and gram1 is gram2:
            general = checked(index, kernel, gram1, gram2.copy())
            packed.append((gram1.shape, np.max(np.abs(pmf - general))))
        return pmf

    monkeypatch.setattr(fock_oracle, "_checked_pmf", both)
    configs = drawn(seed) + [EDGE_EQUAL]
    pmfs = dict(fock_oracle._joint_pmfs(configs, fock_oracle._port_magnitudes(configs)))
    assert len(pmfs) == len(configs)
    for pmf in pmfs.values():
        assert np.array_equal(pmf, pmf.T)
    assert (74, 49, 49) in [shape for shape, _ in packed]  # the (49, 26, 49) edge block
    assert len(packed) > 50
    assert max(difference for _, difference in packed) < 1e-13


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1000, 1003])
def test_set_built_inputs_equal_the_one_configuration_builds(seed):
    configs = drawn(seed) + [EDGE, make(mu=0.0, lam=0.5), make(mu=0.0, input_kind="TwoSqueezed")]
    pairs, quantum, (quantum_cutoffs, coherent_cutoffs) = fock_oracle._port_magnitudes(configs)
    for i, config in enumerate(configs):
        [one_pairs], [one_quantum], one_cutoffs = fock_oracle._port_magnitudes([config])
        assert np.array_equal(pairs[i], one_pairs)
        assert (quantum[i] is None) == (one_quantum is None)
        if quantum[i] is not None:
            assert np.array_equal(quantum[i], one_quantum)
        cutoff = len(pairs[i] if quantum[i] is None else quantum[i]), coherent_cutoffs[i]
        assert cutoff == (quantum_cutoffs[i], coherent_cutoffs[i]) == fock_oracle.port_cutoffs(config)
        assert [array.tolist() for array in one_cutoffs] == [[cutoff[0]], [cutoff[1]]]
    # the set form reads the same cutoffs from one set-built pass
    set_cutoffs = np.column_stack(fock_oracle.port_cutoffs(configs))
    assert set_cutoffs.tolist() == [list(fock_oracle.port_cutoffs(config)) for config in configs]
    assert fock_oracle.port_cutoffs(configs[-2]) == (fock_oracle.port_cutoffs(make(lam=0.5))[0], 1)


def looped_readout(pmf, eta_pair):
    """The moment readout one configuration at a time, with the centering
    matrices built entry by entry: the reference for the stacked one."""
    def falling(length):
        n = np.arange(length, dtype=float)
        ff = np.ones((5, length))
        for j in range(1, 5):
            ff[j] = ff[j - 1] * (n - (j - 1))
        return ff

    eta1, eta2 = eta_pair
    fact = falling(pmf.shape[0]) @ pmf @ falling(pmf.shape[1]).T
    fact *= np.multiply.outer(eta1 ** np.arange(5.0), eta2 ** np.arange(5.0))
    raw = fock_oracle._STIRLING @ fact @ fock_oracle._STIRLING.T
    u1, u2 = np.zeros((5, 5)), np.zeros((5, 5))
    for p in range(5):
        for i in range(p + 1):
            u1[p, i] = math.comb(p, i) * (-raw[1, 0]) ** (p - i)
            u2[p, i] = math.comb(p, i) * (-raw[0, 1]) ** (p - i)
    cen = u1 @ raw @ u2.T
    centered = {(p, q): float(cen[p, q]) for p, q in CENTERED_KEYS}
    return ReadoutMoments(mean_1=float(raw[1, 0]), mean_2=float(raw[0, 1]), var_1=centered[(2, 0)],
                          var_2=centered[(0, 2)], cov=centered[(1, 1)], centered=centered)


def test_stacked_readout_equals_the_looped_formula():
    configs = drawn(DEFAULT_SEED) + [EDGE, make(eta=0.65, eta_2=0.4)]
    pmfs = dict(fock_oracle._joint_pmfs(configs, fock_oracle._port_magnitudes(configs)))
    stacked = oracle_moments(configs)
    for index, config in enumerate(configs):
        assert_same_moments(reference.member(stacked, index),
                            looped_readout(pmfs[index], config.eta_pair), rtol=1e-14)
