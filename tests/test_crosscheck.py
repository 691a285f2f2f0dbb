import math
from dataclasses import replace

import numpy as np
import pytest

import fock_reference as reference
from holonoise import crosscheck, fock_oracle, gaussian_engine, moments
from holonoise.config import HolometerConfig, InputKind
from holonoise.crosscheck import (
    DEFAULT_SEED,
    _mis_phased,
    run_crosscheck,
    sample_guardrail_config,
    two_photon_coincidence,
)
from holonoise.moments import CENTERED_KEYS, compare_moments


def test_small_crosscheck_passes_and_aggregates():
    report = run_crosscheck(n_configs=6, seed=DEFAULT_SEED)
    assert report.ok
    assert report.coincidence_ok
    assert report.n_failed == 0
    assert len(report.configs) == len(report.comparison.worst_margin) == 6
    assert report.max_relative < report.rtol
    assert report.field_worst
    assert all(len(lines) > 0 for lines in [report.summary_lines()])


def test_field_worst_is_the_maximum_of_the_per_field_deviations():
    report = run_crosscheck(n_configs=6, seed=DEFAULT_SEED)
    assert len(report.field_worst) == 5 + len(CENTERED_KEYS)
    for name, worst in report.field_worst.items():
        assert worst == max(report.comparison.relative[name])
    assert report.max_relative == max(report.field_worst.values())
    assert report.max_relative == max(report.comparison.max_relative)


def test_broken_convention_is_caught():
    report = run_crosscheck(n_configs=2, seed=DEFAULT_SEED, convention="real-symmetric")
    assert not report.ok
    assert not report.coincidence_ok
    assert report.coincidence == pytest.approx(0.5, abs=1e-9)
    assert report.n_failed == len(report.configs)


def test_two_photon_coincidence_null_for_unitary_conventions():
    assert two_photon_coincidence("i") == pytest.approx(0.0, abs=1e-12)
    assert two_photon_coincidence("real-symmetric") == pytest.approx(0.5, abs=1e-12)
    for call in (two_photon_coincidence, lambda convention: run_crosscheck(2, convention=convention)):
        with pytest.raises(ValueError, match="unknown beam-splitter convention 'nonsense'"):
            call("nonsense")


def test_the_broken_convention_is_a_phase_on_the_quantum_photons():
    # i^(-m) on the m quantum photons of each arm: (-1)^r on the pair
    # state, twin beams at theta + pi; (-1)^k on the 2k photons of each
    # squeezed vacuum, squeezed input at its effective theta_xi + pi
    base = dict(mu=1.5, psi=0.8, lam=0.4, eta=0.85, phi0_1=0.7, phi0_2=0.7)
    twb = HolometerConfig(**base, input_kind="TWB", theta=0.4)
    assert _mis_phased(twb) == twb.replace(theta=0.4 + math.pi)
    for theta_xi in (None, 1.1):
        squeezed = HolometerConfig(**base, input_kind="TwoSqueezed", theta_xi=theta_xi)
        assert _mis_phased(squeezed) == squeezed.replace(
            theta_xi=squeezed.theta_xi_effective + math.pi)
    coherent = HolometerConfig(**base, input_kind="CoherentOnly")
    assert _mis_phased(coherent) is coherent


def test_the_broken_convention_feeds_the_oracle_the_mis_phased_set(monkeypatch):
    # the engine and the report keep the drawn set
    fed = []
    oracle = crosscheck._oracle_set

    def recorded(configs):
        fed.append(configs)
        return oracle(configs)

    monkeypatch.setattr(crosscheck, "_oracle_set", recorded)
    drawn = run_crosscheck(6, DEFAULT_SEED).configs
    report = run_crosscheck(6, DEFAULT_SEED, convention="real-symmetric")
    assert report.configs == fed[0] == drawn
    assert fed[1] == tuple(map(_mis_phased, drawn)) != drawn


def test_the_broken_convention_fails_every_quantum_input_and_only_those():
    # coherent-only input carries no quantum photons, so the two
    # conventions agree on it; every twin-beam and squeezed
    # configuration of the default set must fail
    report = run_crosscheck(100, DEFAULT_SEED, convention="real-symmetric")
    assert report.coincidence == pytest.approx(0.5, abs=1e-9)
    ok = np.asarray(report.comparison.ok)
    counts = {}
    for kind in InputKind:
        members = np.array([config.input_kind is kind for config in report.configs])
        counts[kind] = int(members.sum())
        assert ok[members].all() if kind is InputKind.COHERENT_ONLY else not ok[members].any(), kind
    assert counts == {InputKind.TWB: 58, InputKind.TWO_SQUEEZED: 34, InputKind.COHERENT_ONLY: 8}


def test_sampled_configs_stay_inside_the_guardrail_domain():
    rng = np.random.default_rng(123)
    kinds = set()
    for _ in range(200):
        config = sample_guardrail_config(rng)
        kinds.add(config.input_kind)
        assert 0.0 < config.mu <= 4.0
        assert 0.0 <= config.lam <= 1.0
        assert config.phi0_1 == config.phi0_2
        assert 0.0 < config.tau_1 <= 1.0
        assert 0.0 < config.eta <= 1.0
        assert 0.0 <= config.psi < 2.0 * np.pi
        if config.input_kind is InputKind.COHERENT_ONLY:
            assert config.lam == 0.0
        else:
            assert config.lam > 0.0
    assert kinds == {InputKind.TWB, InputKind.TWO_SQUEEZED, InputKind.COHERENT_ONLY}


def test_run_crosscheck_argument_guards():
    with pytest.raises(ValueError):
        run_crosscheck(n_configs=0)


def test_a_nan_centred_entry_reads_inf_and_fails(monkeypatch):
    # the per-field table must not read a nan deviation as agreement;
    # run_crosscheck reads the oracle once, for all its configurations
    oracle = crosscheck._oracle_set

    def poisoned(configs):
        fock, cutoffs = oracle(configs)
        nan = np.full(len(configs), math.nan)
        return replace(fock, centered={**fock.centered, (1, 3): nan}), cutoffs

    monkeypatch.setattr(crosscheck, "_oracle_set", poisoned)
    report = run_crosscheck(n_configs=1, seed=DEFAULT_SEED)
    assert report.n_failed == 1
    assert report.field_worst["centered[1,3]"] == math.inf
    [line] = [line for line in report.summary_lines() if "centered[1,3]" in line]
    assert line.endswith("FAIL")


def test_a_nan_entry_of_one_member_fails_that_member_only(monkeypatch):
    oracle = crosscheck._oracle_set

    def poisoned(configs):
        fock, cutoffs = oracle(configs)
        entry = fock.centered[(1, 3)].copy()
        entry[1] = math.nan
        return replace(fock, centered={**fock.centered, (1, 3): entry}), cutoffs

    monkeypatch.setattr(crosscheck, "_oracle_set", poisoned)
    comparison = run_crosscheck(n_configs=3, seed=DEFAULT_SEED).comparison
    assert comparison.ok.tolist() == [True, False, True]
    assert comparison.worst_margin[1] == comparison.max_relative[1] == math.inf
    assert comparison.worst_field[1] == "centered[1,3]"
    assert comparison.relative["centered[1,3]"][1] == math.inf
    assert np.all(np.isfinite(comparison.max_relative[[0, 2]]))


def test_a_run_compares_once_and_builds_no_per_configuration_carrier(monkeypatch):
    # counts the carriers each module builds, the comparison's included
    built = {"compare_moments": 0, "ReadoutMoments": 0, "MomentComparison": 0}

    def counted(name, function):
        def call(*args, **kwargs):
            built[name] += 1
            return function(*args, **kwargs)
        return call

    monkeypatch.setattr(crosscheck, "compare_moments",
                        counted("compare_moments", crosscheck.compare_moments))
    monkeypatch.setattr(moments, "MomentComparison",
                        counted("MomentComparison", moments.MomentComparison))
    for module in (crosscheck, fock_oracle, gaussian_engine):
        monkeypatch.setattr(module, "ReadoutMoments",
                            counted("ReadoutMoments", module.ReadoutMoments))
    report = run_crosscheck(n_configs=20, seed=DEFAULT_SEED)
    assert report.comparison.worst_margin.shape == (20,)
    # one engine readout per input kind, the engine's set carrier and the oracle's
    assert built == {"compare_moments": 1, "ReadoutMoments": len(InputKind) + 2,
                     "MomentComparison": 1}


def scalar_comparison(a, b, rtol=1e-8):
    """The documented comparison rule one field at a time in Python
    floats: the reference for the whole-array comparison."""
    sd1, sd2 = (math.sqrt(max(getattr(a, name), getattr(b, name), 0.0))
                for name in ("var_1", "var_2"))
    entries = [(name, getattr(a, name), getattr(b, name), 1e-13)
               for name in ("mean_1", "mean_2", "var_1", "var_2")]
    entries.append(("cov", a.cov, b.cov, 1e-13 + 1e-11 * sd1 * sd2))
    # powers by repeated multiplication, as the rule rounds them on a
    # float and on an array alike (libm pow can differ by one ulp)
    entries += [(f"centered[{p},{q}]", a.centered[(p, q)], b.centered[(p, q)],
                 1e-13 + 1e-11 * math.prod([sd1] * p) * math.prod([sd2] * q))
                for p, q in CENTERED_KEYS]
    margins, relative = {}, {}
    for name, x, y, floor in entries:
        margin = abs(x - y) / (rtol * max(abs(x), abs(y)) + floor)
        margins[name] = margin if math.isfinite(margin) else math.inf
        deviation, scale = abs(x - y), max(abs(x), abs(y))
        relative[name] = (math.inf if not math.isfinite(deviation)
                          else deviation / scale if scale > floor else 0.0)
    worst = max(margins.values())
    field = "none" if worst == 0.0 else next(
        name for name, margin in margins.items() if margin >= 0.99 * worst)
    return worst, field, relative


@pytest.mark.parametrize("convention", ["i", "real-symmetric"])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1000, 1003])
def test_the_stacked_comparison_equals_the_scalar_one_bit_for_bit(seed, convention):
    rng = np.random.default_rng(seed)
    configs = tuple(sample_guardrail_config(rng) for _ in range(100))
    engine = crosscheck._engine_moments(configs)
    # the oracle reads the input the convention feeds it
    oracle = fock_oracle.oracle_moments(
        tuple(map(_mis_phased, configs)) if convention == "real-symmetric" else configs)
    stacked = compare_moments(engine, oracle)
    for index in range(len(configs)):
        a, b = reference.member(engine, index), reference.member(oracle, index)
        single = compare_moments(a, b)
        relative = {name: values[index] for name, values in stacked.relative.items()}
        assert (single.worst_margin, single.worst_field, single.relative) == (
            stacked.worst_margin[index], stacked.worst_field[index], relative)
        assert (single.ok, single.max_relative) == (stacked.ok[index], stacked.max_relative[index])
        assert scalar_comparison(a, b) == (single.worst_margin, single.worst_field, single.relative)


def test_the_report_carries_the_cutoffs_the_oracle_used():
    report = run_crosscheck(n_configs=20, seed=1000)
    quantum, coherent = report.cutoffs
    want = [fock_oracle.port_cutoffs(config) for config in report.configs]
    assert np.column_stack([quantum, coherent]).tolist() == [list(pair) for pair in want]
