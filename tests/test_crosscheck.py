import math
from dataclasses import replace

import numpy as np
import pytest

from holonoise import crosscheck
from holonoise.config import InputKind
from holonoise.crosscheck import (
    DEFAULT_SEED,
    run_crosscheck,
    sample_guardrail_config,
)
from holonoise.moments import CENTERED_KEYS


def test_small_crosscheck_passes_and_aggregates():
    report = run_crosscheck(n_configs=6, seed=DEFAULT_SEED)
    assert report.ok
    assert report.coincidence_ok
    assert report.n_failed == 0
    assert len(report.configs) == len(report.comparisons) == 6
    assert report.max_relative < report.rtol
    assert report.field_worst
    assert all(len(lines) > 0 for lines in [report.summary_lines()])


def test_field_worst_is_the_maximum_of_the_per_field_deviations():
    report = run_crosscheck(n_configs=6, seed=DEFAULT_SEED)
    assert len(report.field_worst) == 5 + len(CENTERED_KEYS)
    for name, worst in report.field_worst.items():
        assert worst == max(comparison.relative[name] for comparison in report.comparisons)
    assert report.max_relative == max(report.field_worst.values())
    assert report.max_relative == max(c.max_relative for c in report.comparisons)


def test_broken_convention_is_caught():
    report = run_crosscheck(n_configs=2, seed=DEFAULT_SEED, convention="real-symmetric")
    assert not report.ok
    assert not report.coincidence_ok
    assert report.coincidence == pytest.approx(0.5, abs=1e-9)
    assert report.n_failed == len(report.comparisons)


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
    oracle = crosscheck.oracle_moments

    def poisoned(configs, **kwargs):
        return tuple(replace(moments, centered={**moments.centered, (1, 3): math.nan})
                     for moments in oracle(configs, **kwargs))

    monkeypatch.setattr(crosscheck, "oracle_moments", poisoned)
    report = run_crosscheck(n_configs=1, seed=DEFAULT_SEED)
    assert report.n_failed == 1
    assert report.field_worst["centered[1,3]"] == math.inf
    [line] = [line for line in report.summary_lines() if "centered[1,3]" in line]
    assert line.endswith("FAIL")
