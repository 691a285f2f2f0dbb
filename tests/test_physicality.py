"""The detected state and both engine readouts are physical over the
documented domain: the property the production path does not re-check.
At its symmetric points the centre-free Var[C] and the stacked u0 agree
with their references."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonoise.config import STACK_FIELDS, HolometerConfig
from holonoise.estimation import (
    EstimatorKind, EstimatorSpec, PsiPairingError, SingularConfigurationError, estimator_variance,
    u0,
)
from holonoise.holometer import propagate, quadrature_readout, readout_moments
from holonoise.observables import UndefinedResultError
from physicality import obeys_uncertainty_principle, violated_second_moments


def log_uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(10.0**e, hi))


# the documented domain: mu up to ~3e12, phi0 down to 1e-8, and
# efficiencies at 1, just below it and anywhere in [0, 1]
FIELDS = {
    "mu": st.one_of(st.just(0.0), log_uniform(1e-3, 3e12)),
    "psi": st.floats(0.0, 2.0 * math.pi),
    "lam": log_uniform(1e-3, 10.0),
    "eta": st.one_of(st.just(1.0), st.integers(1, 12).map(lambda k: 1.0 - 10.0**-k),
                     st.floats(0.0, 1.0)),
    "phi0_1": log_uniform(1e-8, math.pi),
    "phi0_2": log_uniform(1e-8, math.pi),
}


@st.composite
def configs(draw) -> HolometerConfig:
    """A single configuration or a stack of up to five, of any input
    kind, with unequal phases and a second efficiency where drawn."""
    size = draw(st.integers(0, 5))
    values = {
        name: draw(FIELDS[name]) if size == 0
        else np.array(draw(st.lists(FIELDS[name], min_size=size, max_size=size)))
        for name in FIELDS
    }
    return HolometerConfig(
        input_kind=draw(st.sampled_from(["TWB", "TwoSqueezed", "CoherentOnly"])),
        theta=draw(st.floats(0.0, 2.0 * math.pi)),
        theta_xi=draw(st.one_of(st.none(), st.floats(0.0, 2.0 * math.pi))),
        eta_2=draw(st.one_of(st.none(), FIELDS["eta"])),
        **values,
    )


@settings(derandomize=True, deadline=None)
@given(config=configs())
def test_detected_state_and_readouts_are_physical(config):
    mean, cov = propagate(config)
    assert mean.shape == config.shape + (4,) and cov.shape == config.shape + (4, 4)
    assert np.isfinite(mean).all() and np.isfinite(cov).all()
    assert np.array_equal(cov, np.swapaxes(cov, -1, -2))
    assert obeys_uncertainty_principle(cov)
    photons = readout_moments(config)
    scale = 1.0 + np.abs(photons.mean_1) + np.abs(photons.mean_2)
    assert np.all((photons.mean_1 >= -1e-10 * scale) & (photons.mean_2 >= -1e-10 * scale))
    assert violated_second_moments(photons.var_1, photons.var_2, photons.cov) == []
    quadratures = quadrature_readout(config)
    assert violated_second_moments(quadratures.var_1, quadratures.var_2, quadratures.cov) == []


def test_second_moment_check_flags_broken_moments():
    # the positive control of the check above
    assert violated_second_moments(2.0, 2.0, 1.0) == []
    assert len(violated_second_moments(-1.0, 1.0, 0.0)) == 1
    assert len(violated_second_moments(2.0, 2.0, np.array([1.0, 2.5]))) == 1


def symmetric(config: HolometerConfig) -> HolometerConfig:
    """The drawn configuration at a symmetric working point."""
    return config.replace(phi0_2=config.phi0_1, eta_2=None)


# the coherent phase each squared photocurrent pairs with on twin beams
PAIRED_PSI = {EstimatorKind.TWB_DIFFERENCE_SQUARED: math.pi / 2.0,
              EstimatorKind.TWB_SUM_SQUARED: 0.0}


def members(stack: HolometerConfig):
    """(index, single configuration) for each member of a stack."""
    for index in np.ndindex(stack.shape):
        yield index, stack.replace(**{name: float(getattr(stack, name)[index])
                                      for name in STACK_FIELDS if np.ndim(getattr(stack, name))})


@settings(derandomize=True, deadline=None)
@given(config=configs().map(symmetric))
def test_quadrature_variance_equals_the_engine_reference(config):
    # Isserlis: Var[(Y1 - y1)(Y2 - y2)] = V1 V2 + Cov^2 of the engine quadratures
    q = quadrature_readout(config)
    want = q.var_1 * q.var_2 + q.cov * q.cov
    got = estimator_variance(config, EstimatorSpec(kind=EstimatorKind.QUADRATURE_PRODUCT))
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@settings(derandomize=True, deadline=None)
@given(config=configs().map(symmetric))
def test_stacked_u0_equals_the_per_member_calls(config):
    stack = config if config.shape else config.replace(mu=np.array([config.mu]))
    for kind in EstimatorKind:
        spec = EstimatorSpec(kind=kind)
        cases = [stack] if kind not in PAIRED_PSI else [stack, stack.replace(psi=PAIRED_PSI[kind])]
        for case in cases:
            stacked = u0(case, spec)
            for index, single in members(case):
                try:
                    want = u0(single, spec)
                except (PsiPairingError, SingularConfigurationError, UndefinedResultError,
                        OverflowError):
                    assert math.isnan(stacked[index]), (kind, index)
                else:
                    assert stacked[index] == pytest.approx(want, rel=1e-12, abs=0.0), (kind, index)
