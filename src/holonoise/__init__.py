"""Photon statistics and phase-covariance estimation for a pair of
correlated Michelson-type interferometers with quantum light injected at
the normally unused ports.

The package models two interferometers read out in transmission, each
fed by a bright coherent beam plus either one shared two-mode squeezed
vacuum or two independent single-mode squeezed vacua.  It computes
joint photon-number and quadrature statistics of the two readouts
(Gaussian engine, closed forms, and an independent truncated-Fock
oracle), noise-reduction factors of the count difference and sum, the
photon-noise-limited uncertainty of correlated-phase estimation, and a
Monte-Carlo harness that recovers an injected phase covariance from
simulated runs.
"""
from .config import HolometerConfig, InputKind
from .crosscheck import CrosscheckReport, run_crosscheck, sample_guardrail_config
from .estimation import (
    EstimatorKind,
    EstimatorSpec,
    PsiPairingError,
    SingularConfigurationError,
    classical_benchmark,
    estimator_mean_curve,
    estimator_mixed_derivative,
    u0,
    u0_asymptotic,
    U0_ASYMPTOTIC_BRANCHES,
)
from .fock_oracle import (
    CutoffError,
    fock_joint_pmf,
    fock_quadrature_moments,
    oracle_moments,
    two_photon_coincidence,
)
from .gaussian_engine import GaussianState
from .holometer import propagate, quadrature_readout, readout_moments
from .moments import (
    CENTERED_KEYS,
    MomentComparison,
    QuadratureMoments,
    ReadoutMoments,
    compare_moments,
)
from .observables import (
    NrfResult,
    UndefinedResultError,
    analytic_moments,
    closed_form_moments,
    closed_form_quadrature,
    detected_correlators,
    nrf,
    nrf_asymptotic,
    regime_parameter,
)
from .phase_noise import (
    VarianceExpansion,
    direct_variance,
    mc_expectation,
    recover_covariance,
    sample_phase_offsets,
    variance_expansion,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # configuration
    "HolometerConfig",
    "InputKind",
    # moment carriers and comparison
    "ReadoutMoments",
    "QuadratureMoments",
    "MomentComparison",
    "compare_moments",
    "CENTERED_KEYS",
    # Gaussian engine route
    "GaussianState",
    "propagate",
    "readout_moments",
    "quadrature_readout",
    # truncated-Fock oracle route
    "CutoffError",
    "two_photon_coincidence",
    "fock_joint_pmf",
    "oracle_moments",
    "fock_quadrature_moments",
    # cross-validation
    "CrosscheckReport",
    "run_crosscheck",
    "sample_guardrail_config",
    # closed-form observables
    "detected_correlators",
    "closed_form_moments",
    "closed_form_quadrature",
    "analytic_moments",
    "NrfResult",
    "nrf",
    "nrf_asymptotic",
    "regime_parameter",
    "UndefinedResultError",
    # uncertainty pipeline
    "EstimatorKind",
    "EstimatorSpec",
    "u0",
    "u0_asymptotic",
    "U0_ASYMPTOTIC_BRANCHES",
    "classical_benchmark",
    "estimator_mixed_derivative",
    "estimator_mean_curve",
    "SingularConfigurationError",
    "PsiPairingError",
    # phase-noise Monte Carlo
    "sample_phase_offsets",
    "mc_expectation",
    "recover_covariance",
    "VarianceExpansion",
    "variance_expansion",
    "direct_variance",
]
