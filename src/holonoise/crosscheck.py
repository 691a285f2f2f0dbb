"""Blind cross-validation of the Gaussian engine against the
truncated-Fock oracle.

The two routes share nothing but the configuration dataclass and the
moment carrier: the engine works in phase space from the factorial
cumulants of the detected Gaussian state, the oracle in a truncated
photon-number basis.  Agreement of every joint moment up to fourth
order over randomly drawn configurations is therefore a strong check on
both.  A deliberately broken beam-splitter convention is wired in as a
negative control so the check itself can be shown to have teeth.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .config import HolometerConfig, InputKind
from .fock_oracle import (
    MAX_MEAN_COHERENT,
    MAX_MEAN_QUANTUM,
    _oracle_set,
    two_photon_coincidence,
)
from .holometer import readout_moments
from .moments import CENTERED_KEYS, MomentComparison, ReadoutMoments, compare_moments

__all__ = [
    "CrosscheckReport",
    "sample_guardrail_config",
    "run_crosscheck",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 20240816
_COINCIDENCE_NULL_TOL = 1e-12

# how often each input kind is drawn; pair correlation gets the most
# weight because it exercises the largest moment set
_KIND_WEIGHTS: tuple[tuple[InputKind, float], ...] = (
    (InputKind.TWB, 0.60),
    (InputKind.TWO_SQUEEZED, 0.25),
    (InputKind.COHERENT_ONLY, 0.15),
)


def sample_guardrail_config(rng: np.random.Generator) -> HolometerConfig:
    """One random configuration inside the oracle's tractable envelope:
    mean coherent occupancy at most 4, mean quantum occupancy at most 1,
    transmissivity and efficiency in (0, 1], free phases over the full
    circle."""
    kinds = [kind for kind, _ in _KIND_WEIGHTS]
    weights = [w for _, w in _KIND_WEIGHTS]
    kind = kinds[int(rng.choice(len(kinds), p=weights))]
    tau = rng.uniform(0.01, 1.0)
    phi0 = 2.0 * math.acos(math.sqrt(tau))
    return HolometerConfig(
        mu=rng.uniform(0.05, MAX_MEAN_COHERENT),
        psi=rng.uniform(0.0, 2.0 * math.pi),
        lam=0.0 if kind is InputKind.COHERENT_ONLY else rng.uniform(0.02, MAX_MEAN_QUANTUM),
        eta=rng.uniform(0.05, 1.0),
        phi0_1=phi0,
        phi0_2=phi0,
        input_kind=kind,
        theta=rng.uniform(0.0, 2.0 * math.pi) if kind is InputKind.TWB else 0.0,
        theta_xi=rng.uniform(0.0, 2.0 * math.pi) if kind is InputKind.TWO_SQUEEZED else None,
    )


def _engine_moments(configs: tuple[HolometerConfig, ...]) -> ReadoutMoments:
    """Engine moments over the set, arrays in set order, from one stacked
    readout per input kind, for configurations with one efficiency
    (eta_2 None) as sample_guardrail_config draws them."""
    fields = {name: np.empty(len(configs))
              for name in ("mean_1", "mean_2", "var_1", "var_2", "cov")}
    centered = {key: np.empty(len(configs)) for key in CENTERED_KEYS}
    for kind in InputKind:
        at = [i for i, config in enumerate(configs) if config.input_kind is kind]
        if not at:
            continue
        stack = HolometerConfig(
            input_kind=kind,
            **{name: np.array([getattr(configs[i], name) for i in at])
               for name in ("mu", "psi", "lam", "eta", "phi0_1", "phi0_2", "theta")},
            theta_xi=np.array([configs[i].theta_xi_effective for i in at]),
        )
        m = readout_moments(stack)
        for name, values in fields.items():
            values[at] = getattr(m, name)
        for key, values in centered.items():
            values[at] = m.centered[key]
    return ReadoutMoments(**fields, centered=centered)


@dataclass(frozen=True)
class CrosscheckReport:
    """Outcome of the full validation run: the drawn configurations and
    the engine-versus-oracle comparison over them, arrays in set order."""

    coincidence: float  # two-photon coincidence under the active convention
    configs: tuple[HolometerConfig, ...]
    comparison: MomentComparison
    # the oracle's (quantum-port, coherent-port) lengths, fock_oracle.port_cutoffs
    cutoffs: tuple[np.ndarray, np.ndarray]
    rtol: float
    convention: str
    runtime_seconds: float

    @property
    def coincidence_ok(self) -> bool:
        return self.coincidence < _COINCIDENCE_NULL_TOL

    @property
    def field_worst(self) -> dict[str, float]:
        """Per-moment max relative deviation over the configurations."""
        return {name: float(values.max()) for name, values in self.comparison.relative.items()}

    @property
    def n_failed(self) -> int:
        return int(np.count_nonzero(~self.comparison.ok))

    @property
    def ok(self) -> bool:
        return self.coincidence_ok and self.n_failed == 0

    @property
    def max_relative(self) -> float:
        return max(self.field_worst.values())

    def summary_lines(self) -> list[str]:
        lines = [
            f"beam-splitter convention: {self.convention}",
            "two-photon coincidence at balanced splitter: "
            f"{self.coincidence:.3e} ({'null ok' if self.coincidence_ok else 'NULL VIOLATED'})",
            f"configurations checked: {len(self.configs)}, failed: {self.n_failed} "
            f"(relative tolerance {self.rtol:g})",
        ]
        for name, rel in self.field_worst.items():
            verdict = "ok" if rel <= self.rtol else "FAIL"
            lines.append(f"  {name:<16} max relative deviation {rel:.3e}  {verdict}")
        lines.append(f"worst relative deviation overall: {self.max_relative:.3e}")
        lines.append(f"runtime: {self.runtime_seconds:.1f} s")
        lines.append("RESULT: " + ("PASS" if self.ok else "FAIL"))
        return lines


def run_crosscheck(
    n_configs: int = 100,
    seed: int = DEFAULT_SEED,
    rtol: float = 1e-8,
    convention: str = "i",
) -> CrosscheckReport:
    """Draw ``n_configs`` random configurations and compare every joint
    photon-number moment up to fourth order between the two routes,
    each read once over the whole set (the engine over one stack per
    input kind, the oracle in one batched call) and compared once.

    ``convention`` selects the oracle's beam-splitter phase convention;
    passing the deliberately broken "real-symmetric" one makes both the
    coincidence null and the moment comparison fail, which is the
    intended negative control.
    """
    if n_configs < 1:
        raise ValueError("need at least one configuration")
    start = time.perf_counter()
    coincidence = two_photon_coincidence(convention)
    rng = np.random.default_rng(seed)
    configs = tuple(sample_guardrail_config(rng) for _ in range(n_configs))
    oracle, cutoffs = _oracle_set(configs, convention)
    comparison = compare_moments(_engine_moments(configs), oracle, rtol=rtol)
    return CrosscheckReport(
        coincidence=coincidence,
        configs=configs,
        comparison=comparison,
        cutoffs=cutoffs,
        rtol=rtol,
        convention=convention,
        runtime_seconds=time.perf_counter() - start,
    )
