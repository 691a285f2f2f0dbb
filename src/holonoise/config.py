"""Physical configuration of the two-interferometer setup.

Kept free of any numerics so that both computation routes (Gaussian
engine and truncated-Fock oracle) can consume it without depending on
each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Mapping

__all__ = ["InputKind", "HolometerConfig"]


class InputKind(str, Enum):
    """What is injected at the free (quantum) ports."""

    COHERENT_ONLY = "CoherentOnly"
    TWB = "TWB"
    TWO_SQUEEZED = "TwoSqueezed"


@dataclass(frozen=True)
class HolometerConfig:
    """All physical parameters of the correlated-interferometer pair.

    mu       mean photon number of each coherent beam
    psi      phase of the coherent beams (radians)
    lam      mean photons per quantum mode (serialized as "lambda")
    eta      detection efficiency in [0, 1]
    phi0_1, phi0_2
             central interferometer phases; the equivalent beam-splitter
             transmissivity is tau_i = cos^2(phi0_i / 2)
    input_kind
             CoherentOnly, TWB (one two-mode squeezed vacuum shared by
             the arms) or TwoSqueezed (independent squeezed vacua)
    theta    global phase of the two-mode squeezed vacuum
    theta_xi single-mode squeezing phase; None selects 2*psi, which puts
             the squeezed quadrature on the one that carries the phase
             signal (for psi = 0 that is the y quadrature)
    eta_2    optional second-detector efficiency; None means symmetric.
             The engine, the oracle and both closed forms take the
             pair from ``eta_pair``; u0, nrf and the classical
             benchmark need a symmetric working point and require None.
    """

    mu: float
    psi: float
    lam: float
    eta: float
    phi0_1: float
    phi0_2: float
    input_kind: InputKind
    theta: float = 0.0
    theta_xi: float | None = None
    eta_2: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_kind", InputKind(self.input_kind))
        if self.mu < 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        for name, value in (("eta", self.eta), ("eta_2", self.eta_2)):
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        for value in (self.mu, self.psi, self.lam, self.eta, self.phi0_1, self.phi0_2,
                      self.theta, self.theta_xi):
            if value is not None and not math.isfinite(value):
                raise ValueError("configuration parameters must be finite")

    # -- derived quantities ------------------------------------------------

    @property
    def tau_1(self) -> float:
        return math.cos(0.5 * self.phi0_1) ** 2

    @property
    def tau_2(self) -> float:
        return math.cos(0.5 * self.phi0_2) ** 2

    @property
    def eta_pair(self) -> tuple[float, float]:
        return (self.eta, self.eta if self.eta_2 is None else self.eta_2)

    @property
    def theta_xi_effective(self) -> float:
        return 2.0 * self.psi if self.theta_xi is None else self.theta_xi

    @property
    def squeezed_quadrature_angle(self) -> float:
        """Angle chi of the squeezed quadrature X_chi of each input mode."""
        return 0.5 * (self.theta_xi_effective + math.pi)

    @property
    def signal_quadrature_angle(self) -> float:
        """Readout quadrature orthogonal to the coherent displacement."""
        return self.psi + 0.5 * math.pi

    @property
    def coherent_amplitude(self) -> complex:
        return math.sqrt(self.mu) * complex(math.cos(self.psi), math.sin(self.psi))

    def is_symmetric(self) -> bool:
        return self.phi0_1 == self.phi0_2 and self.eta_2 is None

    def replace(self, **changes: Any) -> "HolometerConfig":
        return replace(self, **changes)

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HolometerConfig":
        """Build from a plain mapping; accepts "lambda" or "lam", and
        "phi0" as shorthand for setting both central phases."""
        payload = dict(data)
        if "lambda" in payload:
            payload["lam"] = payload.pop("lambda")
        if "phi0" in payload:
            phi0 = payload.pop("phi0")
            payload.setdefault("phi0_1", phi0)
            payload.setdefault("phi0_2", phi0)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        missing = {"mu", "psi", "lam", "eta", "phi0_1", "phi0_2", "input_kind"} - set(payload)
        if missing:
            raise ValueError(f"missing configuration keys: {sorted(missing)}")
        return cls(**payload)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "mu": self.mu,
            "psi": self.psi,
            "lambda": self.lam,
            "eta": self.eta,
            "phi0_1": self.phi0_1,
            "phi0_2": self.phi0_2,
            "input_kind": self.input_kind.value,
            "theta": self.theta,
        }
        if self.theta_xi is not None:
            out["theta_xi"] = self.theta_xi
        if self.eta_2 is not None:
            out["eta_2"] = self.eta_2
        return out
