"""Physical configuration of the two-interferometer setup.

Kept free of the statistics so that both computation routes (Gaussian
engine and truncated-Fock oracle) can consume it without depending on
each other.

A configuration may also be a stack: its numeric fields (STACK_FIELDS)
may hold arrays of one common shape, one configuration per element.
The closed forms, the engine readouts, nrf and the estimation layer
then return arrays over the stack, which is how the CLI sweeps a whole
grid in one call per column.  A scalar configuration keeps its plain
numbers, and those functions return floats for it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Mapping

import numpy as np

__all__ = ["InputKind", "HolometerConfig", "STACK_FIELDS"]

# the fields that may hold an array over a stack of configurations
STACK_FIELDS = ("mu", "psi", "lam", "eta", "phi0_1", "phi0_2", "theta", "theta_xi")


def _everywhere(flags: Any) -> bool:
    """all() of a bool or of a bool array, cheap on scalars."""
    return bool(flags.all() if isinstance(flags, np.ndarray) else flags)


def _require(ok: Any, value: Any, message: str) -> None:
    """Raise ValueError(f"{message}, got {value}") unless ``ok`` holds
    everywhere, naming the first failing element of an array."""
    if not _everywhere(ok):
        if isinstance(value, np.ndarray):
            value = value[~ok][0]
        raise ValueError(f"{message}, got {value}")


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

    The STACK_FIELDS may hold arrays of one shape (see the module
    docstring); they are validated element by element.
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
        shapes = set()
        for name in STACK_FIELDS:
            value = getattr(self, name)
            if value is None or isinstance(value, (int, float)):  # np.float64 included
                continue
            value = np.array(value, dtype=float)
            if value.ndim:
                value.flags.writeable = False
                shapes.add(value.shape)
            object.__setattr__(self, name, value if value.ndim else float(value))
        if len(shapes) > 1:
            raise ValueError(f"stacked fields must share one shape, got {sorted(shapes)}")
        object.__setattr__(self, "_shape", shapes.pop() if shapes else ())
        _require(np.logical_not(self.mu < 0.0), self.mu, "mu must be >= 0")
        _require(np.logical_not(self.lam < 0.0), self.lam, "lam must be >= 0")
        for name, value in (("eta", self.eta), ("eta_2", self.eta_2)):
            if value is not None:
                _require((0.0 <= value) & (value <= 1.0), value, f"{name} must lie in [0, 1]")
        for value in (self.mu, self.psi, self.lam, self.eta, self.phi0_1, self.phi0_2,
                      self.theta, self.theta_xi):
            if value is None:
                continue
            if not (np.isfinite(value).all() if isinstance(value, np.ndarray)
                    else math.isfinite(value)):
                raise ValueError("configuration parameters must be finite")

    # -- derived quantities ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the stack; () for a single configuration."""
        return self._shape

    def per_row(self, value: Any) -> Any:
        """``value`` as a float for a single configuration, or as an
        array over the whole stack."""
        return np.broadcast_to(value, self.shape) if self.shape else float(value)

    @property
    def tau_1(self) -> float:
        return np.cos(0.5 * self.phi0_1) ** 2

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

    def is_symmetric(self) -> bool:
        return self.eta_2 is None and _everywhere(self.phi0_1 == self.phi0_2)

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
