"""Covariance-matrix representation of multimode Gaussian states.

Quadratures are ordered (x_1, y_1, x_2, y_2, ...) with x = (a + a+)/sqrt(2)
and y = (a - a+)/(i sqrt(2)), so the vacuum covariance is I/2.  Symplectic
maps act as cov -> S cov S^T.  Operator expectation values come from Wick
contractions against cov + i Omega / 2, which carries the commutators, so
ordered (non-symmetrized) products come out right.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .moments import CENTERED_KEYS, ReadoutMoments

__all__ = [
    "GaussianState",
    "vacuum",
    "marginal",
    "purity",
    "mean_photon",
    "apply_beam_splitter",
    "apply_single_mode_squeeze",
    "apply_two_mode_squeeze",
    "apply_loss",
    "displace",
    "LinearOp",
    "annihilation",
    "creation",
    "quadrature_op",
    "expectation",
    "centered_photon_moments",
    "quadrature_mean_cov",
    "MAX_WORD_LEN",
]

MAX_WORD_LEN = 10  # Wick evaluation is factorial in word length

_HEISENBERG_SLACK = 1e-10


def _symplectic_form(n_modes: int) -> np.ndarray:
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix over the quadrature basis."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise ValueError("mean must be a flat vector of length 2 * n_modes")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"covariance shape {cov.shape} does not match mean {mean.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("state contains non-finite entries")
        asym = np.max(np.abs(cov - cov.T)) if cov.size else 0.0
        scale = 1.0 + np.max(np.abs(cov)) if cov.size else 1.0
        if asym > 1e-10 * scale:
            raise ValueError(f"covariance asymmetric by {asym}")
        cov = 0.5 * (cov + cov.T)
        # uncertainty principle: symplectic eigenvalues may not dip below 1/2
        nus = np.abs(np.linalg.eigvals(_symplectic_form(mean.size // 2) @ cov))
        nu_min = float(np.min(nus.reshape(-1, 1))) if nus.size else 0.5
        if nu_min < 0.5 - _HEISENBERG_SLACK * scale:
            raise ValueError(f"symplectic eigenvalue {nu_min} below vacuum limit")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def complex_amplitude(self, mode: int) -> complex:
        return complex(self.mean[2 * mode], self.mean[2 * mode + 1]) / math.sqrt(2.0)


def vacuum(n_modes: int) -> GaussianState:
    return GaussianState(np.zeros(2 * n_modes), 0.5 * np.eye(2 * n_modes))


def marginal(state: GaussianState, modes: tuple[int, ...]) -> GaussianState:
    idx = np.concatenate([[2 * m, 2 * m + 1] for m in modes]).astype(int)
    return GaussianState(state.mean[idx], state.cov[np.ix_(idx, idx)])


def purity(state: GaussianState) -> float:
    det = float(np.linalg.det(state.cov))
    return 1.0 / (2.0**state.n_modes * math.sqrt(det))


def mean_photon(state: GaussianState, mode: int) -> float:
    k = 2 * mode
    fluct = 0.5 * (state.cov[k, k] + state.cov[k + 1, k + 1] - 1.0)
    return float(0.5 * (state.mean[k] ** 2 + state.mean[k + 1] ** 2) + fluct)


# ---------------------------------------------------------------------------
# symplectic operations


def _embed(state: GaussianState, modes: tuple[int, ...], block: np.ndarray) -> GaussianState:
    s = np.eye(2 * state.n_modes)
    idx = np.concatenate([[2 * m, 2 * m + 1] for m in modes]).astype(int)
    s[np.ix_(idx, idx)] = block
    return GaussianState(s @ state.mean, s @ state.cov @ s.T)


def apply_beam_splitter(
    state: GaussianState,
    mode_a: int,
    mode_b: int,
    *,
    phi: float | None = None,
    tau: float | None = None,
) -> GaussianState:
    """Two-mode mixing, a -> cos(phi/2) a + i sin(phi/2) b.

    Parameterized by the signed angle phi so that downstream derivatives
    in phi are smooth through phi = 0; tau = cos^2(phi/2) covers callers
    that think in transmissivity.
    """
    if (phi is None) == (tau is None):
        raise ValueError("specify exactly one of phi or tau")
    if phi is None:
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {tau}")
        phi = 2.0 * math.acos(math.sqrt(tau))
    if mode_a == mode_b:
        raise ValueError("beam splitter needs two distinct modes")
    c = math.cos(0.5 * phi)
    s = math.sin(0.5 * phi)
    block = np.array(
        [
            [c, 0.0, 0.0, -s],
            [0.0, c, s, 0.0],
            [0.0, -s, c, 0.0],
            [s, 0.0, 0.0, c],
        ]
    )
    return _embed(state, (mode_a, mode_b), block)


def apply_single_mode_squeeze(
    state: GaussianState, mode: int, r: float, chi: float = 0.0
) -> GaussianState:
    """Squeeze the quadrature at angle chi: its variance shrinks by exp(-2r)."""
    c, s = math.cos(chi), math.sin(chi)
    rot = np.array([[c, -s], [s, c]])
    block = rot @ np.diag([math.exp(-r), math.exp(r)]) @ rot.T
    return _embed(state, (mode,), block)


def apply_two_mode_squeeze(
    state: GaussianState, mode_a: int, mode_b: int, r: float, theta: float = 0.0
) -> GaussianState:
    ch, sh = math.cosh(r), math.sinh(r)
    g = np.array([[math.cos(theta), math.sin(theta)], [math.sin(theta), -math.cos(theta)]])
    block = np.block([[ch * np.eye(2), sh * g], [sh * g, ch * np.eye(2)]])
    return _embed(state, (mode_a, mode_b), block)


def apply_loss(state: GaussianState, eta: float, modes: tuple[int, ...]) -> GaussianState:
    """Pure loss channel with transmission eta on the listed modes."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    n = state.n_modes
    scale = np.ones(2 * n)
    add = np.zeros(2 * n)
    for m in modes:
        scale[2 * m : 2 * m + 2] = math.sqrt(eta)
        add[2 * m : 2 * m + 2] = 0.5 * (1.0 - eta)
    cov = state.cov * np.outer(scale, scale) + np.diag(add)
    return GaussianState(state.mean * scale, cov)


def displace(state: GaussianState, mode: int, alpha: complex) -> GaussianState:
    mean = state.mean.copy()
    mean[2 * mode] += math.sqrt(2.0) * alpha.real
    mean[2 * mode + 1] += math.sqrt(2.0) * alpha.imag
    return GaussianState(mean, state.cov)


# ---------------------------------------------------------------------------
# operator expectation values

# Each elementary operator is a complex-linear combination of the
# quadratures.  With M = cov + i Omega / 2, the ordered two-point
# function of centered operators is <dA dB> = w_A^T M w_B, and higher
# ordered moments follow from Wick pairings in the written order.


@dataclass(frozen=True)
class LinearOp:
    mode: int
    label: str  # "a", "a+" or "quad"
    chi: float = 0.0


def annihilation(mode: int) -> LinearOp:
    return LinearOp(mode, "a")


def creation(mode: int) -> LinearOp:
    return LinearOp(mode, "a+")


def quadrature_op(mode: int, chi: float) -> LinearOp:
    """X_chi = x cos(chi) + y sin(chi); chi = 0 is x, chi = pi/2 is y."""
    return LinearOp(mode, "quad", chi)


def _weight(op: LinearOp, n_modes: int) -> np.ndarray:
    if not 0 <= op.mode < n_modes:
        raise ValueError(f"mode {op.mode} out of range for {n_modes}-mode state")
    w = np.zeros(2 * n_modes, dtype=complex)
    k = 2 * op.mode
    if op.label == "a":
        w[k] = 1.0 / math.sqrt(2.0)
        w[k + 1] = 1j / math.sqrt(2.0)
    elif op.label == "a+":
        w[k] = 1.0 / math.sqrt(2.0)
        w[k + 1] = -1j / math.sqrt(2.0)
    elif op.label == "quad":
        w[k] = math.cos(op.chi)
        w[k + 1] = math.sin(op.chi)
    else:
        raise ValueError(f"unknown operator label {op.label!r}")
    return w


@lru_cache(maxsize=None)
def _pairings(length: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # all ways to split range(length) into ordered pairs (i < j)
    def rec(items: tuple[int, ...]):
        if not items:
            yield ()
            return
        first, rest = items[0], items[1:]
        for k in range(len(rest)):
            for sub in rec(rest[:k] + rest[k + 1 :]):
                yield ((first, rest[k]),) + sub

    return tuple(rec(tuple(range(length))))


def _wick(seq: tuple[int, ...], cmat: np.ndarray) -> complex:
    if len(seq) % 2 == 1:
        return 0.0
    if not seq:
        return 1.0
    total = 0.0 + 0.0j
    for pairing in _pairings(len(seq)):
        term = 1.0 + 0.0j
        for a, b in pairing:
            term *= cmat[seq[a], seq[b]]
        total += term
    return total


def expectation(state: GaussianState, ops: tuple[LinearOp, ...]) -> complex:
    """Expectation of an ordered product of elementary operators.

    Splits each operator into mean plus fluctuation and sums Wick
    contractions over every subset of fluctuation slots, so words with
    displaced modes work.  Cost grows factorially; MAX_WORD_LEN guards.
    """
    length = len(ops)
    if length > MAX_WORD_LEN:
        raise ValueError(f"word length {length} exceeds MAX_WORD_LEN = {MAX_WORD_LEN}")
    if length == 0:
        return 1.0 + 0.0j
    n = state.n_modes
    weights = np.array([_weight(op, n) for op in ops])
    mvec = weights @ state.mean
    m_ord = state.cov + 0.5j * _symplectic_form(n)
    cmat = weights @ m_ord @ weights.T

    total = 0.0 + 0.0j
    for r in range(0, length + 1, 2):
        for subset in combinations(range(length), r):
            outside = 1.0 + 0.0j
            inside = set(subset)
            for k in range(length):
                if k not in inside:
                    outside *= mvec[k]
            total += outside * _wick(subset, cmat)
    return complex(total)


def centered_photon_moments(
    state: GaussianState, modes: tuple[int, int] = (0, 1), max_order: int = 4
) -> ReadoutMoments:
    """Joint centered photon-number moments of two modes.

    The fluctuation of each photon number is a quadratic polynomial in
    the centered ladder operators; products expand into at most 4^4
    Wick-evaluated words over a fixed 4x4 contraction matrix.
    ``max_order=2`` skips the third and fourth orders.  An imaginary
    part beyond roundoff signals a broken ordering convention and raises
    ArithmeticError.
    """
    if max_order not in (2, 4):
        raise ValueError("max_order must be 2 or 4")
    i, j = modes
    n = state.n_modes
    base = (
        annihilation(i),
        creation(i),
        annihilation(j),
        creation(j),
    )
    weights = np.array([_weight(op, n) for op in base])
    m_ord = state.cov + 0.5j * _symplectic_form(n)
    cmat = weights @ m_ord @ weights.T

    amp_1 = state.complex_amplitude(i)
    amp_2 = state.complex_amplitude(j)
    nfl_1 = cmat[1, 0].real  # <da+ da>
    nfl_2 = cmat[3, 2].real
    mean_1 = abs(amp_1) ** 2 + nfl_1
    mean_2 = abs(amp_2) ** 2 + nfl_2

    # dN = conj(m) da + m da+ + da+ da - <da+ da>
    factor_1 = ((amp_1.conjugate(), (0,)), (amp_1, (1,)), (1.0, (1, 0)), (-nfl_1, ()))
    factor_2 = ((amp_2.conjugate(), (2,)), (amp_2, (3,)), (1.0, (3, 2)), (-nfl_2, ()))

    def central(p: int, q: int) -> complex:
        total = 0.0 + 0.0j
        for combo in product(*([factor_1] * p + [factor_2] * q)):
            coeff = 1.0 + 0.0j
            seq: tuple[int, ...] = ()
            for c, ops in combo:
                coeff *= c
                seq += ops
            if coeff != 0.0:
                total += coeff * _wick(seq, cmat)
        return total

    keys = CENTERED_KEYS if max_order == 4 else ((2, 0), (0, 2), (1, 1))
    raw = {key: central(*key) for key in keys}
    # Cross moments of independent inputs are exactly zero, so the residue
    # is judged against the scale sd_1^p sd_2^q of each moment, with the
    # standard deviations floored at one photon.
    sd_1 = math.sqrt(max(raw[(2, 0)].real, 1.0))
    sd_2 = math.sqrt(max(raw[(0, 2)].real, 1.0))
    for (p, q), value in raw.items():
        if abs(value.imag) > 1e-8 * sd_1**p * sd_2**q:
            raise ArithmeticError(f"moment ({p},{q}) has imaginary residue {value.imag}")
    table = {key: float(value.real) for key, value in raw.items()}
    return ReadoutMoments(
        mean_1=mean_1, mean_2=mean_2, var_1=table[(2, 0)], var_2=table[(0, 2)],
        cov=table[(1, 1)], centered=table if max_order == 4 else None,
    )


def quadrature_mean_cov(
    state: GaussianState, specs: tuple[tuple[int, float], ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Means and covariance matrix of the quadratures X_chi listed as
    (mode, chi) pairs.  Real weights, so no ordering subtleties."""
    w = np.array([_weight(quadrature_op(m, chi), state.n_modes).real for m, chi in specs])
    return w @ state.mean, w @ state.cov @ w.T
