"""Covariance-matrix Gaussian states and their photon and quadrature statistics.

Quadratures are ordered (x_1, y_1, x_2, y_2, ...) with x = (a + a+)/sqrt(2)
and y = (a - a+)/(i sqrt(2)), so the vacuum covariance is I/2.

Photon-number moments come from the factorial-cumulant generating
function of the state.  Normally ordered moments are the moments of a
formal Gaussian with mean r and covariance W = V - I/2, so the factorial
moments <N1^(k) N2^(l)> = <a1+^k a2+^l a1^k a2^l> are the moments of the
quadratic forms I_j = z^T P_j z / 2 under it (P_j projects onto mode j).
With B = t1 P1 + t2 P2,

    log <(1 + t1)^N1 (1 + t2)^N2>
        = 1/2 sum_n tr((W B)^n) / n + 1/2 sum_n r^T B (W B)^(n-1) r,

whose t1^k t2^l coefficient times k! l! is the factorial cumulant of
order (k, l) (Weedbrook et al., RMP 84, 621 (2012); Mathai & Provost,
Quadratic Forms in Random Variables (1992)).  Stirling numbers of the
second kind turn factorial cumulants into ordinary ones.  Cumulants of
order two and up scale like the photon number, not its powers, so the
route stays accurate for bright beams.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import ReadoutMoments

__all__ = [
    "GaussianState",
    "centered_photon_moments",
    "quadrature_mean_cov",
]

_HEISENBERG_SLACK = 1e-10

# Stirling numbers of the second kind S(m, k), 0 <= k <= m <= 4
_STIRLING2 = np.array(
    [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 1, 3, 1, 0],
        [0, 1, 7, 6, 1],
    ],
    dtype=float,
)


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix over the quadrature basis."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError("mean must be a flat vector of length 2 * n_modes")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"covariance shape {cov.shape} does not match mean {mean.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("state contains non-finite entries")
        asym = np.max(np.abs(cov - cov.T))
        scale = 1.0 + np.max(np.abs(cov))
        if asym > 1e-10 * scale:
            raise ValueError(f"covariance asymmetric by {asym}")
        cov = 0.5 * (cov + cov.T)
        # uncertainty principle: symplectic eigenvalues may not dip below 1/2
        omega = np.kron(np.eye(mean.size // 2), [[0.0, 1.0], [-1.0, 0.0]])
        nu_min = float(np.min(np.abs(np.linalg.eigvals(omega @ cov))))
        if nu_min < 0.5 - _HEISENBERG_SLACK * scale:
            raise ValueError(f"symplectic eigenvalue {nu_min} below vacuum limit")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


def _factorial_cumulants(mean: np.ndarray, w: np.ndarray, order: int) -> np.ndarray:
    """kappa[k, l], the factorial cumulants of (N1, N2) for k + l <= order,
    from the two-mode mean r and normally ordered covariance W.

    Expands (W B)^n over its 2^n words in the projectors; a word with k
    letters P1 contributes to the t1^k t2^(n-k) coefficient."""
    proj = np.zeros((2, 4, 4))
    proj[0, 0, 0] = proj[0, 1, 1] = proj[1, 2, 2] = proj[1, 3, 3] = 1.0
    steps = w @ proj  # W P_j
    heads = proj @ mean  # P_j r
    first = np.array([1, 0])  # letters P_j that are P1
    coeff = np.zeros((order + 1, order + 1))
    words = np.eye(4)[None]  # products of W P_j over every word of length n - 1
    ones = np.zeros(1, dtype=int)  # count of P1 letters in each word
    for n in range(1, order + 1):
        # r^T P_j (W P ...)^(n-1) r: head letter j, then a word of length n - 1
        k = (first[:, None] + ones[None, :]).ravel()
        np.add.at(coeff, (k, n - k), 0.5 * (heads @ (words @ mean).T).ravel())
        words = (words[:, None] @ steps[None]).reshape(-1, 4, 4)
        ones = (ones[:, None] + first[None, :]).ravel()
        traces = np.trace(words, axis1=1, axis2=2)
        np.add.at(coeff, (ones, n - ones), 0.5 * traces / n)
    factorials = np.array([math.factorial(k) for k in range(order + 1)], dtype=float)
    return coeff * np.outer(factorials, factorials)


def centered_photon_moments(
    state: GaussianState, modes: tuple[int, int] = (0, 1), max_order: int = 4
) -> ReadoutMoments:
    """Joint centered photon-number moments of two modes.

    Builds the factorial cumulants from the generating function in the
    module docstring, converts them to cumulants kappa = S kappa_[.] S^T
    and those to central moments (mu_4 = kappa_4 + 3 kappa_2^2, mu_22 =
    kappa_22 + kappa_20 kappa_02 + 2 kappa_11^2, ...).  ``max_order=2``
    skips the third and fourth orders.
    """
    if max_order not in (2, 4):
        raise ValueError("max_order must be 2 or 4")
    i, j = modes
    idx = np.array([2 * i, 2 * i + 1, 2 * j, 2 * j + 1])
    w = state.cov[np.ix_(idx, idx)] - 0.5 * np.eye(4)
    factorial = _factorial_cumulants(state.mean[idx], w, max_order)
    stirling = _STIRLING2[: max_order + 1, : max_order + 1]
    k = stirling @ factorial @ stirling.T
    table = {(2, 0): k[2, 0], (1, 1): k[1, 1], (0, 2): k[0, 2]}
    if max_order == 4:
        for p in range(4):
            table[(p, 3 - p)] = k[p, 3 - p]
        table[(4, 0)] = k[4, 0] + 3.0 * k[2, 0] ** 2
        table[(3, 1)] = k[3, 1] + 3.0 * k[2, 0] * k[1, 1]
        table[(2, 2)] = k[2, 2] + k[2, 0] * k[0, 2] + 2.0 * k[1, 1] ** 2
        table[(1, 3)] = k[1, 3] + 3.0 * k[0, 2] * k[1, 1]
        table[(0, 4)] = k[0, 4] + 3.0 * k[0, 2] ** 2
    table = {key: float(value) for key, value in table.items()}
    return ReadoutMoments(
        mean_1=float(k[1, 0]), mean_2=float(k[0, 1]), var_1=table[(2, 0)],
        var_2=table[(0, 2)], cov=table[(1, 1)], centered=table if max_order == 4 else None,
    )


def quadrature_mean_cov(
    state: GaussianState, specs: tuple[tuple[int, float], ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Means and covariance matrix of the quadratures
    X_chi = x cos(chi) + y sin(chi) listed as (mode, chi) pairs."""
    w = np.zeros((len(specs), state.mean.size))
    for row, (mode, chi) in enumerate(specs):
        if not 0 <= mode < state.n_modes:
            raise ValueError(f"mode {mode} out of range for {state.n_modes}-mode state")
        w[row, 2 * mode : 2 * mode + 2] = math.cos(chi), math.sin(chi)
    return w @ state.mean, w @ state.cov @ w.T
