"""Two-mode Gaussian states and their photon and quadrature statistics.

Quadratures are ordered (x_1, y_1, x_2, y_2) with x = (a + a+)/sqrt(2)
and y = (a - a+)/(i sqrt(2)), so the vacuum covariance is I/2.  A state
is two arrays, its mean (..., 4) and its covariance (..., 4, 4), over
any leading stack axes; every function here works on the whole stack at
once, and a single state is the 0-d case of the same code.  The states
come from holometer.propagate, physical by construction, so nothing
here re-checks the uncertainty principle; the tests pin it.

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

import numpy as np

from .moments import ReadoutMoments

__all__ = [
    "centered_photon_moments",
    "quadrature_mean_cov",
]

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
# P1 and P2, the projectors onto the quadratures of mode 1 and of mode 2
_PROJ = np.zeros((2, 4, 4))
_PROJ[0, 0, 0] = _PROJ[0, 1, 1] = _PROJ[1, 2, 2] = _PROJ[1, 3, 3] = 1.0
# k! l!, turning generating-function coefficients into factorial cumulants
_FACTORIAL_WEIGHTS = np.outer([1.0, 1.0, 2.0, 6.0, 24.0], [1.0, 1.0, 2.0, 6.0, 24.0])


def _factorial_cumulants(mean: np.ndarray, w: np.ndarray, order: int) -> np.ndarray:
    """kappa[b, k, l], the factorial cumulants of (N1, N2) for k + l <=
    order, from the two-mode means r (..., 4) and normally ordered
    covariances W (..., 4, 4), over the stack flattened to b.

    Expands (W B)^n over its 2^n words in the projectors; a word with k
    letters P1 contributes to the t1^k t2^(n-k) coefficient."""
    r = mean.reshape(-1, 4)
    steps = w.reshape(-1, 1, 4, 4) @ _PROJ  # W P_j
    heads = _PROJ @ r[:, None, :, None]  # P_j r
    first = np.array([1, 0])  # letters P_j that are P1
    coeff = np.zeros((len(r), order + 1, order + 1))
    words = np.eye(4)[None, None]  # products of W P_j over every word of length n - 1
    ones = np.zeros(1, dtype=int)  # count of P1 letters in each word
    for n in range(1, order + 1):
        # r^T P_j (W P ...)^(n-1) r: head letter j, then a word of length n - 1
        k = (first[:, None] + ones[None, :]).ravel()
        tails = words @ r[:, None, :, None]
        quad = heads[..., 0] @ tails[..., 0].swapaxes(-1, -2)
        np.add.at(coeff, (slice(None), k, n - k), 0.5 * quad.reshape(len(r), -1))
        words = (words[:, :, None] @ steps[:, None]).reshape(len(steps), -1, 4, 4)
        ones = (ones[:, None] + first[None, :]).ravel()
        traces = words.trace(axis1=-2, axis2=-1)
        np.add.at(coeff, (slice(None), ones, n - ones), 0.5 * traces / n)
    return coeff * _FACTORIAL_WEIGHTS[: order + 1, : order + 1]


def centered_photon_moments(
    mean: np.ndarray, cov: np.ndarray, max_order: int = 4
) -> ReadoutMoments:
    """Joint centered photon-number moments of the two modes.

    Builds the factorial cumulants from the generating function in the
    module docstring, converts them to cumulants kappa = S kappa_[.] S^T
    and those to central moments (mu_4 = kappa_4 + 3 kappa_2^2, mu_22 =
    kappa_22 + kappa_20 kappa_02 + 2 kappa_11^2, ...).  ``max_order=2``
    skips the third and fourth orders.  A single state gives floats, a
    stack gives arrays over its leading axes.
    """
    if max_order not in (2, 4):
        raise ValueError("max_order must be 2 or 4")
    factorial = _factorial_cumulants(mean, cov - 0.5 * np.eye(4), max_order)
    stirling = _STIRLING2[: max_order + 1, : max_order + 1]
    k = stirling @ factorial @ stirling.T
    lead = mean.shape[:-1]
    # orders first: k[p, q] is a scalar for one state, a (batch,) array for a stack
    k = np.moveaxis(k, 0, -1) if lead else k[0]
    table = {(1, 0): k[1, 0], (0, 1): k[0, 1], (2, 0): k[2, 0], (1, 1): k[1, 1], (0, 2): k[0, 2]}
    if max_order == 4:
        for p in range(4):
            table[(p, 3 - p)] = k[p, 3 - p]
        table[(4, 0)] = k[4, 0] + 3.0 * k[2, 0] ** 2
        table[(3, 1)] = k[3, 1] + 3.0 * k[2, 0] * k[1, 1]
        table[(2, 2)] = k[2, 2] + k[2, 0] * k[0, 2] + 2.0 * k[1, 1] ** 2
        table[(1, 3)] = k[1, 3] + 3.0 * k[0, 2] * k[1, 1]
        table[(0, 4)] = k[0, 4] + 3.0 * k[0, 2] ** 2
    table = {key: value.reshape(lead) if lead else float(value) for key, value in table.items()}
    mean_1, mean_2 = table.pop((1, 0)), table.pop((0, 1))
    return ReadoutMoments(
        mean_1=mean_1, mean_2=mean_2, var_1=table[(2, 0)], var_2=table[(0, 2)],
        cov=table[(1, 1)], centered=table if max_order == 4 else None,
    )


def quadrature_mean_cov(
    mean: np.ndarray, cov: np.ndarray, chi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Means (..., 2) and covariance matrices (..., 2, 2) of the
    quadratures X_chi = x cos(chi) + y sin(chi) of both modes; chi may
    be an array over the stack."""
    w = np.zeros(np.shape(chi) + (2, 4))
    w[..., 0, 0] = w[..., 1, 2] = np.cos(chi)
    w[..., 0, 1] = w[..., 1, 3] = np.sin(chi)
    return (w @ mean[..., None])[..., 0], w @ cov @ np.swapaxes(w, -1, -2)
