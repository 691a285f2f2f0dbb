"""Truncated Fock-space reference implementation.

Everything here is deliberately independent of the Gaussian engine: the
input states are written out as photon-number amplitudes, the readout
beam splitters act sector by sector through a one-photon recurrence
(Risbo, J. Geodesy 70, 383 (1996)), and moments come from the joint
photon-number distribution.  Agreement between this route and the
covariance-matrix route is the main correctness check of the package.

Every supported input factorizes across the two interferometers up to a
single sum over the pair-correlation index (rank one for independent
inputs), so the oracle never forms a four-mode tensor: each beam
splitter acts on a (rank, two-mode) block of its own arm, and the joint
distribution of the detected pair is a contraction of the two arms.
Detection loss scales the joint falling-factorial moments by eta per
order, which is exact for binomial loss.

Mode layout, fixed throughout: each arm pairs a quantum port with the
coherent port of the same readout.  The detected output of each readout
beam splitter is the transformed quantum-port mode, so a closed
interferometer (tau = 1) sends all quantum light and no coherent light
to the detector.
"""
from __future__ import annotations

import math

import numpy as np

from .config import HolometerConfig, InputKind
from .moments import CENTERED_KEYS, QuadratureMoments, ReadoutMoments

__all__ = [
    "CutoffError",
    "two_photon_coincidence",
    "oracle_moments",
    "fock_joint_pmf",
    "fock_quadrature_moments",
]

MAX_MEAN_COHERENT = 4.0  # envelope where cutoffs stay tractable
MAX_MEAN_QUANTUM = 1.0
# A squeezed vacuum at lam = 1 keeps weighted mass out to ~150 photons,
# so the cap must sit above that; the factorized route never builds
# anything larger than a two-mode block at this size.
_CUTOFF_CAP = 160
_TAIL_TOL = 1e-10  # weighted relative tail kept below this
_WEIGHT_POWER = 4  # moments up to fourth order are requested downstream

_CONVENTIONS = ("i", "real-symmetric")


class CutoffError(RuntimeError):
    """Raised when a requested computation cannot be represented at the
    supported truncation, or when the joint distribution loses mass."""


# ---------------------------------------------------------------------------
# input amplitudes and the cutoff rule


def _log_factorials(n: int) -> np.ndarray:
    out = np.zeros(n)
    if n > 1:
        out[1:] = np.cumsum(np.log(np.arange(1, n, dtype=float)))
    return out


def _auto_cutoff(pmf: np.ndarray, label: str) -> int:
    """Smallest cutoff whose moment-weighted tail of the photon-number
    distribution ``pmf`` is negligible.

    The weight (1 + n)^4 makes the criterion track the worst moment the
    package reports rather than bare probability mass."""
    w = (1.0 + np.arange(len(pmf), dtype=float)) ** _WEIGHT_POWER
    weighted = pmf * w
    total = weighted.sum()
    tail = np.cumsum(weighted[::-1])[::-1]  # tail[c] = sum_{n >= c}
    ok = np.nonzero(tail <= _TAIL_TOL * total)[0]
    if len(ok) == 0 or ok[0] > _CUTOFF_CAP:
        raise CutoffError(
            f"{label}: needs cutoff beyond {_CUTOFF_CAP} for weighted tail {_TAIL_TOL}"
        )
    return max(int(ok[0]), 1)


def _truncated(amplitudes: np.ndarray, label: str) -> np.ndarray:
    """Amplitudes built at a probe length, cut at the automatic cutoff of
    their photon-number distribution |amplitude|^2."""
    return amplitudes[: _auto_cutoff(np.abs(amplitudes) ** 2, label)]


def _check_envelope(config: HolometerConfig) -> None:
    if config.mu > MAX_MEAN_COHERENT + 1e-9:
        raise CutoffError(
            f"coherent mean {config.mu} outside oracle envelope (max {MAX_MEAN_COHERENT})"
        )
    if config.lam > MAX_MEAN_QUANTUM + 1e-9:
        raise CutoffError(
            f"quantum mean {config.lam} outside oracle envelope (max {MAX_MEAN_QUANTUM})"
        )


def _coherent_vector(mu: float, psi: float, cut: int) -> np.ndarray:
    if mu == 0.0:
        vec = np.zeros(cut, dtype=complex)
        vec[0] = 1.0
        return vec
    n = np.arange(cut, dtype=float)
    mag = np.exp(-0.5 * mu + 0.5 * n * math.log(mu) - 0.5 * _log_factorials(cut))
    return mag * np.exp(1j * psi * n)


def _squeezed_vector(lam: float, chi: float, cut: int) -> np.ndarray:
    """Squeezed vacuum with the quadrature at angle chi squeezed."""
    vec = np.zeros(cut, dtype=complex)
    if lam == 0.0:
        vec[0] = 1.0
        return vec
    r = math.asinh(math.sqrt(lam))
    z = math.tanh(r) * np.exp(1j * (2.0 * chi - math.pi))
    lg = _log_factorials(cut)
    for k in range(0, (cut + 1) // 2):
        mag = math.exp(0.5 * lg[2 * k] - lg[k] - k * math.log(2.0))
        vec[2 * k] = z**k * mag
    return vec / math.sqrt(math.cosh(r))


def _twb_weights(lam: float, theta: float, cut: int) -> np.ndarray:
    """Pair-correlation amplitudes c_m of a two-mode squeezed vacuum."""
    if lam == 0.0:
        out = np.zeros(cut, dtype=complex)
        out[0] = 1.0
        return out
    x = math.sqrt(lam / (1.0 + lam)) * np.exp(1j * theta)
    return x ** np.arange(cut) / math.sqrt(1.0 + lam)


# ---------------------------------------------------------------------------
# beam splitter, sector by sector

# The two-mode transform conserves total photon number, so on each
# sector s = m + n it is a small dense block T_s[p, m] = <p, s-p|U|m, s-m>.
# Blocks are built sector by sector from the one-photon step
#   |m, s-m> = (sqrt(m) a+ |m-1, s-m> + sqrt(s-m) b+ |m, s-m-1>) / s
# with U a+ U^-1 = alpha a+ + beta b+ and U b+ U^-1 = gamma a+ + delta b+,
# the SU(2) recurrence of Risbo (J. Geodesy 70, 383 (1996)).  Every
# column is built from unit columns of the sector below with weights of
# modulus at most one, so no large intermediate values arise and the
# sectors stay unitary to about 1e-14 up to s = 200; expanding the
# products (alpha a+ + beta b+)^m (gamma a+ + delta b+)^n term by term
# instead cancels away every digit by s ~ 160.  The step is a
# polynomial identity and needs no unitarity, so the non-unitary
# convention goes through it too.


def _pair_coefficients(phi: float, convention: str) -> tuple[complex, complex, complex, complex]:
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown beam-splitter convention {convention!r}")
    c = math.cos(0.5 * phi)
    s = math.sin(0.5 * phi)
    if convention == "i":
        return (c, 1j * s, 1j * s, c)
    # not unitary; kept as a loud negative control
    return (c, complex(s), complex(s), c)


def _bs_pair_transform(
    block: np.ndarray,
    phi: float,
    convention: str = "i",
) -> np.ndarray:
    """Apply the beam splitter on a (n_a, n_b, batch) amplitude block.

    Under the "i" convention the transformed mode a is
    cos(phi/2) a + i sin(phi/2) b, the port that keeps mode a's content
    at phi = 0.  Sector s of the transform comes from sector s - 1 by
    the one-photon step above, and only the input columns m the block
    reaches, max(0, s - n_b + 1) <= m <= min(n_a - 1, s), are kept: that
    band is closed under the step.  Output axes are allocated to the
    full sector reach n_a + n_b - 1, so the transform itself is exact;
    truncation decisions stay with the caller."""
    alpha, beta, gamma, delta = _pair_coefficients(phi, convention)
    na, nb, batch = block.shape
    smax = na + nb - 2
    out = np.zeros((smax + 1, smax + 1, batch), dtype=complex)
    out[0, 0] = block[0, 0]

    roots = np.sqrt(np.arange(smax + 1, dtype=float))
    band = np.ones((1, 1), dtype=complex)  # sector 0: the vacuum column m = 0
    lo_prev = 0
    for s in range(1, smax + 1):
        lo, hi = max(0, s - nb + 1), min(na - 1, s)
        ms = np.arange(lo, hi + 1)
        # columns lo - 1 ... hi of sector s - 1, zero outside its band,
        # raised into sector s: (a+ v)[p] = sqrt(p) v[p - 1] and
        # (b+ v)[p] = sqrt(s - p) v[p]
        cols = slice(lo_prev - lo + 1, lo_prev - lo + 1 + band.shape[1])
        up = np.zeros((s + 1, len(ms) + 1), dtype=complex)
        down = np.zeros_like(up)
        up[1:, cols] = roots[1 : s + 1, None] * band
        down[:-1, cols] = roots[s:0:-1, None] * band
        # column m takes sqrt(m)/s (alpha a+ + beta b+) of column m - 1
        # and sqrt(s - m)/s (gamma a+ + delta b+) of column m
        band = (alpha * up[:, :-1] + beta * down[:, :-1]) * (roots[ms] / s) + (
            gamma * up[:, 1:] + delta * down[:, 1:]
        ) * (roots[s - ms] / s)
        lo_prev = lo
        ps = np.arange(s + 1)
        out[ps, s - ps, :] = band @ block[ms, s - ms, :]
    return out


def two_photon_coincidence(convention: str = "i") -> float:
    """Coincidence probability for one photon in each port of a
    balanced beam splitter.

    Any unitary convention sends both photons out the same side, so the
    coincidence must vanish; the deliberately broken "real-symmetric"
    convention leaves it at 1/2.  Used as a negative control on the
    beam-splitter phase convention.
    """
    block = np.zeros((2, 2, 1), dtype=complex)
    block[1, 1, 0] = 1.0
    out = _bs_pair_transform(block, math.pi / 2.0, convention)
    pmf = np.abs(out[:, :, 0]) ** 2
    return float(pmf[1, 1] / pmf.sum())


# ---------------------------------------------------------------------------
# factorized across the two interferometers

# Every supported input is  sum_m c_m |arm1_m> |arm2_m>  with arm_i a
# two-mode (quantum port, coherent port) product state: the pair index m
# is the photon number of the shared two-mode squeezed vacuum (rank one
# for independent inputs).  Beam splitters act inside one arm, so all
# arrays stay (rank, two-mode) sized and no four-mode tensor is formed.


def _arm_block(config: HolometerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Pair weights and the input block (quantum, coherent, rank) that
    both arms share, each pair index unweighted."""
    _check_envelope(config)
    probe = _CUTOFF_CAP + 257
    coh = _truncated(_coherent_vector(config.mu, config.psi, probe), "coherent port")

    if config.input_kind is InputKind.TWB:
        weights = _truncated(_twb_weights(config.lam, config.theta, probe), "pair-correlated port")
        q_vecs = np.eye(len(weights), dtype=complex)
    elif config.input_kind is InputKind.TWO_SQUEEZED:
        squeezed = _squeezed_vector(config.lam, config.squeezed_quadrature_angle, probe)
        weights = np.ones(1, dtype=complex)
        q_vecs = _truncated(squeezed, "squeezed port")[None, :]
    else:
        weights = np.ones(1, dtype=complex)
        q_vecs = np.ones((1, 1), dtype=complex)

    pre = q_vecs[:, :, None] * coh[None, None, :]  # (rank, quantum, coherent)
    return weights, pre.transpose(1, 2, 0)


def _schmidt_arms(config: HolometerConfig, convention: str = "i"):
    """Pair weights and transformed arm amplitudes (rank, detected, discarded)."""
    weights, block = _arm_block(config)

    def arm(phi: float) -> np.ndarray:
        return _bs_pair_transform(block, phi, convention).transpose(2, 0, 1)

    # both arms see the same input block, so equal phases share one
    # transform and the second arm is the first one's array
    arm1 = arm(config.phi0_1)
    arm2 = arm1 if config.phi0_2 == config.phi0_1 else arm(config.phi0_2)
    return weights, arm1, arm2  # each (rank, detected, discarded)


def _joint_pmf_from_arms(
    weights: np.ndarray, arm1: np.ndarray, arm2: np.ndarray
) -> np.ndarray:
    # p(n1, n2) = sum_{m m'} c_m conj(c_m') W1[n1, m, m'] W2[n2, m, m'],
    # W_i[n] = A_i[n] A_i[n]^H with A_i[n][m, k] = arm_i[m, n, k] tracing
    # the discarded port k of arm i
    def gram(arm: np.ndarray) -> np.ndarray:
        a = arm.transpose(1, 0, 2)
        return a @ a.conj().transpose(0, 2, 1)

    w1 = gram(arm1)
    w2 = w1 if arm2 is arm1 else gram(arm2)
    cc = np.multiply.outer(weights, weights.conj())
    lhs = (cc * w1).reshape(len(w1), -1)
    rhs = w2.reshape(len(w2), -1)
    return (lhs @ rhs.T).real


def fock_joint_pmf(config: HolometerConfig, *, convention: str = "i") -> np.ndarray:
    """Joint photon-number distribution of the two detected ports before
    detection loss."""
    pmf = _joint_pmf_from_arms(*_schmidt_arms(config, convention))
    total = pmf.sum()
    if convention == "real-symmetric":
        return np.clip(pmf, 0.0, None) / total
    if abs(total - 1.0) > 1e-9:
        raise CutoffError(f"joint distribution mass {total} drifted from 1")
    if pmf.min() < -1e-12:
        raise CutoffError(f"joint distribution has negative entry {pmf.min()}")
    return np.clip(pmf, 0.0, None) / total


# ---------------------------------------------------------------------------
# detection loss and moments

_STIRLING = np.array(
    [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 1, 3, 1, 0],
        [0, 1, 7, 6, 1],
    ],
    dtype=float,
)


def _falling_factorial_matrix(length: int) -> np.ndarray:
    n = np.arange(length, dtype=float)
    ff = np.ones((5, length))
    for j in range(1, 5):
        ff[j] = ff[j - 1] * (n - (j - 1))
    return ff


def _centered_from_raw(raw: np.ndarray) -> dict[tuple[int, int], float]:
    m1, m2 = raw[1, 0], raw[0, 1]
    u1 = np.zeros((5, 5))
    u2 = np.zeros((5, 5))
    for p in range(5):
        for i in range(p + 1):
            u1[p, i] = math.comb(p, i) * (-m1) ** (p - i)
            u2[p, i] = math.comb(p, i) * (-m2) ** (p - i)
    cen = u1 @ raw @ u2.T
    return {(p, q): float(cen[p, q]) for p, q in CENTERED_KEYS}


def _pmf_to_readout(pmf: np.ndarray, eta_pair: tuple[float, float]) -> ReadoutMoments:
    # loss scales joint falling-factorial moments by eta^order
    eta1, eta2 = eta_pair
    ff1 = _falling_factorial_matrix(pmf.shape[0])
    ff2 = _falling_factorial_matrix(pmf.shape[1])
    fact = ff1 @ pmf @ ff2.T
    fact *= np.multiply.outer(eta1 ** np.arange(5.0), eta2 ** np.arange(5.0))
    raw = _STIRLING @ fact @ _STIRLING.T
    cen = _centered_from_raw(raw)
    return ReadoutMoments(
        mean_1=float(raw[1, 0]),
        mean_2=float(raw[0, 1]),
        var_1=cen[(2, 0)],
        var_2=cen[(0, 2)],
        cov=cen[(1, 1)],
        centered=cen,
    )


def oracle_moments(config: HolometerConfig, *, convention: str = "i") -> ReadoutMoments:
    """Joint photon-number moments of the two readouts, loss included.

    End-to-end truncated-Fock reference for a full configuration:
    builds the input, applies both beam splitters, traces to the
    detected pair and applies the detection loss.
    """
    pmf = fock_joint_pmf(config, convention=convention)
    return _pmf_to_readout(pmf, config.eta_pair)


def fock_quadrature_moments(config: HolometerConfig) -> QuadratureMoments:
    """Means and covariance of the quadrature that carries the phase
    signal, per detected port.

    Loss is applied analytically: means scale with sqrt(eta), variances
    mix with vacuum noise, the cross covariance scales with sqrt(eta1 eta2).
    """
    chi = config.signal_quadrature_angle
    weights, arm1, arm2 = _schmidt_arms(config)
    cc = np.multiply.outer(weights, weights.conj())

    def lower(arm: np.ndarray) -> np.ndarray:
        out = np.zeros_like(arm)
        n = arm.shape[1]
        out[:, : n - 1, :] = arm[:, 1:, :] * np.sqrt(np.arange(1.0, n))[None, :, None]
        return out

    def gram(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
        return np.einsum("Mnk,mnk->Mm", bra.conj(), ket)

    a1, a2 = lower(arm1), lower(arm2)
    g1_id, g2_id = gram(arm1, arm1), gram(arm2, arm2)
    g1_a, g2_a = gram(arm1, a1), gram(arm2, a2)
    g1_aa = gram(arm1, lower(a1))
    g2_aa = gram(arm2, lower(a2))
    g1_n, g2_n = gram(a1, a1), gram(a2, a2)

    def expval(ga: np.ndarray, gb: np.ndarray) -> complex:
        return complex(np.einsum("mM,Mm,Mm->", cc, ga, gb))

    d1 = expval(g1_a, g2_id)
    d2 = expval(g1_id, g2_a)
    mean1 = math.sqrt(2.0) * (d1 * np.exp(-1j * chi)).real
    mean2 = math.sqrt(2.0) * (d2 * np.exp(-1j * chi)).real
    x1_sq = (expval(g1_aa, g2_id) * np.exp(-2j * chi)).real + expval(g1_n, g2_id).real + 0.5
    x2_sq = (expval(g1_id, g2_aa) * np.exp(-2j * chi)).real + expval(g1_id, g2_n).real + 0.5
    both = (expval(g1_a, g2_a) * np.exp(-1j * (chi + chi))).real
    cross = expval(g1_a.conj().T, g2_a).real  # the e^{i(chi - chi)} phase is 1
    cov0 = both + cross - mean1 * mean2

    eta1, eta2 = config.eta_pair
    return QuadratureMoments(
        mean_1=math.sqrt(eta1) * mean1,
        mean_2=math.sqrt(eta2) * mean2,
        var_1=eta1 * (x1_sq - mean1**2) + 0.5 * (1.0 - eta1),
        var_2=eta2 * (x2_sq - mean2**2) + 0.5 * (1.0 - eta2),
        cov=math.sqrt(eta1 * eta2) * cov0,
    )
