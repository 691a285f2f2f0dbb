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

The recurrence is real.  The beam splitter's mode matrix
M = [[c, i s], [i s, c]] (c, s the cosine and sine of phi/2) is
diag(1, -i) R diag(1, i) with R = [[c, s], [-s, c]] (equally
diag(1, i) R^T diag(1, -i)), so its sector block is
T_s[p, m] = i^(m-p) R_s[p, m] with R_s real.  Twin-beam and
coherent-only inputs carry phases linear in photon number, which fold
into a real kernel over the pair index; their arms, Grams and joint
distribution are real arrays.  Squeezed input keeps one complex arm.
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
    r = math.asinh(math.sqrt(lam))
    z = math.tanh(r) * np.exp(1j * (2.0 * chi - math.pi))
    lg = _log_factorials(cut)
    for k in range(0, (cut + 1) // 2):
        mag = math.exp(0.5 * lg[2 * k] - lg[k] - k * math.log(2.0))
        vec[2 * k] = z**k * mag
    return vec / math.sqrt(math.cosh(r))


def _twb_weights(lam: float, theta: float, cut: int) -> np.ndarray:
    """Pair-correlation amplitudes c_m of a two-mode squeezed vacuum."""
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
#
# The recurrence runs in real arithmetic.  The "i" convention's mode
# matrix [[c, i s], [i s, c]] (c = cos(phi/2), s = sin(phi/2)) is
# diag(1, -i) R diag(1, i) with R = [[c, s], [-s, c]] real: substituting
# b'+ = i b+ turns (c a+ + i s b+)^m (i s a+ + c b+)^n into
# (-i)^n (c a+ + s b'+)^m (-s a+ + c b'+)^n, and each a+^p b'+^(s-p) is
# i^(s-p) a+^p b+^(s-p), so with n = s - m
#   T_s[p, m] = i^(m-p) R_s[p, m],
# R_s the block of (alpha, beta, gamma, delta) = (c, s, -s, c).  The
# "real-symmetric" convention is real already, (c, s, s, c).


def _pair_coefficients(phi: float, convention: str) -> tuple[float, float, float, float]:
    """Real (alpha, beta, gamma, delta) of the convention's recurrence."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown beam-splitter convention {convention!r}")
    c = math.cos(0.5 * phi)
    s = math.sin(0.5 * phi)
    if convention == "i":
        return (c, s, -s, c)  # the transform is i^(m - p) times this one
    # not unitary; kept as a loud negative control
    return (c, s, s, c)


def _real_pair_transform(block: np.ndarray, phi: float, convention: str) -> np.ndarray:
    """The real recurrence of the convention on a real (n_a, n_b, batch)
    block: sum_m R_s[p, m] block[m, s - m] into out[p, s - p].

    Sector s comes from sector s - 1 by the one-photon step above, and
    only the input columns m the block reaches, max(0, s - n_b + 1) <= m
    <= min(n_a - 1, s), are kept: that band is closed under the step.
    Output axes are allocated to the full sector reach n_a + n_b - 1, so
    the transform itself is exact; truncation decisions stay with the
    caller."""
    alpha, beta, gamma, delta = _pair_coefficients(phi, convention)
    na, nb, batch = block.shape
    smax = na + nb - 2
    out = np.zeros((smax + 1, smax + 1, batch))
    out[0, 0] = block[0, 0]

    roots = np.sqrt(np.arange(smax + 1, dtype=float))
    # entry (m, s - m) of an (n_a, n_b) block sits at s + m (n_b - 1) once
    # flattened, so each sector is one strided slice, of the input and of
    # the (smax + 1, smax + 1) output alike
    sources = block.reshape(na * nb, batch)
    targets = out.reshape(-1, batch)
    band = np.ones((1, 1))  # sector 0: the vacuum column m = 0
    lo_prev = 0
    for s in range(1, smax + 1):
        lo, hi = max(0, s - nb + 1), min(na - 1, s)
        # columns lo - 1 ... hi of sector s - 1, zero outside its band and
        # framed by zero rows, raised into sector s:
        # (a+ v)[p] = sqrt(p) v[p - 1] and (b+ v)[p] = sqrt(s - p) v[p]
        frame = np.zeros((s + 2, hi - lo + 2))
        frame[1:-1, lo_prev - lo + 1 : lo_prev - lo + 1 + band.shape[1]] = band
        up = roots[: s + 1, None] * frame[:-1]
        down = roots[s::-1, None] * frame[1:]
        # column m takes sqrt(m)/s (alpha a+ + beta b+) of column m - 1
        # and sqrt(s - m)/s (gamma a+ + delta b+) of column m
        left = (alpha / s) * up[:, :-1]
        left += (beta / s) * down[:, :-1]
        left *= roots[lo : hi + 1]
        band = (gamma / s) * up[:, 1:]
        band += (delta / s) * down[:, 1:]
        band *= roots[s - hi : s - lo + 1][::-1]
        band += left
        lo_prev = lo
        columns = sources[s + lo * (nb - 1) : s + hi * (nb - 1) + 1 : max(nb - 1, 1)]
        targets[s : s * (smax + 1) + 1 : smax] = band @ columns
    return out


# i^k for k mod 4, exact: multiplying by one swaps or negates parts
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _bs_pair_transform(
    block: np.ndarray,
    phi: float,
    convention: str = "i",
) -> np.ndarray:
    """Apply the beam splitter on a complex (n_a, n_b, batch) amplitude
    block.

    Under the "i" convention the transformed mode a is
    cos(phi/2) a + i sin(phi/2) b, the port that keeps mode a's content
    at phi = 0.  The real recurrence acts on the real and imaginary
    parts together (the complex block viewed as reals, batch doubled);
    under "i" the input rows m are first multiplied by i^m and the
    output rows p by i^(-p), which is T_s[p, m] = i^(m-p) R_s[p, m]."""
    block = np.ascontiguousarray(block, dtype=complex)
    phases = convention == "i"
    if phases:
        block = block * _I_POWERS[np.arange(block.shape[0]) % 4, None, None]
    out = _real_pair_transform(block.view(float), phi, convention).view(complex)
    if phases:
        out *= _I_POWERS[-np.arange(out.shape[0]) % 4, None, None]
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

# Every supported input is  sum_r c_r |arm1_r> |arm2_r>  with arm_i a
# two-mode (quantum port, coherent port) product state: the pair index r
# is the photon number of the shared two-mode squeezed vacuum (rank one
# for independent inputs).  Beam splitters act inside one arm, so all
# arrays stay (rank, two-mode) sized and no four-mode tensor is formed.
#
# Twin-beam and coherent-only input is pair-diagonal: arm r starts as
# |r> (x) |coherent>, and both c_r = |c_r| e^{i theta r} and the coherent
# amplitudes |b_k| e^{i psi k} carry phases linear in photon number.
# Under "i" the transformed arm r is, at detected p and discarded p',
#   i^(r-p) e^{i psi (p+p'-r)} R_{p+p'}[p, r] |b_{p+p'-r}|,
# so its Gram over the discarded port, W[n][r, r'], is the real Gram G of
# the arm run on magnitudes times e^{i (r-r') (pi/2 - psi)}.  With
# p(n1, n2) = sum_{r r'} c_r conj(c_r') W1[n1][r, r'] W2[n2][r, r'] the
# phases collect into e^{i (r-r') (theta + pi - 2 psi)}, and G being
# symmetric leaves the real kernel
#   K[r, r'] = |c_r| |c_r'| cos((r - r') (theta + pi - 2 psi)),
# p = (K o G1) . G2^T over the flattened pair axes.  "real-symmetric" has
# no i^(r-p) factor, so its kernel angle is theta - 2 psi.  Squeezed
# input is rank one, but its phases interfere inside its one arm, so
# that arm stays complex and its kernel is 1.


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

    return weights, q_vecs.T[:, None, :] * coh[None, :, None]  # (quantum, coherent, rank)


def _per_arm(config: HolometerConfig, fn):
    """fn at each arm's phase.  Both arms see the same input block, so
    equal phases share one call and the second result is the first's."""
    first = fn(config.phi0_1)
    return first, first if config.phi0_2 == config.phi0_1 else fn(config.phi0_2)


def _arm_grams(config: HolometerConfig, convention: str):
    """The pair kernel K (rank, rank) and each arm's real Gram
    (detected, pair, pair) over its discarded port."""
    weights, block = _arm_block(config)
    if config.input_kind is InputKind.TWO_SQUEEZED:
        # its phases interfere inside the one arm, which stays complex
        kernel = np.ones((1, 1))
        transform = _bs_pair_transform
    else:
        # pair-diagonal: the phase per unit of r - r', derived above
        turn = config.theta - 2.0 * config.psi + (math.pi if convention == "i" else 0.0)
        pairs = np.arange(len(weights))
        moduli = np.abs(weights)
        kernel = np.outer(moduli, moduli) * np.cos(np.subtract.outer(pairs, pairs) * turn)
        transform, block = _real_pair_transform, np.abs(block)

    def gram(phi: float) -> np.ndarray:
        arm = transform(block, phi, convention).swapaxes(1, 2)  # (detected, pair, discarded)
        return (arm @ arm.conj().swapaxes(-1, -2)).real

    return kernel, *_per_arm(config, gram)


def fock_joint_pmf(config: HolometerConfig, *, convention: str = "i") -> np.ndarray:
    """Joint photon-number distribution of the two detected ports before
    detection loss."""
    kernel, gram1, gram2 = _arm_grams(config, convention)
    pmf = (kernel * gram1).reshape(len(gram1), -1) @ gram2.reshape(len(gram2), -1).T
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
    weights, block = _arm_block(config)
    cc = np.multiply.outer(weights, weights.conj())

    def lower(arm: np.ndarray) -> np.ndarray:
        # the detected port's annihilator, on axis 0
        out = np.zeros_like(arm)
        out[:-1] = arm[1:] * np.sqrt(np.arange(1.0, len(arm)))[:, None, None]
        return out

    def gram(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
        # <bra_M|ket_m> over the detected and discarded ports
        return np.tensordot(bra.conj(), ket, axes=([0, 1], [0, 1]))

    def grams(phi: float) -> tuple[np.ndarray, ...]:
        arm = _bs_pair_transform(block, phi)  # (detected, discarded, rank)
        a = lower(arm)
        return gram(arm, arm), gram(arm, a), gram(arm, lower(a)), gram(a, a)

    (g1_id, g1_a, g1_aa, g1_n), (g2_id, g2_a, g2_aa, g2_n) = _per_arm(config, grams)

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
