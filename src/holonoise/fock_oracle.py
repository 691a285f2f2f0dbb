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
splitter acts on one arm, a (quantum port, coherent port) product state
per pair index, and the joint distribution of the detected pair is a
contraction of the two arms' Grams over their discarded ports.

The recurrence is real.  The beam splitter's mode matrix
M = [[c, i s], [i s, c]] (c, s the cosine and sine of phi/2) is
diag(1, -i) R diag(1, i) with R = [[c, s], [-s, c]] (equally
diag(1, i) R^T diag(1, -i)), so its sector block is
T_s[p, m] = i^(m-p) R_s[p, m] with R_s real.  Twin-beam and
coherent-only inputs carry phases linear in photon number, which fold
into a real kernel over the pair index; their arms, Grams and joint
distribution are real arrays.  Squeezed input is rank one and keeps its
amplitudes complex, but the output phase i^(-p) drops out of its Gram.
Detection loss scales the joint falling-factorial moments by eta per
order, which is exact for binomial loss.

One recurrence serves a whole set of configurations.  Each arm is a
batch member with its own phase (unequal phases give two members), and
the members of one input kind are sorted by sector reach
n_a + n_b - 2, so sector s runs on the prefix of members that reach it.
Members are cut into chunks in that order, one recurrence run each, a
chunk holding at most _CHUNK_FLOATS floats (1 MiB): the recurrence's
frames and sums, and for twin-beam and coherent-only input, whose Grams
are products taken after the last sector, every sector's band.
Squeezed input accumulates its Gram sector by sector and keeps no
bands.  Arms, Grams and joint distributions are then formed one member
at a time, in blocks of _ROWS detected rows.  A single configuration,
a general amplitude block (_bs_pair_transform) and the quadrature route
are batches of one.  At the default seed and at seeds 1000-1004, one
``oracle-check --n-configs 100`` makes 43-49 recurrence runs and
2 339-2 699 sector steps (one run and about 50 steps per configuration
before), and its allocations peak at 3.9-4.9 MiB (3.1-3.9 MiB with one
configuration at a time).

Mode layout, fixed throughout: each arm pairs a quantum port with the
coherent port of the same readout.  The detected output of each readout
beam splitter is the transformed quantum-port mode, so a closed
interferometer (tau = 1) sends all quantum light and no coherent light
to the detector.
"""
from __future__ import annotations

import functools
import math
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .config import HolometerConfig, InputKind
from .moments import CENTERED_KEYS, QuadratureMoments, ReadoutMoments

__all__ = [
    "CutoffError",
    "two_photon_coincidence",
    "oracle_moments",
    "port_cutoffs",
    "fock_joint_pmf",
    "fock_quadrature_moments",
]

MAX_MEAN_COHERENT = 4.0  # envelope where cutoffs stay tractable
MAX_MEAN_QUANTUM = 1.0
# A squeezed vacuum at lam = 1 keeps weighted mass out to ~150 photons,
# so the cap must sit above that; the factorized route never builds
# anything larger than a two-mode block at this size.
_CUTOFF_CAP = 160
_PROBE = _CUTOFF_CAP + 257  # length at which input amplitudes are built
_TAIL_TOL = 1e-10  # weighted relative tail kept below this
_WEIGHT_POWER = 4  # moments up to fourth order are requested downstream
_TAIL_WEIGHTS = (1.0 + np.arange(_PROBE, dtype=float)) ** _WEIGHT_POWER
# floats one chunk of batch members holds (module docstring): 1 MiB
_CHUNK_FLOATS = 1 << 17
# detected rows per block of an arm and of a joint distribution
_ROWS = 16

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
    weighted = pmf * _TAIL_WEIGHTS[: len(pmf)]
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
    r = math.asinh(math.sqrt(lam))
    k = np.arange((cut + 1) // 2)
    lg = _log_factorials(cut)
    mag = np.exp(0.5 * lg[2 * k] - lg[k] - k * math.log(2.0)) * math.tanh(r) ** k
    vec = np.zeros(cut, dtype=complex)
    vec[::2] = mag * np.exp(1j * (2.0 * chi - math.pi) * k)
    return vec / math.sqrt(math.cosh(r))


def _twb_weights(lam: float, theta: float, cut: int) -> np.ndarray:
    """Pair-correlation amplitudes c_m of a two-mode squeezed vacuum."""
    x = math.sqrt(lam / (1.0 + lam)) * np.exp(1j * theta)
    return x ** np.arange(cut) / math.sqrt(1.0 + lam)


def _arm_inputs(config: HolometerConfig) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Pair weights, quantum-port amplitudes and coherent-port amplitudes
    of the arms, each at its automatic cutoff.  The quantum amplitudes
    are None for pair-diagonal input, where arm r starts as |r> (twin
    beams; coherent-only input is the one pair index r = 0)."""
    _check_envelope(config)
    coh = _truncated(_coherent_vector(config.mu, config.psi, _PROBE), "coherent port")
    if config.input_kind is InputKind.TWB:
        weights = _truncated(_twb_weights(config.lam, config.theta, _PROBE), "pair-correlated port")
        return weights, None, coh
    if config.input_kind is InputKind.TWO_SQUEEZED:
        squeezed = _squeezed_vector(config.lam, config.squeezed_quadrature_angle, _PROBE)
        return np.ones(1, dtype=complex), _truncated(squeezed, "squeezed port"), coh
    return np.ones(1, dtype=complex), None, coh


def port_cutoffs(config: HolometerConfig) -> tuple[int, int]:
    """The oracle's (quantum-port, coherent-port) lengths for ``config``:
    the pair-index cutoff for twin beams, the squeezed-port cutoff for
    squeezed input and 1 for coherent-only input."""
    weights, quantum, coh = _arm_inputs(config)
    return len(weights if quantum is None else quantum), len(coh)


def _arm_block(config: HolometerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Pair weights and the dense complex input block (quantum, coherent,
    pair index) that both arms share, each pair index unweighted; the
    quadrature route transforms it whole."""
    weights, quantum, coh = _arm_inputs(config)
    q_vecs = np.eye(len(weights), dtype=complex) if quantum is None else quantum[None, :]
    return weights, q_vecs.T[:, None, :] * coh[None, :, None]


# ---------------------------------------------------------------------------
# beam splitter, sector by sector

# The two-mode transform conserves total photon number, so on each
# sector s = m + n it is a small dense block T_s[p, m] = <p, s-p|U|m, s-m>.
# Blocks are built sector by sector from the one-photon step
#   |m, s-m> = (sqrt(m) a+ |m-1, s-m> + sqrt(s-m) b+ |m, s-m-1>) / s
# with U a+ U^-1 = alpha a+ + beta b+ and U b+ U^-1 = gamma a+ + delta b+,
# the SU(2) recurrence of Risbo (J. Geodesy 70, 383 (1996)).  Every
# column is built from unit columns of the sector below with weights of
# modulus at most one, so each step adds rounding of order one ulp of
# the block's scale and the sectors stay unitary to about 1e-15 up to
# s = 240; expanding the products (alpha a+ + beta b+)^m
# (gamma a+ + delta b+)^n term by term instead cancels away every digit
# by s ~ 160.  The step is a polynomial identity and needs no unitarity,
# so the non-unitary convention goes through it too.
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
#
# Columns are indexed by the coherent-port number k = s - m of the
# input, so every sector's band lies in 0 <= k < n_b whatever n_a is.
# The step's square roots are a rescaling: with
#   Q_s[p, k] = R_s[p, k] sqrt(C(s, p) C(s, k)) / 2^s,
# C the binomial coefficient, column k of sector s takes columns k and
# k - 1 of sector s - 1 with constant weights,
#   2 Q_s[p, k] = c (Q[p-1, k] + Q[p, k-1]) + s (Q[p, k] +/- Q[p-1, k-1]),
# Q = Q_{s-1} zero outside 0 <= p < s and m = s - k >= 0.  Each term is
# the normalized step's term times one positive number, the scale of
# Q_s[p, k], which bounds the scales of its four sources; so the
# rounding stays of order one ulp of the scale per step, as in the
# normalized form, and |Q| <= 1 under "i".  The four reads Q[p - i, k - j],
# i, j in {0, 1}, are one strided view of a zero-framed (row, column)
# block per member, so a step is a few whole-array operations over the
# members that reach the sector.  Callers undo the scaling:
# R_s[p, k] = Q_s[p, k] rows_s[p] sqrt(k! m!) with
# rows_s[p] = 2^s sqrt(p! (s-p)!) / s!.


def _root_factorials(n: int) -> np.ndarray:
    """sqrt(j!) for j < n, as a running product (finite for n <= 300)."""
    out = np.ones(n)
    out[1:] = np.cumprod(np.sqrt(np.arange(1.0, n)))
    return out


@functools.lru_cache(maxsize=4)
def _row_table(size: int) -> np.ndarray:
    roots = _root_factorials(size)
    s, p = np.ogrid[:size, :size]
    inside = p <= s
    rest = roots[np.where(inside, s - p, 0)]
    return np.where(inside, 2.0**s * (roots[p] / roots[s]) * (rest / roots[s]), 0.0)


def _row_scales(smax: int) -> np.ndarray:
    """rows[s, p] = 2^s sqrt(p! (s-p)!) / s! for s, p <= smax (zero for
    p > s), the row part of R / Q; tables are built in sizes of 64 and
    kept."""
    return _row_table(-(-(smax + 1) // 64) * 64)[: smax + 1, : smax + 1]


def _sector_bands(
    phis: Sequence[float], convention: str, na: np.ndarray, nb: np.ndarray,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The recurrence of the convention on a batch of members, one phase
    each, sorted by sector reach na + nb - 2 (descending), in the scaled
    form Q above.

    Yields (s, active, band) for s = 0 .. the first member's reach:
    band[j, p, k] = Q_s[p, s - k] of member j < active (the members
    that reach s) for p <= s and 0 <= k < max(nb), zero where k > s,
    plus one zero column.  The band is exact for every such k, also on
    columns m = s - k a member's own block does not reach, so callers
    weight by their own amplitudes (zero past their cutoffs).  A band is
    overwritten two steps later."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown beam-splitter convention {convention!r}")
    # (alpha, beta, gamma, delta) = (c, s, sign s, c): "i" is i^(m - p)
    # times the rotation, "real-symmetric" is not unitary, kept as a loud
    # negative control
    half = 0.5 * np.asarray(phis, dtype=float)
    cos, sin, sign = np.cos(half), np.sin(half), -1.0 if convention == "i" else 1.0
    count = len(na)
    reach = na + nb - 2
    smax = int(reach[0])
    width = int(nb.max()) + 1  # k = 0 .. max(nb) - 1 and a zero column
    rows = smax + 3  # p = -1 .. smax + 1
    active = np.searchsorted(-reach, -np.arange(smax + 1), side="right")
    # two frames, each behind one leading zero; reads[i, j] views a
    # frame at Q[p - i, k - j] (the row above p = 0 is zero, and so is
    # the zero column of the row above, read at k = 0)
    block = rows * width
    flat = [np.zeros(1 + count * block) for _ in range(2)]
    frames = [f[1:].reshape(count, rows, width) for f in flat]
    unit = flat[0].itemsize
    reads = [as_strided(f[1 + width :], (2, 2, count, smax + 1, width),
                        (-width * unit, -unit, block * unit, width * unit, unit)) for f in flat]
    sums = np.empty((2, count, smax + 1, width))
    # the weights of the [alpha/delta, beta/gamma] sums, halved
    weights = 0.5 * np.array([cos, sin])[:, :, None, None]
    frames[0][:, 1, 0] = 1.0  # sector 0: the vacuum
    yield 0, count, frames[0][:, 1:2]
    for s in range(1, smax + 1):
        a = int(active[s])
        read = reads[(s - 1) % 2][:, :, :a, : s + 1]
        pair = sums[:, :a, : s + 1]
        np.add(read[1, 0], read[0, 1], out=pair[0])
        (np.add if sign > 0 else np.subtract)(read[0, 0], read[1, 1], out=pair[1])
        pair *= weights[:, :a]
        new = frames[s % 2][:a, 1 : s + 2]
        np.add(pair[0], pair[1], out=new)
        new[:, :, -1] = 0.0  # the zero column took column k - 1
        yield s, a, new


def _chunks(members: list, keeps_bands: bool) -> Iterator[list]:
    """Consecutive runs of reach-sorted members (reach, key, phi, quantum,
    |b|) that hold at most _CHUNK_FLOATS floats: the recurrence's two
    frames and two sums per member, and every sector's band as well when
    the Grams follow the last sector.  A member larger than that is a
    chunk of its own."""
    start = 0
    while start < len(members):
        stop = start + 1
        while stop < len(members):
            run = members[start : stop + 1]
            size, width = run[0][0] + 1, max(len(member[4]) for member in run) + 1
            if len(run) * size * width * (4 + (size if keeps_bands else 0)) > _CHUNK_FLOATS:
                break
            stop += 1
        yield members[start:stop]
        start = stop


# i^k for k mod 4, exact: multiplying by one swaps or negates parts
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _bs_pair_transform(
    block: np.ndarray,
    phi: float,
    convention: str = "i",
) -> np.ndarray:
    """Apply the beam splitter on a complex (n_a, n_b, batch) amplitude
    block: sum_m T_s[p, m] block[m, s - m] into out[p, s - p], the
    output axes reaching every sector n_a + n_b - 1 of the input.

    Under the "i" convention the transformed mode a is
    cos(phi/2) a + i sin(phi/2) b, the port that keeps mode a's content
    at phi = 0.  The recurrence runs once, as a batch of one, on the
    real and imaginary parts together (the complex block viewed as
    reals); under "i" the input rows m are first multiplied by i^m and
    the output rows p by i^(-p), which is T_s[p, m] = i^(m-p) R_s[p, m]."""
    block = np.ascontiguousarray(block, dtype=complex)
    phases = convention == "i"
    if phases:
        block = block * _I_POWERS[np.arange(block.shape[0]) % 4, None, None]
    real = block.view(float)
    na, nb, batch = real.shape
    smax = na + nb - 2
    out = np.zeros((smax + 1, smax + 1, batch))
    # entry (p, s - p) of the output sits at s + p smax once flattened
    targets = out.reshape(-1, batch)
    roots, rows = _root_factorials(smax + 1), _row_scales(smax)
    for s, _, band in _sector_bands([phi], convention, np.array([na]), np.array([nb])):
        ks = np.arange(max(0, s - na + 1), min(s, nb - 1) + 1)
        columns = real[s - ks, ks] * (roots[ks] * roots[s - ks])[:, None]
        targets[s : s * (smax + 1) + 1 : max(smax, 1)] = (
            rows[s, : s + 1, None] * (band[0][:, ks] @ columns))
    out = out.view(complex)
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
# no i^(r-p) factor, so its kernel angle is theta - 2 psi.  The real arm
# is the band itself, R_s[p, r] |b_{s-r}|, with no product against the
# input block.
#
# Squeezed input is rank one, and its kernel is 1.  Its arm is
# sum_m R_s[p, m] i^m a_m |b_{s-m}| e^{i psi (s-m)}: the phase e^{i psi s}
# and the output phase i^(-p) drop out of the Gram sum |.|^2 over the
# discarded port, so the real band meets the complex column
# i^m e^{-i psi m} a_m |b_{s-m}| ("real-symmetric" without i^m), and
# the Gram accumulates sector by sector.


def _pair_diagonal_grams(chunk: list, convention: str) -> Iterator[tuple[tuple, np.ndarray]]:
    """(key, Gram (detected, pair, pair)) of each member of a chunk of
    pair-diagonal arms, members (reach, key, phi, pair count, |b|).

    The chunk keeps every sector's band with its row scale applied,
    store[j, s, p, k] = R_s[p, s - k] / sqrt(k! (s-k)!).  A member's arm,
    arm[p, r, r + k] = store[j, r + k, p, k] sqrt(r! k!) |b_k| and zero
    off that band, is then one strided product per _ROWS detected rows,
    and its Gram one batched product."""
    na = np.array([member[3] for member in chunk])
    nb = np.array([len(member[4]) for member in chunk])
    size, n_pairs, n_coherent = int(chunk[0][0]) + 1, int(na.max()), int(nb.max())
    scales = _row_scales(size - 1)[:, :, None]
    store = np.zeros((len(chunk), size, size, n_coherent + 1))
    for s, a, band in _sector_bands([member[2] for member in chunk], convention, na, nb):
        np.multiply(band, scales[s, : s + 1], out=store[:a, s, : s + 1])
    roots = _root_factorials(n_pairs + n_coherent)
    # one layout for every member: rows of n_pairs + n_coherent - 1
    # sectors, so that the band r <= s < r + n_coherent of every pair
    # index fits, is cleared and is all that is ever written
    arm = np.zeros((_ROWS, n_pairs, n_pairs + n_coherent - 1))
    step = arm.strides
    band_of = as_strided(arm, (_ROWS, n_pairs, n_coherent), (step[0], step[1] + step[2], step[2]))
    # skewed[j, p, r, k] = store[j, r + k, p, k]; each member reads only
    # its own corner, r + k <= its reach
    at = store.strides
    skewed = as_strided(store, (len(chunk), size, n_pairs, n_coherent),
                        (at[0], at[2], at[1], at[1] + at[3]))
    gram_buffer = np.empty(size * n_pairs * n_pairs)
    for j, member in enumerate(chunk):
        detected, pairs, coherent = int(member[0]) + 1, int(na[j]), int(nb[j])
        weights = np.multiply.outer(roots[:pairs], roots[:coherent] * member[4])
        bands = skewed[j, :detected, :pairs, :coherent]
        gram = gram_buffer[: detected * pairs * pairs].reshape(detected, pairs, pairs)
        for lo in range(0, detected, _ROWS):
            rows = min(_ROWS, detected - lo)
            band_of[:rows].fill(0.0)
            np.multiply(bands[lo : lo + rows], weights, out=band_of[:rows, :pairs, :coherent])
            block = arm[:rows, :pairs, lo:detected]  # zero below sector s = p
            np.matmul(block, block.swapaxes(1, 2), out=gram[lo : lo + rows])
        yield member[1], gram


def _squeezed_grams(chunk: list, convention: str) -> Iterator[tuple[tuple, np.ndarray]]:
    """(key, Gram (detected,)) of each member of a chunk of squeezed
    arms, members (reach, key, phi, complex column amplitudes, |b|),
    accumulated over the sectors as sum |R_s . column|^2, with the
    scaling of Q split between the column and the rows."""
    na = np.array([len(member[3]) for member in chunk])
    nb = np.array([len(member[4]) for member in chunk])
    size, width = int(chunk[0][0]) + 1, int(nb.max()) + 1
    roots = _root_factorials(size + width)
    scales = _row_scales(size - 1)[:, :, None]
    magnitudes = np.zeros((len(chunk), width, 1))
    # amplitudes[j, m + width - 1] = sqrt(m!) column amplitude m, zero for
    # m < 0 and past the member's cutoff
    amplitudes = np.zeros((len(chunk), size + width, 2))
    for j, member in enumerate(chunk):
        magnitudes[j, : nb[j], 0] = roots[: nb[j]] * member[4]
        amplitudes[j, width - 1 : width - 1 + na[j]] = (
            roots[: na[j], None] * member[3].view(float).reshape(-1, 2))
    gram = np.zeros((len(chunk), size))
    for s, a, band in _sector_bands([member[2] for member in chunk], convention, na, nb):
        # column k meets amplitude m = s - k
        column = amplitudes[:a, s : s + width][:, ::-1] * magnitudes[:a]
        out = np.matmul(band, column)
        out *= scales[s, : s + 1]
        gram[:a, : s + 1] += np.einsum("jpc,jpc->jp", out, out)
    for j, member in enumerate(chunk):
        yield member[1], gram[j, : member[0] + 1]


def _joint_pmfs(
    configs: Sequence[HolometerConfig], convention: str,
) -> Iterator[tuple[int, np.ndarray]]:
    """(index, joint distribution before loss) for every configuration,
    in the order the chunks finish them.

    Every arm is one batch member, two for unequal phases.  The members
    of each input kind are sorted by sector reach and run chunk by
    chunk (module docstring); a configuration's distribution is formed
    as soon as both of its arms' Grams exist."""
    groups: dict[InputKind, list] = {}
    kernels: dict[int, np.ndarray | None] = {}
    for index, config in enumerate(configs):
        weights, quantum, coh = _arm_inputs(config)
        if quantum is None:
            # pair-diagonal: the phase per unit of r - r', derived above
            turn = config.theta - 2.0 * config.psi + (math.pi if convention == "i" else 0.0)
            pairs = np.arange(len(weights))
            moduli = np.abs(weights)
            kernels[index] = np.outer(moduli, moduli) * np.cos(np.subtract.outer(pairs, pairs) * turn)
            length, arm_input = len(weights), len(weights)
        else:
            kernels[index] = None
            m = np.arange(len(quantum))
            arm_input = quantum * np.exp(-1j * config.psi * m)
            if convention == "i":
                arm_input *= _I_POWERS[m % 4]
            length = len(quantum)
        phases = (config.phi0_1,) if config.phi0_2 == config.phi0_1 else (config.phi0_1, config.phi0_2)
        # a member: (reach, key, phi, pair count or column amplitudes, |b|)
        groups.setdefault(config.input_kind, []).extend(
            (length + len(coh) - 2, (index, arm), phi, arm_input, np.abs(coh))
            for arm, phi in enumerate(phases))

    waiting: dict[int, np.ndarray] = {}
    for kind, members in groups.items():
        members.sort(key=lambda member: -member[0])
        squeezed = kind is InputKind.TWO_SQUEEZED
        run = _squeezed_grams if squeezed else _pair_diagonal_grams
        for chunk in _chunks(members, keeps_bands=not squeezed):
            for (index, arm), gram in run(chunk, convention):
                config = configs[index]
                if config.phi0_2 != config.phi0_1 and index not in waiting:
                    waiting[index] = gram.copy()
                    continue
                other = waiting.pop(index, gram)
                gram1, gram2 = (other, gram) if arm else (gram, other)
                yield index, _checked_pmf(index, kernels[index], gram1, gram2, convention)


def _checked_pmf(
    index: int, kernel: np.ndarray | None, gram1: np.ndarray, gram2: np.ndarray, convention: str,
) -> np.ndarray:
    """p = (K o G1) . G2^T, normalized; under the unitary convention a
    mass drift or a negative entry is a CutoffError naming the
    configuration's position."""
    if kernel is None:
        pmf = np.multiply.outer(gram1, gram2)
    else:
        pmf = np.empty((len(gram1), len(gram2)))
        right = gram2.reshape(len(gram2), -1).T
        for lo in range(0, len(gram1), _ROWS):
            rows = gram1[lo : lo + _ROWS]
            pmf[lo : lo + _ROWS] = (kernel * rows).reshape(len(rows), -1) @ right
    total = pmf.sum()
    if convention != "real-symmetric":
        if abs(total - 1.0) > 1e-9:
            raise CutoffError(f"configuration {index}: joint distribution mass {total} drifted from 1")
        if pmf.min() < -1e-12:
            raise CutoffError(f"configuration {index}: joint distribution has negative entry "
                              f"{pmf.min()}")
    return np.clip(pmf, 0.0, None) / total


def fock_joint_pmf(config: HolometerConfig, *, convention: str = "i") -> np.ndarray:
    """Joint photon-number distribution of the two detected ports before
    detection loss."""
    [(_, pmf)] = _joint_pmfs([config], convention)
    return pmf


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


def oracle_moments(
    configs: HolometerConfig | Sequence[HolometerConfig], *, convention: str = "i",
) -> ReadoutMoments | tuple[ReadoutMoments, ...]:
    """Joint photon-number moments of the two readouts, loss included.

    End-to-end truncated-Fock reference: builds the input, applies both
    beam splitters, traces to the detected pair and applies the
    detection loss.  Takes one configuration, or a sequence of them and
    returns their moments in order from one recurrence per chunk of
    arms (module docstring)."""
    single = isinstance(configs, HolometerConfig)
    batch = [configs] if single else list(configs)
    moments: list[ReadoutMoments | None] = [None] * len(batch)
    for index, pmf in _joint_pmfs(batch, convention):
        moments[index] = _pmf_to_readout(pmf, batch[index].eta_pair)
    return moments[0] if single else tuple(moments)


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

    # both arms see the same input block, so equal phases share one transform
    first = grams(config.phi0_1)
    second = first if config.phi0_2 == config.phi0_1 else grams(config.phi0_2)
    (g1_id, g1_a, g1_aa, g1_n), (g2_id, g2_a, g2_aa, g2_n) = first, second

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
