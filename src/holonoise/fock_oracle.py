"""Truncated Fock-space reference implementation.

Everything here is deliberately independent of the Gaussian engine: the
input states are written out as photon-number amplitudes, each readout
beam splitter is applied in the photon-number basis, and moments come
from the joint photon-number distribution.  Agreement between this
route and the covariance-matrix route is the main correctness check of
the package.

Every supported input factorizes across the two interferometers up to a
single sum over the pair-correlation index (rank one for independent
inputs), so the oracle never forms a four-mode tensor: each beam
splitter acts on one arm, a (quantum port, coherent port) product state
per pair index, and the joint distribution of the detected pair is a
contraction of the two arms' Grams over their discarded ports.

Under the unitary "i" convention the beam splitter turns the coherent
port into two displacements, one per output port, and the discarded
one drops out of every Gram.  So the coherent photons enter only
through the displacement matrix elements <n|D(x)|q> (Cahill and
Glauber, Phys. Rev. 177, 1857 (1969)), built by one scaled Laguerre
recurrence, and the quantum photons through a binomial split against
vacuum (the comment above _laguerre_table); the coherent port is exact
there, and its cutoff only sizes the detected range.  The deliberately
non-unitary "real-symmetric" convention has no such factorization, and
its arms run a one-photon sector recurrence (Risbo, J. Geodesy 70, 383
(1996)), as do the coincidence null and the quadrature moments.

Everything is real.  The beam splitter's mode matrix
M = [[c, i s], [i s, c]] (c, s the cosine and sine of phi/2) is
diag(1, -i) R diag(1, i) with R = [[c, s], [-s, c]] (equally
diag(1, i) R^T diag(1, -i)), so its sector block is
T_s[p, m] = i^(m-p) R_s[p, m] with R_s real.  Twin-beam and
coherent-only inputs carry phases linear in photon number, which fold
into a real kernel over the pair index; their arms, Grams and joint
distribution are real arrays.  Squeezed input is rank one; the output
phase i^(-p) drops out of its Gram, and its column amplitudes are
carried as real and imaginary parts.  The quadrature moments read the
same real arms: their phases fold into the same cosine kernel, so the
module computes in real arithmetic throughout.  Detection loss scales
the joint falling-factorial moments by eta per order, which is exact
for binomial loss.

One pass serves a whole set of configurations.  The input magnitudes
and cutoffs are built for the set at once, one (configurations x
_PROBE) array and one cumulative tail per port and input kind.  The
coherent phase e^{i psi n} and the pair phase e^{i theta m} reach the
joint distribution only through the kernel angle (and psi through the
squeezed column), so no complex coherent or pair amplitudes are formed
for it.  Each arm is a batch member with its own phase (unequal phases
give two members), and the members of one input kind are sorted by
sector reach n_a + n_b - 2 (the detected range less one).  Members are
cut into chunks in that order, a chunk holding at most _CHUNK_FLOATS
floats (1 MiB).  Under "i" a chunk is one displacement recurrence over
its members, with its tables and binomial splits; twin-beam and
coherent-only Grams are then formed one member at a time, in blocks of
_ROWS detected rows, and squeezed Grams in one product per photon-number
parity for the chunk.  Under "real-symmetric" a chunk is one sector
recurrence run, which keeps every sector's band for twin-beam and
coherent-only input and accumulates squeezed Grams sector by sector.
Each joint distribution is one product over the packed pair triangle,
one factor times its own transpose when the two phases are equal (every
configuration oracle-check draws).  The moments of the whole set are
read out together, one stacked 5 x 5 product per step, into one carrier
of arrays over the set.  A single configuration is a batch of one,
and the quadrature route runs the sector recurrence on the one or two
arms of one configuration, summing three real matrices over the sectors
(the comment above fock_quadrature_moments).  At the default seed and
at seeds 1000-1004, one ``oracle-check --n-configs 100`` makes 13-25
chunks and 710-1 623 table-recurrence steps, and the oracle's
allocations peak at 3.3-3.5 MiB under tracemalloc.

Mode layout, fixed throughout: each arm pairs a quantum port with the
coherent port of the same readout.  The detected output of each readout
beam splitter is the transformed quantum-port mode, so a closed
interferometer (tau = 1) sends all quantum light and no coherent light
to the detector.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, Iterator, Sequence

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
# detected rows per block of a twin-beam arm
_ROWS = 16

_CONVENTIONS = ("i", "real-symmetric")


class CutoffError(RuntimeError):
    """Raised when a requested computation cannot be represented at the
    supported truncation, or when the joint distribution loses mass."""


# ---------------------------------------------------------------------------
# input amplitudes and the cutoff rule


_LOG_FACTORIALS = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, _PROBE)))])


def _truncated(magnitudes: np.ndarray, label: str, positions: Sequence[int]) -> list[np.ndarray]:
    """Each row of ``magnitudes``, one port of the configuration at each
    of ``positions`` built at a probe length, cut at the smallest cutoff
    whose moment-weighted tail of the photon-number distribution
    |amplitude|^2 is negligible.

    The weight (1 + n)^4 makes the criterion track the worst moment the
    package reports rather than bare probability mass.  One cumulative
    tail serves every row."""
    weighted = magnitudes**2 * _TAIL_WEIGHTS[: magnitudes.shape[1]]
    tail = np.cumsum(weighted[:, ::-1], axis=1)[:, ::-1]  # tail[j, c] = sum_{n >= c}
    ok = tail <= _TAIL_TOL * weighted.sum(axis=1, keepdims=True)
    first = ok.argmax(axis=1)
    beyond = np.nonzero(~ok.any(axis=1) | (first > _CUTOFF_CAP))[0]
    if len(beyond):
        raise CutoffError(f"configuration {positions[beyond[0]]}: {label} needs cutoff beyond "
                          f"{_CUTOFF_CAP} for weighted tail {_TAIL_TOL}")
    return [row[:cut].copy() for row, cut in zip(magnitudes, np.maximum(first, 1))]


def _check_envelope(config: HolometerConfig) -> None:
    if config.mu > MAX_MEAN_COHERENT + 1e-9:
        raise CutoffError(
            f"coherent mean {config.mu} outside oracle envelope (max {MAX_MEAN_COHERENT})"
        )
    if config.lam > MAX_MEAN_QUANTUM + 1e-9:
        raise CutoffError(
            f"quantum mean {config.lam} outside oracle envelope (max {MAX_MEAN_QUANTUM})"
        )


# Each builder takes one mean occupancy per row and returns the moduli of
# the port's photon-number amplitudes, n < length.  Their phases are
# linear in n: e^{i psi n} (coherent), e^{i theta m} (pair weights) and
# e^{i (2 chi - pi) k} at m = 2k (squeezed, chi its squeezed quadrature).


def _coherent_magnitudes(mu: np.ndarray, length: int) -> np.ndarray:
    n = np.arange(length, dtype=float)
    dark = mu == 0.0
    log_mu = np.log(np.where(dark, 1.0, mu))[:, None]
    mag = np.exp(-0.5 * mu[:, None] + 0.5 * n * log_mu - 0.5 * _LOG_FACTORIALS[:length])
    mag[dark] = n == 0.0
    return mag


def _squeezed_magnitudes(lam: np.ndarray, length: int) -> np.ndarray:
    r = np.arcsinh(np.sqrt(lam))[:, None]
    k = np.arange((length + 1) // 2)
    lg = _LOG_FACTORIALS
    mag = np.zeros((len(lam), length))
    mag[:, ::2] = np.exp(0.5 * lg[2 * k] - lg[k] - k * math.log(2.0)) * np.tanh(r) ** k
    return mag / np.sqrt(np.cosh(r))


def _twb_weights(lam: np.ndarray, length: int) -> np.ndarray:
    """Moduli of the pair-correlation amplitudes c_m of a two-mode
    squeezed vacuum."""
    ratio = np.sqrt(lam / (1.0 + lam))[:, None]
    return ratio ** np.arange(length) / np.sqrt(1.0 + lam)[:, None]


def _port_magnitudes(
    configs: Sequence[HolometerConfig],
) -> tuple[list[np.ndarray], list[np.ndarray | None], list[np.ndarray]]:
    """Pair-weight moduli, quantum-port magnitudes and coherent-port
    magnitudes of each configuration, each at its automatic cutoff.  The
    quantum magnitudes are None for pair-diagonal input, where arm r
    starts as |r> (twin beams; coherent-only and squeezed input have the
    one pair index r = 0).

    Each port is built for the whole set at once, a (configurations x
    _PROBE) array per input kind with one cumulative tail."""
    for config in configs:
        _check_envelope(config)

    mu = np.array([config.mu for config in configs], dtype=float)
    lam = np.array([config.lam for config in configs], dtype=float)
    twb, squeezed = ([i for i, config in enumerate(configs) if config.input_kind is kind]
                     for kind in (InputKind.TWB, InputKind.TWO_SQUEEZED))
    coherent = _truncated(_coherent_magnitudes(mu, _PROBE), "coherent port", range(len(configs)))
    pairs: list[np.ndarray] = [np.ones(1)] * len(configs)
    quantum: list[np.ndarray | None] = [None] * len(configs)
    for i, row in zip(twb, _truncated(_twb_weights(lam[twb], _PROBE), "pair-correlated port", twb)):
        pairs[i] = row
    for i, row in zip(squeezed, _truncated(_squeezed_magnitudes(lam[squeezed], _PROBE),
                                           "squeezed port", squeezed)):
        quantum[i] = row
    return pairs, quantum, coherent


def port_cutoffs(
    configs: HolometerConfig | Sequence[HolometerConfig],
) -> tuple[int, int] | tuple[np.ndarray, np.ndarray]:
    """The oracle's (quantum-port, coherent-port) lengths: the pair-index
    cutoff for twin beams, the squeezed-port cutoff for squeezed input
    and 1 for coherent-only input.  Takes one configuration, or a
    sequence of them and returns two integer arrays over it, from one
    set-built pass."""
    single = isinstance(configs, HolometerConfig)
    quantum, coherent = _cutoffs(_port_magnitudes([configs] if single else configs))
    return (int(quantum[0]), int(coherent[0])) if single else (quantum, coherent)


def _cutoffs(magnitudes: tuple[list, list, list]) -> tuple[np.ndarray, np.ndarray]:
    """port_cutoffs of a set, from its _port_magnitudes."""
    lengths = np.array([(len(pair if port is None else port), len(coh))
                        for pair, port, coh in zip(*magnitudes)])
    return lengths[:, 0], lengths[:, 1]


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


def _chunks(members: list, floats: Callable[[list], int]) -> Iterator[list]:
    """Consecutive runs of reach-sorted members (reach, key, phi, quantum,
    |b|, mu) whose arrays, ``floats(run)`` of them, fit in _CHUNK_FLOATS
    (_band_floats for the sector recurrence, _table_floats under "i").
    A member larger than that is a chunk of its own."""
    start = 0
    while start < len(members):
        stop = start + 1
        while stop < len(members) and floats(members[start : stop + 1]) <= _CHUNK_FLOATS:
            stop += 1
        yield members[start:stop]
        start = stop


def _band_floats(run: list, keeps_bands: bool) -> int:
    """The recurrence's two frames and two sums per member, and every
    sector's band as well when the Grams follow the last sector."""
    size, width = run[0][0] + 1, max(len(member[4]) for member in run) + 1
    return len(run) * size * width * (4 + (size if keeps_bands else 0))


def two_photon_coincidence(convention: str = "i") -> float:
    """Coincidence probability for one photon in each port of a
    balanced beam splitter.

    Any unitary convention sends both photons out the same side, so the
    coincidence must vanish; the deliberately broken "real-symmetric"
    convention leaves it at 1/2.  Used as a negative control on the
    beam-splitter phase convention.

    The output amplitudes of |1, 1> are column k = 1 of sector 2, the
    recurrence's last: R_2[p, 1] = Q_2[p, 1] rows_2[p], and the phases
    i^(1-p) of "i" drop out of the probabilities.
    """
    *_, (_, _, band) = _sector_bands([math.pi / 2.0], convention, np.array([2]), np.array([2]))
    pmf = (band[0, :, 1] * _row_scales(2)[2]) ** 2
    return float(pmf[1] / pmf.sum())


# ---------------------------------------------------------------------------
# displacement matrix elements and the binomial split

# Under "i" a beam splitter maps a coherent input to a product of
# displacements, U D_coh(beta) U^-1 = D_det(i s beta) D_disc(c beta), so
# an arm of (quantum port) x |beta> leaves it as D_det(i s beta) D_disc(c beta)
# applied to the quantum port split against vacuum,
#   U |m, 0> = sum_j B_m(j) i^j |m - j, j>,  B_m(j) = sqrt(C(m, j)) c^(m-j) s^j,
# j photons sent to the discarded port.  D_disc is unitary and drops out
# of every Gram over the discarded port, so the coherent photons enter
# only through the matrix elements of D_det, which have the closed form
# of Cahill and Glauber (Phys. Rev. 177, 1857 (1969)): for real x and
# n >= q,
#   <n|D(x)|q> = e^(-x^2/2) sqrt(q!/n!) x^(n-q) L_q^(n-q)(x^2),
# and (-1)^(q-n) the same with n and q swapped for n < q.  Along a
# diagonal a = n - q write g_k = <k + a|D(x)|k> = c_k L_k^(a)(x^2).  The
# three-term Laguerre recurrence in the degree rounds 2k + 1 + a - x^2
# once per step, and at small x those errors feed a second solution that
# grows like log k on the diagonal a = 0 (2e-13 at x^2 = 1e-6, k = 199).
# So it is carried as a first-order pair, with
# e_(k+1) = c_k (L_(k+1)^(a) - L_k^(a)):
#   e_(k+1) = (sqrt(k (k + a)) e_k - x^2 g_k) / (k + 1),
#   g_(k+1) = sqrt((k + 1)/(k + 1 + a)) (g_k + e_(k+1)),
# from g_0 = e^(-x^2/2) x^a / sqrt(a!), a running product over a, and
# e_1 = (a - x^2) g_0.  At small x every sum adds terms of one sign, so
# the pair stays within 1e-15 of 50-digit values, and at x = 0 it is the
# identity exactly.  Every g is a matrix element of a unitary, at most 1
# in modulus, so nothing overflows.  The prefactors are running products
# rather than exp(log-factorial) sums, which lose about 1e-13 near
# x^2 = 1e-6.


@functools.lru_cache(maxsize=4)
def _laguerre_table(size: int) -> np.ndarray:
    k, a = np.arange(size, dtype=float)[:, None], np.arange(size, dtype=float)
    table = np.stack([np.sqrt(k * (k + a)) / (k + 1.0), np.sqrt((k + 1.0) / (k + 1.0 + a))])
    table.flags.writeable = False
    return table


def _laguerre_steps(rows: int, width: int) -> np.ndarray:
    """sqrt(k (k + a)) / (k + 1) and sqrt((k + 1)/(k + 1 + a)) at [k, a],
    k < rows and a < width, the weights of the pair above; tables are
    built in sizes of 64 and kept."""
    return _laguerre_table(-(-max(rows, width) // 64) * 64)[:, :rows, :width]


def _displacement_tables(x: np.ndarray, rows: int, width: int) -> np.ndarray:
    """g[j, k, a] = <k + a|D(x_j)|k> for k < rows and a < width, one
    recurrence over the members (the comment above)."""
    weights = _laguerre_steps(rows, width)
    square = x * x
    tables = np.empty((len(x), rows, width))
    first = np.empty((len(x), width))
    first[:, 0] = np.exp(-0.5 * square)
    first[:, 1:] = x[:, None] / np.sqrt(np.arange(1.0, width))
    np.cumprod(first, axis=1, out=tables[:, 0])
    steps = (np.arange(width, dtype=float) - square[:, None]) * tables[:, 0]  # e_1
    drifts = square[:, None] / np.arange(1.0, rows + 1.0)  # x^2 / (k + 1)
    for k in range(rows - 1):
        if k:
            steps *= weights[0, k]
            steps -= drifts[:, k, None] * tables[:, k]
        np.add(tables[:, k], steps, out=tables[:, k + 1])
        tables[:, k + 1] *= weights[1, k]
    return tables


def _matrix_elements(tables: np.ndarray, detected: int, columns: int) -> np.ndarray:
    """d[..., n, q] = <n|D(x)|q> for n < detected and q < columns, read
    from displacement tables that reach k = min(n, q) and a = |n - q|."""
    n, q = np.arange(detected)[:, None], np.arange(columns)
    gap = n - q
    elements = tables.reshape(tables.shape[:-2] + (-1,))[
        ..., np.minimum(n, q) * tables.shape[-1] + np.abs(gap)]
    elements *= np.where((gap < 0) & (gap % 2 == 1), -1.0, 1.0)
    return elements


@functools.lru_cache(maxsize=4)
def _root_binomial_table(size: int) -> np.ndarray:
    table = np.zeros((size, size))
    for m in range(size):
        table[m, : m + 1] = [float(math.comb(m, j)) for j in range(m + 1)]
    table = np.sqrt(table)
    table.flags.writeable = False
    return table


def _binomial_splits(first: np.ndarray, second: np.ndarray, size: int) -> np.ndarray:
    """split[j, m, i] = sqrt(C(m, i)) first_j^(m-i) second_j^i for
    m, i < size (zero for i > m), from the binomials rounded once; with
    (first, second) = (cos, sin) of phi/2 it is B_m(i) above."""
    roots = _root_binomial_table(-(-size // 64) * 64)[:size, :size]
    index = np.arange(size)
    rests = (first[:, None] ** index)[:, np.maximum(index[:, None] - index, 0)]
    return roots * rests * (second[:, None] ** index)[:, None, :]


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
# The displacement route ("i", the comment above _laguerre_table) gives
# the same kernel.  The detected displacement is i s beta =
# x e^{i (psi + pi/2)} with x = s sqrt(mu), so arm r is, at detected n
# and discarded j,
#   i^j e^{i (psi + pi/2) (n - r + j)} d[n, r - j] B_r(j),
# d[n, q] = <n|D(x)|q>, real, and its Gram over the discarded port is
# e^{-i (r-r') (psi + pi/2)} G[n][r, r'] with
#   G[n] = V[n] V[n]^T,  V[n, r, j] = d[n, r - j] B_r(j).
# The phases collect into e^{i (r-r') (theta - pi - 2 psi)}, the kernel
# angle above less 2 pi per unit of r - r'.  (G is the recurrence's
# times (-1)^(r-r'), a sign both arms carry.)
#
# K, G1 and G2 are symmetric in (r, r'), so the sum runs over the packed
# triangle r <= r' with weight 1 on the diagonal and 2 off it.  With a
# coherent port cut at n_b, arm r reaches sectors r to r + n_b - 1 only,
# so G[r, r'] is an exact zero for r' >= r + n_b and the triangle is cut
# to that band.  The displacement route's exact coherent port leaves a
# product of two coherent tails there; the cut moves no distribution of
# the envelope by more than about 1e-16 (against a dense reference with a
# coherent tail below 1e-17).
# Scaling each packed column by the root of its weighted kernel's
# modulus, the columns of positive kernel first, makes
# p = P1+ . P2+^T - P1- . P2-^T with (detected x n(n+1)/2) arrays P1, P2.
# With equal phases P1 = P2: one packed array, two products of a matrix
# with its own transpose (half the multiplications of a general
# product), and p exactly symmetric.
#
# Squeezed input is rank one, and its kernel is 1.  Its arm is
# sum_m R_s[p, m] i^m a_m |b_{s-m}| e^{i psi (s-m)}: the phase e^{i psi s}
# and the output phase i^(-p) drop out of the Gram sum |.|^2 over the
# discarded port, so the real band meets the complex column
# i^m e^{-i psi m} a_m |b_{s-m}| ("real-symmetric" without i^m), and
# the Gram accumulates sector by sector.  With a_m = |a_m| e^{i (2 chi - pi) k}
# at m = 2k the column's phase is e^{i (2 chi - 2 psi) k} under "i" and
# e^{i (2 chi - pi - 2 psi) k} under "real-symmetric".  The column is
# carried as its real and imaginary parts, |a_m| times the cosine and
# sine of that phase, so the band meets a real (n, 2) column.  Under the
# displacement route the amplitude at detected n and discarded j is
# sum_m a_m e^{-i (psi + pi/2) m} B_m(j) d[n, m - j] times a phase of
# (n, j) alone, and a_m e^{-i (psi + pi/2) m} is (-1)^m times the "i"
# column, which is the column itself on the even photon numbers of a
# squeezed vacuum; so G[n] = sum_j |sum_q d[n, q] column_(q+j) B_(q+j)(j)|^2.


def _table_floats(run: list, squeezed: bool) -> int:
    """Floats a run of members holds under "i": per member and table
    entry the displacement table, the matrix elements read from it and
    the index of that gather, and the binomial splits; for squeezed arms
    also the skewed column weights and the products of both parities."""
    size = max(len(member[3]) if squeezed else member[3] for member in run)
    detected = run[0][0] + 1
    return len(run) * size * ((5 * detected + 4 * size) if squeezed else (3 * detected + size))


def _chunk_tables(chunk: list, squeezed: bool) -> tuple[np.ndarray, np.ndarray]:
    """The tables of a chunk of members under "i": the displacement
    matrix elements d[j, n, q] = <n|D(x_j)|q>, x = sin(phi/2) sqrt(mu)
    (the factorization comment above), for n below the chunk's detected
    rows and q below its quantum-port length, and the binomial splits,
    B_m(i) at [j, m, i] for pair-diagonal arms and B_m(m - i) for
    squeezed ones."""
    size = max(len(member[3]) if squeezed else member[3] for member in chunk)
    detected = chunk[0][0] + 1
    half = 0.5 * np.array([member[2] for member in chunk])
    cos, sin = np.cos(half), np.sin(half)
    tables = _displacement_tables(sin * np.sqrt([member[5] for member in chunk]), size, detected)
    splits = _binomial_splits(sin, cos, size) if squeezed else _binomial_splits(cos, sin, size)
    return _matrix_elements(tables, detected, size), splits


def _pair_diagonal_grams(
    chunk: list, tables: tuple[np.ndarray, np.ndarray],
) -> Iterator[tuple[tuple, np.ndarray]]:
    """(key, Gram (detected, pair, pair)) of each member of a chunk of
    pair-diagonal arms under "i", members (reach, key, phi, pair count,
    |b|, mu), from the chunk's _chunk_tables: G[n] = V[n] V[n]^T with
    V[n, r, j] = d[n, r - j] B_r(j), one batched product per _ROWS
    detected rows.  Coherent-only input is one pair index."""
    elements, splits = tables
    detected, size = elements.shape[1:]
    arm_buffer = np.empty(_ROWS * size * size)
    gram_buffer = np.empty(detected * size * size)
    for j, member in enumerate(chunk):
        rows_total, n = int(member[0]) + 1, int(member[3])
        # padded[p, n - 1 + q] = d[p, q], zero for q < 0, so that
        # skewed[p, r, i] = d[p, r - i] is a strided view
        padded = np.zeros((rows_total, 2 * n - 1))
        padded[:, n - 1 :] = elements[j, :rows_total, :n]
        at = padded.strides
        skewed = as_strided(padded[:, n - 1 :], (rows_total, n, n), (at[0], at[1], -at[1]))
        split = splits[j, :n, :n]
        gram = gram_buffer[: rows_total * n * n].reshape(rows_total, n, n)
        for lo in range(0, rows_total, _ROWS):
            rows = min(_ROWS, rows_total - lo)
            arm = arm_buffer[: rows * n * n].reshape(rows, n, n)
            np.multiply(skewed[lo : lo + rows], split, out=arm)
            np.matmul(arm, arm.swapaxes(1, 2), out=gram[lo : lo + rows])
        yield member[1], gram


def _squeezed_grams(
    chunk: list, tables: tuple[np.ndarray, np.ndarray],
) -> Iterator[tuple[tuple, np.ndarray]]:
    """(key, Gram (detected,)) of each member of a chunk of squeezed arms
    under "i", members (reach, key, phi, column amplitudes as (n, 2) real
    and imaginary parts, |b|, mu), from the chunk's _chunk_tables:
      G[n] = sum_i |sum_q d[n, q] column_(q+i) B_(q+i)(i)|^2.
    A squeezed vacuum holds even photon numbers only, so column_(q+i)
    vanishes unless q and i share their parity: one batched product per
    parity for the chunk."""
    elements, splits = tables
    size = elements.shape[2]
    # weights[j, m, q] = column_m B_m(m - q), zero from m = the member's
    # cutoff on, so that skewed[j, q, i] = weights[j, q + i, q] is
    # column_(q+i) B_(q+i)(i)
    weights = np.zeros((len(chunk), 2 * size, size, 2))
    for j, member in enumerate(chunk):
        weights[j, : len(member[3])] = member[3][:, None, :]
    weights[:, :size] *= splits[..., None]
    at = weights.strides
    skewed = as_strided(weights, (len(chunk), size, size, 2), (at[0], at[1] + at[2], at[1], at[3]))
    gram = np.zeros(elements.shape[:2])
    for parity in (0, 1):
        block = skewed[:, parity::2, parity::2]
        products = elements[:, :, parity::2] @ block.reshape(
            len(chunk), block.shape[1], 2 * block.shape[2])
        gram += np.einsum("jnc,jnc->jn", products, products)
    for j, member in enumerate(chunk):
        yield member[1], gram[j, : member[0] + 1]


def _pair_diagonal_band_grams(chunk: list, convention: str) -> Iterator[tuple[tuple, np.ndarray]]:
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


def _squeezed_band_grams(chunk: list, convention: str) -> Iterator[tuple[tuple, np.ndarray]]:
    """(key, Gram (detected,)) of each member of a chunk of squeezed
    arms, members (reach, key, phi, column amplitudes as (n, 2) real and
    imaginary parts, |b|), accumulated over the sectors as
    sum |R_s . column|^2, with the scaling of Q split between the column
    and the rows."""
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
        amplitudes[j, width - 1 : width - 1 + na[j]] = roots[: na[j], None] * member[3]
    gram = np.zeros((len(chunk), size))
    for s, a, band in _sector_bands([member[2] for member in chunk], convention, na, nb):
        # column k meets amplitude m = s - k
        column = amplitudes[:a, s : s + width][:, ::-1] * magnitudes[:a]
        out = np.matmul(band, column)
        out *= scales[s, : s + 1]
        gram[:a, : s + 1] += np.einsum("jpc,jpc->jp", out, out)
    for j, member in enumerate(chunk):
        yield member[1], gram[j, : member[0] + 1]


def _set_chunks(
    configs: Sequence[HolometerConfig], convention: str,
    magnitudes: tuple[list, list, list] | None = None,
) -> tuple[dict[int, tuple[np.ndarray, float, int] | None], list[tuple[bool, list]]]:
    """The pair kernel of every configuration (the pair moduli, the
    kernel angle and the coherent cutoff; None for rank-one input) and
    its arms as batch members, one per distinct phase, cut into chunks:
    (squeezed, chunk) per chunk, each input kind's members sorted by
    sector reach (module docstring).  ``magnitudes`` are the set's
    _port_magnitudes, built here when not given."""
    pairs, quantum, coherent = magnitudes or _port_magnitudes(configs)
    shift = 0.0 if convention == "i" else math.pi  # "real-symmetric" lacks the i^m phases
    groups: dict[InputKind, list] = {}
    kernels: dict[int, tuple[np.ndarray, float, int] | None] = {}
    for index, config in enumerate(configs):
        if quantum[index] is None:
            # pair-diagonal: the phase per unit of r - r', derived above
            turn = config.theta - 2.0 * config.psi + (math.pi - shift)
            kernels[index] = pairs[index], turn, len(coherent[index])
            length = arm_input = len(pairs[index])
        else:
            kernels[index] = None
            turn = 2.0 * (config.squeezed_quadrature_angle - config.psi) - shift
            length = len(quantum[index])
            angle = 0.5 * turn * np.arange(length)
            arm_input = quantum[index][:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        phases = (config.phi0_1,) if config.phi0_2 == config.phi0_1 else (config.phi0_1, config.phi0_2)
        # a member: (reach, key, phi, pair count or column amplitudes, |b|, mu)
        groups.setdefault(config.input_kind, []).extend(
            (length + len(coherent[index]) - 2, (index, arm), phi, arm_input, coherent[index],
             config.mu)
            for arm, phi in enumerate(phases))
    chunks = []
    for kind, members in groups.items():
        members.sort(key=lambda member: -member[0])
        squeezed = kind is InputKind.TWO_SQUEEZED
        if convention == "i":
            floats = functools.partial(_table_floats, squeezed=squeezed)
        else:
            floats = functools.partial(_band_floats, keeps_bands=not squeezed)
        chunks += [(squeezed, chunk) for chunk in _chunks(members, floats)]
    return kernels, chunks


def _arm_grams(
    configs: Sequence[HolometerConfig], convention: str,
    magnitudes: tuple[list, list, list] | None = None,
) -> Iterator[tuple[int, tuple[np.ndarray, float, int] | None, np.ndarray, np.ndarray]]:
    """(index, pair kernel, Gram of arm 1, Gram of arm 2) for every
    configuration, in the order the chunks of _set_chunks finish them;
    equal phases give one array as both Grams.  A configuration is
    yielded as soon as both of its arms' Grams exist, and its Grams may
    be overwritten once the next one is asked for.  Under "i" each
    chunk reads its _chunk_tables; "real-symmetric" runs the sector
    recurrence."""
    kernels, chunks = _set_chunks(configs, convention, magnitudes)
    waiting: dict[int, np.ndarray] = {}
    for squeezed, chunk in chunks:
        if convention == "i":
            grams = (_squeezed_grams if squeezed else _pair_diagonal_grams)(
                chunk, _chunk_tables(chunk, squeezed))
        else:
            grams = (_squeezed_band_grams if squeezed else _pair_diagonal_band_grams)(
                chunk, convention)
        for (index, arm), gram in grams:
            config = configs[index]
            if config.phi0_2 != config.phi0_1 and index not in waiting:
                waiting[index] = gram.copy()
                continue
            other = waiting.pop(index, gram)
            yield (index, kernels[index]) + ((other, gram) if arm else (gram, other))


def _joint_pmfs(
    configs: Sequence[HolometerConfig], convention: str,
    magnitudes: tuple[list, list, list] | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """(index, joint distribution before loss) for every configuration,
    in the order the chunks finish them (magnitudes as for _arm_grams)."""
    for index, kernel, gram1, gram2 in _arm_grams(configs, convention, magnitudes):
        yield index, _checked_pmf(index, kernel, gram1, gram2, convention)


@functools.lru_cache(maxsize=None)  # one entry per pair count, at most _CUTOFF_CAP
def _packed_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triangle r <= r' of an (n, n) pair block, diagonal by
    diagonal (the n entries r = r' first), so that a band
    r' - r < b is a prefix: r, r' and the flat position r n + r';
    read-only."""
    r, r2 = np.triu_indices(n)
    order = np.argsort(r2 - r, kind="stable")
    out = r[order], r2[order], (r * n + r2)[order]
    for array in out:
        array.flags.writeable = False
    return out


def _checked_pmf(
    index: int, kernel: tuple[np.ndarray, float, int] | None, gram1: np.ndarray,
    gram2: np.ndarray, convention: str,
) -> np.ndarray:
    """p = (K o G1) . G2^T, normalized, with K the pair kernel of the
    moduli |c_r| and kernel angle in ``kernel`` (None: rank one, K = 1),
    over the packed triangle cut to the band the coherent cutoff leaves
    nonzero (the comment above); one array passed as both Grams (equal
    phases) is one packed factor, multiplied by its own transpose.
    Under the unitary convention a mass drift or a negative entry is a
    CutoffError naming the configuration's position."""
    if kernel is None:
        pmf = np.multiply.outer(gram1, gram2)
    else:
        moduli, turn, band = kernel
        n, b = len(moduli), min(band, len(moduli))
        r, r2, flat = (array[: b * n - b * (b - 1) // 2] for array in _packed_pairs(n))
        packed_kernel = moduli[r] * moduli[r2] * np.cos((r - r2) * turn)
        packed_kernel[n:] *= 2.0  # the weight off the diagonal
        negative = packed_kernel < 0.0
        order = np.argsort(negative, kind="stable")
        plus = len(order) - np.count_nonzero(negative)
        columns, roots = flat[order], np.sqrt(np.abs(packed_kernel[order]))
        first = gram1.reshape(len(gram1), -1)[:, columns]
        first *= roots  # in place: a second temporary costs 5% of this stage
        second = first if gram2 is gram1 else gram2.reshape(len(gram2), -1)[:, columns] * roots
        pmf = first[:, :plus] @ second[:, :plus].T - first[:, plus:] @ second[:, plus:].T
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


# n (n-1) ... (n-j+1) for j <= 4 and every detected photon number
# n < n_a + n_b - 1, read-only; a distribution of length L reads [:, :L]
_FALLING = np.ones((5, 2 * _CUTOFF_CAP))
_FALLING[1:] = np.cumprod(np.arange(2.0 * _CUTOFF_CAP) - np.arange(4.0)[:, None], axis=0)
_FALLING.flags.writeable = False
_BINOMIAL = np.array([[math.comb(p, i) for i in range(5)] for p in range(5)], dtype=float)
_BINOMIAL_POWERS = np.maximum(np.subtract.outer(np.arange(5), np.arange(5)), 0)  # p - i, i <= p
_ORDERS = np.arange(5.0)
_CENTERED_P, _CENTERED_Q = (list(axis) for axis in zip(*CENTERED_KEYS))


def _factorial_moments(pmf: np.ndarray) -> np.ndarray:
    """Joint falling-factorial moments <N1^(j) N2^(k)>, j, k <= 4, of a
    joint distribution."""
    return _FALLING[:, : pmf.shape[0]] @ pmf @ _FALLING[:, : pmf.shape[1]].T


def _readouts(factorial: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Means and centered moments of every configuration of a set, rows
    mean_1, mean_2 and CENTERED_KEYS by (configurations,) columns, from
    its (configurations, 5, 5) factorial moments before loss and
    (configurations, 2) efficiencies, as whole-set array work.

    Loss scales the joint falling-factorial moments by eta^order; the
    Stirling numbers turn them raw, and the centering matrices
    U[p, i] = C(p, i) (-mean)^(p - i) centre them."""
    loss = (etas[:, 0, None] ** _ORDERS)[:, :, None] * (etas[:, 1, None] ** _ORDERS)[:, None, :]
    raw = _STIRLING @ (factorial * loss) @ _STIRLING.T
    means = raw[:, [1, 0], [0, 1]]
    u1, u2 = (_BINOMIAL * (-means[:, port, None, None]) ** _BINOMIAL_POWERS for port in (0, 1))
    centered = (u1 @ raw @ u2.swapaxes(1, 2))[:, _CENTERED_P, _CENTERED_Q]
    return np.concatenate([means.T, centered.T])


def oracle_moments(
    configs: HolometerConfig | Sequence[HolometerConfig], *, convention: str = "i",
) -> ReadoutMoments:
    """Joint photon-number moments of the two readouts, loss included.

    End-to-end truncated-Fock reference: builds the input, applies both
    beam splitters, traces to the detected pair and applies the
    detection loss.  Takes one configuration and gives floats, or a
    sequence of them and gives arrays over it in set order, from one
    recurrence per chunk of arms (module docstring)."""
    return _oracle_set(configs, convention)[0]


def _oracle_set(
    configs: HolometerConfig | Sequence[HolometerConfig], convention: str,
) -> tuple[ReadoutMoments, tuple[np.ndarray, np.ndarray]]:
    """oracle_moments, and the port_cutoffs arrays of the same set, from
    one build of its input magnitudes."""
    single = isinstance(configs, HolometerConfig)
    batch = [configs] if single else list(configs)
    magnitudes = _port_magnitudes(batch)
    factorial = np.empty((len(batch), 5, 5))
    for index, pmf in _joint_pmfs(batch, convention, magnitudes):
        factorial[index] = _factorial_moments(pmf)
    values = _readouts(factorial, np.array([config.eta_pair for config in batch], dtype=float))
    mean_1, mean_2, *table = values[:, 0].tolist() if single else values
    centered = dict(zip(CENTERED_KEYS, table))
    return ReadoutMoments(mean_1=mean_1, mean_2=mean_2, var_1=centered[(2, 0)],
                          var_2=centered[(0, 2)], cov=centered[(1, 1)],
                          centered=centered), _cutoffs(magnitudes)


# ---------------------------------------------------------------------------
# quadrature readout

# Both readouts measure the signal quadrature
# x = (a e^{-i chi} + a+ e^{i chi}) / sqrt(2), chi = psi + pi/2.  Under
# "i" the arm of input |m> (x) |coherent> is, at detected p and
# discarded s - p, i^(m-p) e^{i psi (s-m)} A_s[p, m] with the real
#   A_s[p, m] = R_s[p, m] |b_{s-m}|,
# so between inputs m' and m, with f = e^{i (m-m') (pi/2 - psi)},
#   <m'|a+ a|m> = f N[m', m],  <m'|a|m> e^{-i chi} = -f L[m', m],
#   <m'|a^2|m> e^{-2 i chi} = f L2[m', m],
# real sums over the sectors and the detected port:
#   N = sum A_s[p, m'] p A_s[p, m],
#   L = sum A_s[p, m'] sqrt(p+1) A_{s+1}[p+1, m],
#   L2 = sum A_s[p, m'] sqrt((p+1)(p+2)) A_{s+2}[p+2, m].
# The input phases complete f to the kernel of the joint distributions:
# pair weights e^{i theta m} on both arms give
#   K[m', m] = |c_m'| |c_m| cos((m - m') (theta + pi - 2 psi)),
# squeezed amplitudes e^{i (chi_sq - pi/2) m} give
#   K[m', m] = |a_m'| |a_m| cos((m - m') (chi_sq - psi)),
# the real parts of the phased sums, N being symmetric.  A one-arm
# moment of pair-diagonal input meets the other arm's Gram, the
# identity, and reads W = diag K; rank-one input reads W = K, the other
# arm's norm being 1:
#   <x> = -sqrt(2) sum W o L,  <x^2> = sum W o (N + L2) + 1/2.
# Twin beams correlate the arms through <m'|x|m> = -f (L + L^T)[m', m]
# / sqrt(2) on each, so <x1 x2> = sum K o (L1 + L1^T) o L2, K and
# L1 + L1^T being symmetric; product inputs have no covariance.


def _arm_quadrature_sums(phis: Sequence[float], n_quantum: int, coherent: np.ndarray) -> np.ndarray:
    """(3, arms, n_quantum, n_quantum): N, L and L2 above for the arm at
    each of ``phis``, from one recurrence run on them as members.  Only
    the last two sectors' arms are kept, and each product is added into
    the window of inputs m that its two sectors reach."""
    count, nb = len(phis), len(coherent)
    roots, rows = _root_factorials(n_quantum + nb), _row_scales(n_quantum + nb - 2)
    sums = np.zeros((3, count, n_quantum, n_quantum))
    recent: list[tuple[slice, np.ndarray]] = []  # (window, A) of sectors s - 1 and s - 2
    for s, _, band in _sector_bands(phis, "i", np.full(count, n_quantum), np.full(count, nb)):
        window = slice(max(0, s - nb + 1), min(s, n_quantum - 1) + 1)
        m = np.arange(window.start, window.stop)
        k = s - m
        arm = band[:, :, k] * (rows[s, : s + 1, None] * (roots[k] * roots[m] * coherent[k]))
        p = np.arange(s + 1.0)
        # sector s - d meets the rows p >= d of sector s
        factors = (p, np.sqrt(p[1:]), np.sqrt(p[2:] * p[1:-1]))
        for total, (before, earlier), factor in zip(sums, [(window, arm), *recent], factors):
            total[:, before, window] += earlier.swapaxes(1, 2) @ (
                factor[:, None] * arm[:, s + 1 - len(factor) :])
        recent = [(window, arm), *recent[:1]]
    return sums


def fock_quadrature_moments(config: HolometerConfig) -> QuadratureMoments:
    """Means and covariance of the quadrature that carries the phase
    signal, per detected port, from the real sums N, L and L2 of each
    arm (the comment above).

    Loss is applied analytically: means scale with sqrt(eta), variances
    mix with vacuum noise, the cross covariance scales with sqrt(eta1 eta2).
    """
    pairs, quantum, coherent = (port[0] for port in _port_magnitudes([config]))
    if quantum is None:  # pair-diagonal: arm r starts as |r>
        moduli, turn = pairs, config.theta + math.pi - 2.0 * config.psi
    else:
        moduli, turn = quantum, config.squeezed_quadrature_angle - config.psi
    m = np.arange(len(moduli))
    kernel = np.multiply.outer(moduli, moduli) * np.cos(np.subtract.outer(m, m) * turn)
    weight = np.diag(np.diag(kernel)) if quantum is None else kernel
    phases = (config.phi0_1,) if config.phi0_2 == config.phi0_1 else (config.phi0_1, config.phi0_2)
    # arms 1 and 2, one array twice for equal phases
    number, lower, lower2 = _arm_quadrature_sums(phases, len(moduli), coherent)[:, [0, -1]]
    mean1, mean2 = (-math.sqrt(2.0) * np.einsum("mn,jmn->j", weight, lower)).tolist()
    x1_sq, x2_sq = (np.einsum("mn,jmn->j", weight, number + lower2) + 0.5).tolist()
    cov0 = 0.0
    if config.input_kind is InputKind.TWB:
        cov0 = float(np.sum(kernel * (lower[0] + lower[0].T) * lower[1])) - mean1 * mean2

    eta1, eta2 = config.eta_pair
    return QuadratureMoments(
        mean_1=math.sqrt(eta1) * mean1,
        mean_2=math.sqrt(eta2) * mean2,
        var_1=eta1 * (x1_sq - mean1**2) + 0.5 * (1.0 - eta1),
        var_2=eta2 * (x2_sq - mean2**2) + 0.5 * (1.0 - eta2),
        cov=math.sqrt(eta1 * eta2) * cov0,
    )
