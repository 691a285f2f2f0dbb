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

The beam splitter's mode matrix is the unitary [[c, i s], [i s, c]] (c,
s the cosine and sine of phi/2, the "i" convention).  It turns the
coherent port into two displacements, one per output port, and the
discarded one drops out of every Gram.  So the coherent photons enter
only through the displacement matrix elements <n|D(x)|q> (Cahill and
Glauber, Phys. Rev. 177, 1857 (1969)), built by one scaled Laguerre
recurrence, and the quantum photons through a binomial split against
vacuum (the comment above _laguerre_table); the coherent port is exact
there, and its cutoff only sizes the detected range.  There is no other
beam splitter: crosscheck's negative control is mis-phased input.

Everything is real.  Twin-beam and coherent-only inputs carry phases
linear in photon number, which fold into a real kernel over the pair
index; their arms, Grams and joint distribution are real arrays.
Squeezed input is rank one, and its column amplitudes are carried as
real and imaginary parts.  The quadrature moments read the same real
arms, their phases folded into the same cosine kernel, so the module
computes in real arithmetic throughout.  Detection loss scales the
joint falling-factorial moments by eta per order, which is exact for
binomial loss.

One pass serves a whole set of configurations.  The input magnitudes
and cutoffs are built for the set at once, one (configurations x
_PROBE) array and one cumulative tail per port and input kind.  The
coherent phase e^{i psi n} and the pair phase e^{i theta m} reach the
joint distribution only through the kernel angle (and psi through the
squeezed column), so no complex coherent or pair amplitudes are formed
for it.  Each arm is a batch member with its own phase (unequal phases
give two members), and the members of one input kind are sorted by
reach n_a + n_b - 2 (the detected range less one).  Members are cut
into chunks in that order, a chunk holding at most _CHUNK_FLOATS floats
(1 MiB).  A chunk is one displacement recurrence over its members, with
its tables and binomial splits; twin-beam and coherent-only Grams are
then formed one member at a time, in blocks of _ROWS detected rows, and
squeezed Grams in one product per photon-number parity for the chunk.
Each joint distribution is one product over the packed pair triangle,
one factor times its own transpose when the two phases are equal (every
configuration oracle-check draws).  The moments of the whole set are
read out together, one stacked 5 x 5 product per step, into one carrier
of arrays over the set.  A single configuration is a batch of one, and
the quadrature route reads the chunk tables of the one or two arms of
one configuration, summing three real sums over the detected port
(the comment above fock_quadrature_moments).  At the default seed and
at seeds 1000-1004, one ``oracle-check --n-configs 100`` makes 13-25
chunks and 710-1 623 table-recurrence steps, mis-phased or not, and
the oracle's allocations peak at 3.3-3.5 MiB under tracemalloc.

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


class CutoffError(RuntimeError):
    """Raised when a requested computation cannot be represented at the
    supported truncation, or when the joint distribution loses mass."""


# ---------------------------------------------------------------------------
# input amplitudes and the cutoff rule


_LOG_FACTORIALS = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, _PROBE)))])


def _cutoffs_of(magnitudes: np.ndarray, label: str, positions: Sequence[int]) -> np.ndarray:
    """The cutoff of each row of ``magnitudes``, one port of the
    configuration at each of ``positions`` built at a probe length: the
    smallest length whose moment-weighted tail of the photon-number
    distribution |amplitude|^2 is negligible.

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
    return np.maximum(first, 1)


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
) -> tuple[list[np.ndarray], list[np.ndarray | None], tuple[np.ndarray, np.ndarray]]:
    """Pair-weight moduli and quantum-port magnitudes of each
    configuration, each at its automatic cutoff, and the set's
    port_cutoffs (the exact coherent port keeps only its cutoff).  The
    quantum magnitudes are None for pair-diagonal input, where arm r
    starts as |r> (twin beams; coherent-only and squeezed input have the
    one pair index r = 0).

    Each port is built for the whole set at once, a (configurations x
    _PROBE) array per input kind with one cumulative tail."""
    for config in configs:
        _check_envelope(config)

    mu = np.array([config.mu for config in configs], dtype=float)
    lam = np.array([config.lam for config in configs], dtype=float)
    coherent_cutoffs = _cutoffs_of(_coherent_magnitudes(mu, _PROBE), "coherent port",
                                   range(len(configs)))
    quantum_cutoffs = np.ones(len(configs), dtype=int)
    pairs: list[np.ndarray] = [np.ones(1)] * len(configs)
    quantum: list[np.ndarray | None] = [None] * len(configs)
    for kind, build, label, rows in (
            (InputKind.TWB, _twb_weights, "pair-correlated port", pairs),
            (InputKind.TWO_SQUEEZED, _squeezed_magnitudes, "squeezed port", quantum)):
        at = [i for i, config in enumerate(configs) if config.input_kind is kind]
        magnitudes = build(lam[at], _PROBE)
        quantum_cutoffs[at] = _cutoffs_of(magnitudes, label, at)
        for i, row in zip(at, magnitudes):
            rows[i] = row[: quantum_cutoffs[i]].copy()  # frees the probe-length array
    return pairs, quantum, (quantum_cutoffs, coherent_cutoffs)


def port_cutoffs(
    configs: HolometerConfig | Sequence[HolometerConfig],
) -> tuple[int, int] | tuple[np.ndarray, np.ndarray]:
    """The oracle's (quantum-port, coherent-port) lengths: the pair-index
    cutoff for twin beams, the squeezed-port cutoff for squeezed input
    and 1 for coherent-only input.  Takes one configuration, or a
    sequence of them and returns two integer arrays over it, from one
    set-built pass."""
    single = isinstance(configs, HolometerConfig)
    quantum, coherent = _port_magnitudes([configs] if single else configs)[2]
    return (int(quantum[0]), int(coherent[0])) if single else (quantum, coherent)


# ---------------------------------------------------------------------------
# displacement matrix elements and the binomial split

# A beam splitter maps a coherent input to a product of displacements,
# U D_coh(beta) U^-1 = D_det(i s beta) D_disc(c beta), so an arm of
# (quantum port) x |beta> leaves it as D_det(i s beta) D_disc(c beta)
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


def _matrix_elements(tables: np.ndarray) -> np.ndarray:
    """d[..., n, q] = <n|D(x)|q> for n below the tables' width and q
    below their rows, read from displacement tables g[..., k, a] that are
    at least as wide as they are long."""
    rows, width = tables.shape[-2:]
    n, q = np.arange(width)[:, None], np.arange(rows)
    gap = n - q
    elements = tables.reshape(tables.shape[:-2] + (-1,))[..., np.minimum(n, q) * width + np.abs(gap)]
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
# The detected displacement is i s beta = x e^{i (psi + pi/2)} with
# x = s sqrt(mu) (the comment above _laguerre_table), so arm r is, at
# detected n and discarded j,
#   i^j e^{i (psi + pi/2) (n - r + j)} d[n, r - j] B_r(j),
# d[n, q] = <n|D(x)|q>, real, and its Gram over the discarded port,
# W[n][r, r'], is e^{-i (r-r') (psi + pi/2)} G[n][r, r'] with the real
#   G[n] = V[n] V[n]^T,  V[n, r, j] = d[n, r - j] B_r(j).
# With p(n1, n2) = sum_{r r'} c_r conj(c_r') W1[n1][r, r'] W2[n2][r, r']
# the phases collect into e^{i (r-r') (theta - pi - 2 psi)}, and G being
# symmetric leaves the real kernel
#   K[r, r'] = |c_r| |c_r'| cos((r - r') (theta + pi - 2 psi)),
# p = (K o G1) . G2^T over the flattened pair axes.
#
# K, G1 and G2 are symmetric in (r, r'), so the sum runs over the packed
# triangle r <= r' with weight 1 on the diagonal and 2 off it.  A
# coherent port cut at n_b would leave G[r, r'] an exact zero for
# r' >= r + n_b, and the triangle is cut to that band; the exact
# coherent port leaves a product of two coherent tails there, and the
# cut moves no distribution of the envelope by more than about 1e-16
# (against a dense reference with a coherent tail below 1e-17).
# Scaling each packed column by the root of its weighted kernel's
# modulus, the columns of positive kernel first, makes
# p = P1+ . P2+^T - P1- . P2-^T with (detected x n(n+1)/2) arrays P1, P2.
# With equal phases P1 = P2: one packed array, two products of a matrix
# with its own transpose (half the multiplications of a general
# product), and p exactly symmetric.
#
# Squeezed input is rank one, and its kernel is 1.  Its amplitude at
# detected n and discarded j is sum_m a_m e^{-i (psi + pi/2) m} B_m(j)
# d[n, m - j] times a phase of (n, j) alone, which drops out of the Gram
# sum |.|^2 over the discarded port.  With a_m = |a_m| e^{i (2 chi - pi) k}
# at m = 2k, a_m e^{-i (psi + pi/2) m} is the column
# |a_m| e^{i (chi - psi) m} on the even photon numbers of a squeezed
# vacuum, carried as its real and imaginary parts, so
#   G[n] = sum_j |A[n, j]|^2,  A[n, j] = sum_q d[n, q] column_(q+j) B_(q+j)(j).


def _table_floats(run: list, squeezed: bool) -> int:
    """Floats a run of members holds: per member and table entry the
    displacement table, the matrix elements read from it and the index
    of that gather, and the binomial splits; for squeezed arms also the
    skewed column weights and the products of both parities."""
    size = max(len(member[3]) if squeezed else member[3] for member in run)
    detected = run[0][0] + 1
    return len(run) * size * ((5 * detected + 4 * size) if squeezed else (3 * detected + size))


def _chunks(members: list, squeezed: bool) -> Iterator[list]:
    """Consecutive runs of reach-sorted members (reach, key, phi, quantum,
    mu) whose _table_floats fit in _CHUNK_FLOATS.  A member larger
    than that is a chunk of its own."""
    start = 0
    while start < len(members):
        stop = start + 1
        while stop < len(members) and _table_floats(members[start : stop + 1],
                                                    squeezed) <= _CHUNK_FLOATS:
            stop += 1
        yield members[start:stop]
        start = stop


def _chunk_tables(chunk: list, squeezed: bool) -> tuple[np.ndarray, np.ndarray]:
    """The tables of a chunk of members: the displacement matrix
    elements d[j, n, q] = <n|D(x_j)|q>, x = sin(phi/2) sqrt(mu) (the
    factorization comment above), for n below the chunk's detected rows
    and q below its quantum-port length, and the binomial splits,
    B_m(i) at [j, m, i] for pair-diagonal arms and B_m(m - i) for
    squeezed ones."""
    size = max(len(member[3]) if squeezed else member[3] for member in chunk)
    detected = chunk[0][0] + 1
    half = 0.5 * np.array([member[2] for member in chunk])
    cos, sin = np.cos(half), np.sin(half)
    tables = _displacement_tables(sin * np.sqrt([member[4] for member in chunk]), size, detected)
    splits = _binomial_splits(sin, cos, size) if squeezed else _binomial_splits(cos, sin, size)
    return _matrix_elements(tables), splits


def _skewed(elements: np.ndarray) -> np.ndarray:
    """skewed[p, r, i] = d[p, r - i] (zero for i > r) from one member's
    (rows, n) matrix elements d[p, q], a strided view of a padded copy."""
    rows, n = elements.shape
    padded = np.zeros((rows, 2 * n - 1))
    padded[:, n - 1 :] = elements
    at = padded.strides
    return as_strided(padded[:, n - 1 :], (rows, n, n), (at[0], at[1], -at[1]))


def _pair_diagonal_grams(
    chunk: list, tables: tuple[np.ndarray, np.ndarray],
) -> Iterator[tuple[tuple, np.ndarray]]:
    """(key, Gram (detected, pair, pair)) of each member of a chunk of
    pair-diagonal arms, members (reach, key, phi, pair count, mu),
    from the chunk's _chunk_tables: G[n] = V[n] V[n]^T with
    V[n, r, j] = d[n, r - j] B_r(j), one batched product per _ROWS
    detected rows.  Coherent-only input is one pair index."""
    elements, splits = tables
    detected, size = elements.shape[1:]
    arm_buffer = np.empty(_ROWS * size * size)
    gram_buffer = np.empty(detected * size * size)
    for j, member in enumerate(chunk):
        rows_total, n = int(member[0]) + 1, int(member[3])
        skewed = _skewed(elements[j, :rows_total, :n])
        split = splits[j, :n, :n]
        gram = gram_buffer[: rows_total * n * n].reshape(rows_total, n, n)
        for lo in range(0, rows_total, _ROWS):
            rows = min(_ROWS, rows_total - lo)
            arm = arm_buffer[: rows * n * n].reshape(rows, n, n)
            np.multiply(skewed[lo : lo + rows], split, out=arm)
            np.matmul(arm, arm.swapaxes(1, 2), out=gram[lo : lo + rows])
        yield member[1], gram


def _squeezed_amplitudes(
    chunk: list, tables: tuple[np.ndarray, np.ndarray],
) -> Iterator[np.ndarray]:
    """A[j, n, (i, part)] above of a chunk of squeezed arms, members
    (reach, key, phi, column amplitudes as (n, 2) real and imaginary
    parts, mu), from the chunk's _chunk_tables, for the i of one
    photon-number parity at a time.  A squeezed vacuum holds even photon
    numbers only, so column_(q+i) vanishes unless q and i share their
    parity: one batched product per parity for the chunk."""
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
    for parity in (0, 1):
        block = skewed[:, parity::2, parity::2]
        yield elements[:, :, parity::2] @ block.reshape(
            len(chunk), block.shape[1], 2 * block.shape[2])


def _squeezed_grams(
    chunk: list, tables: tuple[np.ndarray, np.ndarray],
) -> Iterator[tuple[tuple, np.ndarray]]:
    """(key, Gram (detected,)) of each member of a chunk of squeezed arms,
    G[n] = sum over both parities of |A[n]|^2 (_squeezed_amplitudes)."""
    gram = np.zeros(tables[0].shape[:2])
    for products in _squeezed_amplitudes(chunk, tables):
        gram += np.einsum("jnc,jnc->jn", products, products)
    for j, member in enumerate(chunk):
        yield member[1], gram[j, : member[0] + 1]


def _set_chunks(
    configs: Sequence[HolometerConfig], inputs: tuple[list, list, tuple],
) -> tuple[dict[int, tuple[np.ndarray, float, int] | None], list[tuple[bool, list]]]:
    """The pair kernel of every configuration (the pair moduli, the
    kernel angle and the coherent cutoff; None for rank-one input) and
    its arms as batch members, one per distinct phase, cut into chunks:
    (squeezed, chunk) per chunk, each input kind's members sorted by
    reach (module docstring); ``inputs`` are the set's _port_magnitudes."""
    pairs, quantum, (_, coherent_cutoffs) = inputs
    coherent = coherent_cutoffs.tolist()
    groups: dict[InputKind, list] = {}
    kernels: dict[int, tuple[np.ndarray, float, int] | None] = {}
    for index, config in enumerate(configs):
        if quantum[index] is None:
            # pair-diagonal: the phase per unit of r - r', derived above
            turn = config.theta - 2.0 * config.psi + math.pi
            kernels[index] = pairs[index], turn, coherent[index]
            length = arm_input = len(pairs[index])
        else:
            kernels[index] = None
            turn = 2.0 * (config.squeezed_quadrature_angle - config.psi)
            length = len(quantum[index])
            angle = 0.5 * turn * np.arange(length)
            arm_input = quantum[index][:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        phases = (config.phi0_1,) if config.phi0_2 == config.phi0_1 else (config.phi0_1, config.phi0_2)
        # a member: (reach, key, phi, pair count or column amplitudes, mu)
        groups.setdefault(config.input_kind, []).extend(
            (length + coherent[index] - 2, (index, arm), phi, arm_input, config.mu)
            for arm, phi in enumerate(phases))
    chunks = []
    for kind, members in groups.items():
        members.sort(key=lambda member: -member[0])
        squeezed = kind is InputKind.TWO_SQUEEZED
        chunks += [(squeezed, chunk) for chunk in _chunks(members, squeezed)]
    return kernels, chunks


def _arm_grams(
    configs: Sequence[HolometerConfig], inputs: tuple[list, list, tuple],
) -> Iterator[tuple[int, tuple[np.ndarray, float, int] | None, np.ndarray, np.ndarray]]:
    """(index, pair kernel, Gram of arm 1, Gram of arm 2) for every
    configuration, in the order the chunks of _set_chunks finish them,
    each chunk from its _chunk_tables; equal phases give one array as
    both Grams.  A configuration is yielded as soon as both of its arms'
    Grams exist, and its Grams may be overwritten once the next one is
    asked for."""
    kernels, chunks = _set_chunks(configs, inputs)
    waiting: dict[int, np.ndarray] = {}
    for squeezed, chunk in chunks:
        grams = (_squeezed_grams if squeezed else _pair_diagonal_grams)(
            chunk, _chunk_tables(chunk, squeezed))
        for (index, arm), gram in grams:
            config = configs[index]
            if config.phi0_2 != config.phi0_1 and index not in waiting:
                waiting[index] = gram.copy()
                continue
            other = waiting.pop(index, gram)
            yield (index, kernels[index]) + ((other, gram) if arm else (gram, other))


def _joint_pmfs(
    configs: Sequence[HolometerConfig], inputs: tuple[list, list, tuple],
) -> Iterator[tuple[int, np.ndarray]]:
    """(index, joint distribution before loss) for every configuration,
    in the order the chunks finish them (inputs as for _set_chunks)."""
    for index, kernel, gram1, gram2 in _arm_grams(configs, inputs):
        yield index, _checked_pmf(index, kernel, gram1, gram2)


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
    gram2: np.ndarray,
) -> np.ndarray:
    """p = (K o G1) . G2^T, normalized, with K the pair kernel of the
    moduli |c_r| and kernel angle in ``kernel`` (None: rank one, K = 1),
    over the packed triangle cut to the band the coherent cutoff leaves
    nonzero (the comment above); one array passed as both Grams (equal
    phases) is one packed factor, multiplied by its own transpose.  A
    mass drift or a negative entry is a CutoffError naming the
    configuration's position."""
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
    if abs(total - 1.0) > 1e-9:
        raise CutoffError(f"configuration {index}: joint distribution mass {total} drifted from 1")
    if pmf.min() < -1e-12:
        raise CutoffError(f"configuration {index}: joint distribution has negative entry "
                          f"{pmf.min()}")
    return np.clip(pmf, 0.0, None) / total


def fock_joint_pmf(config: HolometerConfig) -> np.ndarray:
    """Joint photon-number distribution of the two detected ports before
    detection loss."""
    [(_, pmf)] = _joint_pmfs([config], _port_magnitudes([config]))
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


def oracle_moments(configs: HolometerConfig | Sequence[HolometerConfig]) -> ReadoutMoments:
    """Joint photon-number moments of the two readouts, loss included.

    End-to-end truncated-Fock reference: builds the input, applies both
    beam splitters, traces to the detected pair and applies the
    detection loss.  Takes one configuration and gives floats, or a
    sequence of them and gives arrays over it in set order, from one
    table recurrence per chunk of arms (module docstring)."""
    return _oracle_set(configs)[0]


def _oracle_set(
    configs: HolometerConfig | Sequence[HolometerConfig],
) -> tuple[ReadoutMoments, tuple[np.ndarray, np.ndarray]]:
    """oracle_moments, and the port_cutoffs arrays of the same set, from
    one build of its inputs."""
    single = isinstance(configs, HolometerConfig)
    batch = [configs] if single else list(configs)
    inputs = _port_magnitudes(batch)
    factorial = np.empty((len(batch), 5, 5))
    for index, pmf in _joint_pmfs(batch, inputs):
        factorial[index] = _factorial_moments(pmf)
    values = _readouts(factorial, np.array([config.eta_pair for config in batch], dtype=float))
    mean_1, mean_2, *table = values[:, 0].tolist() if single else values
    centered = dict(zip(CENTERED_KEYS, table))
    return ReadoutMoments(mean_1=mean_1, mean_2=mean_2, var_1=centered[(2, 0)],
                          var_2=centered[(0, 2)], cov=centered[(1, 1)],
                          centered=centered), inputs[2]


# ---------------------------------------------------------------------------
# quadrature readout

# Both readouts measure the signal quadrature
# x = (a e^{-i chi} + a+ e^{i chi}) / sqrt(2), chi = psi + pi/2, the
# phase of the detected displacement.  The arms above carry
# e^{i chi n} at detected n, which cancels against e^{-i chi} in every
# lowered sum, so between pair-diagonal inputs r' and r
#   <r'|a+ a|r> = f N[r', r],  <r'|a|r> e^{-i chi} = f L[r', r],
#   <r'|a^2|r> e^{-2 i chi} = f L2[r', r],  f = e^{-i chi (r - r')},
# with real sums over the detected and discarded ports:
#   N = sum_n n V[n] V[n]^T,  L = sum_n sqrt(n+1) V[n] V[n+1]^T,
#   L2 = sum_n sqrt((n+1)(n+2)) V[n] V[n+2]^T.
# A one-arm moment meets the other arm's Gram, the identity, and reads
# the diagonal, where f = 1, weighted by w = diag K = |c_r|^2:
#   <x> = sqrt(2) w . diag L,  <x^2> = w . diag (N + L2) + 1/2,
# so only the diagonals of N and L2 are formed.
# Twin beams correlate the arms through <r'|x|r> = f (L + L^T)[r', r]
# / sqrt(2) on each; the two f complete the pair weights' phases to the
# kernel K of the joint distributions, so <x1 x2> = sum K o (L1 + L1^T)
# o L2, K and L1 + L1^T being symmetric; product inputs have no
# covariance.  Squeezed input is rank one, w = 1, and its input phases
# sit in the column of A[n, j] (the factorization comment above): N, L
# and L2 are the same sums over one input, the real parts of
# sum_j conj(A[n, j]) A[n + k, j] read as dot products of the real and
# imaginary parts.


def _quadrature_sums(arm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """diag (N + L2) (inputs,) and L (inputs, inputs) above of an
    arm[n, r, j] over detected n, inputs r and discarded columns j."""
    n = np.arange(len(arm), dtype=float)
    square = (np.einsum("n,nrj,nrj->r", n, arm, arm)
              + np.einsum("n,nrj,nrj->r", np.sqrt(n[1:-1] * n[2:]), arm[:-2], arm[2:]))
    lower = np.tensordot(np.sqrt(n[1:])[:, None, None] * arm[:-1], arm[1:], axes=([0, 2], [0, 2]))
    return square, lower


def fock_quadrature_moments(config: HolometerConfig) -> QuadratureMoments:
    """Means and covariance of the quadrature that carries the phase
    signal, per detected port, from the real sums of each arm (the
    diagonals of N and L2, and L), read from the chunk tables of the
    joint distributions (the comment above).

    Loss is applied analytically: means scale with sqrt(eta), variances
    mix with vacuum noise, the cross covariance scales with sqrt(eta1 eta2).
    """
    kernels, chunks = _set_chunks([config], _port_magnitudes([config]))
    sums = {}
    for squeezed, chunk in chunks:
        tables = _chunk_tables(chunk, squeezed)
        if squeezed:  # one input, its columns (j, part) from both parities
            parts = list(_squeezed_amplitudes(chunk, tables))
            arms = [np.concatenate([part[j] for part in parts], axis=1)[:, None]
                    for j in range(len(chunk))]
        else:
            elements, splits = tables
            arms = [_skewed(elements[j]) * splits[j] for j in range(len(chunk))]
        for member, arm in zip(chunk, arms):
            sums[member[1][1]] = _quadrature_sums(arm)
    # arms 1 and 2, one pair of sums twice for equal phases
    (square1, lower1), (square2, lower2) = sums[0], sums.get(1, sums[0])
    moduli, turn, _ = kernels[0] or (np.ones(1), 0.0, 1)  # rank one: one pair index
    weight = moduli * moduli
    mean1, mean2 = (math.sqrt(2.0) * float(weight @ np.diag(lower)) for lower in (lower1, lower2))
    x1_sq, x2_sq = (float(weight @ square) + 0.5 for square in (square1, square2))
    cov0 = 0.0
    if config.input_kind is InputKind.TWB:
        m = np.arange(len(moduli))
        kernel = np.multiply.outer(moduli, moduli) * np.cos(np.subtract.outer(m, m) * turn)
        cov0 = float(np.sum(kernel * (lower1 + lower1.T) * lower2)) - mean1 * mean2

    eta1, eta2 = config.eta_pair
    return QuadratureMoments(
        mean_1=math.sqrt(eta1) * mean1,
        mean_2=math.sqrt(eta2) * mean2,
        var_1=eta1 * (x1_sq - mean1**2) + 0.5 * (1.0 - eta1),
        var_2=eta2 * (x2_sq - mean2**2) + 0.5 * (1.0 - eta2),
        cov=math.sqrt(eta1 * eta2) * cov0,
    )
