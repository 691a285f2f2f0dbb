"""Dense four-mode truncated-Fock reference for the oracle's tests.

``holonoise.fock_oracle`` factorizes every input across the two
interferometers and builds each arm from displacement matrix elements
and a binomial split.  This module does neither.  It keeps the
four-mode amplitude tensor, and it applies a beam splitter on each
total-photon-number sector s = m + n as the SU(2) rotation
exp(i phi/2 (a+ b + a b+)) (Campos, Saleh and Teich, PRA 40, 1371
(1989)), exponentiated through the eigen-decomposition of the
(s+1) x (s+1) tridiagonal generator.  ``detected_pmf`` runs the two
beam splitters one pair of sectors at a time, so it never holds a
transformed four-mode tensor.  Detection loss is explicit binomial
thinning of the joint distribution, and the moments are centred sums
over the thinned distribution.

Only the input amplitudes and the cutoff rule come from the oracle;
they have closed-form tests of their own.  The oracle's coherent port
is exact (it enters through displacement matrix elements), so
comparisons with it build this module's coherent port to a weighted
tail below DEEP_TAIL (``coherent_tail``) rather than at the oracle's
cutoff.

The module also keeps the complex arm route that the tests contract
the oracle's real arms against: the phased input amplitudes
(``_phased``) and the dense complex input block both arms share
(``_arm_block``), which ``sector_beam_splitter`` transforms whole.

Mode layout: 0 and 1 are the quantum ports feeding readout 1 and 2,
2 and 3 the corresponding coherent ports.
"""
from __future__ import annotations

import math

import numpy as np

from holonoise import fock_oracle as fo
from holonoise.config import HolometerConfig, InputKind
from holonoise.moments import CENTERED_KEYS, ReadoutMoments

# trailing slices below this probability change no double-precision
# moment, so dropping them keeps the dense tensors small at no cost
_TRIM_TOL = 1e-30
# a coherent port this deep is exact to double precision in every
# joint distribution of the envelope
DEEP_TAIL = 1e-17


def _coherent_port(mu: float, tail: float) -> np.ndarray:
    """Coherent-port magnitudes cut at the smallest length whose
    (1 + n)^4-weighted tail, the oracle's rule, is below ``tail`` of the
    weighted total."""
    magnitudes = fo._coherent_magnitudes(np.array([mu]), fo._PROBE)[0]
    weighted = magnitudes**2 * fo._TAIL_WEIGHTS
    tails = np.cumsum(weighted[::-1])[::-1]
    return magnitudes[: max(int(np.argmax(tails < tail * weighted.sum())), 1)]


def _magnitudes(config: HolometerConfig, coherent_tail: float | None) -> list:
    """The oracle's pair and quantum magnitudes of one configuration,
    and its coherent magnitudes at the oracle's coherent cutoff, or to
    ``coherent_tail`` when one is given."""
    [pairs], [quantum], (_, [cutoff]) = fo._port_magnitudes([config])
    coherent = (fo._coherent_magnitudes(np.array([config.mu]), cutoff)[0] if coherent_tail is None
                else _coherent_port(config.mu, coherent_tail))
    return [pairs, quantum, coherent]


def _phased(
    config: HolometerConfig, pairs: np.ndarray, quantum: np.ndarray | None, coherent: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The complex amplitudes behind the magnitudes of one configuration:
    pair weights, quantum-port amplitudes (None for pair-diagonal input)
    and coherent-port amplitudes."""
    weights = pairs * np.exp(1j * config.theta * np.arange(len(pairs)))
    if quantum is not None:
        turn = 2.0 * config.squeezed_quadrature_angle - math.pi  # per squeezed pair k = m / 2
        quantum = quantum * np.exp(0.5j * turn * np.arange(len(quantum)))
    return weights, quantum, coherent * np.exp(1j * config.psi * np.arange(len(coherent)))


def _arm_block(
    config: HolometerConfig, coherent_tail: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair weights and the dense complex input block (quantum, coherent,
    pair index) that both arms share, each pair index unweighted; the
    quadrature route transforms it whole."""
    weights, quantum, coh = _phased(config, *_magnitudes(config, coherent_tail))
    q_vecs = np.eye(len(weights), dtype=complex) if quantum is None else quantum[None, :]
    return weights, q_vecs.T[:, None, :] * coh[None, :, None]


def ports(
    config: HolometerConfig, cutoff: int | None = None, coherent_tail: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Quantum-port amplitudes over (port 1, port 2) and the coherent-port
    vector shared by both readouts.  ``cutoff`` pins every mode's cutoff;
    by default each port takes the oracle's automatic one, and the
    coherent port the tail ``coherent_tail`` when one is given."""
    if cutoff:
        kind = config.input_kind
        at = np.array([config.lam])
        pairs = fo._twb_weights(at, cutoff)[0] if kind is InputKind.TWB else np.ones(1)
        quantum = fo._squeezed_magnitudes(at, cutoff)[0] if kind is InputKind.TWO_SQUEEZED else None
        magnitudes = pairs, quantum, fo._coherent_magnitudes(np.array([config.mu]), cutoff)[0]
    else:
        magnitudes = _magnitudes(config, coherent_tail)
    weights, sq, coherent = _phased(config, *magnitudes)
    if config.input_kind is InputKind.TWB:
        return np.diag(weights), coherent
    if config.input_kind is InputKind.TWO_SQUEEZED:
        return np.multiply.outer(sq, sq), coherent
    return np.ones((1, 1), dtype=complex), coherent


def input_state(
    config: HolometerConfig, cutoff: int | None = None, coherent_tail: float | None = None,
) -> np.ndarray:
    """Four-mode input amplitudes in the module's mode layout."""
    quantum, coherent = ports(config, cutoff, coherent_tail)
    return np.multiply.outer(np.multiply.outer(quantum, coherent), coherent)


def _rotation(s: int, phi: float) -> np.ndarray:
    """exp(i phi/2 (a+ b + a b+)) on sector s, over |m, s - m>, m <= s."""
    # a+ b takes |m, s - m> to sqrt((m + 1)(s - m)) |m + 1, s - m - 1>
    m = np.arange(s)
    generator = np.diag(np.sqrt((m + 1.0) * (s - m)), -1)
    w, v = np.linalg.eigh(generator + generator.T)
    return (v * np.exp(0.5j * phi * w)) @ v.T


def sector_beam_splitter(block: np.ndarray, phi: float) -> np.ndarray:
    """exp(i phi/2 (a+ b + a b+)) on an (n_a, n_b, batch) amplitude block.

    The output axes reach n_a + n_b - 1, every sector the input touches."""
    na, nb, batch = block.shape
    smax = na + nb - 2
    out = np.zeros((smax + 1, smax + 1, batch), dtype=complex)
    for s in range(smax + 1):
        ms = np.arange(max(0, s - nb + 1), min(na - 1, s) + 1)
        ps = np.arange(s + 1)
        out[ps, s - ps] = _rotation(s, phi)[:, ms] @ block[ms, s - ms]
    return out


def trim(amp: np.ndarray) -> np.ndarray:
    """Drop trailing slices, along every axis, whose probability is below
    _TRIM_TOL."""
    prob = np.abs(amp) ** 2
    keep = []
    for axis in range(amp.ndim):
        marginal = prob.sum(axis=tuple(k for k in range(amp.ndim) if k != axis))
        kept = np.nonzero(marginal >= _TRIM_TOL)[0]
        keep.append(slice(0, int(kept[-1]) + 1 if len(kept) else 1))
    return amp[tuple(keep)]


def detected_pmf(
    config: HolometerConfig, cutoff: int | None = None, coherent_tail: float | None = None,
) -> np.ndarray:
    """Joint photon-number distribution of the two detected ports before
    loss, normalized as the oracle normalizes it.

    The beam splitters run one sector at a time: each sector s1 of the
    first readout, over every quantum port of the second, meets each
    sector s2 of the second, and the pair adds the probabilities of its
    (detected n1, detected n2) outputs, whose discarded counts s1 - n1
    and s2 - n2 are fixed.  So no array holds more than one sector of the
    first beam splitter's output."""
    amp = trim(input_state(config, cutoff, coherent_tail)).transpose(0, 2, 1, 3)
    # (quantum 1, coherent 1, quantum 2, coherent 2)
    na1, nb1, na2, nb2 = amp.shape
    second = [_rotation(s, config.phi0_2) for s in range(na2 + nb2 - 1)]
    pmf = np.zeros((na1 + nb1 - 1, na2 + nb2 - 1))
    for s1 in range(na1 + nb1 - 1):
        m1 = np.arange(max(0, s1 - nb1 + 1), min(na1 - 1, s1) + 1)
        # (quantum 2, coherent 2, detected 1)
        first = np.tensordot(_rotation(s1, config.phi0_1)[:, m1], amp[m1, s1 - m1],
                             axes=1).transpose(1, 2, 0)
        for s2, rotation in enumerate(second):
            m2 = np.arange(max(0, s2 - nb2 + 1), min(na2 - 1, s2) + 1)
            out = np.tensordot(rotation[:, m2], first[m2, s2 - m2], axes=1)  # (n2, n1)
            pmf[: s1 + 1, : s2 + 1] += np.abs(out.T) ** 2
    return pmf / pmf.sum()


def _thinning(eta: float, length: int) -> np.ndarray:
    # [k, n]: probability that k of n photons survive
    return np.array([
        [math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k) if k <= n else 0.0
         for n in range(length)]
        for k in range(length)
    ])


def thinned_moments(pmf: np.ndarray, eta_pair: tuple[float, float]) -> ReadoutMoments:
    """Joint moments of a two-port distribution after binomial loss."""
    thinned = _thinning(eta_pair[0], pmf.shape[0]) @ pmf @ _thinning(eta_pair[1], pmf.shape[1]).T
    n1 = np.arange(thinned.shape[0], dtype=float)
    n2 = np.arange(thinned.shape[1], dtype=float)
    mean_1 = float(n1 @ thinned.sum(axis=1))
    mean_2 = float(thinned.sum(axis=0) @ n2)
    centered = {
        (p, q): float((n1 - mean_1) ** p @ thinned @ (n2 - mean_2) ** q)
        for p, q in CENTERED_KEYS
    }
    return ReadoutMoments(
        mean_1=mean_1,
        mean_2=mean_2,
        var_1=centered[(2, 0)],
        var_2=centered[(0, 2)],
        cov=centered[(1, 1)],
        centered=centered,
    )


def member(moments: ReadoutMoments, index: int) -> ReadoutMoments:
    """The single-configuration carrier, floats, at one position of a
    carrier over a set."""
    return ReadoutMoments(
        **{name: float(getattr(moments, name)[index])
           for name in ("mean_1", "mean_2", "var_1", "var_2", "cov")},
        centered={key: float(values[index]) for key, values in moments.centered.items()},
    )
