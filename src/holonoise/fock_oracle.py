"""Truncated Fock-space reference implementation.

Everything here is deliberately independent of the Gaussian engine: the
input states are written out as photon-number amplitudes, the readout
beam splitters act sector by sector through polynomial convolution, and
moments come from the joint photon-number distribution.  Agreement
between this route and the covariance-matrix route is the main
correctness check of the package.

Two internal representations are used.  The dense route keeps the full
four-mode amplitude tensor and exists for small cross-checks and the
deliberately broken beam-splitter convention.  The production route
exploits that every supported input factorizes across the two
interferometers up to a single sum over the pair-correlation index
(rank one for independent inputs), which keeps arrays two-mode sized.

Mode layout, fixed throughout: 0 and 1 are the quantum ports feeding
readout 1 and 2, modes 2 and 3 the corresponding coherent ports.  The
detected output of each readout beam splitter is the transformed
quantum-port mode, so a closed interferometer (tau = 1) sends all
quantum light and no coherent light to the detector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import HolometerConfig, InputKind
from .moments import CENTERED_KEYS, QuadratureMoments, ReadoutMoments

__all__ = [
    "CutoffError",
    "FockState",
    "build_fock_input",
    "apply_bs_unitary",
    "trim",
    "two_photon_coincidence",
    "fock_moments",
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
_DENSE_ELEMENT_CAP = 2**23
_TAIL_TOL = 1e-10  # weighted relative tail kept below this
_WEIGHT_POWER = 4  # moments up to fourth order are requested downstream
_NORM_TOL = 3e-10

_CONVENTIONS = ("i", "real-symmetric", "real-orthogonal")


class CutoffError(RuntimeError):
    """Raised when a requested computation cannot be represented at the
    supported truncation, or when norm accounting reveals leakage."""


# ---------------------------------------------------------------------------
# photon-number distributions of the inputs and the cutoff rule


def _log_factorials(n: int) -> np.ndarray:
    out = np.zeros(n)
    if n > 1:
        out[1:] = np.cumsum(np.log(np.arange(1, n, dtype=float)))
    return out


def _poisson_pmf(mu: float, length: int) -> np.ndarray:
    if mu == 0.0:
        out = np.zeros(length)
        out[0] = 1.0
        return out
    n = np.arange(length, dtype=float)
    return np.exp(-mu + n * math.log(mu) - _log_factorials(length))


def _geometric_pmf(lam: float, length: int) -> np.ndarray:
    if lam == 0.0:
        out = np.zeros(length)
        out[0] = 1.0
        return out
    x = lam / (1.0 + lam)
    return (1.0 - x) * x ** np.arange(length, dtype=float)


def _squeezed_pmf(lam: float, length: int) -> np.ndarray:
    # only even photon numbers are populated
    out = np.zeros(length)
    if lam == 0.0:
        out[0] = 1.0
        return out
    r = math.asinh(math.sqrt(lam))
    t2 = math.tanh(r) ** 2
    ks = np.arange((length + 1) // 2, dtype=float)
    lg = _log_factorials(length)
    even = np.arange(0, length, 2)
    logs = lg[even] - 2.0 * lg[even // 2] + ks[: len(even)] * (math.log(t2) - math.log(4.0))
    out[even] = np.exp(logs) / math.cosh(r)
    return out


def _auto_cutoff(pmf: np.ndarray, label: str) -> int:
    """Smallest cutoff whose moment-weighted tail is negligible.

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
# dense multimode states


@dataclass(frozen=True)
class FockState:
    """Dense photon-number amplitudes over a fixed number of modes."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amp)
        if amp.ndim < 1:
            raise ValueError("amplitude array must have at least one mode axis")
        norm = self.norm
        if abs(norm - 1.0) > _NORM_TOL:
            raise CutoffError(f"state norm {norm} drifted from 1 beyond {_NORM_TOL}")

    @property
    def n_modes(self) -> int:
        return self.amplitudes.ndim

    @property
    def cuts(self) -> tuple[int, ...]:
        return self.amplitudes.shape

    @property
    def norm(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def joint_pmf(self, keep: tuple[int, int]) -> np.ndarray:
        """Photon-number distribution of two modes, others traced out."""
        prob = np.abs(self.amplitudes) ** 2
        axes = tuple(k for k in range(self.n_modes) if k not in keep)
        pmf = prob.sum(axis=axes)
        if keep[0] > keep[1]:
            pmf = pmf.T
        return pmf


def build_fock_input(config: HolometerConfig, cutoff: int | None = None) -> FockState:
    """Four-mode input state in the fixed layout (quantum 1, quantum 2,
    coherent 1, coherent 2).  ``cutoff`` overrides the per-mode automatic
    choice, mainly for convergence tests."""
    _check_envelope(config)
    if cutoff is not None:
        cq = cc = cutoff
    else:
        probe = _CUTOFF_CAP + 257
        cc = _auto_cutoff(_poisson_pmf(config.mu, probe), "coherent port")
        if config.input_kind is InputKind.TWB:
            cq = _auto_cutoff(_geometric_pmf(config.lam, probe), "pair-correlated port")
        elif config.input_kind is InputKind.TWO_SQUEEZED:
            cq = _auto_cutoff(_squeezed_pmf(config.lam, probe), "squeezed port")
        else:
            cq = 1
    coh = _coherent_vector(config.mu, config.psi, cc)
    if config.input_kind is InputKind.TWB:
        pair = _twb_weights(config.lam, config.theta, cq)
        quantum = np.zeros((cq, cq), dtype=complex)
        np.fill_diagonal(quantum, pair)
    elif config.input_kind is InputKind.TWO_SQUEEZED:
        sq = _squeezed_vector(config.lam, config.squeezed_quadrature_angle, cq)
        quantum = np.multiply.outer(sq, sq)
    else:
        quantum = np.ones((1, 1), dtype=complex)
    amp = np.multiply.outer(np.multiply.outer(quantum, coh), coh)
    if amp.size > _DENSE_ELEMENT_CAP:
        raise CutoffError(
            f"dense four-mode tensor of {amp.size} elements; use the factorized route"
        )
    return FockState(amp)


# ---------------------------------------------------------------------------
# beam splitter, sector by sector

# The two-mode transform conserves total photon number, so on each
# sector s = m + n it is a small dense block.  Matrix elements follow
# from expanding (alpha a+ + beta b+)^m (gamma a+ + delta b+)^n, i.e.
# from one polynomial convolution per input column.


def _pair_coefficients(phi: float, convention: str) -> tuple[complex, complex, complex, complex]:
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown beam-splitter convention {convention!r}")
    c = math.cos(0.5 * phi)
    s = math.sin(0.5 * phi)
    if convention == "i":
        return (c, 1j * s, 1j * s, c)
    if convention == "real-orthogonal":
        return (c, -s, s, c)
    # not unitary; kept as a loud negative control
    return (c, complex(s), complex(s), c)


def _bs_pair_transform(
    block: np.ndarray,
    phi: float,
    convention: str = "i",
) -> np.ndarray:
    """Apply the beam splitter on a (n_a, n_b, batch) amplitude block.

    Output axes are allocated to the full sector reach n_a + n_b - 1, so
    the transform itself is exact; truncation decisions stay with the
    caller."""
    alpha, beta, gamma, delta = _pair_coefficients(phi, convention)
    na, nb, batch = block.shape
    smax = na + nb - 2
    out = np.zeros((smax + 1, smax + 1, batch), dtype=complex)

    rows_a: list[np.ndarray] = [np.ones(1, dtype=complex)]
    for _ in range(1, na):
        rows_a.append(np.convolve(rows_a[-1], np.array([beta, alpha])))
    rows_b: list[np.ndarray] = [np.ones(1, dtype=complex)]
    for _ in range(1, nb):
        rows_b.append(np.convolve(rows_b[-1], np.array([delta, gamma])))

    lg = _log_factorials(smax + 1)
    for s in range(smax + 1):
        m_lo = max(0, s - (nb - 1))
        m_hi = min(na - 1, s)
        ms = np.arange(m_lo, m_hi + 1)
        seg = block[ms, s - ms, :]
        tmat = np.empty((s + 1, len(ms)), dtype=complex)
        for idx, m in enumerate(ms):
            tmat[:, idx] = np.convolve(rows_a[m], rows_b[s - m])
        ps = np.arange(s + 1)
        tmat *= np.exp(0.5 * (lg[ps] + lg[s - ps]))[:, None]
        tmat *= np.exp(-0.5 * (lg[ms] + lg[s - ms]))[None, :]
        out[ps, s - ps, :] = tmat @ seg
    return out


def apply_bs_unitary(
    state: FockState,
    mode_a: int,
    mode_b: int,
    *,
    phi: float | None = None,
    tau: float | None = None,
    convention: str = "i",
) -> FockState:
    """Beam splitter on two modes of a dense state.

    The transformed ``mode_a`` is cos(phi/2) a + i sin(phi/2) b, so it is
    the port that keeps mode a's content at phi = 0.  ``tau`` is the
    equivalent transmissivity cos^2(phi/2) of the a -> a channel.  The
    non-unitary "real-symmetric" convention renormalizes its output and
    exists only to demonstrate what breaks without the i.
    """
    if (phi is None) == (tau is None):
        raise ValueError("specify exactly one of phi or tau")
    if phi is None:
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {tau}")
        phi = 2.0 * math.acos(math.sqrt(tau))
    if mode_a == mode_b:
        raise ValueError("beam splitter needs two distinct modes")

    amp = np.moveaxis(state.amplitudes, (mode_a, mode_b), (0, 1))
    na, nb = amp.shape[:2]
    rest_shape = amp.shape[2:]
    out_elements = (na + nb - 1) ** 2 * int(np.prod(rest_shape, dtype=np.int64))
    if out_elements > 4 * _DENSE_ELEMENT_CAP:
        raise CutoffError(
            f"beam splitter output would hold {out_elements} elements; "
            "use the factorized route"
        )
    block = amp.reshape(na, nb, -1)
    out = _bs_pair_transform(block, phi, convention)
    no = out.shape[0]
    out = out.reshape((no, no) + rest_shape)
    out = np.moveaxis(out, (0, 1), (mode_a, mode_b))

    leak = abs(float(np.vdot(out, out).real) - state.norm)
    if convention == "real-symmetric":
        out = out / math.sqrt(float(np.vdot(out, out).real))
    elif leak > _NORM_TOL:
        raise CutoffError(f"beam splitter leaked norm {leak}, sector allocation bug")
    return FockState(out)


def two_photon_coincidence(convention: str = "i", tau: float = 0.5) -> float:
    """Coincidence probability for one photon in each port of a single
    beam splitter.

    At tau = 1/2 any unitary convention sends both photons out the same
    side, so the coincidence must vanish; the deliberately broken
    "real-symmetric" convention leaves it at 1/2.  Used as a negative
    control on the beam-splitter phase convention.
    """
    amp = np.zeros((2, 2), dtype=complex)
    amp[1, 1] = 1.0
    out = apply_bs_unitary(FockState(amp), 0, 1, tau=tau, convention=convention)
    pmf = out.joint_pmf((0, 1))
    return float(pmf[1, 1] / pmf.sum())


def trim(state: FockState, tol: float = 1e-14) -> FockState:
    """Drop trailing slices whose moment-weighted mass is below tol.

    Trimming removes probability at most tol * (weighted total) per
    axis, well inside the norm drift the state validator accepts."""
    amp = state.amplitudes
    prob = np.abs(amp) ** 2
    slices = []
    for axis in range(amp.ndim):
        marg = prob.sum(axis=tuple(k for k in range(amp.ndim) if k != axis))
        w = (1.0 + np.arange(len(marg), dtype=float)) ** _WEIGHT_POWER
        weighted = marg * w
        tail = np.cumsum(weighted[::-1])[::-1]
        keep = np.nonzero(tail > tol * weighted.sum())[0]
        cut = int(keep[-1]) + 1 if len(keep) else 1
        slices.append(slice(0, cut))
    return FockState(amp[tuple(slices)])


# ---------------------------------------------------------------------------
# production route: factorized across the two interferometers

# Every supported input is  sum_m c_m |arm1_m> |arm2_m>  with arm_i a
# two-mode (quantum port, coherent port) product state: the pair index m
# is the photon number of the shared two-mode squeezed vacuum (rank one
# for independent inputs).  Beam splitters act inside one arm, so all
# arrays stay (rank, two-mode) sized and no four-mode tensor is formed.


def _schmidt_arms(config: HolometerConfig, convention: str = "i"):
    """Pair weights and transformed arm amplitudes (rank, detected, discarded)."""
    _check_envelope(config)
    probe = _CUTOFF_CAP + 257
    cc = _auto_cutoff(_poisson_pmf(config.mu, probe), "coherent port")
    coh = _coherent_vector(config.mu, config.psi, cc)

    if config.input_kind is InputKind.TWB:
        cq = _auto_cutoff(_geometric_pmf(config.lam, probe), "pair-correlated port")
        weights = _twb_weights(config.lam, config.theta, cq)
        q_vecs = np.eye(cq, dtype=complex)
    elif config.input_kind is InputKind.TWO_SQUEEZED:
        cq = _auto_cutoff(_squeezed_pmf(config.lam, probe), "squeezed port")
        weights = np.ones(1, dtype=complex)
        q_vecs = _squeezed_vector(config.lam, config.squeezed_quadrature_angle, cq)[None, :]
    else:
        weights = np.ones(1, dtype=complex)
        q_vecs = np.ones((1, 1), dtype=complex)

    arms = []
    for phi in (config.phi0_1, config.phi0_2):
        pre = q_vecs[:, :, None] * coh[None, None, :]  # (rank, quantum, coherent)
        block = pre.transpose(1, 2, 0)
        post = _bs_pair_transform(block, phi, convention)
        arms.append(post.transpose(2, 0, 1))  # (rank, detected, discarded)
    return weights, arms[0], arms[1]


def _joint_pmf_from_arms(
    weights: np.ndarray, arm1: np.ndarray, arm2: np.ndarray
) -> np.ndarray:
    # p(n1, n2) = sum_{m m'} c_m conj(c_m') W1[n1, m, m'] W2[n2, m, m'],
    # W_i[n] = A_i[n] A_i[n]^H with A_i[n][m, k] = arm_i[m, n, k] tracing
    # the discarded port k of arm i
    a1 = arm1.transpose(1, 0, 2)
    a2 = arm2.transpose(1, 0, 2)
    w1 = a1 @ a1.conj().transpose(0, 2, 1)
    w2 = a2 @ a2.conj().transpose(0, 2, 1)
    cc = np.multiply.outer(weights, weights.conj())
    lhs = (cc * w1).reshape(len(w1), -1)
    rhs = w2.reshape(len(w2), -1)
    return (lhs @ rhs.T).real


def fock_joint_pmf(
    config: HolometerConfig,
    *,
    method: str = "schmidt",
    convention: str = "i",
) -> np.ndarray:
    """Joint photon-number distribution of the two detected ports before
    detection loss."""
    if method == "schmidt":
        pmf = _joint_pmf_from_arms(*_schmidt_arms(config, convention))
    elif method == "dense":
        state = build_fock_input(config)
        state = trim(apply_bs_unitary(state, 0, 2, phi=config.phi0_1, convention=convention))
        state = trim(apply_bs_unitary(state, 1, 3, phi=config.phi0_2, convention=convention))
        pmf = state.joint_pmf((0, 1))
    else:
        raise ValueError(f"unknown method {method!r}")

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


def _thinning_matrix(eta: float, length: int) -> np.ndarray:
    if eta == 1.0:
        return np.eye(length)
    out = np.zeros((length, length))
    if eta == 0.0:
        out[0, :] = 1.0
        return out
    lg = _log_factorials(length)
    for n in range(length):
        k = np.arange(n + 1)
        logs = lg[n] - lg[k] - lg[n - k] + k * math.log(eta) + (n - k) * math.log1p(-eta)
        out[k, n] = np.exp(logs)
    return out


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


def _pmf_to_readout(
    pmf: np.ndarray, eta_pair: tuple[float, float], loss_method: str
) -> ReadoutMoments:
    eta1, eta2 = eta_pair
    if loss_method == "factorial":
        # loss scales joint falling-factorial moments by eta^order
        ff1 = _falling_factorial_matrix(pmf.shape[0])
        ff2 = _falling_factorial_matrix(pmf.shape[1])
        fact = ff1 @ pmf @ ff2.T
        fact *= np.multiply.outer(eta1 ** np.arange(5.0), eta2 ** np.arange(5.0))
        raw = _STIRLING @ fact @ _STIRLING.T
    elif loss_method == "thinning":
        thinned = _thinning_matrix(eta1, pmf.shape[0]) @ pmf @ _thinning_matrix(
            eta2, pmf.shape[1]
        ).T
        pow1 = np.arange(thinned.shape[0], dtype=float) ** np.arange(5.0)[:, None]
        pow2 = np.arange(thinned.shape[1], dtype=float) ** np.arange(5.0)[:, None]
        raw = pow1 @ thinned @ pow2.T
    else:
        raise ValueError(f"unknown loss method {loss_method!r}")

    cen = _centered_from_raw(raw)
    return ReadoutMoments(
        mean_1=float(raw[1, 0]),
        mean_2=float(raw[0, 1]),
        var_1=cen[(2, 0)],
        var_2=cen[(0, 2)],
        cov=cen[(1, 1)],
        centered=cen,
    )


def fock_moments(
    state: FockState,
    modes: tuple[int, int] = (0, 1),
    max_order: int = 4,
    eta: float | tuple[float, float] = 1.0,
    *,
    loss_method: str = "factorial",
) -> ReadoutMoments:
    """Joint photon-number moments of two modes of a dense state.

    ``eta`` is the detection efficiency applied to the selected modes,
    either one shared value or a per-mode pair.  ``max_order`` in
    {2, 3, 4} limits the attached centered table; below 4 the named
    second-order fields are always populated.  ``loss_method="thinning"``
    routes the loss through explicit binomial thinning of the joint
    distribution instead of falling-factorial scaling; the two must
    agree and the tests hold them to that.
    """
    if len(set(modes)) != 2:
        raise ValueError(f"need two distinct modes, got {modes}")
    for k in modes:
        if not 0 <= k < state.n_modes:
            raise ValueError(f"mode {k} outside the state's {state.n_modes} modes")
    if max_order not in (2, 3, 4):
        raise ValueError(f"max_order must be 2, 3 or 4, got {max_order}")
    eta_pair = (float(eta), float(eta)) if isinstance(eta, (int, float)) else (
        float(eta[0]),
        float(eta[1]),
    )
    for value in eta_pair:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"efficiency {value} outside [0, 1]")
    pmf = state.joint_pmf(keep=modes)
    readout = _pmf_to_readout(pmf, eta_pair, loss_method)
    if max_order == 2:
        return ReadoutMoments(
            mean_1=readout.mean_1,
            mean_2=readout.mean_2,
            var_1=readout.var_1,
            var_2=readout.var_2,
            cov=readout.cov,
        )
    return readout


def oracle_moments(
    config: HolometerConfig,
    *,
    method: str = "schmidt",
    loss_method: str = "factorial",
    convention: str = "i",
) -> ReadoutMoments:
    """Joint photon-number moments of the two readouts, loss included.

    End-to-end truncated-Fock reference for a full configuration:
    builds the input, applies both beam splitters, traces to the
    detected pair and applies the detection loss.  ``method="dense"``
    propagates the four-mode tensor instead of the factorized pair
    decomposition; both must agree.
    """
    pmf = fock_joint_pmf(config, method=method, convention=convention)
    return _pmf_to_readout(pmf, config.eta_pair, loss_method)


def fock_quadrature_moments(
    config: HolometerConfig,
    chi_1: float | None = None,
    chi_2: float | None = None,
) -> QuadratureMoments:
    """Means and covariance of one quadrature per detected port.

    Defaults to the quadrature that carries the phase signal.  Loss is
    applied analytically: means scale with sqrt(eta), variances mix with
    vacuum noise, the cross covariance scales with sqrt(eta1 eta2).
    """
    chi1 = config.signal_quadrature_angle if chi_1 is None else chi_1
    chi2 = config.signal_quadrature_angle if chi_2 is None else chi_2
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
    mean1 = math.sqrt(2.0) * (d1 * np.exp(-1j * chi1)).real
    mean2 = math.sqrt(2.0) * (d2 * np.exp(-1j * chi2)).real
    x1_sq = (expval(g1_aa, g2_id) * np.exp(-2j * chi1)).real + expval(g1_n, g2_id).real + 0.5
    x2_sq = (expval(g1_id, g2_aa) * np.exp(-2j * chi2)).real + expval(g1_id, g2_n).real + 0.5
    both = (expval(g1_a, g2_a) * np.exp(-1j * (chi1 + chi2))).real
    cross = (expval(g1_a.conj().T, g2_a) * np.exp(1j * (chi1 - chi2))).real
    cov0 = both + cross - mean1 * mean2

    eta1, eta2 = config.eta_pair
    return QuadratureMoments(
        mean_1=math.sqrt(eta1) * mean1,
        mean_2=math.sqrt(eta2) * mean2,
        var_1=eta1 * (x1_sq - mean1**2) + 0.5 * (1.0 - eta1),
        var_2=eta2 * (x2_sq - mean2**2) + 0.5 * (1.0 - eta2),
        cov=math.sqrt(eta1 * eta2) * cov0,
    )
