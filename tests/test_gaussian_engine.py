import math

import numpy as np
import pytest

from holonoise import gaussian_engine as ge
from holonoise.config import HolometerConfig
from holonoise.fock_oracle import fock_joint_pmf
from holonoise.holometer import propagate, readout_moments
from physicality import obeys_uncertainty_principle


def two_mode_state(mean=(0.0, 0.0, 0.0, 0.0), block_1=None, block_2=None, cross=None):
    """Mean and covariance of a two-mode state from its quadrature
    blocks; vacuum where omitted."""
    cov = 0.5 * np.eye(4)
    if block_1 is not None:
        cov[0:2, 0:2] = block_1
    if block_2 is not None:
        cov[2:4, 2:4] = block_2
    if cross is not None:
        cov[0:2, 2:4] = cross
        cov[2:4, 0:2] = np.transpose(cross)
    return np.array(mean, dtype=float), cov


def lossy(mean: np.ndarray, cov: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Pure loss eta on both modes: mean sqrt(eta), fluctuations eta."""
    return math.sqrt(eta) * mean, eta * cov + 0.5 * (1.0 - eta) * np.eye(4)


# ---------------------------------------------------------------------------
# photon statistics of elementary states
# ---------------------------------------------------------------------------


def test_vacuum_is_pure_and_empty():
    mean, cov = two_mode_state()
    assert 4.0 * math.sqrt(np.linalg.det(cov)) == pytest.approx(1.0, abs=1e-12)
    moments = ge.centered_photon_moments(mean, cov)
    assert moments.mean_1 == moments.mean_2 == 0.0
    assert all(value == 0.0 for value in moments.centered.values())


def test_displaced_mode_occupancy_and_variance():
    # coherent light is Poissonian: central moments |alpha|^2, |alpha|^2,
    # |alpha|^2 + 3 |alpha|^4 at orders 2, 3, 4
    alpha = 0.7 - 1.1j
    n = abs(alpha) ** 2
    state = two_mode_state(mean=(math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag, 0.0, 0.0))
    moments = ge.centered_photon_moments(*state)
    assert moments.mean_1 == pytest.approx(n, rel=1e-12)
    assert moments.var_1 == pytest.approx(n, rel=1e-12)
    assert moments.centered[(3, 0)] == pytest.approx(n, rel=1e-12)
    assert moments.centered[(4, 0)] == pytest.approx(n + 3 * n * n, rel=1e-12)
    assert moments.mean_2 == 0.0 and moments.centered[(2, 2)] == 0.0


def test_single_mode_squeeze_variances():
    r, chi = 0.6, 0.3
    rot = np.array([[math.cos(chi), -math.sin(chi)], [math.sin(chi), math.cos(chi)]])
    state = two_mode_state(block_1=rot @ np.diag([math.exp(-2 * r), math.exp(2 * r)]) @ rot.T / 2)
    mean, cov = ge.quadrature_mean_cov(*state, chi)
    assert mean[0] == pytest.approx(0.0, abs=1e-14)
    assert cov[0, 0] == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-12)
    # mode 2 is vacuum, uncorrelated with mode 1
    assert cov[1, 1] == pytest.approx(0.5, rel=1e-12) and cov[0, 1] == 0.0
    _, anti = ge.quadrature_mean_cov(*state, chi + math.pi / 2)
    assert anti[0, 0] == pytest.approx(0.5 * math.exp(2 * r), rel=1e-12)
    moments = ge.centered_photon_moments(*state)
    assert moments.mean_1 == pytest.approx(math.sinh(r) ** 2, rel=1e-12)
    assert moments.var_1 == pytest.approx(2 * (math.sinh(r) * math.cosh(r)) ** 2, rel=1e-12)


def test_two_mode_squeeze_gives_thermal_marginals_with_perfect_correlation():
    lam = 0.8
    r = math.asinh(math.sqrt(lam))
    ch, sh = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
    state = two_mode_state(block_1=ch * np.eye(2), block_2=ch * np.eye(2),
                           cross=sh * np.diag([1.0, -1.0]))
    moments = ge.centered_photon_moments(*state)
    assert moments.mean_1 == pytest.approx(lam, rel=1e-12)
    assert moments.var_1 == pytest.approx(lam * (1 + lam), rel=1e-12)
    assert moments.cov == pytest.approx(lam * (1 + lam), rel=1e-12)
    assert moments.signed_sum_moment(-1, 2) == pytest.approx(0.0, abs=1e-12)
    # N1 = N2 on a twin beam, so every joint moment of order p + q is the
    # geometric (thermal) central moment of that order
    thermal = {2: lam * (1 + lam), 3: lam * (1 + lam) * (1 + 2 * lam),
               4: lam * (1 + lam) * (1 + 9 * lam * (1 + lam))}
    for (p, q), value in moments.centered.items():
        assert value == pytest.approx(thermal[p + q], rel=1e-12), (p, q)


def test_state_below_the_vacuum_limit_is_rejected():
    # the positive control of the tests' uncertainty-principle check,
    # which pins the physicality of every state propagate writes
    assert not obeys_uncertainty_principle(two_mode_state(block_1=0.4 * np.eye(2))[1])
    # one unphysical member rejects the whole stack
    vacuum = two_mode_state()[1]
    squeezed = two_mode_state(block_1=np.diag([0.1, 2.5]))[1]
    below = vacuum.copy()
    below[0:2, 0:2] = 0.4 * np.eye(2)
    assert obeys_uncertainty_principle(np.stack([vacuum, squeezed]))
    assert not obeys_uncertainty_principle(np.stack([vacuum, below, squeezed]))


# ---------------------------------------------------------------------------
# detection loss of the detected pair
# ---------------------------------------------------------------------------


def test_loss_composes_multiplicatively():
    config = HolometerConfig(mu=3.0, psi=0.4, lam=0.7, eta=0.8, phi0_1=0.9, phi0_2=0.9,
                             input_kind="TwoSqueezed", theta_xi=0.2)
    twice_mean, twice_cov = lossy(*propagate(config), 0.7)
    once_mean, once_cov = propagate(config.replace(eta=0.56))
    assert np.allclose(twice_cov, once_cov, atol=1e-12)
    assert np.allclose(twice_mean, once_mean, atol=1e-12)


def test_loss_interpolates_to_vacuum():
    config = HolometerConfig(mu=4.0, psi=0.4, lam=0.7, eta=0.0, phi0_1=0.9, phi0_2=1.3,
                             input_kind="TWB", theta=0.3)
    mean, cov = propagate(config)
    assert np.allclose(mean, 0.0, atol=1e-14)
    assert np.allclose(cov, 0.5 * np.eye(4), atol=1e-14)


# ---------------------------------------------------------------------------
# moment extraction
# ---------------------------------------------------------------------------


def test_centered_moments_symmetric_under_exchange():
    config = HolometerConfig(
        mu=2.0, psi=0.4, lam=0.6, eta=0.85, phi0_1=0.8, phi0_2=0.8, input_kind="TWB"
    )
    mean, cov = propagate(config)
    order = [2, 3, 0, 1]  # readout 2's quadratures first
    forward = ge.centered_photon_moments(mean, cov)
    swapped = ge.centered_photon_moments(mean[order], cov[np.ix_(order, order)])
    assert forward.mean_1 == pytest.approx(swapped.mean_2, rel=1e-12)
    assert forward.var_1 == pytest.approx(swapped.var_2, rel=1e-12)
    assert forward.cov == pytest.approx(swapped.cov, rel=1e-12)
    for (p, q), value in forward.centered.items():
        assert swapped.centered[(q, p)] == pytest.approx(value, rel=1e-10, abs=1e-12)


def test_second_order_readout_is_the_head_of_the_fourth_order_one():
    config = HolometerConfig(mu=5.0, psi=1.0, lam=0.3, eta=0.9, phi0_1=0.6, phi0_2=1.1,
                             input_kind="TWB", theta=2.0, eta_2=0.7)
    state = propagate(config)
    low = ge.centered_photon_moments(*state, max_order=2)
    high = ge.centered_photon_moments(*state, max_order=4)
    assert low.centered is None
    for name in ("mean_1", "mean_2", "var_1", "var_2", "cov"):
        assert getattr(low, name) == pytest.approx(getattr(high, name), rel=1e-14)


@pytest.mark.parametrize("kind", ["TWB", "TwoSqueezed"])
def test_words_up_to_length_eight_match_fock_oracle(kind):
    # the factorial moment <N1^(k) N2^(l)> is the normally ordered word
    # a1+^k a2+^l a2^l a1^k, of length up to eight for k + l <= 4; it is
    # diagonal in the photon-number basis, where it weighs the joint
    # distribution of the detected pair with n1 (n1 - 1) ... (n1 - k + 1)
    # n2 (n2 - 1) ... (n2 - l + 1)
    config = HolometerConfig(
        mu=1.2, psi=0.7, lam=0.45 if kind == "TWB" else 0.2, eta=1.0,
        phi0_1=0.9, phi0_2=0.6, input_kind=kind,
        theta=0.5 if kind == "TWB" else 0.0,
    )
    m = readout_moments(config)
    centered = {(0, 0): 1.0, (1, 0): 0.0, (0, 1): 0.0, **m.centered}

    def raw(i: int, j: int) -> float:
        return sum(
            math.comb(i, a) * math.comb(j, b) * centered[(a, b)]
            * m.mean_1 ** (i - a) * m.mean_2 ** (j - b)
            for a in range(i + 1) for b in range(j + 1)
        )

    pmf = fock_joint_pmf(config)
    counts = np.arange(pmf.shape[0], dtype=float)

    def falling(k: int) -> np.ndarray:
        weights = np.ones_like(counts)
        for r in range(k):
            weights *= counts - r
        return weights

    for k in range(5):
        for l in range(5 - k):
            # falling factorials x (x - 1) ... (x - k + 1) as power series in x
            f1 = np.atleast_1d(np.poly(np.arange(k)))[::-1]
            f2 = np.atleast_1d(np.poly(np.arange(l)))[::-1]
            value = sum(f1[i] * f2[j] * raw(i, j) for i in range(k + 1) for j in range(l + 1))
            reference = float(falling(k) @ pmf @ falling(l))
            assert abs(value - reference) <= 1e-8 * abs(reference) + 1e-10, (k, l)


def test_centered_photon_moments_rejects_odd_orders():
    with pytest.raises(ValueError):
        ge.centered_photon_moments(*two_mode_state(), max_order=3)
