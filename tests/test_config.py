import math

import pytest

from holonoise.config import HolometerConfig, InputKind


def make(**overrides):
    base = dict(
        mu=2.0, psi=0.3, lam=0.5, eta=0.9, phi0_1=0.7, phi0_2=0.7, input_kind="TWB"
    )
    base.update(overrides)
    return HolometerConfig(**base)


def test_kind_is_cast_from_string():
    assert make(input_kind="TwoSqueezed").input_kind is InputKind.TWO_SQUEEZED
    with pytest.raises(ValueError):
        make(input_kind="Twb")


@pytest.mark.parametrize(
    "overrides",
    [
        {"mu": -1.0},
        {"lam": -0.1},
        {"eta": 1.5},
        {"eta": -0.1},
        {"eta_2": 2.0},
        {"mu": math.inf},
        {"phi0_1": math.nan},
        {"theta": math.nan},
        {"theta_xi": math.inf},
    ],
)
def test_rejects_out_of_range(overrides):
    with pytest.raises(ValueError):
        make(**overrides)


def test_transmissivity_is_cosine_squared_of_half_phase():
    config = make(phi0_1=0.8, phi0_2=1.1)
    assert config.tau_1 == math.cos(0.4) ** 2


def test_default_squeezing_angle_tracks_coherent_phase():
    config = make(input_kind="TwoSqueezed", psi=0.4, theta_xi=None)
    assert config.theta_xi_effective == pytest.approx(0.8)
    assert config.squeezed_quadrature_angle == pytest.approx(0.5 * (0.8 + math.pi))
    explicit = make(input_kind="TwoSqueezed", theta_xi=1.0)
    assert explicit.theta_xi_effective == 1.0


def test_signal_quadrature_is_orthogonal_to_displacement():
    config = make(psi=0.25)
    assert config.signal_quadrature_angle == pytest.approx(0.25 + math.pi / 2)


def test_symmetry_detection():
    assert make().is_symmetric()
    assert not make(phi0_2=0.71).is_symmetric()
    assert not make(eta_2=0.9).is_symmetric()


def test_replace_revalidates():
    config = make()
    assert config.replace(eta=0.5).eta == 0.5
    with pytest.raises(ValueError):
        config.replace(eta=1.5)


def test_from_dict_accepts_lambda_and_phi0_shorthand():
    config = HolometerConfig.from_dict(
        {"mu": 1.0, "psi": 0.0, "lambda": 0.3, "eta": 1.0, "phi0": 0.5, "input_kind": "TWB"}
    )
    assert config.lam == 0.3
    assert config.phi0_1 == 0.5 and config.phi0_2 == 0.5


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        HolometerConfig.from_dict(
            {"mu": 1.0, "psi": 0.0, "lam": 0.3, "eta": 1.0, "phi0": 0.5,
             "input_kind": "TWB", "bogus": 1}
        )


def test_round_trip_through_dict():
    config = make(theta=0.2, theta_xi=0.9, eta_2=0.8)
    again = HolometerConfig.from_dict(config.to_dict())
    assert again == config
