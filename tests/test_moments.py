import math

import numpy as np
import pytest

from holonoise.moments import (
    CENTERED_KEYS,
    QuadratureMoments,
    ReadoutMoments,
    compare_moments,
)


def full_table(overrides=None):
    table = {key: 0.0 for key in CENTERED_KEYS}
    table[(2, 0)] = 2.0
    table[(0, 2)] = 2.0
    table[(1, 1)] = 1.0
    table[(4, 0)] = 12.0
    table[(0, 4)] = 12.0
    table[(2, 2)] = 5.0
    table.update(overrides or {})
    return table


def make(cov=1.0, centered=None):
    return ReadoutMoments(mean_1=3.0, mean_2=3.0, var_1=2.0, var_2=2.0, cov=cov,
                          centered=centered)


def test_centered_keys_cover_orders_two_to_four():
    assert all(2 <= p + q <= 4 for p, q in CENTERED_KEYS)
    assert len(CENTERED_KEYS) == 3 + 4 + 5


def test_signed_sum_moment_expands_binomially():
    moments = make(centered=full_table())
    assert moments.signed_sum_moment(-1, 2) == pytest.approx(2.0 + 2.0 - 2.0)
    assert moments.signed_sum_moment(+1, 2) == pytest.approx(2.0 + 2.0 + 2.0)
    # order 4: 12 + 6*5 + 12 with vanishing odd entries
    assert moments.signed_sum_moment(+1, 4) == pytest.approx(12.0 + 30.0 + 12.0)
    with pytest.raises(ValueError):
        moments.signed_sum_moment(2, 2)


def test_variance_helpers_match_signed_sums():
    # the order-2 signed sums are Var(N1 -+ N2) from the second-order fields
    moments = make(centered=full_table())
    assert moments.var_1 + moments.var_2 - 2.0 * moments.cov == moments.signed_sum_moment(-1, 2)
    assert moments.var_1 + moments.var_2 + 2.0 * moments.cov == moments.signed_sum_moment(+1, 2)


def test_quadrature_moments_allow_negative_means():
    quads = QuadratureMoments(-1.0, 2.0, 0.5, 0.5, 0.1)
    assert quads.mean_1 == -1.0


def test_compare_equal_moments_passes():
    a = make(centered=full_table())
    result = compare_moments(a, a)
    assert result.ok
    assert result.max_relative == 0.0
    assert set(result.relative.values()) == {0.0}


def test_compare_flags_large_relative_deviation():
    a = make(centered=full_table())
    b = make(cov=1.0 + 1e-5, centered=full_table({(1, 1): 1.0 + 1e-5}))
    result = compare_moments(a, b, rtol=1e-8)
    assert not result.ok
    assert result.worst_field in ("cov", "centered[1,1]")
    assert result.max_relative == pytest.approx(1e-5, rel=1e-3)
    assert result.max_relative == max(result.relative["cov"], result.relative["centered[1,1]"])
    assert result.relative["var_1"] == result.relative["centered[2,2]"] == 0.0


def test_compare_tolerates_tiny_absolute_residue_on_zero_entries():
    # a zero fourth-order entry with a truncation-sized residue must not fail
    a = make(centered=full_table({(3, 1): 0.0}))
    b = make(centered=full_table({(3, 1): 5e-12}))
    assert compare_moments(a, b).ok


def test_comparison_entries_cover_table_when_present():
    # one relative deviation per compared field, the table's only when
    # both carriers have one
    a = make(centered=full_table())
    names = list(compare_moments(a, a).relative)
    assert names[:5] == ["mean_1", "mean_2", "var_1", "var_2", "cov"]
    assert names[5:] == [f"centered[{p},{q}]" for p, q in CENTERED_KEYS]
    assert list(compare_moments(make(), a).relative) == names[:5]
    quads = QuadratureMoments(-1.0, 2.0, 0.5, 0.5, 0.1)
    assert list(compare_moments(quads, quads).relative) == names[:5]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_compare_fails_on_a_non_finite_entry(bad):
    a = ReadoutMoments(mean_1=bad, mean_2=3.0, var_1=2.0, var_2=2.0, cov=1.0)
    for result in (compare_moments(a, make()), compare_moments(make(), a)):
        assert not result.ok
        assert result.worst_margin == result.max_relative == math.inf
        assert result.worst_field == "mean_1"
    table = full_table({(3, 1): math.nan})
    result = compare_moments(make(centered=table), make(centered=full_table()))
    assert (result.ok, result.worst_margin, result.worst_field) == (False, math.inf, "centered[3,1]")


@pytest.mark.parametrize("name", ["rtol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_compare_rejects_a_tolerance_that_passes_anything(name, value):
    far = make(cov=0.0, centered=full_table({(1, 1): 0.0}))
    with pytest.raises(ValueError, match=name):
        compare_moments(make(centered=full_table()), far, **{name: value})



@pytest.mark.parametrize("first, mirror", [("mean_1", "mean_2"), ("cov", (1, 1)), ((1, 3), (3, 1))],
                         ids=["means", "cov-alias", "fourth-order"])
def test_worst_field_is_not_decided_by_one_ulp_of_a_mirror_field(first, mirror):
    # both fields of a mirror or alias pair deviate by 1e-6, which ties
    # their margins; one ulp more or less on the later field leaves the
    # earlier one named
    table = full_table({(1, 3): 4.0, (3, 1): 4.0})
    reference = make(centered=table)

    def moved(ulp_towards):
        fields = dict(mean_1=3.0, mean_2=3.0, var_1=2.0, var_2=2.0, cov=1.0)
        centered = dict(table)
        for name in (first, mirror):
            (centered if isinstance(name, tuple) else fields)[name] += 1e-6
        if ulp_towards is not None:
            where = centered if isinstance(mirror, tuple) else fields
            where[mirror] = math.nextafter(where[mirror], ulp_towards)
        return ReadoutMoments(**fields, centered=centered)

    label = f"centered[{first[0]},{first[1]}]" if isinstance(first, tuple) else first
    for ulp_towards in (None, math.inf, -math.inf):
        result = compare_moments(reference, moved(ulp_towards))
        assert (result.ok, result.worst_field) == (False, label)


def test_a_pair_alone_and_inside_a_set_gets_the_same_margins():
    # floors of 1e-11 sd1^p sd2^q dominate entries that are nearly zero,
    # so a floor one ulp apart shows in the margin's last bit
    rng = np.random.default_rng(4)
    n = 1_000
    sd1, sd2 = 10.0 ** rng.uniform(-1.0, 3.0, (2, n))
    zeros = {key: np.zeros(n) for key in CENTERED_KEYS}
    deviation = {key: 1e-12 * rng.uniform(0.5, 2.0, n) * sd1**p * sd2**q
                 for key, (p, q) in zip(CENTERED_KEYS, CENTERED_KEYS)}
    a = ReadoutMoments(mean_1=np.ones(n), mean_2=np.ones(n), var_1=sd1 * sd1, var_2=sd2 * sd2,
                       cov=np.zeros(n), centered=zeros)
    b = ReadoutMoments(mean_1=np.ones(n), mean_2=np.ones(n), var_1=sd1 * sd1, var_2=sd2 * sd2,
                       cov=np.zeros(n), centered=deviation)
    stacked = compare_moments(a, b)

    def member(carrier, index):
        return ReadoutMoments(
            *(float(getattr(carrier, name)[index])
              for name in ("mean_1", "mean_2", "var_1", "var_2", "cov")),
            centered={key: float(value[index]) for key, value in carrier.centered.items()})

    for index in range(n):
        single = compare_moments(member(a, index), member(b, index))
        assert single.worst_margin == stacked.worst_margin[index]
        assert single.relative == {name: values[index] for name, values in stacked.relative.items()}
