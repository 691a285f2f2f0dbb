"""Shared carrier for joint photon-number moments of the two readout modes.

Both computation routes produce this structure: the Gaussian engine,
from the factorial cumulants of the detected two-mode state, and the
truncated-Fock oracle, from photon-number distributions.  Results can
therefore be compared field by field without either route importing the
other's numerics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

__all__ = [
    "ReadoutMoments",
    "QuadratureMoments",
    "MomentComparison",
    "compare_moments",
    "CENTERED_KEYS",
]

# all centered joint orders (p, q) the engine and oracle must report
CENTERED_KEYS: tuple[tuple[int, int], ...] = tuple(
    (p, q) for total in (2, 3, 4) for p in range(total + 1) for q in [total - p]
)

_ABS_FLOOR = 1e-13  # absolute part of every comparison floor
# margins within this relative distance of the largest tie for worst field
_TIE_RTOL = 1e-2


@dataclass(frozen=True)
class ReadoutMoments:
    """Joint centered photon-number moments of the two readout modes.

    ``centered`` maps (p, q) -> <dN1^p dN2^q> for 2 <= p+q <= 4 and is
    ``None`` when only second-order moments were computed (the engine
    readout at max_order=2).  Second-order entries duplicate
    var_1/var_2/cov so the table can be consumed uniformly.  Every value
    is a float for a single configuration, or an array over a stack or
    set, and compare_moments takes either.  Both routes write every key
    of CENTERED_KEYS; the carrier itself checks nothing, and the tests
    pin the physical bounds (non-negative variances, Cauchy-Schwarz).
    """

    mean_1: float
    mean_2: float
    var_1: float
    var_2: float
    cov: float
    centered: Mapping[tuple[int, int], float] | None = None

    def signed_sum_moment(self, sign: int, order: int) -> float:
        """<(dN1 + sign*dN2)^order> for 2 <= order <= 4, sign in {+1, -1},
        from the centered table."""
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        return sum(
            math.comb(order, j) * sign ** (order - j) * self.centered[(j, order - j)]
            for j in range(order + 1)
        )


@dataclass(frozen=True)
class QuadratureMoments:
    """First and second moments of one selected quadrature per readout
    mode.  Means may be negative, unlike photon counts.  Values are
    floats or arrays, as for ReadoutMoments."""

    mean_1: float
    mean_2: float
    var_1: float
    var_2: float
    cov: float


@dataclass(frozen=True)
class MomentComparison:
    """Result of a field-by-field comparison of two moment carriers:
    floats and a str for single configurations, arrays over a set."""

    worst_margin: float  # |a-b| / allowance, max over fields; <= 1 means ok
    worst_field: str
    relative: Mapping[str, float]  # per field, |a-b| / max(|a|,|b|) above its floor

    @property
    def ok(self) -> bool:
        return self.worst_margin <= 1.0

    @property
    def max_relative(self) -> float:
        values = np.array(list(self.relative.values()))
        return values.max(axis=0) if values.ndim > 1 else float(values.max())


def _power(x: Any, n: int) -> Any:
    """x^n by repeated multiplication, which rounds alike on a float and
    on an array; numpy's ** does not (libm pow on a scalar, a SIMD loop
    on an array), so a pair compared alone and inside a set could get
    floors one ulp apart."""
    result = 1.0
    for _ in range(n):
        result = result * x
    return result


def _comparison_entries(
    a: "ReadoutMoments | QuadratureMoments",
    b: "ReadoutMoments | QuadratureMoments",
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Field names and (fields, ...) arrays of the values in a, the
    values in b and the absolute floors, for every moment the two
    carriers share, including the centered table when both sides have
    one.  The floors follow the rule documented on
    :func:`compare_moments`."""
    sd1 = np.sqrt(np.maximum(np.maximum(a.var_1, b.var_1), 0.0))
    sd2 = np.sqrt(np.maximum(np.maximum(a.var_2, b.var_2), 0.0))
    names = ["mean_1", "mean_2", "var_1", "var_2", "cov"]
    x, y = ([getattr(carrier, name) for name in names] for carrier in (a, b))
    floors = [_ABS_FLOOR] * 4 + [_ABS_FLOOR + 1e-11 * sd1 * sd2]
    table_a, table_b = getattr(a, "centered", None), getattr(b, "centered", None)
    if table_a is not None and table_b is not None:
        for p, q in CENTERED_KEYS:
            names.append(f"centered[{p},{q}]")
            x.append(table_a[(p, q)])
            y.append(table_b[(p, q)])
            floors.append(_ABS_FLOOR + 1e-11 * _power(sd1, p) * _power(sd2, q))
    return names, *(np.array(np.broadcast_arrays(*rows)) for rows in (x, y, floors))


def compare_moments(
    a: "ReadoutMoments | QuadratureMoments",
    b: "ReadoutMoments | QuadratureMoments",
    rtol: float = 1e-8,
) -> MomentComparison:
    """Compare two moment sets at a relative tolerance with a scale-aware
    absolute floor, in one pass over the shared fields: as whole-array
    work over a set when the carriers hold arrays, giving arrays over it.

    For the order-(p, q) centered entry the floor is
    ``1e-13 + 1e-11 * sd1^p * sd2^q``, so every allowance is positive
    even at ``rtol = 0``.  The coefficient is set by the
    truncated-Fock route: its weighted-tail rule leaves residues up to a
    few 1e-13 on entries whose exact value is zero (measured across the
    oracle envelope), while a real convention bug sits ten or more
    decades higher.

    A field whose margin is not finite (a nan or infinite entry) fails
    the comparison with ``worst_margin = max_relative = inf``; an
    ``rtol`` that is negative or not finite is a ValueError.

    ``worst_field`` is the first field, in the order mean_1, mean_2,
    var_1, var_2, cov, then ``centered`` in CENTERED_KEYS order, whose
    margin is at least 0.99 ``worst_margin`` ("none" when every margin
    is zero).  Mirror fields of the two ports and aliases (var_1 and
    centered[2,0], cov and centered[1,1]) carry the same deviation up to
    roundoff at symmetric configurations, and a fourth-order centred
    deviation carries roundoff of up to about 1e-3 of itself, so this
    rule keeps such a tie from being decided by the last bits.
    """
    if not (math.isfinite(rtol) and rtol >= 0.0):
        raise ValueError(f"rtol must be finite and non-negative, got {rtol!r}")

    names, x, y, floor = _comparison_entries(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        deviation = np.abs(x - y)
        scale = np.maximum(np.abs(x), np.abs(y))
        margins = deviation / (rtol * scale + floor)
        relative = np.where(scale > floor, deviation / scale, 0.0)
    # a nan or infinite entry can never read as agreement
    margins[~np.isfinite(margins)] = np.inf
    relative[~np.isfinite(deviation)] = np.inf
    worst_margin = margins.max(axis=0)
    tied = margins >= (1.0 - _TIE_RTOL) * worst_margin
    worst_field = np.where(worst_margin == 0.0, "none", np.array(names)[tied.argmax(axis=0)])
    if worst_margin.ndim == 0:  # a single pair of carriers: floats and a str
        return MomentComparison(float(worst_margin), str(worst_field),
                                dict(zip(names, relative.tolist())))
    return MomentComparison(worst_margin, worst_field, dict(zip(names, relative)))
