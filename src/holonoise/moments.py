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
from typing import Mapping

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
    is a float for a single configuration, or an array over a stack;
    compare_moments takes single points.  Both routes write every key of
    CENTERED_KEYS; the carrier itself checks nothing, and the tests pin
    the physical bounds (non-negative variances, Cauchy-Schwarz).
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
    """Result of a field-by-field comparison of two moment carriers."""

    worst_margin: float  # |a-b| / allowance, max over fields; <= 1 means ok
    worst_field: str
    relative: Mapping[str, float]  # per field, |a-b| / max(|a|,|b|) above its floor

    @property
    def ok(self) -> bool:
        return self.worst_margin <= 1.0

    @property
    def max_relative(self) -> float:
        return max(self.relative.values())


def _comparison_entries(
    a: "ReadoutMoments | QuadratureMoments",
    b: "ReadoutMoments | QuadratureMoments",
) -> list[tuple[str, float, float, float]]:
    """(field name, value in a, value in b, absolute floor) for every
    moment the two carriers share, including the centered table when
    both sides have one.  The floors follow the rule documented on
    :func:`compare_moments`."""
    sd1 = math.sqrt(max(a.var_1, b.var_1, 0.0))
    sd2 = math.sqrt(max(a.var_2, b.var_2, 0.0))
    entries: list[tuple[str, float, float, float]] = [
        ("mean_1", a.mean_1, b.mean_1, _ABS_FLOOR),
        ("mean_2", a.mean_2, b.mean_2, _ABS_FLOOR),
        ("var_1", a.var_1, b.var_1, _ABS_FLOOR),
        ("var_2", a.var_2, b.var_2, _ABS_FLOOR),
        ("cov", a.cov, b.cov, _ABS_FLOOR + 1e-11 * sd1 * sd2),
    ]
    table_a, table_b = getattr(a, "centered", None), getattr(b, "centered", None)
    if table_a is not None and table_b is not None:
        for p, q in CENTERED_KEYS:
            floor = _ABS_FLOOR + 1e-11 * sd1**p * sd2**q
            entries.append((f"centered[{p},{q}]", table_a[(p, q)], table_b[(p, q)], floor))
    return entries


def _relative_deviation(x: float, y: float, floor: float) -> float:
    """|x - y| / max(|x|, |y|) where that scale is above ``floor``, else 0;
    ``inf`` where the deviation is not finite (a nan or infinite entry),
    so a broken entry can never read as agreement."""
    deviation = abs(x - y)
    if not math.isfinite(deviation):
        return math.inf
    denom = max(abs(x), abs(y))
    return deviation / denom if denom > floor else 0.0


def compare_moments(
    a: "ReadoutMoments | QuadratureMoments",
    b: "ReadoutMoments | QuadratureMoments",
    rtol: float = 1e-8,
) -> MomentComparison:
    """Compare two moment sets at a relative tolerance with a scale-aware
    absolute floor, in one pass over the shared fields.

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

    margins: dict[str, float] = {}
    relative: dict[str, float] = {}
    for name, x, y, floor in _comparison_entries(a, b):
        margin = abs(x - y) / (rtol * max(abs(x), abs(y)) + floor)
        margins[name] = margin if math.isfinite(margin) else math.inf
        relative[name] = _relative_deviation(x, y, floor)
    worst_margin = max(margins.values())
    worst_field = "none" if worst_margin == 0.0 else next(
        name for name, margin in margins.items() if margin >= (1.0 - _TIE_RTOL) * worst_margin)
    return MomentComparison(worst_margin, worst_field, relative)
