"""Reference inverse-CDF thresholds computed with ``Fraction`` sums.

``_cuts`` and ``_threshold`` are copied verbatim from ``bellbox.sampler`` as
it stood before the thresholds moved to integer arithmetic.  They accumulate
weights by ``Fraction`` addition, which turns the running sum into a float at
the first float weight, and serve as the oracle for the integer version.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Iterable

from bellbox.scenario import Prob


def _cuts(weights: Iterable[Prob]) -> list[int]:
    """Integer inverse-CDF thresholds: the first one above a draw ``m`` picks.

    A cumulative weight ``c`` becomes ``ceil(c * 2**53)``, so for the 53-bit
    draw ``m`` the test ``m / 2**53 < c`` is exactly ``m < threshold``.  Weights
    accumulate in declaration order as the contract says, float sums rounding
    as floats.  The running maximum keeps the list sorted without changing
    which entry is the first above ``m``, and the last threshold is raised to
    ``2**53``, above every draw, so the last entry takes whatever rounding
    leaves at the top.
    """
    cuts: list[int] = []
    acc: Prob = Fraction(0)
    for weight in weights:
        acc = acc + weight
        cuts.append(_threshold(acc))
    cuts = list(accumulate(cuts, max))
    cuts[-1] = 1 << 53
    return cuts


def _threshold(value: Prob) -> int:
    """``ceil(value * 2**53)``, exact for rational and float ``value``."""
    c = Fraction(value)
    return -((-c.numerator << 53) // c.denominator)
