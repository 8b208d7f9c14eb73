"""The integer inverse-CDF thresholds equal the ``Fraction`` reference's.

``bellbox.sampler._cuts`` sums rational weights as integer pairs and float
weights as floats; ``_fraction_cuts`` sums them with ``Fraction`` addition.
Seeded weight lists cover rational, float and mixed lists, the mixed ones
with the first float weight at every position, followed by floats, rationals
and integers in any order.
"""

import random
from fractions import Fraction

import pytest

import _fraction_cuts as oracle
from bellbox.sampler import _cuts, _threshold

F = Fraction

# 0.375 + 0.1 / 2**53 rounds down to 0.375 as a float, so after a tiny float
# weight the running sum's threshold falls below the first one.
_BELOW_FLOAT = F(10 * 3 * 2**51 + 1, 10 * 2**53)


def _rational(rng: random.Random) -> Fraction:
    kind = rng.randrange(5)
    if kind == 0:
        den = rng.randint(1, 13)
    elif kind == 1:
        den = 2 ** rng.randint(0, 60)
    elif kind == 2:
        den = rng.randint(1, 10**12)
    elif kind == 3:
        den = rng.randint(1, 10**40)
    else:
        return F(rng.choice((0, 1)))
    return F(rng.randint(0, den), den)


def _float(rng: random.Random) -> float:
    kind = rng.randrange(4)
    if kind == 0:
        return rng.random()
    if kind == 1:
        return float(_rational(rng))
    if kind == 2:
        return rng.choice((1e-300, 5e-324, 2.0**-53, 0.1, 1 - 2.0**-53))
    return rng.random() * 2.0 ** -rng.randint(1, 80)


def _row(rng: random.Random, n: int) -> list[Fraction]:
    """A distribution over ``n`` entries with one random denominator."""
    den = rng.choice((3, 7, 10, 2**53, 10**9 + 7, rng.randint(2, 10**30)))
    cuts = sorted(rng.randrange(den + 1) for _ in range(n - 1))
    bounds = [0, *cuts, den]
    return [F(hi - lo, den) for lo, hi in zip(bounds, bounds[1:])]


def _rational_lists(rng: random.Random, count: int) -> list[list]:
    lists = []
    for k in range(count):
        n = rng.randint(1, 9)
        if k % 2:
            lists.append(_row(rng, n))
        else:
            lists.append([_rational(rng) for _ in range(n)])
    return lists


def _float_lists(rng: random.Random, count: int) -> list[list]:
    lists = []
    for k in range(count):
        n = rng.randint(1, 9)
        if k % 2:
            lists.append([float(w) for w in _row(rng, n)])
        else:
            lists.append([_float(rng) for _ in range(n)])
    return lists


def _mixed_lists(rng: random.Random, count: int) -> list[list]:
    """Rationals up to a switch position, a float there, then anything."""
    lists = []
    while len(lists) < count:
        base = _row(rng, rng.randint(1, 9)) if rng.random() < 0.5 else [
            _rational(rng) for _ in range(rng.randint(1, 9))
        ]
        for switch in range(len(base)):
            tail = []
            for w in base[switch + 1 :]:
                pick = rng.randrange(3)
                tail.append(float(w) if pick == 0 else w if pick == 1 else int(w))
            lists.append([*base[:switch], float(base[switch]), *tail])
    return lists


def _weight_lists() -> list[list]:
    rng = random.Random(20240607)
    lists = _rational_lists(rng, 1000) + _float_lists(rng, 1000) + _mixed_lists(rng, 1000)
    lists += [[0.1] * 10, [_BELOW_FLOAT, 1e-300, 1 - _BELOW_FLOAT]]
    lists += [[F(1, 3), F(2, 7), F(8, 21)], [1], [0.5, F(1, 2)], [F(1, 2), 0.5]]
    return lists


def test_enough_lists_of_each_kind():
    lists = _weight_lists()
    assert len(lists) >= 3000
    floats = [sum(isinstance(w, float) for w in ws) for ws in lists]
    assert sum(f == 0 for f in floats) >= 1000
    assert sum(f == len(ws) for f, ws in zip(floats, lists)) >= 1000


def test_cuts_equal_the_fraction_reference():
    for weights in _weight_lists():
        assert _cuts(weights) == oracle._cuts(weights), weights


def test_cuts_accept_a_generator():
    weights = [F(1, 3), 0.25, F(5, 12)]
    assert _cuts(w for w in weights) == oracle._cuts(weights)


@pytest.mark.parametrize(
    "value",
    [F(0), F(1), F(1, 3), F(2**60 + 1, 2**61), 1, 0.0, 0.1, 1e-300, 5e-324, 1 - 2.0**-53, 1.0],
)
def test_threshold_equals_the_fraction_reference(value):
    assert _threshold(value) == oracle._threshold(value)
