"""Exact-rational linear feasibility via phase-1 simplex with Bland's rule.

Solves: find x >= 0 with A x = b for rational A and b.  Either a feasible
solution is returned or a Farkas certificate y with

    y . A_j <= 0 for every column j,   y . b > 0,

which proves that no non-negative solution exists.  Bland's smallest-index
pivot rule makes termination unconditional.

The arithmetic is fraction-free: every tableau row, and the objective row,
is a list of Python ints over one positive row denominator, divided by the
gcd of its entries after each pivot.  Ratios are compared by cross
multiplication, so no value is ever rounded and the pivot sequence, basis,
solution and certificate are exactly those of the same method carried out
on ``fractions.Fraction`` entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class FeasibilityOutcome:
    """Exactly one of ``solution`` (x >= 0, Ax = b) or ``certificate`` is set."""

    solution: tuple[Fraction, ...] | None
    certificate: tuple[Fraction, ...] | None

    @property
    def feasible(self) -> bool:
        return self.solution is not None


def solve_equality_feasibility(
    matrix: Sequence[Sequence[Rational]], rhs: Sequence[Rational]
) -> FeasibilityOutcome:
    """Decide feasibility of ``matrix @ x == rhs`` with ``x >= 0``.

    Entries may be ints, Fractions or anything ``Fraction`` accepts.
    Redundant equations are fine (artificial variables stuck at level zero).
    The returned certificate is verified internally before being handed out.
    """
    m = len(rhs)
    n = len(matrix[0]) if m else 0
    a_orig = [[_ratio(v) for v in row] for row in matrix]
    b_orig = [_ratio(v) for v in rhs]
    if any(len(row) != n for row in a_orig):
        raise ValueError("ragged constraint matrix")
    if m == 0:
        return FeasibilityOutcome((Fraction(0),) * n, None)

    # Row i of the system, scaled by the lcm of its denominators, is
    # a_int[i] . x == b_int[i] with integer coefficients.
    a_int: list[list[int]] = []
    b_int: list[int] = []
    scale: list[int] = []
    for i in range(m):
        b_num, b_den = b_orig[i]
        den = math.lcm(b_den, *(q for _, q in a_orig[i]))
        a_int.append([p * (den // q) for p, q in a_orig[i]])
        b_int.append(b_num * (den // b_den))
        scale.append(den)

    # Tableau columns: n structural, m artificial, then the rhs.  Row i holds
    # the numerators of its values over dens[i] > 0, with b >= 0 after the
    # sign flip; sign[i] maps the dual back.
    width = n + m
    dens = list(scale)
    sign = [1] * m
    rows: list[list[int]] = []
    for i in range(m):
        if b_int[i] < 0:
            sign[i] = -1
            row = [-v for v in a_int[i]]
        else:
            row = list(a_int[i])
        row += [0] * m
        row[n + i] = dens[i]
        row.append(abs(b_int[i]))
        rows.append(row)
    basis = [n + i for i in range(m)]

    # Phase-1 objective: minimize the sum of artificials.  z[j] / z_den holds
    # c_B B^-1 A_j - c_j; entering columns are those with z[j] > 0.
    z_den = math.lcm(*dens)
    lift = [z_den // d for d in dens]
    z = [sum(row[j] * k for row, k in zip(rows, lift)) for j in range(width + 1)]
    for k in range(m):
        z[n + k] -= z_den  # cost of artificial variables
    z, z_den = _reduce(z, z_den)

    while True:
        enter = next((j for j in range(width) if z[j] > 0), None)
        if enter is None:
            break
        # Leaving row: smallest (rhs / coeff, basis index) over coeff > 0.
        # A row's denominator cancels from its ratio, and both coefficients
        # are positive, so ratios compare by cross multiplication.
        pivot_row = None
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                if pivot_row is None:
                    pivot_row, best_rhs, best_coeff = i, rows[i][width], coeff
                    continue
                lhs = rows[i][width] * best_coeff
                rhs_i = best_rhs * coeff
                if lhs < rhs_i or (lhs == rhs_i and basis[i] < basis[pivot_row]):
                    pivot_row, best_rhs, best_coeff = i, rows[i][width], coeff
        if pivot_row is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        z, z_den = _pivot(rows, dens, z, z_den, pivot_row, enter)
        basis[pivot_row] = enter

    if z[width] == 0:
        solution = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                solution[var] = Fraction(rows[i][width], dens[i])
        return FeasibilityOutcome(tuple(solution), None)

    # Infeasible: y = c_B B^-1 read from the artificial block, whose final
    # content is B^-1 itself; summed over the rows with artificial basics.
    artificial = [k for k in range(m) if basis[k] >= n]
    y_den = math.lcm(*[dens[k] for k in artificial])
    y = [
        sum(rows[k][n + i] * (y_den // dens[k]) for k in artificial)
        for i in range(m)
    ]
    # A list, not a generator: tuple(generator) allocates spare slots and
    # shrinks, and the shrunk tuple later idles in a per-size free list.
    certificate = tuple([Fraction(sign[i] * y[i], y_den) for i in range(m)])
    _check_certificate(a_int, b_int, scale, certificate)
    return FeasibilityOutcome(None, certificate)


def _ratio(value: object) -> tuple[int, int]:
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)  # type: ignore[arg-type]
    return value.numerator, value.denominator


def _reduce(row: list[int], den: int) -> tuple[list[int], int]:
    """Divide a row's numerators and its positive denominator by their gcd."""
    g = math.gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _pivot(
    rows: list[list[int]],
    dens: list[int],
    z: list[int],
    z_den: int,
    row: int,
    col: int,
) -> tuple[list[int], int]:
    """Pivot on a positive entry; update rows in place, return the new z-row.

    The pivot row r / d with entry c / d divides to r / c, reduced to
    pivot / p.  Any other row r' / e with entry f / e becomes
    (r' * p - f * pivot) / (e * p), reduced.  Since p > 0, every
    denominator stays positive and a numerator's sign is its value's sign,
    which the entering and leaving tests rely on.
    """
    pivot, p = _reduce(rows[row], rows[row][col])
    rows[row], dens[row] = pivot, p
    for i, current in enumerate(rows):
        f = current[col]
        if i != row and f != 0:
            rows[i], dens[i] = _reduce(
                [v * p - f * q for v, q in zip(current, pivot)], dens[i] * p
            )
    f = z[col]
    if f == 0:
        return z, z_den
    return _reduce([v * p - f * q for v, q in zip(z, pivot)], z_den * p)


def _check_certificate(
    a_int: list[list[int]],
    b_int: list[int],
    scale: list[int],
    y: tuple[Fraction, ...],
) -> None:
    """Check y . b > 0 and y . A_j <= 0 on the original system.

    Row i of the original system is (a_int[i], b_int[i]) / scale[i]; with
    every y_i / scale[i] written over one common denominator, both sums
    become integer sums of the same signs.
    """
    m, n = len(a_int), len(a_int[0]) if a_int else 0
    dens = [yi.denominator * s for yi, s in zip(y, scale)]
    common = math.lcm(*dens)
    w = [yi.numerator * (common // d) for yi, d in zip(y, dens)]
    if sum(w[i] * b_int[i] for i in range(m)) <= 0:
        raise AssertionError("Farkas certificate has non-positive value")
    for j in range(n):
        if sum(w[i] * a_int[i][j] for i in range(m)) > 0:
            raise AssertionError("Farkas certificate fails on a column")
