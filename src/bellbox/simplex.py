"""Exact-rational linear feasibility via phase-1 simplex with Bland's rule.

Solves: find x >= 0 with A x = b for rational A and b.  Either a feasible
solution is returned or a Farkas certificate y with

    y . A_j <= 0 for every column j,   y . b > 0,

which proves that no non-negative solution exists.  Bland's smallest-index
pivot rule makes termination unconditional.

The arithmetic is fraction-free.  The tableau's structural and artificial
columns, ``[A | I]`` and its objective row, are lists of Python ints over
one positive denominator per row, divided by the gcd of their entries after
each pivot.  They depend on A alone, so a ``ConstraintMatrix`` builds their
starting form once and every solve over it only copies it.  The right-hand
side is a separate column of rationals in lowest terms, so b's
denominators never enter the integer rows.  Ratios are compared by cross
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


class ConstraintMatrix(tuple):
    """The rows of A, each a tuple, read once into the solver's integer form.

    ``scale[i]`` is the lcm of row i's denominators and ``a_int[i]`` the
    integer row ``A[i] * scale[i]``.  ``tableau[i]`` is the phase-1 row
    ``[a_int[i] | scale[i] e_i]`` over ``scale[i]``, and ``z`` over
    ``z_den`` the starting objective row when no row is sign-flipped.
    """

    def __new__(cls, matrix: Sequence[Sequence[Rational]]) -> "ConstraintMatrix":
        self = super().__new__(cls, [tuple(row) for row in matrix])
        m = len(self)
        n = len(self[0]) if m else 0
        ratios = [[_ratio(v) for v in row] for row in self]
        if any(len(row) != n for row in ratios):
            raise ValueError("ragged constraint matrix")
        self.n = n
        self.scale = tuple([math.lcm(*[q for _, q in row]) for row in ratios])
        self.a_int = tuple(
            [tuple([p * (d // q) for p, q in row]) for row, d in zip(ratios, self.scale)]
        )
        self.tableau = tuple(
            [
                row + (0,) * i + (d,) + (0,) * (m - 1 - i)
                for i, (row, d) in enumerate(zip(self.a_int, self.scale))
            ]
        )
        z, self.z_den = _phase1_row(self.a_int, self.scale, [1] * m)
        self.z = tuple(z)
        return self


def solve_equality_feasibility(
    matrix: Sequence[Sequence[Rational]], rhs: Sequence[Rational]
) -> FeasibilityOutcome:
    """Decide feasibility of ``matrix @ x == rhs`` with ``x >= 0``.

    Entries may be ints, Fractions or anything ``Fraction`` accepts.  A
    ``ConstraintMatrix`` is used as it is; any other matrix is read into
    one first, so callers that solve over one A many times pass the same
    ``ConstraintMatrix``.  Redundant equations are fine (artificial
    variables stuck at level zero).  The returned certificate is verified
    internally before being handed out.
    """
    system = matrix if isinstance(matrix, ConstraintMatrix) else ConstraintMatrix(matrix)
    m, n = len(system), system.n
    if len(rhs) != m:
        raise ValueError(f"{len(rhs)} right-hand sides for {m} rows")

    # Rows with b_i < 0 are negated over their structural columns, so every
    # rhs is >= 0; sign[i] maps the dual back.  b[i] is the rhs in lowest
    # terms, not scaled by the row's denominator.
    b_orig = [_ratio(v) for v in rhs]
    rows = [list(row) for row in system.tableau]
    sign = [1] * m
    b: list[tuple[int, int]] = []
    for i, (p, q) in enumerate(b_orig):
        if p < 0:
            sign[i] = -1
            rows[i][:n] = [-v for v in rows[i][:n]]
        b.append((abs(p), q))
    if -1 in sign:
        z, z_den = _phase1_row(system.a_int, system.scale, sign)
    else:
        z, z_den = list(system.z), system.z_den
    dens = list(system.scale)
    width = n + m
    basis = [n + i for i in range(m)]

    # z[j] / z_den holds c_B B^-1 A_j - c_j of the phase-1 objective (the
    # sum of the artificials); entering columns are those with z[j] > 0.
    while True:
        enter = next((j for j in range(width) if z[j] > 0), None)
        if enter is None:
            break
        # Leaving row: smallest (b_i * dens[i] / coeff, basis index) over
        # coeff > 0, compared by cross multiplication of positive terms.
        pivot_row = None
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                p, q = b[i]
                ratio_num, ratio_den = p * dens[i], q * coeff
                if pivot_row is None:
                    pivot_row, best_num, best_den = i, ratio_num, ratio_den
                    continue
                lhs = ratio_num * best_den
                rhs_i = best_num * ratio_den
                if lhs < rhs_i or (lhs == rhs_i and basis[i] < basis[pivot_row]):
                    pivot_row, best_num, best_den = i, ratio_num, ratio_den
        if pivot_row is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        z, z_den = _pivot(rows, dens, b, z, z_den, pivot_row, enter)
        basis[pivot_row] = enter

    # The phase-1 value c_B B^-1 b is the sum of the (non-negative) rhs of
    # the rows whose basic variable is artificial.
    artificial = [k for k in range(m) if basis[k] >= n]
    if not any(b[k][0] for k in artificial):
        solution = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                solution[var] = Fraction(*b[i])
        return FeasibilityOutcome(tuple(solution), None)

    # Infeasible: y = c_B B^-1 read from the artificial block, whose final
    # content is B^-1 itself; summed over the rows with artificial basics.
    y_den = math.lcm(*[dens[k] for k in artificial])
    y = [
        sum(rows[k][n + i] * (y_den // dens[k]) for k in artificial)
        for i in range(m)
    ]
    # A list, not a generator: tuple(generator) allocates spare slots and
    # shrinks, and the shrunk tuple later idles in a per-size free list.
    certificate = tuple([Fraction(sign[i] * y[i], y_den) for i in range(m)])
    _check_certificate(system, b_orig, certificate)
    return FeasibilityOutcome(None, certificate)


def _ratio(value: object) -> tuple[int, int]:
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)  # type: ignore[arg-type]
    return value.numerator, value.denominator


def _reduce(row: list[int], den: int) -> tuple[list[int], int]:
    """Divide a row's numerators and its positive denominator by their gcd."""
    if den == 1:
        return row, den
    g = math.gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _phase1_row(
    a_int: Sequence[Sequence[int]], scale: Sequence[int], sign: Sequence[int]
) -> tuple[list[int], int]:
    """The starting objective row: the sum of the sign-flipped rows of
    ``[A | I]`` minus the artificial costs, which is 0 on every artificial."""
    z_den = math.lcm(*scale)
    lift = [s * (z_den // d) for s, d in zip(sign, scale)]
    z = [sum([v * k for v, k in zip(column, lift)]) for column in zip(*a_int)]
    return _reduce(z + [0] * len(scale), z_den)


def _pivot(
    rows: list[list[int]],
    dens: list[int],
    b: list[tuple[int, int]],
    z: list[int],
    z_den: int,
    row: int,
    col: int,
) -> tuple[list[int], int]:
    """Pivot on a positive entry; update rows and rhs in place, return the new z-row.

    The pivot row r / d with entry c / d divides to r / c, reduced to
    pivot / p, and its rhs b_r to b_r * d / c.  Any other row r' / e with
    entry f / e becomes (r' * p - f * pivot) / (e * p), reduced, and its
    rhs b' - (f / e) * b_r, with b_r the pivot row's new rhs.  Since p > 0,
    every denominator stays positive and a numerator's sign is its value's
    sign, which the entering and leaving tests rely on.
    """
    c = rows[row][col]
    pivot, p = _reduce(rows[row], c)
    rows[row] = pivot
    b_num, b_den = _lowest(b[row][0] * dens[row], b[row][1] * c)
    dens[row], b[row] = p, (b_num, b_den)
    support = [j for j, w in enumerate(pivot) if w]
    for i, current in enumerate(rows):
        f = current[col]
        if i != row and f != 0:
            e = dens[i]
            rows[i], dens[i] = _eliminate(current, e, pivot, p, f, support)
            if b_num:
                num, den = b[i]
                b[i] = _lowest(num * e * b_den - f * b_num * den, den * e * b_den)
    f = z[col]
    if f == 0:
        return z, z_den
    return _eliminate(z, z_den, pivot, p, f, support)


def _eliminate(
    row: list[int], den: int, pivot: list[int], p: int, f: int, support: list[int]
) -> tuple[list[int], int]:
    """``(row * p - f * pivot) / (den * p)``, reduced.

    Over a unit pivot (p == 1, as on 0/1 incidence rows) only the columns
    in ``support``, where the pivot row is non-zero, change; they are
    updated in place.
    """
    if p == 1:
        for j in support:
            row[j] -= f * pivot[j]
        return _reduce(row, den)
    return _reduce([v * p - f * w for v, w in zip(row, pivot)], den * p)


def _lowest(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def _check_certificate(
    system: ConstraintMatrix, b: list[tuple[int, int]], y: tuple[Fraction, ...]
) -> None:
    """Check y . b > 0 and y . A_j <= 0 on the original system.

    Row i of A is ``system.a_int[i] / system.scale[i]`` and b_i is the
    reduced pair ``b[i]``; each sum is taken as integers over one common
    denominator, which keeps its sign.
    """
    dens = [yi.denominator * q for yi, (_, q) in zip(y, b)]
    common = math.lcm(*dens)
    if sum(yi.numerator * p * (common // d) for yi, (p, _), d in zip(y, b, dens)) <= 0:
        raise AssertionError("Farkas certificate has non-positive value")
    dens = [yi.denominator * s for yi, s in zip(y, system.scale)]
    common = math.lcm(*dens)
    w = [yi.numerator * (common // d) for yi, d in zip(y, dens)]
    for column in zip(*system.a_int):
        if sum(wi * v for wi, v in zip(w, column)) > 0:
            raise AssertionError("Farkas certificate fails on a column")
