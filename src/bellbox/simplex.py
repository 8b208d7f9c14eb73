"""Exact-rational linear feasibility via phase-1 simplex with Bland's rule.

Solves: find x >= 0 with A x = b for rational A and b.  Either a feasible
solution is returned or a Farkas certificate y with

    y . A_j <= 0 for every column j,   y . b > 0,

which proves that no non-negative solution exists.  Bland's smallest-index
pivot rule makes termination unconditional.

The arithmetic is fraction-free.  The tableau's structural and artificial
columns, ``[A | I]`` and its objective row, are lists of Python ints over
one positive denominator per row, divided by the gcd of their entries after
each pivot.  The right-hand side is a separate column of rationals in
lowest terms, so b's denominators never enter the integer rows.  Ratios are
compared by cross multiplication, so no value is ever rounded and the pivot
sequence, basis, solution and certificate are exactly those of the same
method carried out on ``fractions.Fraction`` entries.

Kept in lowest terms, the rows are fixed by A, the rows' signs and the
ordered basis, never by b.  So a ``ConstraintMatrix`` builds their starting
form once and keeps a step store: per state (signs, ordered basis) the
entering column over one denominator, all that the ratio test and b's update
read, or at the end the certificate's y.  A solve pivots b alone while its
states are stored; at its first new state it rebuilds the rows by replaying
its pivots, then carries them and records each new state.  The store takes
``_STEP_CAP`` states (solves running at once may each add one more), keys
are bytes when every index is below 256 (else tuples, 8 bytes an index),
and equal steps are kept once: full, for the 17-row membership matrix, it
takes at most ~1.5 MB; a wider matrix's states cost more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Sequence, Union

Rational = Union[int, Fraction]

# The most states one ConstraintMatrix's step store keeps.
_STEP_CAP = 4096


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
    ``_steps`` is the step store, keyed by ``_pack``, each distinct step
    kept once in ``_shared``.
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
        self._pack = bytes if n + m <= 256 else tuple
        self._steps: dict = {}
        self._shared: dict = {}
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
    b = [(abs(p), q) for p, q in b_orig]
    sign = [-1 if p < 0 else 1 for p, _ in b_orig]
    pack, steps = system._pack, system._steps
    key_tail = pack([i for i in range(m) if sign[i] < 0])
    basis = (bytearray if pack is bytes else list)(range(n, n + m))
    path: list[tuple[int, int]] = []
    rows = None

    # Each step reads the entering column over one denominator from the
    # store, or from the rows, which are built at the first state it lacks.
    while True:
        key = pack(basis) + key_tail
        step = steps.get(key)
        if step is None:
            if rows is None:
                rows, dens, z, z_den = _replay(system, sign, path)
            step = _step(rows, dens, z)
            if len(steps) < _STEP_CAP:
                step = steps.setdefault(key, system._shared.setdefault(step, step))
        enter, column, den = step
        if enter is None:
            break
        # Leaving row: smallest (b_i / column_i, basis index) over
        # column_i > 0, compared by cross multiplication of positive terms.
        pivot_row = None
        nonzero = list(compress(range(m), column))
        for i in nonzero:
            coeff = column[i]
            if coeff > 0:
                ratio_num, ratio_den = b[i][0], b[i][1] * coeff
                if pivot_row is None:
                    pivot_row, best_num, best_den = i, ratio_num, ratio_den
                    continue
                lhs = ratio_num * best_den
                rhs_i = best_num * ratio_den
                if lhs < rhs_i or (lhs == rhs_i and basis[i] < basis[pivot_row]):
                    pivot_row, best_num, best_den = i, ratio_num, ratio_den
        if pivot_row is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        # The pivot row's entry is c / den and b_r becomes b_r * den / c;
        # another row's is f / den and b' becomes b' - f * b_r / den.
        p, q = b[pivot_row]
        b_num, b_den = b[pivot_row] = _lowest(p * den, q * column[pivot_row])
        if b_num:
            for i in nonzero:
                if i != pivot_row:
                    p, q = b[i]
                    b[i] = _lowest(p * den * b_den - column[i] * b_num * q, q * den * b_den)
        if rows is not None:
            z, z_den = _pivot(rows, dens, z, z_den, pivot_row, enter, nonzero)
        basis[pivot_row] = enter
        path.append((pivot_row, enter))

    # The phase-1 value c_B B^-1 b is the sum of the (non-negative) rhs of
    # the rows whose basic variable is artificial.
    if not any(b[k][0] for k in range(m) if basis[k] >= n):
        solution = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                solution[var] = Fraction(*b[i])
        return FeasibilityOutcome(tuple(solution), None)

    # Infeasible: y = c_B B^-1 read from the artificial block, whose final
    # content is B^-1 itself; summed over the rows with artificial basics.
    # It is stored with the final state the first time it is needed.
    if column is None:
        if rows is None:
            rows, dens, _, _ = _replay(system, sign, path)
        artificial = [k for k in range(m) if basis[k] >= n]
        den = math.lcm(*[dens[k] for k in artificial])
        column = tuple([sum([rows[k][n + i] * (den // dens[k]) for k in artificial]) for i in range(m)])
        if key in steps:
            step = (None, column, den)
            steps[key] = system._shared.setdefault(step, step)
    # A list, not a generator: tuple(generator) allocates spare slots and
    # shrinks, and the shrunk tuple later idles in a per-size free list.
    certificate = tuple([Fraction(sign[i] * column[i], den) for i in range(m)])
    _check_certificate(system, b_orig, certificate)
    return FeasibilityOutcome(None, certificate)


def _replay(system: ConstraintMatrix, sign: list[int], path: list[tuple[int, int]]) -> tuple:
    """The rows, their denominators and the z-row after the pivots in ``path``."""
    n = system.n
    rows = [list(row) for row in system.tableau]
    for i, s in enumerate(sign):
        if s < 0:
            rows[i][:n] = [-v for v in rows[i][:n]]
    if -1 in sign:
        z, z_den = _phase1_row(system.a_int, system.scale, sign)
    else:
        z, z_den = list(system.z), system.z_den
    dens = list(system.scale)
    for row, col in path:
        nonzero = [i for i, current in enumerate(rows) if current[col]]
        z, z_den = _pivot(rows, dens, z, z_den, row, col, nonzero)
    return rows, dens, z, z_den


def _step(rows: list[list[int]], dens: list[int], z: list[int]) -> tuple:
    """A state's step: the entering column, the first j with z[j] > 0 (z is
    c_B B^-1 A_j - c_j of the phase-1 objective), and its entries over one
    denominator; at the end, None."""
    enter = next((j for j, v in enumerate(z) if v > 0), None)
    if enter is None:
        return None, None, 1
    if dens.count(1) == len(dens):
        # Every row over 1, as on the membership matrix: math.lcm over all
        # the rows costs more than the rest of the step.
        return enter, tuple([row[enter] for row in rows]), 1
    den = math.lcm(*dens)
    return enter, tuple([row[enter] * (den // d) for row, d in zip(rows, dens)]), den


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
    rows: list[list[int]], dens: list[int], z: list[int], z_den: int, row: int, col: int, nonzero: list[int]
) -> tuple[list[int], int]:
    """Pivot on a positive entry; update rows in place, return the new z-row.

    The pivot row r / d with entry c / d divides to r / c, reduced to
    pivot / p.  Any other row r' / e with entry f / e, which ``nonzero``
    lists when f != 0, becomes (r' * p - f * pivot) / (e * p), reduced.
    Since p > 0, every denominator stays positive and a numerator's sign is
    its value's sign, which the entering and leaving tests rely on.
    """
    pivot, p = _reduce(rows[row], rows[row][col])
    rows[row], dens[row] = pivot, p
    support = list(compress(range(len(pivot)), pivot))
    for i in nonzero:
        if i != row:
            rows[i], dens[i] = _eliminate(rows[i], dens[i], pivot, p, rows[i][col], support)
    return _eliminate(z, z_den, pivot, p, z[col], support)


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
    if sum([yi.numerator * p * (common // d) for yi, (p, _), d in zip(y, b, dens)]) <= 0:
        raise AssertionError("Farkas certificate has non-positive value")
    dens = [yi.denominator * s for yi, s in zip(y, system.scale)]
    common = math.lcm(*dens)
    w = [yi.numerator * (common // d) for yi, d in zip(y, dens)]
    for column in zip(*system.a_int):
        if sum([wi * v for wi, v in zip(w, column)]) > 0:
            raise AssertionError("Farkas certificate fails on a column")
