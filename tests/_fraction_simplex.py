"""Reference solver for the differential tests of ``bellbox.simplex``.

This is the ``Fraction``-tableau phase-1 simplex that ``bellbox.simplex``
shipped before its kernel moved to integer rows, copied verbatim (only the
module docstring and the ``FeasibilityOutcome`` import differ).  The integer
kernel promises the same pivots, so it must return an equal
``FeasibilityOutcome`` for every input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from bellbox.simplex import FeasibilityOutcome

def solve_equality_feasibility(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> FeasibilityOutcome:
    """Decide feasibility of ``matrix @ x == rhs`` with ``x >= 0``.

    Redundant equations are fine (artificial variables stuck at level zero).
    The returned certificate is verified internally before being handed out.
    """
    m = len(rhs)
    n = len(matrix[0]) if m else 0
    a_orig = [[Fraction(v) for v in row] for row in matrix]
    b_orig = [Fraction(v) for v in rhs]
    if any(len(row) != n for row in a_orig):
        raise ValueError("ragged constraint matrix")
    if m == 0:
        return FeasibilityOutcome((Fraction(0),) * n, None)

    # Flip rows to get b >= 0; remember signs to map the dual back.
    sign = [1] * m
    rows: list[list[Fraction]] = []
    for i in range(m):
        if b_orig[i] < 0:
            sign[i] = -1
            rows.append([-v for v in a_orig[i]] + [-b_orig[i]])
        else:
            rows.append(list(a_orig[i]) + [b_orig[i]])

    # Tableau columns: n structural, m artificial, then the rhs.
    width = n + m
    tableau = [
        row[:n] + [Fraction(1) if k == i else Fraction(0) for k in range(m)] + [row[n]]
        for i, row in enumerate(rows)
    ]
    basis = [n + i for i in range(m)]

    # Phase-1 objective: minimize the sum of artificials.  z[j] holds
    # c_B B^-1 A_j - c_j; entering columns are those with z[j] > 0.
    z = [Fraction(0)] * (width + 1)
    for j in range(width + 1):
        z[j] = sum((tableau[i][j] for i in range(m)), Fraction(0))
    for k in range(m):
        z[n + k] -= 1  # cost of artificial variables

    while True:
        enter = next((j for j in range(width) if z[j] > 0), None)
        if enter is None:
            break
        pivot_row = None
        best_key: tuple[Fraction, int] | None = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                key = (tableau[i][width] / coeff, basis[i])
                if best_key is None or key < best_key:
                    best_key = key
                    pivot_row = i
        if pivot_row is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        _pivot(tableau, z, pivot_row, enter)
        basis[pivot_row] = enter

    if z[width] == 0:
        solution = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                solution[var] = tableau[i][width]
        return FeasibilityOutcome(tuple(solution), None)

    # Infeasible: y = c_B B^-1 read from the artificial block, whose final
    # content is B^-1 itself.
    y = [Fraction(0)] * m
    for i in range(m):
        y[i] = sum(
            (tableau[k][n + i] for k in range(m) if basis[k] >= n), Fraction(0)
        )
    certificate = tuple(sign[i] * y[i] for i in range(m))
    _check_certificate(a_orig, b_orig, certificate)
    return FeasibilityOutcome(None, certificate)


def _pivot(
    tableau: list[list[Fraction]], z: list[Fraction], row: int, col: int
) -> None:
    width = len(tableau[0])
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    pivot_row = tableau[row]
    for i, current in enumerate(tableau):
        if i != row and current[col] != 0:
            f = current[col]
            tableau[i] = [v - f * p for v, p in zip(current, pivot_row)]
    if z[col] != 0:
        f = z[col]
        for j in range(width):
            z[j] -= f * pivot_row[j]


def _check_certificate(
    a: list[list[Fraction]], b: list[Fraction], y: tuple[Fraction, ...]
) -> None:
    m, n = len(a), len(a[0]) if a else 0
    value = sum((y[i] * b[i] for i in range(m)), Fraction(0))
    if value <= 0:
        raise AssertionError("Farkas certificate has non-positive value")
    for j in range(n):
        column = sum((y[i] * a[i][j] for i in range(m)), Fraction(0))
        if column > 0:
            raise AssertionError("Farkas certificate fails on a column")
