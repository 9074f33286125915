"""Exact linear algebra over the rationals.

Fraction-free (Bareiss) row elimination on integer-scaled matrices, with
rank, null space and linear solves built on top.  Each row is scaled to
integers by the lcm of its own denominators.  `solve` is the general
solver: it pivots on the first nonzero entry of each column and reports an
inconsistent system.  `solve_spd` is the solver for symmetric positive
definite systems, such as the Gram matrices of `decomp`: it needs no
pivot search and updates only the upper triangle and the right-hand side,
since the minors below the diagonal follow from those above it.  Both
back-substitute in integers and make one Fraction per coordinate at the
end.  All results are exact; there is no pivot-size heuristic because
there is no rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .exactnum import _common_denominator

__all__ = ["row_echelon", "rank", "nullspace", "solve", "solve_spd"]

Matrix = Sequence[Sequence["Fraction | int"]]


@dataclass
class Echelon:
    rows: list[list[int]]
    pivot_cols: list[int]
    ncols: int


def _integer_rows(rows: Matrix) -> list[list[int]]:
    # Row scaling by the positive lcm of denominators preserves row space,
    # null space and, for augmented rows, the solution set.
    return [_common_denominator(row)[0] for row in rows]


def row_echelon(rows: Matrix) -> Echelon:
    """Bareiss elimination: integer row echelon form with exact divisions.

    Entries stay minors of the (scaled) input, so every division below is
    exact and intermediate growth stays polynomial.
    """
    m = _integer_rows(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivot_cols: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            fac = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c, ncols):
                row_i[j] = (piv * row_i[j] - fac * row_r[j]) // prev
        prev = piv
        pivot_cols.append(c)
        r += 1
    return Echelon(m, pivot_cols, ncols)


def rank(rows: Matrix) -> int:
    return len(row_echelon(rows).pivot_cols)


def _back_substitute(ech: Echelon, free: int, value: int) -> list[Fraction]:
    # The solution of the echelon system with x[free] = value and every
    # other free coordinate 0.  The pivot rows are minors of the scaled
    # input and the last pivot is the determinant of its pivot block, so by
    # Cramer's rule y = last pivot * x is an integer vector: the sweep runs
    # on y, every division is exact, and each coordinate becomes one
    # Fraction at the end.
    pivots = ech.pivot_cols
    den = ech.rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    y = [0] * ech.ncols
    y[free] = value * den
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        row = ech.rows[r]
        y[c] = -sum(map(mul, row[c + 1:], y[c + 1:])) // row[c]
    return [Fraction(v, den) for v in y]


def nullspace(rows: Matrix) -> list[list[Fraction]]:
    """A basis of the right null space, one vector per free column."""
    ech = row_echelon(rows)
    pivots = set(ech.pivot_cols)
    return [_back_substitute(ech, f, 1) for f in range(ech.ncols) if f not in pivots]


def solve(a_rows: Matrix, b: Sequence["Fraction | int"]) -> Optional[list[Fraction]]:
    """One exact solution of A x = b with free variables set to 0.

    Returns None when the system is inconsistent.
    """
    a_rows = list(a_rows)
    if len(a_rows) != len(b):
        raise ValueError("solve needs one right-hand side entry per row")
    if not a_rows:
        return []
    aug = [list(row) + [rhs] for row, rhs in zip(a_rows, b)]
    ech = row_echelon(aug)
    ncols_a = ech.ncols - 1
    if any(c == ncols_a for c in ech.pivot_cols):
        return None
    # the augmented column is a free coordinate fixed at -1: A x - b = 0
    return _back_substitute(ech, ncols_a, -1)[:ncols_a]


def solve_spd(g_rows: Matrix, b: Sequence["Fraction | int"]) -> list[Fraction]:
    """The exact solution of G x = b for a symmetric positive definite G.

    Bareiss elimination on the rows of [G | b], each scaled by the lcm of
    its own denominators d_i.  The minors of D G below the diagonal are
    those above it times d_i / d_r, an exact division, so each step
    updates only the upper triangle and b, with no pivot search.  The
    pivots are the leading principal minors of D G, positive exactly when
    G is positive definite (Sylvester's criterion), so a pivot <= 0 raises
    ValueError.
    """
    g_rows = list(g_rows)
    n = len(g_rows)
    if len(b) != n:
        raise ValueError("solve_spd needs one right-hand side entry per row")
    if any(len(row) != n for row in g_rows):
        raise ValueError("solve_spd needs a square matrix")
    if list(zip(*g_rows)) != list(map(tuple, g_rows)):
        raise ValueError("solve_spd needs a symmetric matrix")
    scaled = [_common_denominator([*row, rhs]) for row, rhs in zip(g_rows, b)]
    m = [nums for nums, _ in scaled]
    dens = [den for _, den in scaled]
    prev = 1
    for r in range(n):
        row_r = m[r]
        piv = row_r[r]
        if piv <= 0:
            raise ValueError("solve_spd needs a positive definite matrix")
        for i in range(r + 1, n):
            row_i = m[i]
            fac = row_r[i] * dens[i] // dens[r]
            row_i[i:] = [
                (piv * a - fac * p) // prev for a, p in zip(row_i[i:], row_r[i:])
            ]
        prev = piv
    # below the diagonal m still holds the scaled input, which the
    # back-substitution never reads
    return _back_substitute(Echelon(m, list(range(n)), n + 1), n, -1)[:n]
