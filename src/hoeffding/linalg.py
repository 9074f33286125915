"""Exact linear algebra over the rationals.

Fraction-free (Bareiss) row elimination on integer-scaled matrices, with
rank, null space, and linear solves built on top.  All results are exact
Fractions; there is no pivot-size heuristic because there is no rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactnum import _common_denominator

__all__ = ["row_echelon", "rank", "nullspace", "solve"]

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


def _back_substitute(ech: Echelon, x: list[Fraction]) -> list[Fraction]:
    # Solves the homogeneous system for pivot coordinates, given that the
    # free coordinates of x are already assigned.
    for r in range(len(ech.pivot_cols) - 1, -1, -1):
        c = ech.pivot_cols[r]
        row = ech.rows[r]
        s = Fraction(0)
        for j in range(c + 1, ech.ncols):
            if row[j] and x[j]:
                s += row[j] * x[j]
        x[c] = -s / row[c]
    return x


def nullspace(rows: Matrix) -> list[list[Fraction]]:
    """A basis of the right null space, one vector per free column."""
    ech = row_echelon(rows)
    pivots = set(ech.pivot_cols)
    basis = []
    for f in range(ech.ncols):
        if f in pivots:
            continue
        x = [Fraction(0)] * ech.ncols
        x[f] = Fraction(1)
        basis.append(_back_substitute(ech, x))
    return basis


def solve(a_rows: Matrix, b: Sequence["Fraction | int"]) -> Optional[list[Fraction]]:
    """One exact solution of A x = b with free variables set to 0.

    Returns None when the system is inconsistent.
    """
    a_rows = list(a_rows)
    if len(a_rows) != len(b):
        raise ValueError("solve needs one right-hand side entry per row")
    aug = [list(row) + [rhs] for row, rhs in zip(a_rows, b)]
    ech = row_echelon(aug)
    ncols_a = ech.ncols - 1
    if any(c == ncols_a for c in ech.pivot_cols):
        return None
    # the augmented column is a free coordinate fixed at -1: A x - b = 0
    x = [Fraction(0)] * ech.ncols
    x[ncols_a] = Fraction(-1)
    return _back_substitute(ech, x)[:ncols_a]

