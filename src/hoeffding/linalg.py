"""Exact linear algebra over the rationals.

Fraction-free (Bareiss) row elimination on integer-scaled matrices, with
rank, null space and linear solves built on top.  Each row is scaled to
integers by the lcm of its own denominators.  `solve` is the general
solver: it pivots on the first nonzero entry of each column, reports an
inconsistent system, back-substitutes in integers and makes one Fraction
per coordinate at the end.

`solve_symmetric` solves the integer Gram systems of `decomp`, whose
Bareiss entries grow far larger than their solutions.  It factors G once
modulo the prime 2^127 - 1 and lifts the solution P-adically (Dixon 1982),
then rebuilds it by rational reconstruction and accepts it only after an
exact integer check of G x = b.  Where the prime divides a pivot, or the
lifting reaches the Hadamard bound unchecked, it hands the system to
`solve` after a rank check that rejects a singular G.  All results are
exact; there is no pivot-size heuristic because there is no rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import mul
from typing import Optional, Sequence

from .exactnum import _common_denominator

__all__ = ["row_echelon", "rank", "nullspace", "solve", "solve_symmetric"]

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


# the Mersenne prime 2^127 - 1, the modulus of solve_symmetric's factorization
_P = (1 << 127) - 1


def solve_symmetric(g_rows: Sequence[Sequence[int]], b: Sequence[int]) -> list[Fraction]:
    """The exact solution of G x = b for an integer symmetric nonsingular G.

    Dixon's p-adic lifting: G is factored once mod P = 2^127 - 1 on the
    upper triangle, touching a row only where the pivot row is nonzero.
    Each lifting step solves for the next P-adic digit of x with that
    factor and divides the residual by P; at steps 1, 2, 4, 8, ... and at
    the last one, x is rebuilt by rational reconstruction and accepted only
    if G x = b holds exactly.  Every pivot is nonzero mod P, so G is
    nonsingular and the checked x is the solution.  A pivot that vanishes
    mod P, or a lifting that reaches the Hadamard bound without a checked
    x, hands the system to solve after a rank check, so a singular G
    raises ValueError.
    """
    g_rows = list(g_rows)
    n = len(g_rows)
    if len(b) != n:
        raise ValueError("solve_symmetric needs one right-hand side entry per row")
    if any(len(row) != n for row in g_rows):
        raise ValueError("solve_symmetric needs a square matrix")
    if list(zip(*g_rows)) != list(map(tuple, g_rows)):
        raise ValueError("solve_symmetric needs a symmetric matrix")
    if not all(type(a) is int for row in [*g_rows, b] for a in row):
        raise ValueError("solve_symmetric needs integer entries")
    factor = _factor_mod_p(g_rows)
    if factor is not None:
        rows = [[(j, a) for j, a in enumerate(row) if a] for row in g_rows]
        residual = list(b)
        # x and y are minors of [G | b] over det(G), all at most the
        # Hadamard bound H, so a modulus P^L > 2 H^2 reconstructs them
        h2_bits = sum(
            (sum(a * a for a in row) + c * c).bit_length() for row, c in zip(g_rows, b)
        )
        cap = (h2_bits + 2) // 127 + 1
        x_mod = [0] * n
        modulus = 1
        for step in range(1, cap + 1):
            digit = _solve_mod_p(factor, residual)
            x_mod = [x + modulus * y for x, y in zip(x_mod, digit)]
            modulus *= _P
            residual = [
                (r - sum(a * digit[j] for j, a in row)) // _P
                for r, row in zip(residual, rows)
            ]
            if step & (step - 1) == 0 or step == cap:
                x = _reconstruct(x_mod, modulus)
                if x is not None and _satisfies(rows, b, *x):
                    nums, den = x
                    return [Fraction(v, den) for v in nums]
    if rank(g_rows) < n:
        raise ValueError("solve_symmetric needs a nonsingular matrix")
    return solve(g_rows, b)


def _factor_mod_p(rows: list[list[int]]):
    # Symmetric elimination of G mod P on the upper triangle.  Returns,
    # per pivot row r, its nonzero entries right of the diagonal and the
    # pivot's inverse, or None if a pivot vanishes mod P.  Updates are
    # reduced mod P only when their row becomes the pivot row.
    n = len(rows)
    m = [list(row) for row in rows]
    factor = []
    for r in range(n):
        row_r = m[r]
        piv = row_r[r] % _P
        if not piv:
            return None
        inv = pow(piv, -1, _P)
        nz = [(j, a) for j, a in ((j, row_r[j] % _P) for j in range(r + 1, n)) if a]
        for k, (i, a) in enumerate(nz):
            fac = a * inv % _P
            row_i = m[i]
            for j, p in nz[k:]:
                row_i[j] -= fac * p
        factor.append((nz, inv))
    return factor


def _solve_mod_p(factor, v: list[int]) -> list[int]:
    # G x = v mod P by the stored factor: forward through the unit lower
    # factor, whose column r is the pivot row over its pivot, then back
    z = list(v)
    for r, (nz, inv) in enumerate(factor):
        w = z[r] % _P * inv % _P
        for j, a in nz:
            z[j] -= a * w
    x = [0] * len(v)
    for r in range(len(v) - 1, -1, -1):
        nz, inv = factor[r]
        x[r] = (z[r] - sum(a * x[j] for j, a in nz)) * inv % _P
    return x


def _reconstruct(x_mod: list[int], modulus: int) -> Optional[tuple[list[int], int]]:
    # Rational reconstruction of every coordinate over one common
    # denominator, numerator and denominator at most sqrt(modulus / 2):
    # each coordinate is first multiplied by the denominator so far, so
    # most reconstruct at once.  None if some coordinate has no such form.
    bound = isqrt(modulus // 2)
    den = 1
    parts = []
    for v in x_mod:
        r0, r1 = modulus, v * den % modulus
        t0, t1 = 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        if t1 < 0:
            r1, t1 = -r1, -t1
        den *= t1
        if den > bound:
            return None
        parts.append((r1, den))
    return [num * (den // d) for num, d in parts], den


def _satisfies(rows, rhs: list[int], nums: list[int], den: int) -> bool:
    # the exact check A (nums / den) = rhs on the integer rows A
    return all(
        sum(a * nums[j] for j, a in row) == c * den for row, c in zip(rows, rhs)
    )
