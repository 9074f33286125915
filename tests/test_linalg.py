"""Exact linear algebra against a plain Gaussian-elimination oracle."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hoeffding import linalg
from hoeffding.linalg import (
    _integer_rows,
    nullspace,
    rank,
    row_echelon,
    solve,
    solve_symmetric,
)

P = 2**127 - 1


def naive_rank(rows):
    # textbook elimination on Fractions, no fraction-free tricks
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                fac = m[i][c]
                m[i] = [a - fac * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def matvec(rows, x):
    return [sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0)) for row in rows]


def random_matrix(rng, nrows, ncols, den_max=4):
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, den_max)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


dims = st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))


@given(dims, st.integers())
def test_rank_matches_naive_elimination(shape, seed):
    rng = random.Random(seed)
    m = random_matrix(rng, *shape)
    assert rank(m) == naive_rank(m)


@given(dims, st.integers())
def test_nullspace_is_annihilated_and_has_full_dimension(shape, seed):
    rng = random.Random(seed)
    m = random_matrix(rng, *shape)
    basis = nullspace(m)
    assert len(basis) == shape[1] - naive_rank(m)
    for vec in basis:
        assert all(v == 0 for v in matvec(m, vec))
    # basis vectors are independent: each has a 1 in its own free column
    assert naive_rank(basis) == len(basis) if basis else True


@given(dims, st.integers())
def test_solve_agrees_with_known_solution(shape, seed):
    rng = random.Random(seed)
    m = random_matrix(rng, *shape)
    x_true = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(shape[1])]
    b = matvec(m, x_true)
    x = solve(m, b)
    assert x is not None
    assert matvec(m, x) == b


@given(dims, st.integers())
def test_solve_detects_inconsistency(shape, seed):
    rng = random.Random(seed)
    m = random_matrix(rng, *shape)
    b = [Fraction(rng.randint(-3, 3)) for _ in range(shape[0])]
    x = solve(m, b)
    if x is None:
        # b must be outside the column space: appending it raises the rank
        # of the transposed system
        cols = list(map(list, zip(*m)))
        assert naive_rank(cols + [b]) == naive_rank(cols) + 1
    else:
        assert matvec(m, x) == b


def per_row_lcm_rows(rows):
    # the scaling before exactnum._common_denominator: each row times the
    # lcm of its own denominators, entry by entry in Fractions
    out = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        den = 1
        for x in fr:
            den = math.lcm(den, x.denominator)
        out.append([int(x * den) for x in fr])
    return out


entries = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.sampled_from([0, Fraction(0), Fraction(-7, 3)]),
)


@given(st.lists(st.lists(entries, max_size=6), max_size=5))
def test_integer_rows_match_per_row_lcm_scaling(rows):
    scaled = _integer_rows(rows)
    assert scaled == per_row_lcm_rows(rows)
    assert all(type(x) is int for row in scaled for x in row)


def test_row_echelon_pivots_are_staircase():
    m = [[0, 1, 2], [0, 2, 4], [1, 0, 0]]
    ech = row_echelon(m)
    assert ech.pivot_cols == sorted(ech.pivot_cols)
    assert rank(m) == 2


def test_empty_and_degenerate_shapes():
    assert rank([]) == 0
    assert nullspace([[0, 0, 0]]) and len(nullspace([[0, 0, 0]])) == 3
    assert solve([[2]], [3]) == [Fraction(3, 2)]
    assert solve([[0]], [1]) is None
    assert solve([], []) == []
    assert solve_symmetric([], []) == []


def weighted_gram(rng, cols, extra):
    # G = A^T W A with A of full column rank and W a positive diagonal
    # whose entries all have different denominators, times the lcm of its
    # denominators: an integer Gram matrix, as decomp._su_gram builds one
    a = random_matrix(rng, cols + extra, cols)
    if rank(a) < cols:
        a += [[int(i == j) for j in range(cols)] for i in range(cols)]
    w = [rng.randint(1, 9) + Fraction(1, r + 2) for r in range(len(a))]
    gram = [
        [sum((wr * row[i] * row[j] for wr, row in zip(w, a)), Fraction(0)) for j in range(cols)]
        for i in range(cols)
    ]
    den = math.lcm(*(g.denominator for row in gram for g in row))
    return [[int(g * den) for g in row] for row in gram]


def no_fallback():
    # solve_symmetric must not hand these systems to solve: a fault in its
    # factor, lifting or reconstruction that the exact check rejects would
    # otherwise still give the right answer through the fallback
    return mock.patch.object(linalg, "solve", side_effect=AssertionError("fell back to solve"))


@given(
    st.integers(1, 8),
    st.integers(0, 4),
    st.one_of(st.integers(1, 8), st.integers(400, 600)),
    st.integers(),
)
def test_solve_symmetric_matches_solve_on_integer_weighted_grams(cols, extra, bits, seed):
    # right-hand-side numerators of 400+ bits make solutions that need
    # several lifting steps before the reconstruction passes the exact check
    rng = random.Random(seed)
    gram = weighted_gram(rng, cols, extra)
    b = [rng.choice((-1, 1)) * rng.getrandbits(bits) for _ in range(cols)]
    expected = solve(gram, b)
    with no_fallback():
        x = solve_symmetric(gram, b)
    assert x == expected
    assert matvec(gram, x) == b


def test_solve_symmetric_falls_back_where_p_divides_a_pivot():
    # the first pivot is 0 mod P, though G is positive definite
    g, b = [[P, 1], [1, 1]], [1, 2]
    with mock.patch.object(linalg, "solve", wraps=solve) as general:
        x = solve_symmetric(g, b)
    general.assert_called_once_with(g, b)
    assert x == solve(g, b)


def test_solve_symmetric_solves_indefinite_nonsingular_systems():
    g, b = [[1, 2], [2, 1]], [2, 1]
    with no_fallback():
        x = solve_symmetric(g, b)
    assert x == solve(g, b)


@pytest.mark.parametrize("g,b,match", [
    ([[1, 1], [1, 1]], [1, 2], "nonsingular"),
    ([[1, 2, 3], [2, 4, 6], [3, 6, 9]], [1, 2, 3], "nonsingular"),
    ([[2, 1], [0, 2]], [1, 1], "solve_symmetric needs a symmetric"),
    ([[1, 0, 0], [0, 1, 0]], [1, 1], "solve_symmetric needs a square"),
    ([[1]], [1, 2], "solve_symmetric needs one right-hand side"),
    ([[0]], [0], "nonsingular"),
])
def test_solve_symmetric_rejects_singular_unsymmetric_and_misshapen_input(g, b, match):
    # a singular G has a pivot 0 mod P, so it reaches the rank check
    with pytest.raises(ValueError, match=match):
        solve_symmetric(g, b)


@pytest.mark.parametrize("g,b", [
    ([[Fraction(1, 2), 0], [0, 1]], [1, 1]),
    ([[Fraction(1), 0], [0, 1]], [1, 1]),
    ([[1.0]], [1]),
    ([[1]], [Fraction(1, 2)]),
])
def test_solve_symmetric_rejects_noninteger_input(g, b):
    # refused before any arithmetic mod P, so never a TypeError from pow()
    with pytest.raises(ValueError, match="solve_symmetric needs integer entries"):
        solve_symmetric(g, b)
