"""Hoeffding decompositions of symmetric statistics.

Statistics of an exchangeable sequence are functions of the color counts,
so everything here is indexed by weak compositions: a symmetric kernel of
order k is an exact map on the compositions of k, a symmetric statistic
one on the compositions of n.  The module provides U-statistics, the
nested spaces SU_k they span, exact orthogonal projections onto those
spaces (the Hoeffding decomposition), complete-degeneracy checks, and a
brute-force weak-independence oracle that counts sequences block by block
and finds its kernels by back substitution, independent of the closed
forms of `characterization`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import Callable, Mapping, Optional, Sequence

from . import linalg
from .exactnum import (
    Composition,
    Rational,
    _common_denominator,
    class_size,
    compositions,
    format_rational,
    parse_rational,
)
from .laws import ExchangeableLaw, _read_json_file

__all__ = [
    "SymmetricKernel",
    "SymmetricStatistic",
    "u_statistic",
    "inner_product",
    "decompose",
    "kernel_for",
    "DegeneracyCheck",
    "is_completely_degenerate",
    "degenerate_kernel_for",
    "xi_constraint_matrix",
    "xi_nullspace_basis",
    "OracleWitness",
    "OracleResult",
    "weak_independence_oracle",
    "sh_dims",
    "table_to_jsonable",
    "statistic_from_jsonable",
    "load_statistic_file",
]


class _CompositionTable:
    """An exact value for every composition of a fixed order."""

    __slots__ = ("order", "colors", "_values")

    def __init__(self, order: int, colors: int, values: Mapping) -> None:
        if order < 0:
            raise ValueError("order must be non-negative")
        if colors < 1:
            raise ValueError("need at least one color")
        complete: dict[Composition, Fraction] = {}
        for comp in compositions(order, colors):
            if comp not in values:
                raise ValueError(f"missing value for composition {tuple(comp)}")
            complete[comp] = parse_rational(values[comp])
        if len(values) != len(complete):
            extras = sorted(tuple(k) for k in values if k not in complete)
            raise ValueError(f"values off the order-{order} grid: {extras}")
        self.order = order
        self.colors = colors
        self._values = complete

    @classmethod
    def from_function(cls, order: int, colors: int, fn: Callable) :
        return cls(order, colors, {c: fn(c) for c in compositions(order, colors)})

    def __call__(self, comp: Sequence[int]) -> Rational:
        key = comp if isinstance(comp, tuple) else tuple(comp)
        try:
            return self._values[key]
        except KeyError:
            raise ValueError(
                f"composition {tuple(comp)} is not on the order-{self.order} grid"
            ) from None

    def items(self):
        for comp in compositions(self.order, self.colors):
            yield comp, self._values[comp]

    def as_vector(self, comps: Optional[Sequence[Composition]] = None) -> list[Fraction]:
        if comps is None:
            comps = compositions(self.order, self.colors)
        return [self._values[c] for c in comps]

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.order == other.order
            and self.colors == other.colors
            and self._values == other._values
        )

    def __hash__(self):
        return hash((type(self).__name__, self.order, tuple(self.as_vector())))

    def __add__(self, other):
        if type(self) is not type(other) or self.order != other.order or self.colors != other.colors:
            raise ValueError("operands must share type, order and colors")
        return type(self)(
            self.order, self.colors,
            {c: v + other._values[c] for c, v in self._values.items()},
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order}, colors={self.colors})"


class SymmetricKernel(_CompositionTable):
    """Symmetric kernel of order k, stored on the compositions of k."""


class SymmetricStatistic(_CompositionTable):
    """Symmetric statistic of n variables, stored on the compositions of n."""


@lru_cache(maxsize=None)
def _ustat_matrix(n: int, k: int, colors: int) -> tuple[tuple[int, ...], ...]:
    # rows: compositions of n; columns: compositions of k; entry = number of
    # k-subsets with counts c inside a sequence with counts i.  For k <= n
    # the rows c + (n-k)e_1 form a triangular block with diagonal
    # C(c_1+n-k, c_1), so the columns are independent: each U-statistic has
    # one kernel, and for k = n the matrix is the identity.  _solve_kernel
    # finds it by forward substitution on that block, then an exact
    # membership check against every row.
    subs = compositions(k, colors)
    rows = []
    for i in compositions(n, colors):
        row = []
        for c in subs:
            w = 1
            for ij, cj in zip(i, c):
                if cj > ij:
                    w = 0
                    break
                if cj:
                    w *= math.comb(ij, cj)
            row.append(w)
        rows.append(tuple(row))
    return tuple(rows)


def u_statistic(phi: SymmetricKernel, n: int) -> SymmetricStatistic:
    """F(i) = sum over sub-compositions c <= i of prod_j C(i_j, c_j) phi(c).

    The weight counts the k-subsets of a sequence with counts i whose own
    counts equal c, so F is the usual U-statistic (without normalization).
    Each value is an integer sum over the kernel's common denominator.
    """
    if phi.order > n:
        raise ValueError(f"kernel order {phi.order} exceeds statistic order {n}")
    nums, den = _common_denominator(phi.as_vector())
    matrix = _ustat_matrix(n, phi.order, phi.colors)
    values = {
        i: Fraction(sum(w * v for w, v in zip(row, nums) if w), den)
        for i, row in zip(compositions(n, phi.colors), matrix)
    }
    return SymmetricStatistic(n, phi.colors, values)


def _class_weights(law: ExchangeableLaw, n: int) -> list[Fraction]:
    return [class_size(i) * law.cylinder(i) for i in compositions(n, law.K)]


def inner_product(
    law: ExchangeableLaw, n: int, t1: SymmetricStatistic, t2: SymmetricStatistic
) -> Rational:
    """E[T1 T2] = sum_i multinomial(n;i) P_n(i) T1(i) T2(i), exactly."""
    if t1.order != n or t2.order != n:
        raise ValueError("inner_product needs statistics of the stated order")
    if t1.colors != law.K or t2.colors != law.K:
        raise ValueError("statistics and law must share one alphabet")
    prods, den = _integer_products(_class_weights(law, n), t1.as_vector(), t2.as_vector())
    return Fraction(sum(prods), den)


def _integer_products(*vectors: Sequence[Fraction]) -> tuple[list[int], int]:
    # The entrywise product of the vectors as integers over one
    # denominator, the product of the vectors' common denominators.
    nums, dens = zip(*map(_common_denominator, vectors))
    return list(map(math.prod, zip(*nums))), math.prod(dens)


def _su_gram(
    matrix: Sequence[Sequence[int]], weights: Sequence[Fraction]
) -> tuple[list[list[int]], int]:
    # The Gram matrix M^T W M as integers over the weights' common
    # denominator.  Symmetric: fill a <= b and mirror.  Each entry is an
    # integer sum over the rows where both columns are nonzero.
    nums, den = _common_denominator(weights)
    ncols = len(matrix[0])
    support = [
        {r: mrow[a] for r, mrow in enumerate(matrix) if mrow[a]} for a in range(ncols)
    ]
    gram = [[0] * ncols for _ in range(ncols)]
    for a in range(ncols):
        col_a = {r: nums[r] * m for r, m in support[a].items()}
        for b in range(a, ncols):
            gram[a][b] = gram[b][a] = sum(
                col_a[r] * m for r, m in support[b].items() if r in col_a
            )
    return gram, den


def _project_su(
    matrix: Sequence[Sequence[int]],
    weights: Sequence[Fraction],
    tvec: Sequence[Fraction],
) -> list[Fraction]:
    # Kernel coefficients of the orthogonal projection onto the span of the
    # columns of matrix (the indicator U-statistics of one order), via the
    # normal equations.  The columns are independent and every class has
    # positive probability, so the Gram matrix is positive definite and
    # linalg.solve_symmetric finds the one solution.  Over the weights'
    # common denominator d_w and the statistic's d_t, the Gram matrix is
    # G / d_w and the right-hand side M^T W t is r / (d_w d_t) with G and r
    # integer, so the coefficients are the solution of G y = r over d_t.
    gram, den_w = _su_gram(matrix, weights)
    prods, den = _integer_products(weights, tvec)
    rhs = [
        sum(mrow[a] * p for mrow, p in zip(matrix, prods) if mrow[a])
        for a in range(len(matrix[0]))
    ]
    den_t = den // den_w
    return [y / den_t for y in linalg.solve_symmetric(gram, rhs)]


def decompose(
    law: ExchangeableLaw, n: int, statistic: SymmetricStatistic
) -> list[SymmetricStatistic]:
    """The Hoeffding decomposition [F_0, ..., F_n] of a symmetric statistic.

    F_k is the orthogonal projection of the statistic onto
    SH_k = SU_k intersected with the orthogonal complement of SU_{k-1},
    computed as the difference of consecutive SU projections.  The parts
    sum back to the statistic and are pairwise orthogonal under the law.
    """
    if statistic.order != n or statistic.colors != law.K:
        raise ValueError("statistic must match the stated order and alphabet")
    comps = compositions(n, law.K)
    tvec = statistic.as_vector(comps)
    weights = _class_weights(law, n)
    parts = []
    prev = [Fraction(0)] * len(comps)
    for k in range(n + 1):
        # SU_n is the whole space, so F_n = T - P_{n-1} T
        if k == n:
            proj = tvec
        else:
            coef = _project_su(_ustat_matrix(n, k, law.K), weights, tvec)
            phi = SymmetricKernel(k, law.K, dict(zip(compositions(k, law.K), coef)))
            proj = u_statistic(phi, n).as_vector(comps)
        values = {c: a - b for c, a, b in zip(comps, proj, prev)}
        parts.append(SymmetricStatistic(n, law.K, values))
        prev = proj
    return parts


def _solve_kernel(
    law: ExchangeableLaw, n: int, statistic: SymmetricStatistic, k: int, caller: str
) -> Optional[SymmetricKernel]:
    # The kernel of a statistic in SU_k, or None when it is outside.  For
    # k = n the matrix is the identity and the kernel is the statistic
    # itself.  For k < n the rows c + (n-k)e_1 fix the kernel by forward
    # substitution: compositions(k, K) lists c in increasing tail degree,
    # and that row reaches only columns whose tail is <= c's componentwise.
    # The kernel's U-statistic then decides membership.
    if statistic.order != n or statistic.colors != law.K:
        raise ValueError("statistic must match the stated order and alphabet")
    if not 0 <= k <= n:
        raise ValueError(f"{caller} needs 0 <= k <= n, got k={k}")
    comps = compositions(k, law.K)
    tvec = statistic.as_vector()
    if k == n:
        return SymmetricKernel(k, law.K, dict(zip(comps, tvec)))
    matrix = _ustat_matrix(n, k, law.K)
    row_of = {c: r for r, c in enumerate(compositions(n, law.K))}
    x: list[Fraction] = []
    for j, c in enumerate(comps):
        r = row_of[(c[0] + n - k, *c[1:])]
        row = matrix[r]
        acc = tvec[r] - sum(row[m] * x[m] for m in range(j) if row[m])
        x.append(acc / row[j])
    phi = SymmetricKernel(k, law.K, dict(zip(comps, x)))
    return phi if u_statistic(phi, n).as_vector() == tvec else None


def kernel_for(
    law: ExchangeableLaw, n: int, statistic: SymmetricStatistic, k: int
) -> SymmetricKernel:
    """The unique order-k kernel whose U-statistic equals the statistic.

    The statistic must lie in SU_k.  The U-statistic map on order-k
    kernels is injective for every k <= n, so the kernel is unique: for
    k < n it comes from forward substitution on the triangular block of
    the U-statistic equations, then an exact membership check against the
    whole system.  The law only fixes the alphabet here: membership in SU_k
    is a statement about class functions, not probabilities.
    """
    phi = _solve_kernel(law, n, statistic, k, "kernel_for")
    if phi is None:
        raise ValueError(f"statistic is not in SU_{k}")
    return phi


@dataclass(frozen=True)
class DegeneracyCheck:
    degenerate: bool
    witness: Optional[tuple[Composition, Rational]]


def is_completely_degenerate(law: ExchangeableLaw, phi: SymmetricKernel) -> DegeneracyCheck:
    """Check sum_j P(next = j | counts h) phi(h + e_j) = 0 for every h.

    This is complete degeneracy of the kernel: the conditional expectation
    over one fresh coordinate vanishes from every conditioning class of
    order k-1.  On failure the first violating class and its residual are
    reported.
    """
    if phi.order < 1:
        raise ValueError("complete degeneracy concerns kernels of order >= 1")
    if phi.colors != law.K:
        raise ValueError("kernel and law must share one alphabet")
    cylinder = law.cylinder
    for h in compositions(phi.order - 1, law.K):
        ph = cylinder(h)
        if ph == 0:
            raise ValueError("conditioning class has zero probability")
        acc = Fraction(0)
        for j in range(law.K):
            target = h.increment(j)
            acc += cylinder(target) / ph * phi(target)
        if acc != 0:
            return DegeneracyCheck(False, (h, acc))
    return DegeneracyCheck(True, None)


def degenerate_kernel_for(
    law: ExchangeableLaw, n: int, statistic: SymmetricStatistic, k: int
) -> Optional[SymmetricKernel]:
    """A completely degenerate order-k kernel representing the statistic.

    The kernel of a statistic in SU_k is unique, so this is that kernel
    when it is completely degenerate, and None when it is not or when the
    statistic is outside SU_k.  For k = 0 degeneracy is vacuous.
    """
    phi = _solve_kernel(law, n, statistic, k, "degenerate_kernel_for")
    if phi is None or k == 0 or is_completely_degenerate(law, phi).degenerate:
        return phi
    return None


def xi_constraint_matrix(law: ExchangeableLaw, n: int) -> list[list[Fraction]]:
    """Rows of the linear system cutting out the kernels phi of order n with
    E(phi(X_1..X_n) | X_2..X_n) = 0: one row per conditioning class h of
    order n-1, with coefficient P_n(h + e_j) on the column of h + e_j."""
    if n < 1:
        raise ValueError("xi_constraint_matrix needs n >= 1")
    comps_n = compositions(n, law.K)
    col = {c: idx for idx, c in enumerate(comps_n)}
    rows = []
    for h in compositions(n - 1, law.K):
        row = [Fraction(0)] * len(comps_n)
        for j in range(law.K):
            target = h.increment(j)
            row[col[target]] += law.cylinder(target)
        rows.append(row)
    return rows


def xi_nullspace_basis(law: ExchangeableLaw, n: int) -> list[SymmetricKernel]:
    """A basis of the order-n kernels killed by conditioning on all but the
    first coordinate: the generic null space of xi_constraint_matrix(law,
    n) (nullspace in tests/reference.py), vector for vector, by back
    substitution.

    With every P(i) > 0, row h has its first nonzero at the column of
    h + e_1, and those columns increase with the rows: the rows are already
    in echelon form, and the free columns are the i with i_1 = 0.  In
    x(i) = P(i) phi(i) the rows read sum_j x(h + e_j) = 0, which is free
    of the law, so the basis vector of a free column f is its integer null
    vector psi_f of those 0/1 rows, scaled: phi_f(i) = psi_f(i) P(f) / P(i).
    A law with some P(i) <= 0 at order n raises ValueError.
    """
    if n < 1:
        raise ValueError("xi_nullspace_basis needs n >= 1")
    comps = compositions(n, law.K)
    probs = [law.cylinder(i) for i in comps]
    for i, p in zip(comps, probs):
        if p <= 0:
            raise ValueError(
                f"xi_nullspace_basis needs P(i) > 0, got {format_rational(p)} at {tuple(i)}"
            )
    basis = []
    for f, psi in _xi_free_vectors(n, law.K):
        vec = [Fraction(0)] * len(comps)
        for j, s in psi:
            vec[j] = probs[f] * s / probs[j]
        basis.append(SymmetricKernel(n, law.K, dict(zip(comps, vec))))
    return basis


@lru_cache(maxsize=None)
def _xi_free_vectors(n: int, colors: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    # Per free column f of the 0/1 rows sum_j x(h + e_j) = 0 (the i with
    # i_1 = 0, in column order), the nonzero entries (column, value) of
    # its integer null vector psi_f: psi_f(f) = 1, every other free entry
    # 0, and each pivot h + e_1 solved from its row, last row first, by
    # x(h + e_1) = -sum_{j >= 2} x(h + e_j).  Those columns come later in
    # the order than h + e_1, so they are free or solved already.
    col = {c: idx for idx, c in enumerate(compositions(n, colors))}
    rows = [
        (col[h.increment(0)], [col[h.increment(j)] for j in range(1, colors)])
        for h in reversed(compositions(n - 1, colors))
    ]
    vectors = []
    for f, c in enumerate(col):
        if c[0]:
            continue
        psi = [0] * len(col)
        psi[f] = 1
        for pivot, others in rows:
            psi[pivot] = -sum(psi[j] for j in others)
        vectors.append((f, tuple((j, s) for j, s in enumerate(psi) if s)))
    return tuple(vectors)


@lru_cache(maxsize=None)
def _count_census(colors: int, length: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    # Multiplicity of each count vector among all colors^length sequences,
    # in order, counted without a multinomial formula: a sequence is a
    # shorter one plus one more color, so each count vector of length - 1
    # passes its multiplicity on to its colors extensions.
    if length == 0:
        return (((0,) * colors, 1),)
    tally: dict[tuple[int, ...], int] = {}
    for c, mult in _count_census(colors, length - 1):
        for j in range(colors):
            e = c[:j] + (c[j] + 1,) + c[j + 1:]
            tally[e] = tally.get(e, 0) + mult
    return tuple(sorted(tally.items()))


@lru_cache(maxsize=None)
def _block_split_census(
    colors: int, length: int, first_block: int
) -> dict[tuple[int, ...], tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]]:
    # For each class z of order `length`: how the class's sequences split
    # their counts between the first `first_block` coordinates and the
    # rest, as (a, b, mult) in order.  The two blocks' positions are
    # independent, so mult is the product of a's and b's multiplicities in
    # their own censuses.
    tally: dict[tuple[int, ...], list] = {}
    for a, ma in _count_census(colors, first_block):
        for b, mb in _count_census(colors, length - first_block):
            tally.setdefault(tuple(map(add, a, b)), []).append((a, b, ma * mb))
    return {z: tuple(splits) for z, splits in tally.items()}


def _oracle_rows(
    law: ExchangeableLaw, n: int, u: int
) -> list[tuple[Composition, list[int], Fraction]]:
    # One kernel-independent integer row per class z of order n-1, in
    # order, dense over the columns compositions(n, K): entry (a, b, mult)
    # of the block-split census of z and fresh class (w, fmult) of u draws
    # add mult * fmult * P(w+z) at the column of w+a, with every P of order
    # n-1+u as an integer numerator over their one common denominator D.
    # A row's dot product with a kernel phi is D * P(z) * total times the
    # symmetrized shift expectation of phi over the class, total being the
    # census size of z; that scale is kept with the row.
    cylinder, colors = law.cylinder, law.K
    col = {c: j for j, c in enumerate(compositions(n, colors))}
    targets = compositions(n - 1 + u, colors)
    nums, den = _common_denominator(map(cylinder, targets))
    num_of = dict(zip(targets, nums))
    fresh = _count_census(colors, u)
    # the columns of w + a for each fresh class w, per first-block class a
    cols = {
        a: [col[tuple(map(add, w, a))] for w, _ in fresh] for a in compositions(n - u, colors)
    }
    census = _block_split_census(colors, n - 1, n - u)
    rows = []
    for z in compositions(n - 1, colors):
        weights = [fmult * num_of[tuple(map(add, w, z))] for w, fmult in fresh]
        row = [0] * len(col)
        total = 0
        for a, _b, mult in census[z]:
            total += mult
            for j, g in zip(cols[a], weights):
                row[j] += mult * g
        rows.append((z, row, den * total * cylinder(z)))
    return rows


@dataclass(frozen=True)
class OracleWitness:
    kernel_index: int
    u: int
    z: Composition
    value: Rational
    kernel: SymmetricKernel


@dataclass(frozen=True)
class OracleResult:
    weakly_independent: bool
    basis_size: int
    witness: Optional[OracleWitness]


def weak_independence_oracle(law: ExchangeableLaw, n: int) -> OracleResult:
    """Brute-force weak-independence check at order n.

    Builds a basis of the conditioned-to-zero kernels by back substitution
    on the constraint rows, then for every basis kernel and every shift u
    in [2, n] forms the conditional expectation over u fresh coordinates,
    symmetrized over each conditioning class z, and reports the first class
    where it fails to vanish (kernel index, then u, then z).  The fresh
    draws and the block splits of each class are counted sequences, built
    up one color at a time and multiplied across the two independent
    blocks, with no closed-form weight.  None of the coefficients depends
    on the kernel, so each (n, u) builds one dense integer row per class
    once, over one common denominator of the order's P(i), shared by every
    basis kernel; a kernel costs one integer dot product per row over its
    nonzero entries.  The cylinder probabilities come from the law's own
    memo, so a caller checking several orders reads each one once.
    """
    if n < 2:
        raise ValueError("weak_independence_oracle needs n >= 2")
    basis = xi_nullspace_basis(law, n)
    comps = compositions(n, law.K)
    rows: dict[int, list] = {}
    for idx, phi in enumerate(basis):
        support = [(j, v) for j, v in enumerate(phi.as_vector(comps)) if v]
        cols = [j for j, _ in support]
        vec, vden = _common_denominator(v for _, v in support)
        for u in range(2, n + 1):
            if u not in rows:
                rows[u] = _oracle_rows(law, n, u)
            for z, row, scale in rows[u]:
                num = sum(map(mul, vec, map(row.__getitem__, cols)))
                if num:
                    witness = OracleWitness(idx, u, z, Fraction(num, vden) / scale, phi)
                    return OracleResult(False, len(basis), witness)
    return OracleResult(True, len(basis), None)


def sh_dims(law: ExchangeableLaw, n: int) -> list[int]:
    """Dimensions [dim SH_0, ..., dim SH_n] via exact Gram-matrix ranks."""
    if n < 0:
        raise ValueError("sh_dims needs n >= 0")
    weights = _class_weights(law, n)
    dims = []
    prev_rank = 0
    for k in range(n + 1):
        rk = linalg.rank(_su_gram(_ustat_matrix(n, k, law.K), weights)[0])
        dims.append(rk - prev_rank)
        prev_rank = rk
    return dims


# JSON interchange for kernels and statistics


def table_to_jsonable(table: _CompositionTable) -> dict:
    return {
        "order": table.order,
        "K": table.colors,
        "values": [
            {"composition": list(c), "value": format_rational(v)}
            for c, v in table.items()
        ],
    }


def statistic_from_jsonable(obj: dict) -> SymmetricStatistic:
    # as in law files: no unknown keys, and each composition listed once
    if not isinstance(obj, dict):
        raise ValueError("kernel/statistic JSON must be an object")
    unknown = [key for key in obj if key not in ("order", "K", "values")]
    if unknown:
        raise ValueError(f"unknown statistic fields {unknown}")
    order, colors, raw = obj.get("order"), obj.get("K"), obj.get("values")
    if type(order) is not int or type(colors) is not int or not isinstance(raw, list):
        raise ValueError("kernel/statistic JSON needs integer order and K and a values list")
    values = {}
    for item in raw:
        try:
            if not isinstance(item, dict):
                raise TypeError("an entry must be an object")
            unknown = [key for key in item if key not in ("composition", "value")]
            if unknown:
                raise ValueError(f"unknown fields {unknown}")
            comp = Composition(item["composition"])
            value = item["value"]
            # a JSON integer or a "num/den" string, never a boolean or a float
            if type(value) not in (int, str):
                raise TypeError(f"value must be an integer or a string, got {value!r}")
            value = parse_rational(value)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed value entry {item!r}: {exc}") from exc
        if comp in values:
            raise ValueError(f"composition {list(comp)} is listed more than once")
        values[comp] = value
    return SymmetricStatistic(order, colors, values)


def load_statistic_file(path: str) -> SymmetricStatistic:
    return statistic_from_jsonable(_read_json_file(path, "statistic"))
