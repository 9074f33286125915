"""Hoeffding decompositions of symmetric statistics.

Statistics of an exchangeable sequence are functions of the color counts,
so everything here is indexed by weak compositions: a symmetric kernel of
order k is an exact map on the compositions of k, a symmetric statistic
one on the compositions of n.  The module provides U-statistics, the
nested spaces SU_k they span, exact orthogonal projections onto those
spaces (the Hoeffding decomposition, each layer's kernel read off the
kernels of consecutive projections), complete-degeneracy checks, and a
brute-force weak-independence oracle that counts sequences block by block
and reduces each conditioning class's row against the constraints that
cut out its kernels, independent of the closed forms of
`characterization`.
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
    "DegeneracyCheck",
    "is_completely_degenerate",
    "degenerate_kernel_for",
    "xi_constraint_matrix",
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
        # refuse a short table before enumerating its grid: count its
        # C(order + k, k) compositions over k + 1 colors only up to the
        # number listed
        grid, k = 1, 1
        while order and k < colors and grid <= len(values):
            grid, k = grid * (order + k) // k, k + 1
        if grid > len(values):
            raise ValueError(
                f"missing values: {len(values)} listed, fewer than the compositions"
                f" of {order} into {colors} colors")
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

    def as_vector(self) -> list[Fraction]:
        return [self._values[c] for c in compositions(self.order, self.colors)]

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
    # one kernel, and for k = n the matrix is the identity.  A statistic in
    # SU_k is its own SU_k projection, so that kernel is the projection's.
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


def _projection_kernel(
    law: ExchangeableLaw, weights: Sequence[Fraction], statistic: SymmetricStatistic, k: int
) -> SymmetricKernel:
    # phi_k, the kernel of the statistic's orthogonal projection onto SU_k;
    # SU_n is the whole space, so phi_n is the statistic itself
    n, tvec = statistic.order, statistic.as_vector()
    coef = tvec if k == n else _project_su(_ustat_matrix(n, k, law.K), weights, tvec)
    return SymmetricKernel(k, law.K, dict(zip(compositions(k, law.K), coef)))


def _components(
    law: ExchangeableLaw, n: int, statistic: SymmetricStatistic
) -> list[tuple[SymmetricStatistic, SymmetricKernel]]:
    # Each layer F_k with its kernel psi_k, for k = 0..n.  F_k is the
    # U-statistic of phi_k less that of phi_{k-1}.  Each (k-1)-subset lies
    # in n-k+1 k-subsets, so U_n(phi_{k-1}) = U_n(U_k(phi_{k-1})) / (n-k+1),
    # and psi_k = phi_k - U_k(phi_{k-1}) / (n-k+1) has F_k = U_n(psi_k).
    # U_n on order-n kernels is the identity, so F_n = psi_n.
    if statistic.order != n or statistic.colors != law.K:
        raise ValueError("statistic must match the stated order and alphabet")
    weights = _class_weights(law, n)
    layers = []
    prev = None
    for k in range(n + 1):
        phi = psi = _projection_kernel(law, weights, statistic, k)
        if prev is not None:
            lift = u_statistic(prev, k).as_vector()
            values = {c: v - w / (n - k + 1) for (c, v), w in zip(phi.items(), lift)}
            psi = SymmetricKernel(k, law.K, values)
        part = u_statistic(psi, n) if k < n else SymmetricStatistic(n, law.K, dict(psi.items()))
        layers.append((part, psi))
        prev = phi
    return layers


def decompose(
    law: ExchangeableLaw, n: int, statistic: SymmetricStatistic
) -> list[SymmetricStatistic]:
    """The Hoeffding decomposition [F_0, ..., F_n] of a symmetric statistic.

    F_k is the orthogonal projection of the statistic onto
    SH_k = SU_k intersected with the orthogonal complement of SU_{k-1},
    the difference of consecutive SU projections, computed as the
    U-statistic of its order-k kernel.  The parts sum back to the
    statistic and are pairwise orthogonal under the law.
    """
    return [part for part, _ in _components(law, n, statistic)]


def _kernel_of(
    law: ExchangeableLaw, n: int, statistic: SymmetricStatistic, k: int
) -> Optional[SymmetricKernel]:
    # The order-k kernel whose U-statistic is the statistic, or None when
    # the statistic is outside SU_k: the kernel of its SU_k projection,
    # kept when that kernel's U-statistic is the statistic.  The kernel is
    # unique, as the U-statistic map on order-k kernels is injective.
    if statistic.order != n or statistic.colors != law.K:
        raise ValueError("statistic must match the stated order and alphabet")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    phi = _projection_kernel(law, _class_weights(law, n), statistic, k)
    return phi if u_statistic(phi, n) == statistic else None


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
    phi = _kernel_of(law, n, statistic, k)
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


@lru_cache(maxsize=None)
def _xi_pivots(n: int, colors: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], tuple[int, ...]]:
    # The 0/1 rows sum_j x(h + e_j) = 0 over compositions(n, K), one per h
    # of order n-1 in order (h_1 decreasing), as (pivot h + e_1, columns
    # h + e_j for j >= 2), and the free columns, the i with i_1 = 0.  A
    # row's other columns are free or the pivot of a later row.
    col = {c: idx for idx, c in enumerate(compositions(n, colors))}
    rows = tuple(
        (col[h.increment(0)], tuple(col[h.increment(j)] for j in range(1, colors)))
        for h in compositions(n - 1, colors)
    )
    return rows, tuple(idx for c, idx in col.items() if not c[0])


def _xi_kernel(law: ExchangeableLaw, n: int, f: int) -> SymmetricKernel:
    # The basis kernel of free column f.  In x(i) = P(i) phi(i) the
    # constraint rows are _xi_pivots', free of the law: the null vector psi
    # that is 1 at f and 0 at every other free column solves each pivot
    # from its row, last row first, and phi(i) = psi(i) P(f) / P(i).
    rows, _ = _xi_pivots(n, law.K)
    comps = compositions(n, law.K)
    psi = [0] * len(comps)
    psi[f] = 1
    for pivot, others in reversed(rows):
        psi[pivot] = -sum(psi[j] for j in others)
    pf = law.cylinder(comps[f])
    values = {c: pf * s / law.cylinder(c) if s else Fraction(0) for c, s in zip(comps, psi)}
    return SymmetricKernel(n, law.K, values)


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

    The conditioned-to-zero kernels phi of order n solve one row
    sum_j P(h + e_j) phi(h + e_j) = 0 per class h of order n-1: with every
    P(i) > 0 an echelon form, pivot h + e_1, whose free columns f (f_1 = 0)
    give one basis kernel each.  For each shift u in [2, n] and class z,
    the conditional expectation over u fresh coordinates, symmetrized over
    z, is one integer row of counted sequences (fresh draws and block
    splits, built up one color at a time), with no closed-form weight.  No
    basis is built: each row, divided by P(i) over the lcm L of the
    order's P numerators, is reduced once against the constraint rows, and
    its residual at f, times P(f) / (L scale), is kernel f's value.  The
    witness is the first nonzero value by kernel index, then u, then z;
    its kernel is the only one built.  P(i) comes from the law's own memo,
    so a caller checking several orders reads each one once.  A law with
    some P(i) <= 0 at order n raises ValueError.
    """
    if n < 2:
        raise ValueError("weak_independence_oracle needs n >= 2")
    comps = compositions(n, law.K)
    nums, _ = _common_denominator(map(law.cylinder, comps))
    for i, p in zip(comps, nums):
        if p <= 0:
            raise ValueError(
                "weak_independence_oracle needs P(i) > 0, got"
                f" {format_rational(law.cylinder(i))} at {tuple(i)}")
    lcm = math.lcm(*nums)
    per_class = [lcm // p for p in nums]
    rows, free = _xi_pivots(n, law.K)
    found = None
    classes = ((u, *r) for u in range(2, n + 1) for r in _oracle_rows(law, n, u))
    for u, z, row, scale in classes:
        a = list(map(mul, row, per_class))
        for pivot, others in rows:
            lam = a[pivot]
            if lam:
                for j in others:
                    a[j] -= lam
        # a later (u, z) is the witness only through a smaller kernel index
        for idx, f in enumerate(free[: found[0] if found else None]):
            if a[f]:
                found = idx, u, z, Fraction(nums[f] * a[f], lcm) / scale
                break
        if found and found[0] == 0:
            break
    if found is None:
        return OracleResult(True, len(free), None)
    idx, u, z, value = found
    witness = OracleWitness(idx, u, z, value, _xi_kernel(law, n, free[idx]))
    return OracleResult(False, len(free), witness)


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


def statistic_from_jsonable(obj: dict, law_colors: Optional[int] = None) -> SymmetricStatistic:
    # as in law files: no unknown keys, and each composition listed once; a
    # K other than law_colors, when given, is refused before the grid is built
    if not isinstance(obj, dict):
        raise ValueError("kernel/statistic JSON must be an object")
    unknown = [key for key in obj if key not in ("order", "K", "values")]
    if unknown:
        raise ValueError(f"unknown statistic fields {unknown}")
    order, colors, raw = obj.get("order"), obj.get("K"), obj.get("values")
    if type(order) is not int or type(colors) is not int or not isinstance(raw, list):
        raise ValueError("kernel/statistic JSON needs integer order and K and a values list")
    if law_colors is not None and colors != law_colors:
        raise ValueError(f"statistic has K={colors} but the law has K={law_colors}")
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


def load_statistic_file(path: str, law_colors: Optional[int] = None) -> SymmetricStatistic:
    return statistic_from_jsonable(_read_json_file(path, "statistic"), law_colors)
