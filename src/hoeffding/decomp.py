"""Hoeffding decompositions of symmetric statistics.

Statistics of an exchangeable sequence are functions of the color counts,
so everything here is indexed by weak compositions: a symmetric kernel of
order k is one vector of exact values in compositions(k, K) order, a
symmetric statistic one in compositions(n, K) order.  A value is read
through the class index exactnum._positions, and where a sum of two
classes sits through the law-free table exactnum._sums.  The module provides
U-statistics, the nested spaces SU_k they span, exact orthogonal
projections onto those spaces, one `decompose` that gives every layer
F_k of the Hoeffding decomposition with its order-k kernel (read off the
kernels of consecutive projections), checks of complete degeneracy
(which `decompose` does not judge), and a brute-force weak-independence
oracle that counts sequences block by block and reduces each conditioning
class's row against the constraints that cut out its kernels, independent
of the closed forms of `characterization`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import Callable, Iterable, Optional, Sequence

from . import linalg
from .exactnum import (
    Composition,
    Rational,
    _common_denominator,
    _positions,
    _sums,
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
    """An exact value for every composition of a fixed order, as one vector
    in compositions(order, colors) order."""

    __slots__ = ("order", "colors", "_vector")

    def __init__(self, order: int, colors: int, vector: Iterable) -> None:
        self.order, self.colors, self._vector = order, colors, tuple(vector)
        # the grid's size from its count, never by enumerating it
        if order < 0 or colors < 1 or len(self._vector) != math.comb(order + colors - 1, order):
            raise ValueError(
                f"{len(self._vector)} values for the order-{order} grid over {colors} colors")

    @classmethod
    def from_function(cls, order: int, colors: int, fn: Callable) :
        return cls(order, colors, [parse_rational(fn(c)) for c in compositions(order, colors)])

    def __call__(self, comp: Sequence[int]) -> Rational:
        key = comp if isinstance(comp, tuple) else tuple(comp)
        try:
            return self._vector[_positions(self.order, self.colors)[key]]
        except KeyError:
            raise ValueError(
                f"composition {tuple(comp)} is not on the order-{self.order} grid"
            ) from None

    def items(self):
        return zip(compositions(self.order, self.colors), self._vector)

    def as_vector(self) -> list[Fraction]:
        return list(self._vector)

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.order == other.order
            and self.colors == other.colors
            and self._vector == other._vector
        )

    def __add__(self, other):
        if type(self) is not type(other) or self.order != other.order or self.colors != other.colors:
            raise ValueError("operands must share type, order and colors")
        return type(self)(self.order, self.colors, map(add, self._vector, other._vector))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order}, colors={self.colors})"


class SymmetricKernel(_CompositionTable):
    """Symmetric kernel of order k, stored on the compositions of k."""


class SymmetricStatistic(_CompositionTable):
    """Symmetric statistic of n variables, stored on the compositions of n."""


@lru_cache(maxsize=None)
def _ustat_matrix(n: int, k: int, colors: int) -> tuple[tuple[int, ...], ...]:
    # rows: compositions of n; columns: compositions of k; entry = number of
    # k-subsets with counts c inside a sequence with counts i: prod_j
    # C(i_j, c_j) on the rows i = c + d that _sums gives, 0 elsewhere.  For
    # k <= n the rows c + (n-k)e_1 form a triangular block with diagonal
    # C(c_1+n-k, c_1), so the columns are independent: each U-statistic has
    # one kernel, and for k = n the matrix is the identity.  A statistic in
    # SU_k is its own SU_k projection, so that kernel is the projection's.
    comps, subs = compositions(n, colors), compositions(k, colors)
    rows = [[0] * len(subs) for _ in comps]
    for col, (c, targets) in enumerate(zip(subs, _sums(k, n - k, colors))):
        for r in targets:
            rows[r][col] = math.prod(map(math.comb, comps[r], c))
    return tuple(map(tuple, rows))


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
    values = [Fraction(sum(w * v for w, v in zip(row, nums) if w), den) for row in matrix]
    return SymmetricStatistic(n, phi.colors, values)


def _class_weights(law: ExchangeableLaw, n: int) -> tuple[list[int], int]:
    # The weights multinomial(n; i) P(i) of the classes of order n, in
    # order, as integer numerators over their common denominator: cleared
    # once per order, for every Gram matrix and inner product on it.
    return _common_denominator(class_size(i) * law.cylinder(i) for i in compositions(n, law.K))


def inner_product(law: ExchangeableLaw, t1: SymmetricStatistic, t2: SymmetricStatistic) -> Rational:
    """E[T1 T2] = sum_i multinomial(n;i) P_n(i) T1(i) T2(i), exactly, for
    two statistics of one order n."""
    if t1.order != t2.order:
        raise ValueError(f"statistics of orders {t1.order} and {t2.order}")
    if t1.colors != law.K or t2.colors != law.K:
        raise ValueError("statistics and law must share one alphabet")
    weights, den = _class_weights(law, t1.order)
    (nums1, den1), (nums2, den2) = map(_common_denominator, (t1.as_vector(), t2.as_vector()))
    return Fraction(sum(map(mul, weights, map(mul, nums1, nums2))), den * den1 * den2)


def _su_gram(matrix: Sequence[Sequence[int]], weights: Sequence[int]) -> list[list[int]]:
    # The Gram matrix M^T W M on the integer class weights, that is over
    # their common denominator.  Symmetric: fill a <= b and mirror.  Each
    # entry is an integer sum over the rows where both columns are nonzero.
    ncols = len(matrix[0])
    support = [
        {r: mrow[a] for r, mrow in enumerate(matrix) if mrow[a]} for a in range(ncols)
    ]
    gram = [[0] * ncols for _ in range(ncols)]
    for a in range(ncols):
        col_a = {r: weights[r] * m for r, m in support[a].items()}
        for b in range(a, ncols):
            gram[a][b] = gram[b][a] = sum(
                col_a[r] * m for r, m in support[b].items() if r in col_a
            )
    return gram


def _project_su(
    matrix: Sequence[Sequence[int]],
    weights: Sequence[int],
    tvec: Sequence[Fraction],
) -> list[Fraction]:
    # Kernel coefficients of the orthogonal projection onto the span of the
    # columns of matrix (the indicator U-statistics of one order), via the
    # normal equations.  The columns are independent and every class has
    # positive probability, so the Gram matrix is positive definite and
    # linalg.solve_symmetric finds the one solution.  With the integer
    # class weights over d_w and the statistic's numerators over d_t, the
    # Gram matrix is G / d_w and the right-hand side M^T W t is r / (d_w d_t)
    # with G and r integer, so the coefficients are the solution of G y = r
    # over d_t, and d_w is never read.
    nums, den_t = _common_denominator(tvec)
    prods = list(map(mul, weights, nums))
    rhs = [
        sum(mrow[a] * p for mrow, p in zip(matrix, prods) if mrow[a])
        for a in range(len(matrix[0]))
    ]
    return [y / den_t for y in linalg.solve_symmetric(_su_gram(matrix, weights), rhs)]


def _projection_kernel(
    weights: Sequence[int], statistic: SymmetricStatistic, k: int
) -> SymmetricKernel:
    # phi_k, the kernel of the statistic's orthogonal projection onto SU_k;
    # SU_n is the whole space, so phi_n is the statistic itself
    n, colors, tvec = statistic.order, statistic.colors, statistic.as_vector()
    coef = tvec if k == n else _project_su(_ustat_matrix(n, k, colors), weights, tvec)
    return SymmetricKernel(k, colors, coef)


def decompose(
    law: ExchangeableLaw, statistic: SymmetricStatistic
) -> list[tuple[SymmetricStatistic, SymmetricKernel]]:
    """The Hoeffding decomposition of a symmetric statistic T of order n:
    each layer F_k with its kernel psi_k, [(F_0, psi_0), ..., (F_n, psi_n)].

    F_k is the orthogonal projection of T onto SH_k = SU_k intersected
    with the orthogonal complement of SU_{k-1}, the difference of the
    U-statistics of phi_k and phi_{k-1}, the kernels of T's projections
    onto SU_k and SU_{k-1} (phi_n = T).  Each (k-1)-subset lies in n-k+1
    k-subsets, so U_n(phi_{k-1}) = U_n(U_k(phi_{k-1})) / (n-k+1), and
    psi_k = phi_k - U_k(phi_{k-1}) / (n-k+1) is the order-k kernel with
    F_k = U_n(psi_k); U_n on order-n kernels is the identity, so
    F_n = psi_n.  The parts sum back to T and are pairwise orthogonal
    under the law.
    """
    if statistic.colors != law.K:
        raise ValueError("statistic and law must share one alphabet")
    n = statistic.order
    weights, _ = _class_weights(law, n)
    layers = []
    prev = None
    for k in range(n + 1):
        phi = psi = _projection_kernel(weights, statistic, k)
        if prev is not None:
            lift = u_statistic(prev, k).as_vector()
            values = [v - w / (n - k + 1) for v, w in zip(phi.as_vector(), lift)]
            psi = SymmetricKernel(k, law.K, values)
        part = u_statistic(psi, n) if k < n else SymmetricStatistic(n, law.K, psi.as_vector())
        layers.append((part, psi))
        prev = phi
    return layers


def _kernel_of(
    law: ExchangeableLaw, statistic: SymmetricStatistic, k: int
) -> Optional[SymmetricKernel]:
    # The order-k kernel whose U-statistic is the statistic, or None when
    # the statistic is outside SU_k: the kernel of its SU_k projection,
    # kept when that kernel's U-statistic is the statistic.  The kernel is
    # unique, as the U-statistic map on order-k kernels is injective.
    n = statistic.order
    if statistic.colors != law.K:
        raise ValueError("statistic and law must share one alphabet")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    phi = _projection_kernel(_class_weights(law, n)[0], statistic, k)
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
    cylinder, comps, values = law.cylinder, compositions(phi.order, law.K), phi.as_vector()
    rows, _ = _xi_pivots(phi.order, law.K)
    for h, (pivot, others) in zip(compositions(phi.order - 1, law.K), rows):
        ph = cylinder(h)
        if ph == 0:
            raise ValueError("conditioning class has zero probability")
        acc = sum(cylinder(comps[t]) * values[t] for t in (pivot, *others)) / ph
        if acc != 0:
            return DegeneracyCheck(False, (h, acc))
    return DegeneracyCheck(True, None)


def degenerate_kernel_for(
    law: ExchangeableLaw, statistic: SymmetricStatistic, k: int
) -> Optional[SymmetricKernel]:
    """A completely degenerate order-k kernel representing the statistic.

    The kernel of a statistic in SU_k is unique, so this is that kernel
    when it is completely degenerate, and None when it is not or when the
    statistic is outside SU_k.  For k = 0 degeneracy is vacuous.
    """
    phi = _kernel_of(law, statistic, k)
    if phi is None or k == 0 or is_completely_degenerate(law, phi).degenerate:
        return phi
    return None


def xi_constraint_matrix(law: ExchangeableLaw, n: int) -> list[list[Fraction]]:
    """Rows of the linear system cutting out the kernels phi of order n with
    E(phi(X_1..X_n) | X_2..X_n) = 0: one row per conditioning class h of
    order n-1, with coefficient P_n(h + e_j) on the column of h + e_j."""
    if n < 1:
        raise ValueError("xi_constraint_matrix needs n >= 1")
    comps = compositions(n, law.K)
    rows = []
    for pivot, others in _xi_pivots(n, law.K)[0]:
        row = [Fraction(0)] * len(comps)
        for t in (pivot, *others):
            row[t] = law.cylinder(comps[t])
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def _xi_pivots(n: int, colors: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], tuple[int, ...]]:
    # The 0/1 rows sum_j x(h + e_j) = 0 over compositions(n, K), one per h
    # of order n-1 in order (h_1 decreasing), as (pivot h + e_1, columns
    # h + e_j for j >= 2), and the free columns, the i with i_1 = 0.  A
    # row's other columns are free or the pivot of a later row.  The rows
    # are _sums(n-1, 1) split, as compositions(1, K) is e_1, ..., e_K.
    rows = tuple((t[0], t[1:]) for t in _sums(n - 1, 1, colors))
    return rows, tuple(idx for idx, c in enumerate(compositions(n, colors)) if not c[0])


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
    values = [pf * s / law.cylinder(c) if s else Fraction(0) for c, s in zip(comps, psi)]
    return SymmetricKernel(n, law.K, values)


@lru_cache(maxsize=None)
def _count_census(colors: int, length: int) -> tuple[int, ...]:
    # Multiplicity of each count vector among all colors^length sequences,
    # in compositions(length, colors) order, counted without a multinomial
    # formula: a sequence is a shorter one plus one more color, so each
    # count vector of length - 1 passes its multiplicity on to its colors
    # extensions, the positions _sums(length - 1, 1) gives.
    if length == 0:
        return (1,)
    tally = [0] * len(compositions(length, colors))
    for mult, targets in zip(_count_census(colors, length - 1), _sums(length - 1, 1, colors)):
        for j in targets:
            tally[j] += mult
    return tuple(tally)


def _oracle_rows(
    law: ExchangeableLaw, n: int, u: int
) -> list[tuple[Composition, list[int], Fraction]]:
    # One kernel-independent integer row per class z of order n-1, in
    # order, dense over the columns compositions(n, K).  A sequence of z
    # splits its counts as a over the first n-u coordinates and b over the
    # other u-1; the two blocks' positions are independent, so the split
    # counts mult, the product of a's and b's census multiplicities.  Each
    # split and fresh class w of u draws (census count fmult) add
    # mult * fmult * P(w+z) at the column of w+a, every P of order n-1+u an
    # integer numerator over their one common denominator D; a+b, w+z and
    # w+a are positions read from _sums.  A row's dot product with a kernel
    # phi is D * P(z) * total times the symmetrized shift expectation of
    # phi over the class, total being the census size of z; that scale is
    # kept with the row.
    cylinder, colors = law.cylinder, law.K
    nums, den = _common_denominator(map(cylinder, compositions(n - 1 + u, colors)))
    fresh = _count_census(colors, u)
    # per class z, by position, its splits (position of a, multiplicity)
    splits = [[] for _ in compositions(n - 1, colors)]
    for a, (ma, zs) in enumerate(zip(_count_census(colors, n - u), _sums(n - u, u - 1, colors))):
        for mb, z in zip(_count_census(colors, u - 1), zs):
            splits[z].append((a, ma * mb))
    cols = _sums(n - u, u, colors)
    classes = compositions(n - 1, colors), _count_census(colors, n - 1), _sums(n - 1, u, colors)
    rows = []
    for z, total, shifted, z_splits in zip(*classes, splits):
        weights = [fmult * nums[t] for fmult, t in zip(fresh, shifted)]
        row = [0] * len(compositions(n, colors))
        for a, mult in z_splits:
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
    weights, _ = _class_weights(law, n)
    dims = []
    prev_rank = 0
    for k in range(n + 1):
        rk = linalg.rank(_su_gram(_ustat_matrix(n, k, law.K), weights))
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
    vector = []
    for comp in compositions(order, colors):
        if comp not in values:
            raise ValueError(f"missing value for composition {tuple(comp)}")
        vector.append(values[comp])
    if len(values) != len(vector):
        extras = sorted(tuple(k) for k in values if k not in _positions(order, colors))
        raise ValueError(f"values off the order-{order} grid: {extras}")
    return SymmetricStatistic(order, colors, vector)


def load_statistic_file(path: str, law_colors: Optional[int] = None) -> SymmetricStatistic:
    return statistic_from_jsonable(_read_json_file(path, "statistic"), law_colors)
