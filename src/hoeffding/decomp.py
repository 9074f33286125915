"""Hoeffding decompositions of symmetric statistics.

Statistics of an exchangeable sequence are functions of the color counts,
so everything here is indexed by weak compositions: a symmetric kernel of
order k is an exact map on the compositions of k, a symmetric statistic
one on the compositions of n.  The module provides U-statistics, the
nested spaces SU_k they span, exact orthogonal projections onto those
spaces (the Hoeffding decomposition), complete-degeneracy checks, and a
brute-force weak-independence oracle that works directly on enumerated
sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Mapping, Optional, Sequence

from . import linalg
from .exactnum import (
    Composition,
    Rational,
    class_size,
    compositions,
    format_rational,
    parse_rational,
)
from .laws import ExchangeableLaw, _read_json_file, cylinder_prob, predictive_prob

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


@lru_cache(maxsize=None)
def composition_list(total: int, parts: int) -> tuple[Composition, ...]:
    return tuple(compositions(total, parts))


class _CompositionTable:
    """An exact value for every composition of a fixed order."""

    __slots__ = ("order", "colors", "_values")

    def __init__(self, order: int, colors: int, values: Mapping) -> None:
        if order < 0:
            raise ValueError("order must be non-negative")
        if colors < 1:
            raise ValueError("need at least one color")
        complete: dict[Composition, Fraction] = {}
        for comp in composition_list(order, colors):
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
        return cls(order, colors, {c: fn(c) for c in composition_list(order, colors)})

    @classmethod
    def constant(cls, order: int, colors: int, value) :
        v = parse_rational(value)
        return cls(order, colors, {c: v for c in composition_list(order, colors)})

    @classmethod
    def indicator(cls, comp: Sequence[int]) :
        comp = Composition(comp)
        return cls.from_function(comp.order, comp.colors, lambda c: 1 if c == comp else 0)

    def __call__(self, comp: Sequence[int]) -> Rational:
        key = comp if isinstance(comp, tuple) else tuple(comp)
        try:
            return self._values[key]
        except KeyError:
            raise ValueError(
                f"composition {tuple(comp)} is not on the order-{self.order} grid"
            ) from None

    def items(self):
        for comp in composition_list(self.order, self.colors):
            yield comp, self._values[comp]

    def as_vector(self, comps: Optional[Sequence[Composition]] = None) -> list[Fraction]:
        if comps is None:
            comps = composition_list(self.order, self.colors)
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

    def _binary(self, other, op):
        if type(self) is not type(other) or self.order != other.order or self.colors != other.colors:
            raise ValueError("operands must share type, order and colors")
        return type(self)(
            self.order, self.colors,
            {c: op(v, other._values[c]) for c, v in self._values.items()},
        )

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def scale(self, factor):
        f = parse_rational(factor)
        return type(self)(self.order, self.colors, {c: f * v for c, v in self._values.items()})

    def is_zero(self) -> bool:
        return all(v == 0 for v in self._values.values())

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
    # the rows c + (n-k)e_1 form a triangular block with a nonzero diagonal,
    # so the columns are independent: each U-statistic has one kernel, and
    # for k = n the matrix is the identity.
    subs = composition_list(k, colors)
    rows = []
    for i in composition_list(n, colors):
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
    """
    if phi.order > n:
        raise ValueError(f"kernel order {phi.order} exceeds statistic order {n}")
    matrix = _ustat_matrix(n, phi.order, phi.colors)
    kernel_vec = phi.as_vector()
    comps = composition_list(n, phi.colors)
    values = {}
    for i, row in zip(comps, matrix):
        acc = Fraction(0)
        for w, v in zip(row, kernel_vec):
            if w and v:
                acc += w * v
        values[i] = acc
    return SymmetricStatistic(n, phi.colors, values)


def _class_weights(law: ExchangeableLaw, n: int) -> list[Fraction]:
    return [class_size(i) * cylinder_prob(law, i) for i in composition_list(n, law.K)]


def inner_product(
    law: ExchangeableLaw, n: int, t1: SymmetricStatistic, t2: SymmetricStatistic
) -> Rational:
    """E[T1 T2] = sum_i multinomial(n;i) P_n(i) T1(i) T2(i), exactly."""
    if t1.order != n or t2.order != n:
        raise ValueError("inner_product needs statistics of the stated order")
    if t1.colors != law.K or t2.colors != law.K:
        raise ValueError("statistics and law must share one alphabet")
    acc = Fraction(0)
    for w, a, b in zip(_class_weights(law, n), t1.as_vector(), t2.as_vector()):
        if a and b:
            acc += w * a * b
    return acc


def _su_gram(
    matrix: Sequence[Sequence[int]], weights: Sequence[Fraction]
) -> list[list[Fraction]]:
    ncols = len(matrix[0])
    gram = []
    for a in range(ncols):
        row = []
        for b in range(ncols):
            acc = Fraction(0)
            for w, mrow in zip(weights, matrix):
                if mrow[a] and mrow[b]:
                    acc += w * mrow[a] * mrow[b]
            row.append(acc)
        gram.append(row)
    return gram


def _project_su(
    matrix: Sequence[Sequence[int]],
    weights: Sequence[Fraction],
    tvec: Sequence[Fraction],
) -> list[Fraction]:
    # Orthogonal projection onto the span of the columns of matrix (the
    # indicator U-statistics of one order) via the normal equations.  The
    # columns are independent and every class has positive probability, so
    # the Gram matrix is positive definite and the solve is unique.
    ncols = len(matrix[0])
    rhs = []
    for a in range(ncols):
        acc = Fraction(0)
        for w, mrow, tv in zip(weights, matrix, tvec):
            if mrow[a] and tv:
                acc += w * mrow[a] * tv
        rhs.append(acc)
    coef = linalg.solve(_su_gram(matrix, weights), rhs)
    assert coef is not None, "normal equations are always consistent"
    return [
        sum((c * mrow[a] for a, c in enumerate(coef) if c and mrow[a]), Fraction(0))
        for mrow in matrix
    ]


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
    comps = composition_list(n, law.K)
    tvec = statistic.as_vector(comps)
    weights = _class_weights(law, n)
    parts = []
    prev = [Fraction(0)] * len(comps)
    for k in range(n + 1):
        # SU_n is the whole space, so F_n = T - P_{n-1} T
        proj = tvec if k == n else _project_su(_ustat_matrix(n, k, law.K), weights, tvec)
        values = {c: a - b for c, a, b in zip(comps, proj, prev)}
        parts.append(SymmetricStatistic(n, law.K, values))
        prev = proj
    return parts


def _solve_kernel(
    law: ExchangeableLaw, n: int, statistic: SymmetricStatistic, k: int, caller: str
) -> Optional[SymmetricKernel]:
    # One exact solve of the U-statistic equations; _ustat_matrix has full
    # column rank, so the kernel is unique.  None when the statistic is
    # outside SU_k.  For k = n the matrix is the identity and the kernel is
    # the statistic itself.
    if statistic.order != n or statistic.colors != law.K:
        raise ValueError("statistic must match the stated order and alphabet")
    if not 0 <= k <= n:
        raise ValueError(f"{caller} needs 0 <= k <= n, got k={k}")
    tvec = statistic.as_vector()
    x = tvec if k == n else linalg.solve(_ustat_matrix(n, k, law.K), tvec)
    if x is None:
        return None
    return SymmetricKernel(k, law.K, dict(zip(composition_list(k, law.K), x)))


def kernel_for(
    law: ExchangeableLaw, n: int, statistic: SymmetricStatistic, k: int
) -> SymmetricKernel:
    """The unique order-k kernel whose U-statistic equals the statistic.

    The statistic must lie in SU_k (exact linear solve).  The U-statistic
    map on order-k kernels is injective for every k <= n, so the kernel is
    unique.  The law only fixes the alphabet here: membership in SU_k is a
    statement about class functions, not probabilities.
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
    for h in composition_list(phi.order - 1, law.K):
        acc = Fraction(0)
        for j in range(law.K):
            acc += predictive_prob(law, h, j) * phi(h.increment(j))
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
    comps_n = composition_list(n, law.K)
    col = {c: idx for idx, c in enumerate(comps_n)}
    rows = []
    for h in composition_list(n - 1, law.K):
        row = [Fraction(0)] * len(comps_n)
        for j in range(law.K):
            target = h.increment(j)
            row[col[target]] += cylinder_prob(law, target)
        rows.append(row)
    return rows


def xi_nullspace_basis(law: ExchangeableLaw, n: int) -> list[SymmetricKernel]:
    """A basis (by exact null-space solve) of the order-n kernels killed by
    conditioning on all but the first coordinate."""
    comps_n = composition_list(n, law.K)
    basis = linalg.nullspace(xi_constraint_matrix(law, n))
    return [SymmetricKernel(n, law.K, dict(zip(comps_n, vec))) for vec in basis]


def _counts(seq: Sequence[int], colors: int) -> Composition:
    tally = [0] * colors
    for s in seq:
        tally[s] += 1
    return Composition(tally)


@lru_cache(maxsize=None)
def _count_census(colors: int, length: int) -> tuple[tuple[Composition, int], ...]:
    # Multiplicity of each count vector among all colors^length sequences,
    # obtained by enumeration rather than by a multinomial formula.
    tally: dict[Composition, int] = {}
    for seq in product(range(colors), repeat=length):
        c = _counts(seq, colors)
        tally[c] = tally.get(c, 0) + 1
    return tuple(sorted(tally.items()))


@lru_cache(maxsize=None)
def _block_split_census(
    colors: int, length: int, first_block: int
) -> dict[Composition, tuple[tuple[Composition, Composition, int], ...]]:
    # For each class z of order `length`: how the class's sequences split
    # their counts between the first `first_block` coordinates and the rest.
    tally: dict[Composition, dict[tuple[Composition, Composition], int]] = {}
    for seq in product(range(colors), repeat=length):
        a = _counts(seq[:first_block], colors)
        b = _counts(seq[first_block:], colors)
        z = a.merge(b)
        inner = tally.setdefault(z, {})
        inner[(a, b)] = inner.get((a, b), 0) + 1
    return {
        z: tuple((a, b, c) for (a, b), c in sorted(d.items()))
        for z, d in tally.items()
    }


def _shift_expectation_table(
    law: ExchangeableLaw, phi: SymmetricKernel, n: int, u: int
) -> dict[tuple[Composition, Composition], Fraction]:
    # f(a, b): conditional expectation of phi evaluated on u fresh draws
    # pooled with a shared block of counts a, given that the conditioning
    # coordinates have counts a + b in total (a shared with phi, b not).
    colors = law.K
    fresh = _count_census(colors, u)
    out: dict[tuple[Composition, Composition], Fraction] = {}
    for a in composition_list(n - u, colors):
        for b in composition_list(u - 1, colors):
            z = a.merge(b)
            pz = cylinder_prob(law, z)
            acc = Fraction(0)
            for wc, mult in fresh:
                v = phi(wc.merge(a))
                if v:
                    acc += mult * v * cylinder_prob(law, wc.merge(z))
            out[(a, b)] = acc / pz
    return out


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

    Builds a basis of the conditioned-to-zero kernels by exact null-space
    solve, then for every basis kernel and every shift u in [2, n] forms
    the conditional expectation over u fresh coordinates by enumerating
    raw sequences, symmetrizes it over each conditioning class (again by
    enumeration, no closed-form weights), and reports the first class
    where the symmetrized value fails to vanish.
    """
    if n < 2:
        raise ValueError("weak_independence_oracle needs n >= 2")
    basis = xi_nullspace_basis(law, n)
    for idx, phi in enumerate(basis):
        for u in range(2, n + 1):
            table = _shift_expectation_table(law, phi, n, u)
            census = _block_split_census(law.K, n - 1, n - u)
            for z in composition_list(n - 1, law.K):
                num = Fraction(0)
                total = 0
                for a, b, mult in census[z]:
                    num += mult * table[(a, b)]
                    total += mult
                if num != 0:
                    witness = OracleWitness(idx, u, z, num / total, phi)
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


def statistic_from_jsonable(obj: dict) -> SymmetricStatistic:
    if not isinstance(obj, dict):
        raise ValueError("kernel/statistic JSON must be an object")
    order, colors, raw = obj.get("order"), obj.get("K"), obj.get("values")
    if type(order) is not int or type(colors) is not int or not isinstance(raw, list):
        raise ValueError("kernel/statistic JSON needs integer order and K and a values list")
    values = {}
    for item in raw:
        try:
            comp = Composition(item["composition"])
            value = item["value"]
            # as in law files: a JSON integer or a "num/den" string, never a
            # boolean or a float
            if type(value) not in (int, str):
                raise TypeError(f"value must be an integer or a string, got {value!r}")
            values[comp] = parse_rational(value)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed value entry {item!r}: {exc}") from exc
    return SymmetricStatistic(order, colors, values)


def load_statistic_file(path: str) -> SymmetricStatistic:
    return statistic_from_jsonable(_read_json_file(path, "statistic"))
