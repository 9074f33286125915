"""Slow reference paths that the fast code is checked against.

`characterization_sum` is the paper's criterion in its literal per-tuple
form: one alternating double sum per (n, u, z, m), built from
`conditional_block_prob`.  `verify_hd` regroups the same sum in
`characterization._group_values`, which adds its terms by position over
law-free index plans (`characterization._plan`) and shares them across
every m of one (n, u, z); the tests compare the two entry by entry, on
fixed laws and on drawn ones swept in turn.  `predictive_prob`
is the ratio P(h + e_j) / P(h) of two cylinder values, against which the
laws' own predictive rules and the degeneracy rows are checked.
`nullspace` is the generic null space by elimination, which the oracle's
back substitution (`decomp._xi_kernel`) is checked against.
`basis_oracle` is the weak-independence oracle the long way: it builds
the whole conditioned-to-zero basis from `nullspace` and takes one dot
product per kernel, u and class z, where `decomp.weak_independence_oracle`
reduces each class's row once and builds only its witness kernel.

Run as a script, the checks go deeper than the tests: every entry of the
sweep of a K=4 mixture through n = 6 and of a K=3 mixture through n = 8,
then the oracle against `basis_oracle` at every order through n = 9 for
the K=4 reference law and a K=4 mixture, then each layer's kernel of an
order-8 decomposition under a K=4 Polya law and the K=4 reference law
against one Bareiss solve of its whole U-statistic system (about fifteen
seconds):

    PYTHONPATH=src python tests/reference.py
"""

import random
import sys
from fractions import Fraction
from operator import add, mul
from typing import Sequence

from hoeffding.characterization import _K2_HINT, _validate_m, coherent_splits, verify_hd
from hoeffding.decomp import (
    OracleResult,
    OracleWitness,
    SymmetricKernel,
    SymmetricStatistic,
    _oracle_rows,
    _ustat_matrix,
    decompose,
    weak_independence_oracle,
    xi_constraint_matrix,
)
from hoeffding.exactnum import (
    Composition,
    Rational,
    _common_denominator,
    compositions,
    multinomial,
    multinomial_star,
)
from hoeffding.laws import ExchangeableLaw, _as_composition, parse_law
from hoeffding.linalg import Matrix, _back_substitute, row_echelon, solve


def predictive_prob(law: ExchangeableLaw, h: Sequence[int], j: int) -> Rational:
    """P(next draw is color j | counts so far are h) = P(h + e_j) / P(h)."""
    comp = _as_composition(law, h)
    ph = law.cylinder(comp)
    if ph == 0:
        raise ValueError("conditioning class has zero probability")
    return law.cylinder(comp.increment(j)) / ph


def conditional_block_prob(
    law: ExchangeableLaw, n: int, u: int, a: Sequence[int], b: Sequence[int]
) -> Rational:
    """Probability that counts reach b after u-1 more draws, given a.

    a has order n, b has order n+u-1.  The u-1 extra draws are allocated
    by color; when b-a is not a valid allocation (some b_p < a_p on the
    first K-1 colors, or more than u-1 units placed there) the result is 0.
    """
    if u < 2:
        raise ValueError(f"conditional_block_prob needs u >= 2, got {u}")
    ca = _as_composition(law, a)
    cb = _as_composition(law, b)
    if ca.order != n:
        raise ValueError(f"conditioning composition must have order {n}")
    if cb.order != n + u - 1:
        raise ValueError(f"target composition must have order {n + u - 1}")
    pa = law.cylinder(ca)
    if pa == 0:
        raise ValueError("conditioning class has zero probability")
    head = law.K - 1
    diffs = tuple(cb[p] - ca[p] for p in range(head))
    if any(d < 0 for d in diffs) or sum(diffs) > u - 1:
        return Fraction(0)
    return multinomial(u - 1, diffs) * law.cylinder(cb) / pa


def nullspace(rows: Matrix) -> list[list[Fraction]]:
    """A basis of the right null space, one vector per free column."""
    ech = row_echelon(rows)
    pivots = set(ech.pivot_cols)
    return [_back_substitute(ech, f, 1) for f in range(ech.ncols) if f not in pivots]


def nullspace_basis(law: ExchangeableLaw, n: int) -> list[SymmetricKernel]:
    """The order-n kernels killed by conditioning on all but the first
    coordinate: the null space of `xi_constraint_matrix` by elimination,
    one kernel per free column."""
    return [SymmetricKernel(n, law.K, vec) for vec in nullspace(xi_constraint_matrix(law, n))]


def basis_oracle(law: ExchangeableLaw, n: int) -> OracleResult:
    """The weak-independence oracle over the whole basis: each basis
    kernel's integer dot product with each of `_oracle_rows`' rows, over
    the kernel's common denominator, in witness order (kernel index, then
    u, then z)."""
    if n < 2:
        raise ValueError("basis_oracle needs n >= 2")
    basis = nullspace_basis(law, n)
    rows = {}
    for idx, phi in enumerate(basis):
        support = [(j, v) for j, v in enumerate(phi.as_vector()) if v]
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


def characterization_sum(
    law: ExchangeableLaw, n: int, u: int, z: Sequence[int], m: Sequence[int]
) -> Rational:
    """One criterion value: zero at every (n, u, z, m) iff the law is
    Hoeffding decomposable (given nondegenerate layers).

    Outer sum over coherent splits k of z with sign (-1)^{k_1}; inner sum
    over allocations q of up to u fresh draws to the first K-1 colors with
    sign (-1)^{q_1}, a star-multinomial factor on k_1+q_1 against
    m - (k+q) tails, and the conditional probability of reaching counts
    z+q from counts k+q with u-1 draws.
    """
    colors = law.K
    if colors < 3:
        raise ValueError(_K2_HINT)
    if not 2 <= u <= n:
        raise ValueError(f"need 2 <= u <= n, got u={u}, n={n}")
    z = Composition(z)
    if z.colors != colors or z.order != n - 1:
        raise ValueError(f"z must be a {colors}-color composition of {n - 1}")
    m = _validate_m(m, n, colors)

    total = Fraction(0)
    for k in coherent_splits(n - u, z):
        ka_full = Composition((*k, (n - u) - sum(k)))
        outer = multinomial(n - u, k)
        if k[0] % 2:
            outer = -outer
        inner = Fraction(0)
        for a in range(u + 1):
            for q in compositions(a, colors - 1):
                star = multinomial_star(
                    k[0] + q[0],
                    tuple(m[t] - k[t + 1] - q[t + 1] for t in range(colors - 2)),
                )
                if star == 0:
                    continue
                q_full = Composition((*q, u - a))
                prob = conditional_block_prob(
                    law, n, u, Composition(map(add, ka_full, q_full)),
                    Composition(map(add, z, q_full)),
                )
                if prob == 0:
                    continue
                term = multinomial(u, q) * star * prob
                inner += -term if q[0] % 2 else term
        total += outer * inner
    return total


# (law, depth) pairs of the script's checks; tier-1 stops at n = 4 for
# the sweep of a K=4 law and at n = 5 for the oracle
DEEP = (
    ("mixture:w=1/2,1/2;p1=1/2,1/4,1/8,1/8;p2=1/4,1/4,1/4,1/4", 6),
    ("mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2", 8),
)
DEEP_ORACLE = (
    ("hls:K=4,pi=1,nu=2,alpha=1/4,1/4", 9),
    ("mixture:w=1/2,1/2;p1=1/2,1/4,1/8,1/8;p2=1/4,1/4,1/4,1/4", 9),
)
DEEP_KERNELS = (
    ("polya:alpha=1,2,3,4", 8),
    ("hls:K=4,pi=1,nu=2,alpha=1/4,1/4", 8),
)


def main():
    for spec, n_max in DEEP:
        law = parse_law(spec)
        entries = verify_hd(law, n_max).entries
        for e in entries:
            assert e.value == characterization_sum(law, e.n, e.u, e.z, e.m), e
        nonzero = sum(1 for e in entries if e.value)
        print(f"{spec} through n = {n_max}: {len(entries)} entries, "
              f"{nonzero} nonzero, each equal to its per-tuple sum")
    for spec, n_max in DEEP_ORACLE:
        law = parse_law(spec)
        holds = []
        for n in range(2, n_max + 1):
            res = weak_independence_oracle(law, n)
            assert res == basis_oracle(law, n), (spec, n)
            holds.append(res.weakly_independent)
        print(f"{spec} at n = 2..{n_max}: the oracle equals the basis oracle, "
              f"weakly independent: {holds}")
    for spec, n in DEEP_KERNELS:
        law = parse_law(spec)
        rng = random.Random(n)
        statistic = SymmetricStatistic.from_function(
            n, law.K, lambda c: Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for k, (part, kernel) in enumerate(decompose(law, statistic)):
            expected = solve(_ustat_matrix(n, k, law.K), part.as_vector())
            assert kernel.as_vector() == expected, (spec, k)
        print(f"{spec} at n = {n}: each layer's kernel equals the Bareiss "
              f"solution of its whole U-statistic system")
    return 0


if __name__ == "__main__":
    sys.exit(main())
