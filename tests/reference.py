"""Slow reference paths that the fast code is checked against.

`characterization_sum` is the paper's criterion in its literal per-tuple
form: one alternating double sum per (n, u, z, m), built from
`conditional_block_prob`.  `verify_hd` regroups the same sum in
`characterization._group_values` to share it across every m of one
(n, u, z); the tests compare the two entry by entry.  `predictive_prob`
is the ratio P(h + e_j) / P(h) of two cylinder values, against which the
laws' own predictive rules and the degeneracy rows are checked.
`nullspace` is the generic null space by elimination, which the oracle's
back substitution (`decomp.xi_nullspace_basis`) is checked against.

Run as a script, the check goes deeper than the tests: every entry of the
sweep of a K=4 mixture through n = 6 and of a K=3 mixture through n = 8
(about ten seconds):

    PYTHONPATH=src python tests/reference.py
"""

import sys
from fractions import Fraction
from typing import Sequence

from hoeffding.characterization import _K2_HINT, _validate_m, coherent_splits, verify_hd
from hoeffding.exactnum import Composition, Rational, compositions, multinomial, multinomial_star
from hoeffding.laws import ExchangeableLaw, _as_composition, parse_law
from hoeffding.linalg import Matrix, _back_substitute, row_echelon


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
    for k in coherent_splits(n - 1, n - u, z):
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
                    law, n, u, ka_full.merge(q_full), z.merge(q_full)
                )
                if prob == 0:
                    continue
                term = multinomial(u, q) * star * prob
                inner += -term if q[0] % 2 else term
        total += outer * inner
    return total


# (law, depth) pairs of the script's check; tier-1 stops at n = 4 for K = 4
DEEP = (
    ("mixture:w=1/2,1/2;p1=1/2,1/4,1/8,1/8;p2=1/4,1/4,1/4,1/4", 6),
    ("mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2", 8),
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
