"""Combinatorial criterion for Hoeffding decomposability.

The centerpiece is characterization_sum, an alternating double sum over
coherent splits of a conditioning class and over fresh-draw allocations,
whose vanishing at every index tuple is equivalent to weak independence
of the law.  verify_hd sweeps it exhaustively up to a depth, evaluating
all kernel indices m of one (n, u, z) at once.  The module also carries
the supporting cast: a closed-form basis of the conditioned-to-zero
kernel space, coherent split enumeration, canonical symmetrization, and
the Beta-function and star-binomial identities that make the HLS case
collapse to zero.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .decomp import SymmetricKernel, composition_list
from .exactnum import (
    Composition,
    Rational,
    RationalLike,
    beta_ratio,
    binom_star,
    compositions,
    format_rational,
    multinomial,
    multinomial_star,
    parse_rational,
)
from .laws import ExchangeableLaw, conditional_block_prob, cylinder_prob, format_law

__all__ = [
    "xi_dimension",
    "xi_index_set",
    "xi_basis_kernel",
    "xi_basis",
    "coherent_splits",
    "symmetrize_bisym",
    "characterization_sum",
    "VerificationEntry",
    "VerificationReport",
    "verify_hd",
    "sommedentro_sum",
    "sigma_hls",
    "star_vandermonde",
    "IdentityResult",
    "check_identity",
]

_K2_HINT = "the closed-form criterion needs K >= 3; use the brute-force oracle for K = 2"


def xi_dimension(n: int, colors: int) -> int:
    """Dimension of the space of order-n kernels conditioned to zero."""
    if n < 2:
        raise ValueError("xi_dimension needs n >= 2")
    if colors < 2:
        raise ValueError("xi_dimension needs at least two colors")
    return math.comb(n + colors - 1, colors - 1) - math.comb(n + colors - 2, colors - 1)


@lru_cache(maxsize=None)
def xi_index_set(n: int, colors: int) -> tuple[Composition, ...]:
    # one index per basis kernel: all (colors-2)-compositions of order <= n
    if colors < 3:
        raise ValueError(_K2_HINT)
    out = []
    for a in range(n + 1):
        out.extend(compositions(a, colors - 2))
    return tuple(out)


def _validate_m(m: Sequence[int], n: int, colors: int) -> tuple[int, ...]:
    m = tuple(int(x) for x in m)
    if len(m) != colors - 2:
        raise ValueError(f"m must have {colors - 2} entries, got {len(m)}")
    if any(x < 0 for x in m) or sum(m) > n:
        raise ValueError(f"m must be a composition of order <= {n}, got {m}")
    return m


def xi_basis_kernel(law: ExchangeableLaw, n: int, m: Sequence[int]) -> SymmetricKernel:
    """The closed-form conditioned-to-zero kernel indexed by m.

    phi(i) = (-1)^{i_1} multinomial_star(i_1; m_1-i_2, ..., m_{K-2}-i_{K-1})
             * P_n(0, m, n-|m|) / P_n(i)

    Out-of-range star factors kill most entries, so each kernel touches
    only the classes whose middle colors are dominated by m.
    """
    colors = law.K
    if colors < 3:
        raise ValueError(_K2_HINT)
    if n < 2:
        raise ValueError("basis kernels need n >= 2")
    m = _validate_m(m, n, colors)
    ref = Composition((0, *m, n - sum(m)))
    p_ref = cylinder_prob(law, ref)
    values: dict[Composition, Fraction] = {}
    for i in composition_list(n, colors):
        star = multinomial_star(i[0], tuple(m[t] - i[t + 1] for t in range(colors - 2)))
        if star == 0:
            values[i] = Fraction(0)
        else:
            sign = -1 if i[0] % 2 else 1
            values[i] = sign * star * p_ref / cylinder_prob(law, i)
    return SymmetricKernel(n, colors, values)


def xi_basis(law: ExchangeableLaw, n: int) -> list[SymmetricKernel]:
    return [xi_basis_kernel(law, n, m) for m in xi_index_set(n, law.K)]


def coherent_splits(m: int, v: int, z: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All ways to split the class z of order m into blocks of sizes v and
    m-v, parameterized by the first K-1 counts of the size-v block.

    Emitted vectors k satisfy the chained bounds
    max(0, z_p - ((m-v) - short_p)) <= k_p <= min(z_p, v - used_p)
    where used_p and short_p are the units already committed to each
    block; this is exactly the feasible-split set.
    """
    z = Composition(z)
    if z.order != m:
        raise ValueError(f"z must have order {m}, got {z.order}")
    if not 0 <= v <= m:
        raise ValueError(f"need 0 <= v <= {m}, got v={v}")
    head = z.colors - 1

    def rec(p: int, used: int, short: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if p == head:
            yield tuple(prefix)
            return
        lo = max(0, z[p] - ((m - v) - short))
        hi = min(z[p], v - used)
        for kp in range(lo, hi + 1):
            prefix.append(kp)
            yield from rec(p + 1, used + kp, short + z[p] - kp, prefix)
            prefix.pop()

    yield from rec(0, 0, 0, [])


def symmetrize_bisym(
    f: Callable[[Composition, Composition], RationalLike],
    m: int,
    v: int,
    z: Sequence[int],
) -> Rational:
    """Average a block-symmetric table over the class z.

    f sees the counts of the two blocks (orders v and m-v); the weight of
    a split counts its orderings within each block.  The result equals
    the plain average of f over all sequences in the class.
    """
    z = Composition(z)
    num = Fraction(0)
    den = 0
    for k in coherent_splits(m, v, z):
        ka = Composition((*k, v - sum(k)))
        kb = Composition(tuple(zp - ap for zp, ap in zip(z, ka)))
        w = multinomial(v, ka[:-1]) * multinomial(m - v, kb[:-1])
        num += w * parse_rational(f(ka, kb))
        den += w
    if den == 0:
        raise ValueError("empty coherent range")
    return num / den


def characterization_sum(
    law: ExchangeableLaw, n: int, u: int, z: Sequence[int], m: Sequence[int]
) -> Rational:
    """One criterion value: zero at every (n, u, z, m) iff the law is
    Hoeffding decomposable (given nondegenerate layers).

    Outer sum over coherent splits k of z with sign (-1)^{k_1}; inner sum
    over allocations q of up to u fresh draws to the first K-1 colors with
    sign (-1)^{q_1}, a star-multinomial factor on k_1+q_1 against
    m - (k+q) tails, and the conditional probability of reaching counts
    z+q from counts k+q with u-1 draws.  verify_hd regroups the same sum
    to share it across m; this per-tuple form is its reference.
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


@dataclass(frozen=True)
class VerificationEntry:
    n: int
    u: int
    z: Composition
    m: tuple[int, ...]
    value: Rational

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "u": self.u,
            "z": list(self.z),
            "m": list(self.m),
            "value": format_rational(self.value),
        }


@dataclass(frozen=True)
class VerificationReport:
    law_spec: str
    n_max: int
    entries: tuple[VerificationEntry, ...]

    @property
    def all_zero(self) -> bool:
        return all(entry.value == 0 for entry in self.entries)

    @property
    def first_nonzero(self) -> Optional[VerificationEntry]:
        for entry in self.entries:
            if entry.value != 0:
                return entry
        return None

    def to_jsonable(self, include_zeros: bool = True) -> dict:
        # include_zeros=False drops zero-valued entries, keeping the report small
        first = self.first_nonzero
        return {
            "schema_version": 1,
            "law": self.law_spec,
            "n_max": self.n_max,
            "all_zero": self.all_zero,
            "entries": [
                e.to_jsonable() for e in self.entries if include_zeros or e.value != 0
            ],
            "first_nonzero": first.to_jsonable() if first is not None else None,
        }


class _CylinderTable(dict):
    """P_n(i) of one law keyed by plain count tuple, each filled once from
    law.cylinder on first lookup."""

    def __init__(self, law: ExchangeableLaw) -> None:
        super().__init__()
        self.law = law

    def __missing__(self, i: tuple[int, ...]) -> Rational:
        p = self[i] = self.law.cylinder(Composition(i))
        return p


def _group_values(table: _CylinderTable, n: int, u: int, z: Composition) -> list[Rational]:
    """characterization_sum(law, n, u, z, m) for every m in
    xi_index_set(n, K), in that order, from one walk over the coherent
    splits k and fresh-draw allocations q.

    Only the star factor depends on m, and it reads only the pooled counts
    k+q, as do the sign (-1)^(k+q)_1 and the denominator P(k+q).  So the
    m-independent weights
    multinomial(n-u, k) * multinomial(u, q) * multinomial(u-1, z_head - k)
    * P(z+q) / P(k+q) are summed per k+q first, and each m then costs one
    star factor per distinct k+q.  Both sums run over integer numerators
    on a common denominator: the exact sum is regrouped, never rounded.
    """
    head = len(z) - 1
    allocations = [
        (*q, u - a) for a in range(u + 1) for q in compositions(a, head)
    ]
    # P(z+q) over one common denominator, so the weights sum as integers
    coefs, coef_den = _common_denominator(
        multinomial(u, q[:head]) * table[tuple(map(add, z, q))] for q in allocations
    )
    weights: dict[tuple[int, ...], int] = {}
    for k in coherent_splits(n - 1, n - u, z):
        ka_full = (*k, (n - u) - sum(k))
        outer = multinomial(n - u, k) * multinomial(u - 1, tuple(map(sub, z[:head], k)))
        for q, coef in zip(allocations, coefs):
            kq = tuple(map(add, ka_full, q))
            term = outer * coef
            weights[kq] = weights.get(kq, 0) + (-term if kq[0] % 2 else term)
    keys = [kq for kq, w in weights.items() if w]
    nums, den = _common_denominator(
        Fraction(weights[kq], coef_den) / table[kq] for kq in keys
    )
    values = []
    for m in xi_index_set(n, len(z)):
        total = 0
        for kq, num in zip(keys, nums):
            star = multinomial_star(kq[0], tuple(map(sub, m, kq[1:head])))
            if star:
                total += star * num
        values.append(Fraction(total, den))
    return values


def _common_denominator(values: Iterable[Rational]) -> tuple[list[int], int]:
    """Numerators of the values over their least common denominator."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


# One cylinder table per pool worker; the pool serves a single law.
_worker_table: Optional[_CylinderTable] = None


def _start_worker(law: ExchangeableLaw) -> None:
    global _worker_table
    _worker_table = _CylinderTable(law)


def _worker_group(group: tuple[int, int, Composition]) -> list[Rational]:
    return _group_values(_worker_table, *group)


def default_jobs() -> int:
    env = os.environ.get("HOEFFDING_JOBS", "").strip()
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"HOEFFDING_JOBS must be an integer, got {env!r}") from None
        if jobs < 1:
            raise ValueError("HOEFFDING_JOBS must be >= 1")
        return jobs
    return os.cpu_count() or 1


def verify_hd(law: ExchangeableLaw, n_max: int, jobs: int = 1) -> VerificationReport:
    """Evaluate the criterion over every tuple with 2 <= n <= n_max.

    Work is split into (n, u, z) groups, each evaluating the criterion for
    every kernel index m at once; groups run in parallel on
    min(jobs, cpu count, group count) workers when that exceeds 1.
    Entries are listed in the fixed lexicographic order (n, u, z, m), so
    reports are byte-stable for a given (law, n_max) regardless of
    scheduling.
    """
    if law.K < 3:
        raise ValueError(_K2_HINT)
    if n_max < 2:
        raise ValueError("verify_hd needs n_max >= 2")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    groups = [
        (n, u, z)
        for n in range(2, n_max + 1)
        for u in range(2, n + 1)
        for z in compositions(n - 1, law.K)
    ]
    workers = min(jobs, os.cpu_count() or 1, len(groups))
    if workers > 1:
        chunk = max(1, len(groups) // (workers * 8))
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_start_worker, initargs=(law,)
        ) as pool:
            values = list(pool.map(_worker_group, groups, chunksize=chunk))
    else:
        table = _CylinderTable(law)
        values = [_group_values(table, *group) for group in groups]
    entries = tuple(
        VerificationEntry(n, u, z, tuple(m), v)
        for (n, u, z), group_values in zip(groups, values)
        for m, v in zip(xi_index_set(n, law.K), group_values)
    )
    return VerificationReport(format_law(law), n_max, entries)


def sommedentro_sum(
    pi: RationalLike, nu: RationalLike, n: int, u: int, z: int, k: int
) -> Rational:
    """Alternating Beta-ratio sum that the two-parameter structure kills.

    sum_{q=0}^{u} (-1)^q C(u,q) B(pi+z+q, nu+n+u-1-z-q) / B(pi+k+q, nu+n-k-q)

    Each ratio is evaluated against its own shifted base via beta_ratio,
    so no Gamma values are ever materialized.  Expected value: 0.
    """
    pi = parse_rational(pi)
    nu = parse_rational(nu)
    if pi <= 0 or nu <= 0:
        raise ValueError("pi and nu must be positive")
    if not 2 <= u <= n:
        raise ValueError(f"need 2 <= u <= n, got u={u}, n={n}")
    if not 0 <= z <= n - 1:
        raise ValueError(f"need 0 <= z <= n-1, got z={z}")
    if not max(0, z - (u - 1)) <= k <= min(z, n - u):
        raise ValueError(f"k={k} outside [{max(0, z - (u - 1))}, {min(z, n - u)}]")
    total = Fraction(0)
    for q in range(u + 1):
        ratio = beta_ratio(pi + k + q, nu + n - k - q, z - k, u - 1 - (z - k))
        term = math.comb(u, q) * ratio
        total += -term if q % 2 else term
    return total


def sigma_hls(
    pi: RationalLike,
    nu: RationalLike,
    n: int,
    u: int,
    m: int,
    z1: int,
    k1: int,
    k2: int,
) -> Rational:
    """The three-color criterion block, evaluated two ways.

    Direct form: double (q1, q2) sum of signed multinomials, a star
    binomial on k1+q1 choose m-k2-q2, and a Beta ratio.  Factored form:
    binom_star(k1+u, m-k2) times the alternating Beta-ratio sum.  Both
    are computed exactly and must agree; the direct value is returned
    (expected 0 throughout the valid range).
    """
    pi = parse_rational(pi)
    nu = parse_rational(nu)
    if pi <= 0 or nu <= 0:
        raise ValueError("pi and nu must be positive")
    if not 2 <= u <= n:
        raise ValueError(f"need 2 <= u <= n, got u={u}, n={n}")
    if not 0 <= z1 <= n - 1:
        raise ValueError(f"need 0 <= z1 <= n-1, got z1={z1}")
    if not max(0, z1 - (u - 1)) <= k1 <= min(z1, n - u):
        raise ValueError(f"k1={k1} outside the coherent range for z1={z1}")
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}")
    if k2 < 0:
        raise ValueError(f"need k2 >= 0, got k2={k2}")

    direct = Fraction(0)
    for q1 in range(u + 1):
        ratio = beta_ratio(pi + k1 + q1, nu + n - k1 - q1, z1 - k1, u - 1 - (z1 - k1))
        inner = 0
        for q2 in range(u - q1 + 1):
            star = binom_star(k1 + q1, m - k2 - q2)
            if star:
                inner += multinomial(u, (q1, q2)) * star
        if inner:
            term = inner * ratio
            direct += -term if q1 % 2 else term

    factored = binom_star(k1 + u, m - k2) * sommedentro_sum(pi, nu, n, u, z1, k1)
    if direct != factored:
        raise ArithmeticError(
            f"direct {direct} and factored {factored} forms disagree at "
            f"(pi={pi}, nu={nu}, n={n}, u={u}, m={m}, z1={z1}, k1={k1}, k2={k2})"
        )
    return direct


def star_vandermonde(u: int, q1: int, k1: int, j: int) -> tuple[int, int]:
    """Star-binomial convolution and its closed form, as a comparable pair.

    Returns (sum_{q2=0}^{u-q1} C(u-q1, q2) binom_star(k1+q1, j-q2),
             binom_star(k1+u, j)); the two entries agree for every input.
    """
    if not 0 <= q1 <= u:
        raise ValueError(f"need 0 <= q1 <= u, got q1={q1}, u={u}")
    if k1 < 0:
        raise ValueError(f"need k1 >= 0, got {k1}")
    summed = sum(
        math.comb(u - q1, q2) * binom_star(k1 + q1, j - q2)
        for q2 in range(u - q1 + 1)
    )
    return summed, binom_star(k1 + u, j)


@dataclass(frozen=True)
class IdentityResult:
    name: str
    holds: bool
    checked: int
    counterexample: Optional[dict]

    def to_jsonable(self) -> dict:
        return {
            "schema_version": 1,
            "identity": self.name,
            "holds": self.holds,
            "checked": self.checked,
            "counterexample": self.counterexample,
        }


_GRID = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2))


def _check_sommedentro(pi, nu, n_max: int) -> IdentityResult:
    if pi is None and nu is None:
        grid = [(a, b) for a in _GRID for b in _GRID]
    else:
        grid = [(parse_rational(pi if pi is not None else 1),
                 parse_rational(nu if nu is not None else 1))]
    checked = 0
    for gp, gn in grid:
        for n in range(2, n_max + 1):
            for u in range(2, n + 1):
                for z in range(n):
                    for k in range(max(0, z - (u - 1)), min(z, n - u) + 1):
                        value = sommedentro_sum(gp, gn, n, u, z, k)
                        checked += 1
                        if value != 0:
                            return IdentityResult(
                                "sommedentro", False, checked,
                                {"pi": format_rational(gp), "nu": format_rational(gn),
                                 "n": n, "u": u, "z": z, "k": k,
                                 "value": format_rational(value)},
                            )
    return IdentityResult("sommedentro", True, checked, None)


def _check_star_vandermonde(u_max: int, k_max: int) -> IdentityResult:
    checked = 0
    for u in range(u_max + 1):
        for q1 in range(u + 1):
            for k1 in range(k_max + 1):
                for j in range(-2, 13):
                    summed, closed = star_vandermonde(u, q1, k1, j)
                    checked += 1
                    if summed != closed:
                        return IdentityResult(
                            "star-vandermonde", False, checked,
                            {"u": u, "q1": q1, "k1": k1, "j": j,
                             "sum": summed, "closed_form": closed},
                        )
    return IdentityResult("star-vandermonde", True, checked, None)


def _check_pascal_star(a_max: int) -> IdentityResult:
    checked = 0
    for a in range(1, a_max + 1):
        for b in range(-3, 16):
            lhs = binom_star(a, b)
            rhs = binom_star(a - 1, b) + binom_star(a - 1, b - 1)
            checked += 1
            if lhs != rhs:
                return IdentityResult(
                    "pascal-star", False, checked,
                    {"a": a, "b": b, "lhs": lhs, "rhs": rhs},
                )
    return IdentityResult("pascal-star", True, checked, None)


def _check_quandebello(n_max: int, k_max: int) -> IdentityResult:
    # |{i in N(n,K): i_1 >= 1}| must equal |N(n-1,K)|; both by enumeration
    checked = 0
    for colors in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            lhs = sum(1 for i in compositions(n, colors) if i[0] >= 1)
            rhs = sum(1 for _ in compositions(n - 1, colors))
            checked += 1
            if lhs != rhs:
                return IdentityResult(
                    "quandebello", False, checked,
                    {"n": n, "K": colors, "restricted": lhs, "lower_order": rhs},
                )
    return IdentityResult("quandebello", True, checked, None)


# identity name -> (grid checker, the bounds it reads with their defaults)
_IDENTITIES = {
    "sommedentro": (_check_sommedentro, {"pi": None, "nu": None, "n_max": 6}),
    "star-vandermonde": (_check_star_vandermonde, {"u_max": 6, "k_max": 6}),
    "pascal-star": (_check_pascal_star, {"a_max": 12}),
    "quandebello": (_check_quandebello, {"n_max": 8, "k_max": 5}),
}


def check_identity(
    name: str,
    pi: Optional[RationalLike] = None,
    nu: Optional[RationalLike] = None,
    n_max: Optional[int] = None,
    u_max: Optional[int] = None,
    k_max: Optional[int] = None,
    a_max: Optional[int] = None,
) -> IdentityResult:
    """Run the exhaustive grid for a named identity; unset bounds get the
    documented defaults, and a bound the identity does not read is an error."""
    if name not in _IDENTITIES:
        raise ValueError(f"unknown identity {name!r}")
    checker, defaults = _IDENTITIES[name]
    given = {"pi": pi, "nu": nu, "n_max": n_max, "u_max": u_max, "k_max": k_max, "a_max": a_max}
    for key, value in given.items():
        if value is not None and key not in defaults:
            raise ValueError(f"identity {name} does not take --{key.replace('_', '-')}")
    return checker(**{
        key: default if given[key] is None else given[key]
        for key, default in defaults.items()
    })
