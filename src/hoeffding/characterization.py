"""Combinatorial criterion for Hoeffding decomposability.

The centerpiece is verify_hd, an exhaustive sweep up to a depth of the
paper's criterion: an alternating double sum over coherent splits of a
conditioning class and over fresh-draw allocations, whose vanishing at
every index tuple (n, u, z, m) is equivalent to weak independence of the
law.  The index m enters only through a star multinomial, whose
generating function is a power of (1 + x_1 + ... + x_{K-2}), so the
values for all kernel indices m of one (n, u, z) are the coefficients of
one polynomial, evaluated by Horner's rule on integers.  The literal
per-tuple sum, which the sweep is checked against, is
characterization_sum in tests/reference.py.  The module also carries
the supporting cast: a closed-form basis of the conditioned-to-zero
kernel space, coherent split enumeration, canonical symmetrization, and
the Beta-function and star-binomial identities that make the HLS case
collapse to zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from operator import add, le, mul, sub
from typing import Callable, Iterator, Optional, Sequence

from .decomp import SymmetricKernel
from .exactnum import (
    Composition,
    Rational,
    RationalLike,
    _common_denominator,
    _sums,
    beta_ratio,
    binom_star,
    compositions,
    format_rational,
    multinomial,
    multinomial_star,
    parse_rational,
)
from .laws import ExchangeableLaw, cylinder_prob, format_law

__all__ = [
    "xi_dimension",
    "xi_index_set",
    "xi_basis_kernel",
    "xi_basis",
    "coherent_splits",
    "symmetrize_bisym",
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
    values = []
    for i in compositions(n, colors):
        star = multinomial_star(i[0], tuple(m[t] - i[t + 1] for t in range(colors - 2)))
        sign = -1 if i[0] % 2 else 1
        values.append(sign * star * p_ref / cylinder_prob(law, i) if star else Fraction(0))
    return SymmetricKernel(n, colors, values)


def xi_basis(law: ExchangeableLaw, n: int) -> list[SymmetricKernel]:
    return [xi_basis_kernel(law, n, m) for m in xi_index_set(n, law.K)]


def coherent_splits(v: int, z: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All ways to split the class z of order m = |z| into blocks of sizes v
    and m-v, parameterized by the first K-1 counts of the size-v block.

    A class ka of order v is a split iff ka <= z entrywise, the coherence
    rule of _group_values; the splits come in increasing lexicographic
    order of their first K-1 counts.
    """
    z = Composition(z)
    if not 0 <= v <= z.order:
        raise ValueError(f"need 0 <= v <= {z.order}, got v={v}")
    for ka in reversed(compositions(v, z.colors)):
        if all(map(le, ka, z)):
            yield ka[:-1]


def symmetrize_bisym(
    f: Callable[[Composition, Composition], RationalLike], v: int, z: Sequence[int]
) -> Rational:
    """Average a block-symmetric table over the class z of order m = |z|.

    f sees the counts of the two blocks (orders v and m-v); the weight of
    a split counts its orderings within each block.  The result equals
    the plain average of f over all sequences in the class.
    """
    z = Composition(z)
    m, num, den = z.order, Fraction(0), 0
    for k in coherent_splits(v, z):
        ka = Composition((*k, v - sum(k)))
        kb = Composition(tuple(zp - ap for zp, ap in zip(z, ka)))
        w = multinomial(v, ka[:-1]) * multinomial(m - v, kb[:-1])
        num += w * parse_rational(f(ka, kb))
        den += w
    if den == 0:
        raise ValueError("empty coherent range")
    return num / den


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


# (n, u, z) and the criterion values of that group, one per m in
# xi_index_set(n, K), in that order
_Group = tuple[int, int, Composition, tuple[Rational, ...]]


@dataclass(frozen=True)
class VerificationReport:
    law_spec: str
    n_max: int
    groups: tuple[_Group, ...]

    @cached_property
    def entries(self) -> tuple[VerificationEntry, ...]:
        return tuple(
            VerificationEntry(n, u, z, tuple(m), v)
            for n, u, z, values in self.groups
            for m, v in zip(xi_index_set(n, len(z)), values)
        )

    @property
    def all_zero(self) -> bool:
        return self.first_nonzero is None

    @cached_property
    def first_nonzero(self) -> Optional[VerificationEntry]:
        for n, u, z, values in self.groups:
            for m, v in zip(xi_index_set(n, len(z)), values):
                if v:
                    return VerificationEntry(n, u, z, tuple(m), v)
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


# The verify report as json.dumps(indent=2) lays it out, written straight
# from the group values; VerificationReport.to_jsonable is its reference.


@lru_cache(maxsize=None)
def _list_json(items: tuple[int, ...], pad: str) -> str:
    # a list of integers whose closing bracket sits at pad
    inner = f",\n{pad}  ".join(map(str, items))
    return f"[\n{pad}  {inner}\n{pad}]"


def _entry_head(n: int, u: int, z: Composition, pad: str) -> str:
    # an entry whose braces sit at pad, up to its m list
    return (f'{{\n{pad}  "n": {n},\n{pad}  "u": {u},\n'
            f'{pad}  "z": {_list_json(z, pad + "  ")},\n{pad}  "m": ')


def _m_fragment(m: tuple[int, ...], pad: str) -> str:
    # an entry's m list and key "value", up to the value's digits
    return f'{_list_json(m, pad + "  ")},\n{pad}  "value": "'


@lru_cache(maxsize=None)
def _m_fragments(n: int, colors: int) -> tuple[str, ...]:
    return tuple(_m_fragment(m, "    ") for m in xi_index_set(n, colors))


def _report_chunks(report: VerificationReport, include_zeros: bool = True) -> Iterator[str]:
    """json.dumps(report.to_jsonable(include_zeros), indent=2) + "\n", in
    one chunk per (n, u, z) group that has entries to write, plus the
    report's head and tail.  No entry object or dict is built."""
    first = report.first_nonzero
    yield (f'{{\n  "schema_version": 1,\n  "law": {json.dumps(report.law_spec)},\n'
           f'  "n_max": {report.n_max},\n'
           f'  "all_zero": {"true" if first is None else "false"},\n  "entries": [')
    lead = "\n    "
    for n, u, z, values in report.groups:
        head = _entry_head(n, u, z, "    ")
        body = [f'{head}{m}{v.numerator}/{v.denominator}"\n    }}'
                for m, v in zip(_m_fragments(n, len(z)), values) if include_zeros or v]
        if body:
            yield lead + ",\n    ".join(body)
            lead = ",\n    "
    tail = "]" if lead == "\n    " else "\n  ]"
    if first is None:
        yield f'{tail},\n  "first_nonzero": null\n}}\n'
    else:
        yield (f'{tail},\n  "first_nonzero": {_entry_head(first.n, first.u, first.z, "  ")}'
               f'{_m_fragment(first.m, "  ")}{format_rational(first.value)}"\n  }}\n}}\n')


@lru_cache(maxsize=None)
def _monomials(
    n: int, colors: int
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """For each class i of order n, in compositions(n, colors) order, its
    first count i_1 and the position of x^mid, mid its middle counts, in
    xi_index_set(n, colors); and for each monomial x^m of that index set
    the positions of x^(m - e_t) over its nonzero entries t: the monomials
    that a factor (1 + x_1 + ... + x_{K-2}) carries onto x^m.  The index
    set runs in increasing degree, so each of those positions is lower
    than the position it feeds."""
    index = xi_index_set(n, colors)
    pos = {m: j for j, m in enumerate(index)}
    slots = tuple((i[0], pos[i[1:-1]]) for i in compositions(n, colors))
    below = tuple(
        tuple(pos[(*m[:t], m[t] - 1, *m[t + 1:])] for t in range(len(m)) if m[t])
        for m in index
    )
    return slots, below


# one class ka of a plan's split block: ka, multinomial(n-u, ka), and the
# position in compositions(n, K) of ka+q for each allocation q
_Split = tuple[Composition, int, tuple[int, ...]]


@lru_cache(maxsize=None)
def _plan(n: int, u: int, colors: int) -> tuple[
    tuple[Composition, ...], tuple[int, ...], tuple[_Split, ...], dict[Composition, int]
]:
    """The law-free index plan of every (n, u, z) group with these n, u, K.

    The allocations q in compositions(u, K) with their multinomial(u, q);
    for each class ka in compositions(n-u, K) of the split block, its
    multinomial(n-u, ka) and the position of ka+q in compositions(n, K)
    for every q, in allocation order, which is ka's row of
    exactnum._sums(n-u, u); and multinomial(u-1, kb) for each class kb of
    order u-1, keyed by kb."""
    allocations = compositions(u, colors)
    splits = tuple(
        (ka, multinomial(n - u, ka[:-1]), targets)
        for ka, targets in zip(compositions(n - u, colors), _sums(n - u, u, colors))
    )
    return (
        allocations,
        tuple(multinomial(u, q[:-1]) for q in allocations),
        splits,
        {kb: multinomial(u - 1, kb[:-1]) for kb in compositions(u - 1, colors)},
    )


_ZERO = Fraction(0)


def _group_values(
    law: ExchangeableLaw, n: int, u: int, z: Composition
) -> tuple[Rational, ...]:
    """The criterion value at (n, u, z, m) for every m in
    xi_index_set(n, K), in that order, as the coefficients of one
    polynomial in r = K-2 variables; the per-tuple characterization_sum
    of tests/reference.py is its reference.

    One walk over the split classes ka of order n-u and fresh-draw
    allocations q sums the m-independent weights
    multinomial(n-u, ka) * multinomial(u, q) * multinomial(u-1, z - ka)
    * P(z+q) per pooled key ka+q, a class of order n.  A split is coherent
    iff ka <= z entrywise; the others are skipped.  The multinomials and
    the position of each key in compositions(n, K) come from the law-free
    _plan of (n, u, K), so the walk adds into a list by position and
    builds no tuple per term.  The kernel index m enters only through the
    star factor C*(a; m - mid), where a is the first count of the key and
    mid its r middle counts, and sum_d C*(a; d) x^d = (1 + x_1 + ... + x_r)^a.
    So with P_a(x) the sum over the keys of first count a of
    (-1)^a weight / P(key) * x^mid, the value at m is the coefficient of
    x^m in sum_a P_a(x) (1 + x_1 + ... + x_r)^a.  Horner's rule evaluates
    it from the largest a down to 0: each step multiplies by the factor
    and adds P_a, dropping monomials of degree > n, which no m reaches.
    A key has order n, so every x^mid is kept.  Weights and coefficients
    are integers over one denominator, the lcm of the cylinder values'
    denominators times the lcm of the keys' P(key) numerators: the exact
    sum is regrouped, never rounded, and each value is reduced at the end;
    every zero value is the one shared _ZERO.  Only law.cylinder is read.
    """
    cylinder = law.cylinder
    colors = len(z)
    allocations, q_multinomials, splits, kb_multinomials = _plan(n, u, colors)
    # multinomial(u, q) * P(z+q) as integers over one denominator
    nums, coef_den = _common_denominator(cylinder(tuple(map(add, z, q))) for q in allocations)
    coefs = list(map(mul, q_multinomials, nums))
    classes = compositions(n, colors)
    weights = [0] * len(classes)
    for ka, ka_multinomial, targets in splits:
        if all(map(le, ka, z)):
            outer = ka_multinomial * kb_multinomials[tuple(map(sub, z, ka))]
            for j, coef in zip(targets, coefs):
                weights[j] += outer * coef
    keys = [(j, w, cylinder(classes[j])) for j, w in enumerate(weights) if w]
    key_den = math.lcm(*(p.numerator for _, _, p in keys))
    slots, below = _monomials(n, colors)
    # P_a as (position of x^mid, integer coefficient) pairs, one list per a
    parts: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for j, w, p in keys:
        a, mid = slots[j]
        num = w * p.denominator * (key_den // p.numerator)
        parts[a].append((mid, -num if a % 2 else num))
    coef = [0] * len(below)
    top = max((a for a in range(n + 1) if parts[a]), default=0)
    for a in range(top, -1, -1):
        if a < top:
            # times (1 + x_1 + ... + x_r), highest position first, so each
            # x^m still reads the lower coefficients of the previous step
            for j in range(len(coef) - 1, 0, -1):
                for t in below[j]:
                    coef[j] += coef[t]
        for j, num in parts[a]:
            coef[j] += num
    den = coef_den * key_den
    return tuple(Fraction(c, den) if c else _ZERO for c in coef)


def verify_hd(law: ExchangeableLaw, n_max: int) -> VerificationReport:
    """Evaluate the criterion over every tuple with 2 <= n <= n_max.

    Work is split into (n, u, z) groups, each evaluating the criterion for
    every kernel index m at once, all in this process on the law's own
    memo of P(i).  Entries are listed in the fixed lexicographic order
    (n, u, z, m), so reports are byte-stable for a given (law, n_max).
    """
    if law.K < 3:
        raise ValueError(_K2_HINT)
    if n_max < 2:
        raise ValueError("verify_hd needs n_max >= 2")
    groups = tuple(
        (n, u, z, _group_values(law, n, u, z))
        for n in range(2, n_max + 1)
        for u in range(2, n + 1)
        for z in compositions(n - 1, law.K)
    )
    return VerificationReport(format_law(law), n_max, groups)


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
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}")
    if k2 < 0:
        raise ValueError(f"need k2 >= 0, got k2={k2}")
    # sommedentro_sum validates (pi, nu, n, u, z1, k1)
    factored = binom_star(k1 + u, m - k2) * sommedentro_sum(pi, nu, n, u, z1, k1)
    pi = parse_rational(pi)
    nu = parse_rational(nu)
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


def _sommedentro_cases(pi, nu, n_max: int) -> Iterator[tuple[bool, tuple]]:
    # an unset pi or nu ranges over the rational grid
    pis = _GRID if pi is None else [parse_rational(pi)]
    nus = _GRID if nu is None else [parse_rational(nu)]
    for gp, gn in product(pis, nus):
        for n in range(2, n_max + 1):
            for u in range(2, n + 1):
                for z in range(n):
                    for k in range(max(0, z - (u - 1)), min(z, n - u) + 1):
                        value = sommedentro_sum(gp, gn, n, u, z, k)
                        yield value == 0, (gp, gn, n, u, z, k, value)


def _star_vandermonde_cases(u_max: int, k_max: int) -> Iterator[tuple[bool, tuple]]:
    for u in range(u_max + 1):
        for q1 in range(u + 1):
            for k1 in range(k_max + 1):
                for j in range(-2, 13):
                    summed, closed = star_vandermonde(u, q1, k1, j)
                    yield summed == closed, (u, q1, k1, j, summed, closed)


def _pascal_star_cases(a_max: int) -> Iterator[tuple[bool, tuple]]:
    for a in range(1, a_max + 1):
        for b in range(-3, 16):
            lhs = binom_star(a, b)
            rhs = binom_star(a - 1, b) + binom_star(a - 1, b - 1)
            yield lhs == rhs, (a, b, lhs, rhs)


def _quandebello_cases(n_max: int, k_max: int) -> Iterator[tuple[bool, tuple]]:
    # |{i in N(n,K): i_1 >= 1}| must equal |N(n-1,K)|; both by enumeration
    for colors in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            lhs = sum(1 for i in compositions(n, colors) if i[0] >= 1)
            rhs = len(compositions(n - 1, colors))
            yield lhs == rhs, (n, colors, lhs, rhs)


# identity name -> (grid of (holds, case) pairs, the counterexample's key for
# each entry of a case, the bounds the grid reads with their defaults)
_IDENTITIES = {
    "sommedentro": (_sommedentro_cases, ("pi", "nu", "n", "u", "z", "k", "value"),
                    {"pi": None, "nu": None, "n_max": 6}),
    "star-vandermonde": (_star_vandermonde_cases, ("u", "q1", "k1", "j", "sum", "closed_form"),
                         {"u_max": 6, "k_max": 6}),
    "pascal-star": (_pascal_star_cases, ("a", "b", "lhs", "rhs"), {"a_max": 12}),
    "quandebello": (_quandebello_cases, ("n", "K", "restricted", "lower_order"),
                    {"n_max": 8, "k_max": 5}),
}


def check_identity(name: str, **given: Optional[RationalLike]) -> IdentityResult:
    """Run the exhaustive grid for a named identity, stopping at its first
    failure; unset (or None) bounds get the defaults in `_IDENTITIES`.  A
    bound the identity does not read, or bounds that leave nothing to
    check, are errors: an empty grid is no verdict."""
    if name not in _IDENTITIES:
        raise ValueError(f"unknown identity {name!r}")
    cases, keys, defaults = _IDENTITIES[name]
    for key, value in given.items():
        if value is not None and key not in defaults:
            raise ValueError(f"identity {name} does not take --{key.replace('_', '-')}")
    bounds = {
        key: default if given.get(key) is None else given[key]
        for key, default in defaults.items()
    }
    checked = 0
    for holds, case in cases(**bounds):
        checked += 1
        if not holds:
            return IdentityResult(name, False, checked, {
                key: format_rational(v) if isinstance(v, Fraction) else v
                for key, v in zip(keys, case)
            })
    if checked == 0:
        named = ", ".join(
            f"--{key.replace('_', '-')} {value}"
            for key, value in bounds.items()
            if key.endswith("_max")
        )
        raise ValueError(f"identity {name} has nothing to check with {named}")
    return IdentityResult(name, True, checked, None)
