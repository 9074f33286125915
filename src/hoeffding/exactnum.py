"""Exact combinatorial primitives.

Everything in this module is integer or rational arithmetic with no
floating point anywhere: guarded ("star") binomial and multinomial
coefficients that vanish out of range instead of raising, rising
factorials, ratios of Beta functions evaluated without a Gamma call, and
enumeration of weak compositions.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

Rational = Fraction
RationalLike = Union[Rational, int, str]

__all__ = [
    "Rational",
    "Composition",
    "binom_star",
    "multinomial",
    "multinomial_star",
    "rising_factorial",
    "beta_ratio",
    "compositions",
    "class_size",
    "parse_rational",
    "format_rational",
    "split_entries",
]


class Composition(tuple):
    """A weak composition: a tuple of non-negative integer counts.

    Instances behave as ordinary tuples (hashable, comparable, picklable)
    plus a few count-vector helpers.  Note that ``+`` keeps tuple
    semantics (concatenation).
    """

    __slots__ = ()

    def __new__(cls, counts: Iterable[int]) -> "Composition":
        made = super().__new__(cls, counts)
        for c in made:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(
                    f"composition counts must be non-negative integers, got {tuple(made)!r}"
                )
        return made

    @property
    def order(self) -> int:
        """Total count, i.e. the length of the sequences in this class."""
        return sum(self)

    @property
    def colors(self) -> int:
        return len(self)

    def increment(self, j: int) -> "Composition":
        """A copy with one more count at color ``j`` (0-based)."""
        if not 0 <= j < len(self):
            raise ValueError(f"color index {j} out of range for {tuple(self)!r}")
        return Composition(c + 1 if t == j else c for t, c in enumerate(self))


def binom_star(a: int, b: int) -> int:
    """C(a, b) when 0 <= b <= a, else 0.

    Accepts arbitrary integers so that freely ranging sums can rely on the
    out-of-range terms vanishing.
    """
    if 0 <= b <= a:
        return math.comb(a, b)
    return 0


def multinomial(m: int, parts: Sequence[int]) -> int:
    """The multinomial coefficient m! / (b_1! ... b_r! (m - sum b)!).

    The remainder m - sum(parts) forms an implicit final block, so the
    parts must be non-negative and sum to at most m.  Out-of-range input
    raises; use :func:`multinomial_star` for the guarded variant.
    """
    if m < 0:
        raise ValueError(f"multinomial needs m >= 0, got {m}")
    remaining = m
    out = 1
    for b in parts:
        if b < 0 or b > remaining:
            raise ValueError(f"invalid multinomial block {b} with {remaining} remaining")
        out *= math.comb(remaining, b)
        remaining -= b
    return out


def multinomial_star(m: int, parts: Sequence[int]) -> int:
    """Chained product of star binomials C*(m,b_1) C*(m-b_1,b_2) ...

    Equals the ordinary multinomial coefficient when every chained factor
    is in range, and 0 otherwise (negative entries, overdrawn remainders).
    """
    remaining = m
    out = 1
    for b in parts:
        f = binom_star(remaining, b)
        if f == 0:
            return 0
        out *= f
        remaining -= b
    return out


def rising_factorial(x: RationalLike, k: int) -> Rational:
    """x (x+1) ... (x+k-1), exactly; the empty product 1 when k = 0."""
    if k < 0:
        raise ValueError(f"rising_factorial needs k >= 0, got {k}")
    base = Fraction(x)
    out = Fraction(1)
    for t in range(k):
        out *= base + t
    return out


def beta_ratio(p: RationalLike, q: RationalLike, dp: int, dq: int) -> Rational:
    """B(p+dp, q+dq) / B(p, q) for integer shifts dp, dq >= 0.

    Evaluated as rising(p,dp) rising(q,dq) / rising(p+q, dp+dq), which is
    exact for rational p, q and never touches the Gamma function.
    """
    p = Fraction(p)
    q = Fraction(q)
    if p <= 0 or q <= 0:
        raise ValueError("beta_ratio needs p > 0 and q > 0")
    if dp < 0 or dq < 0:
        raise ValueError("beta_ratio needs non-negative shifts")
    num = rising_factorial(p, dp) * rising_factorial(q, dq)
    return num / rising_factorial(p + q, dp + dq)


def _common_denominator(values: Iterable[Union[Rational, int]]) -> tuple[list[int], int]:
    """Numerators of the values over their least common denominator: the
    one place where exact sums clear denominators to sum on integers."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _composition_tuples(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # descending lexicographic order, by a loop, so any number of parts
    # works: the next tuple moves one unit from the last nonzero count
    # before the final one to the count after it, which also takes the
    # final count
    if parts == 0:
        if total == 0:
            yield ()
        return
    counts = [total] + [0] * (parts - 1)
    while True:
        yield tuple(counts)
        t = parts - 2
        while t >= 0 and not counts[t]:
            t -= 1
        if t < 0:
            return
        counts[t] -= 1
        tail, counts[-1] = counts[-1], 0
        counts[t + 1] = tail + 1


@lru_cache(maxsize=None)
def compositions(total: int, parts: int) -> tuple[Composition, ...]:
    """All weak compositions of ``total`` into ``parts`` counts.

    Enumeration is lexicographically descending on the counts, e.g.
    (2, 3) gives (2,0,0), (1,1,0), (1,0,1), (0,2,0), (0,1,1), (0,0,2).
    The number of elements is C(total + parts - 1, parts - 1).  The tuple
    is built once per (total, parts) and shared by every caller.
    """
    if total < 0 or parts < 0:
        raise ValueError("compositions needs total >= 0 and parts >= 0")
    return tuple(Composition(t) for t in _composition_tuples(total, parts))


@lru_cache(maxsize=None)
def _positions(total: int, parts: int) -> dict[Composition, int]:
    # each composition's position in compositions(total, parts); shared, so read-only
    return {c: j for j, c in enumerate(compositions(total, parts))}


def class_size(i: Sequence[int]) -> int:
    """Number of sequences whose color counts equal the composition ``i``."""
    return multinomial(sum(i), tuple(i))


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(value: RationalLike) -> Rational:
    """Parse an integer or "num/den" string; numbers pass through exactly.

    Once stripped of surrounding whitespace, a string must read
    -?digits(/digits)? in ASCII digits.  Decimal, exponent, underscore and
    '+' forms are refused: Fraction would expand a short exponent into an
    integer of unbounded size, and no report writes the others."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    text = str(value).strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(
            f"cannot parse rational from {value!r}: expected an integer or num/den"
            " such as -3 or 2/5; decimal, exponent and '+' forms are not accepted")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational from {value!r}") from exc


def format_rational(x: RationalLike) -> str:
    """Canonical "num/den" rendering, denominator always present."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def split_entries(text: str, separators: str = ",") -> list[str]:
    """The entries of ``text`` between any of the ``separators``, stripped.

    An empty or blank entry is an input error, never dropped: '1,,2' is
    not two entries, and '' is not an empty list."""
    entries = [x.strip() for x in re.split(f"[{re.escape(separators)}]", text)]
    if not all(entries):
        raise ValueError(f"empty entry in {text!r}")
    return entries
