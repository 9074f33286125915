"""Exchangeable sequence laws over a finite alphabet.

Each family exposes the exact cylinder probability P_n(i): the probability
of observing any single length-n sequence whose color counts equal the
composition i (the law of an exchangeable sequence is constant on such
classes).  Each family but the mixture is an exchangeable urn law (Hill,
Lane and Sudderth 1987), given by its predictive rule: the probability
that the draw after counts i (of order n) has color j.  P_n(i) is the
product of these along any path of draws from the empty class to i:

  IID(p)            p_j;  P_n(i) = prod_j p_j^(i_j)
  Polya(alpha)      (alpha_j + i_j) / (sum alpha + n);  Dirichlet-multinomial,
                    P_n(i) = prod_j rising(alpha_j, i_j) / rising(sum alpha, n)
  HLS(K,pi,nu,a)    (pi + i_1) / (pi + nu + n) for the first color, and
                    share_j * (nu + n - i_1) / (pi + nu + n) for the others,
                    whose shares are a_1..a_{K-2} and 1 - sum a > 0;  the
                    first color has a Beta(pi, nu) weight,
                    P_n(i) = prod_t share_t^(i_{t+1})
                             * B(pi+i_1, nu+n-i_1) / B(pi, nu)
  MixtureIID        finite mixture of IID laws, P_n(i) the weighted sum of
                    the components' P_n(i)

All parameters are rational and every probability is an exact Fraction.
Colors are indexed 0..K-1 throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar, Optional, Sequence, Union

from .exactnum import (
    Composition,
    Rational,
    RationalLike,
    _common_denominator,
    class_size,
    compositions,
    format_rational,
    parse_rational,
)

__all__ = [
    "IID",
    "Polya",
    "HLS",
    "MixtureIID",
    "ExchangeableLaw",
    "cylinder_prob",
    "class_prob",
    "ConsistencyReport",
    "check_consistency",
    "parse_law",
    "format_law",
    "law_to_jsonable",
    "law_from_jsonable",
    "load_law_file",
]


class _Rational:
    """A declared law parameter: spec/JSON key, attribute, JSON type check."""

    def __init__(self, key: str, attr: Optional[str] = None) -> None:
        self.key, self.attr = key, attr or key

    def items(self, value) -> list[tuple[str, object]]:
        return [(self.key, value)]

    def take(self, obj: dict):
        if self.key not in obj:
            raise ValueError(f"law field {self.key!r} is missing")
        return self.load(self.key, obj.pop(self.key))

    def load(self, key: str, raw):
        if type(raw) not in (str, int):
            raise ValueError(f"law field {key!r} must be a rational, got {raw!r}")
        try:
            return parse_rational(raw)
        except ValueError as exc:
            raise ValueError(f"law field {key!r}: {exc}") from None

    def spec(self, value) -> str:
        return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)

    def dump(self, value):
        return format_rational(value)

    def from_tokens(self, tokens: list[str]):
        # one token is a scalar, and an integer literal a JSON integer
        raw = tokens[0] if len(tokens) == 1 else tokens
        digits = raw.removeprefix("-") if isinstance(raw, str) else ""
        return int(raw) if digits.isascii() and digits.isdecimal() else raw


class _Integer(_Rational):
    def load(self, key: str, raw):
        if type(raw) is not int:
            raise ValueError(f"law field {key!r} must be an integer, got {raw!r}")
        return raw

    def dump(self, value):
        return value


class _Vector(_Rational):
    def load(self, key: str, raw):
        if not isinstance(raw, list):
            raise ValueError(f"law field {key!r} must be a list, got {raw!r}")
        return tuple(_Rational.load(self, key, x) for x in raw)

    def dump(self, value):
        return [format_rational(x) for x in value]

    def from_tokens(self, tokens: list[str]):
        return tokens


class _Indexed(_Vector):
    """Vectors under numbered keys p1, p2, ...: one per mixture component."""

    def items(self, value) -> list[tuple[str, object]]:
        return [(f"{self.key}{r}", v) for r, v in enumerate(value, 1)]

    def take(self, obj: dict):
        out = []
        while (key := f"{self.key}{len(out) + 1}") in obj:
            out.append(self.load(key, obj.pop(key)))
        return tuple(out)


def _rational_vector(values: Sequence[RationalLike]) -> tuple[Rational, ...]:
    return tuple(parse_rational(v) for v in values)


@dataclass(frozen=True)
class _Law:
    """A family's P_n(i), memoized per count tuple i in its _cylinders (a
    field outside ==, hash and repr, seeded with P_0 = 1): every caller of
    one law shares one memo, and a filled memo changes nothing but speed.
    A family gives its predictive rule as _predictive(i, j), and _fill
    makes each missing class the product of that rule along a path.
    Values a family derives from its parameters once are likewise fields
    outside ==, hash and repr."""

    _cylinders: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_cylinders", {(0,) * self.K: Fraction(1)})

    def cylinder(self, i: tuple[int, ...]) -> Rational:
        try:
            return self._cylinders[i]
        except KeyError:
            if len(i) != self.K or min(i) < 0:
                raise ValueError(f"{tuple(i)!r} is not a class of a {self.K}-color law")
            return self._fill(i)

    def _fill(self, i: tuple[int, ...]) -> Rational:
        # walk down from i one unit of the last nonzero color at a time to
        # a memoized class, then multiply the predictive probabilities back
        # up, storing each class on the way; iterative, so any order works
        memo, counts, path = self._cylinders, list(i), []
        t, p = self.K - 1, None
        while p is None:
            while not counts[t]:
                t -= 1
            counts[t] -= 1
            path.append(t)
            p = memo.get(tuple(counts))
        for t in reversed(path):
            p *= self._predictive(counts, t)
            counts[t] += 1
            memo[tuple(counts)] = p
        return p


@dataclass(frozen=True)
class IID(_Law):
    """Independent draws from a fixed strictly positive distribution p."""

    family: ClassVar[str] = "iid"
    params: ClassVar[tuple[_Rational, ...]] = (_Vector("p"),)

    p: tuple[Rational, ...]

    def __post_init__(self) -> None:
        p = _rational_vector(self.p)
        object.__setattr__(self, "p", p)
        if len(p) < 2:
            raise ValueError("IID needs at least two colors")
        if any(x <= 0 for x in p):
            raise ValueError("IID probabilities must be strictly positive")
        if sum(p) != 1:
            raise ValueError("IID probabilities must sum to 1")
        super().__post_init__()

    @property
    def K(self) -> int:
        return len(self.p)

    def _predictive(self, i: Sequence[int], j: int) -> Rational:
        return self.p[j]


@dataclass(frozen=True)
class Polya(_Law):
    """Dirichlet-directed exchangeable law with positive weights alpha."""

    family: ClassVar[str] = "polya"
    params: ClassVar[tuple[_Rational, ...]] = (_Vector("alpha"),)

    alpha: tuple[Rational, ...]
    _alpha_sum: Rational = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alpha = _rational_vector(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if len(alpha) < 2:
            raise ValueError("Polya needs at least two colors")
        if any(x <= 0 for x in alpha):
            raise ValueError("Polya weights must be strictly positive")
        object.__setattr__(self, "_alpha_sum", sum(alpha))
        super().__post_init__()

    @property
    def K(self) -> int:
        return len(self.alpha)

    def _predictive(self, i: Sequence[int], j: int) -> Rational:
        return (self.alpha[j] + i[j]) / (self._alpha_sum + sum(i))


@dataclass(frozen=True)
class HLS(_Law):
    """K-color law whose directing measure sits on a curve in the simplex.

    The first coordinate carries a Beta(pi, nu) weight theta; colors
    2..K-1 receive fixed shares alpha_1..alpha_{K-2} of 1-theta and color
    K the remaining (1 - sum alpha) share.  Needs K >= 3 and sum alpha < 1.
    """

    family: ClassVar[str] = "hls"
    params: ClassVar[tuple[_Rational, ...]] = (_Integer("K"), _Rational("pi"),
                                               _Rational("nu"), _Vector("alpha"))

    K: int
    pi: Rational
    nu: Rational
    alpha: tuple[Rational, ...]
    _pi_nu: Rational = field(init=False, repr=False, compare=False)
    _shares: tuple[Rational, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.K, int) or self.K < 3:
            raise ValueError("HLS needs an integer K >= 3")
        object.__setattr__(self, "pi", parse_rational(self.pi))
        object.__setattr__(self, "nu", parse_rational(self.nu))
        alpha = _rational_vector(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if self.pi <= 0 or self.nu <= 0:
            raise ValueError("HLS needs pi > 0 and nu > 0")
        if len(alpha) != self.K - 2:
            raise ValueError(f"HLS with K={self.K} needs exactly {self.K - 2} alpha entries")
        if any(a <= 0 for a in alpha):
            raise ValueError("HLS alpha entries must be strictly positive")
        if sum(alpha) >= 1:
            raise ValueError("HLS needs sum(alpha) < 1")
        object.__setattr__(self, "_pi_nu", self.pi + self.nu)
        object.__setattr__(self, "_shares", (*alpha, 1 - sum(alpha)))
        super().__post_init__()

    def _predictive(self, i: Sequence[int], j: int) -> Rational:
        n = sum(i)
        if j == 0:
            return (self.pi + i[0]) / (self._pi_nu + n)
        return self._shares[j - 1] * (self.nu + n - i[0]) / (self._pi_nu + n)


@dataclass(frozen=True)
class MixtureIID(_Law):
    """Finite mixture of IID laws with positive weights summing to 1."""

    family: ClassVar[str] = "mixture"
    params: ClassVar[tuple[_Rational, ...]] = (_Vector("w", "weights"),
                                               _Indexed("p", "components"))

    weights: tuple[Rational, ...]
    components: tuple[tuple[Rational, ...], ...]
    # the weights and the components' entries as integer numerators, one
    # (weight, entries) pair per component, over one denominator of each kind
    _terms: tuple[tuple[int, tuple[int, ...]], ...] = field(init=False, repr=False, compare=False)
    _dens: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        weights = _rational_vector(self.weights)
        components = tuple(_rational_vector(c) for c in self.components)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", components)
        if not components:
            raise ValueError("MixtureIID needs at least one component")
        if len(weights) != len(components):
            raise ValueError("MixtureIID needs one weight per component")
        if any(w <= 0 for w in weights):
            raise ValueError("MixtureIID weights must be strictly positive")
        if sum(weights) != 1:
            raise ValueError("MixtureIID weights must sum to 1")
        if any(len(c) != len(components[0]) for c in components):
            raise ValueError("MixtureIID components must share one alphabet")
        for c in components:
            IID(c)  # each component is a valid IID law
        ws, w_den = _common_denominator(weights)
        ps, p_den = _common_denominator(x for c in components for x in c)
        rows = (tuple(ps[t:t + self.K]) for t in range(0, len(ps), self.K))
        object.__setattr__(self, "_terms", tuple(zip(ws, rows)))
        object.__setattr__(self, "_dens", (w_den, p_den))
        super().__post_init__()

    @property
    def K(self) -> int:
        return len(self.components[0])

    def _fill(self, i: tuple[int, ...]) -> Rational:
        # sum_r w_r prod_j p_rj^(i_j) on integers, then one Fraction
        num = sum(w * math.prod(map(pow, row, i)) for w, row in self._terms)
        w_den, p_den = self._dens
        p = self._cylinders[i] = Fraction(num, w_den * p_den ** sum(i))
        return p


ExchangeableLaw = Union[IID, Polya, HLS, MixtureIID]

_FAMILIES: dict[str, type] = {cls.family: cls for cls in (IID, Polya, HLS, MixtureIID)}


# Uncalled: the helpers below read law.cylinder, so no dropped law stays
# alive here.  It stays defined because the benchmark's trace mode and its
# CI smoke run still read its cache_info(); it goes when they move onto
# counters of the law's own memo.
@lru_cache(maxsize=None)
def _cylinder(law: ExchangeableLaw, i: Composition) -> Rational:
    return law.cylinder(i)


def _as_composition(law: ExchangeableLaw, i: Sequence[int]) -> Composition:
    comp = i if isinstance(i, Composition) else Composition(i)
    if comp.colors != law.K:
        raise ValueError(f"composition has {comp.colors} colors, law has {law.K}")
    return comp


def cylinder_prob(law: ExchangeableLaw, i: Sequence[int]) -> Rational:
    """P_n(i): probability of any single sequence with color counts i."""
    return law.cylinder(_as_composition(law, i))


def class_prob(law: ExchangeableLaw, i: Sequence[int]) -> Rational:
    """Probability of the whole class: multinomial(n; i) * P_n(i)."""
    comp = _as_composition(law, i)
    return class_size(comp) * law.cylinder(comp)


@dataclass(frozen=True)
class ConsistencyReport:
    law_spec: str
    n_max: int
    passed: bool
    failure: Optional[dict]

    def to_jsonable(self) -> dict:
        return {
            "schema_version": 1,
            "law": self.law_spec,
            "n_max": self.n_max,
            "passed": self.passed,
            "failure": self.failure,
        }


def check_consistency(law: ExchangeableLaw, n_max: int) -> ConsistencyReport:
    """Exact sweep of positivity, Kolmogorov consistency, and normalization.

    For every n <= n_max: P_n(i) > 0 on all classes, P_n(i) equals the sum
    of P_{n+1}(i + e_j) over colors, and the class probabilities sum to 1.
    Stops at the first counterexample.
    """
    if n_max < 1:
        raise ValueError("check_consistency needs n_max >= 1")
    spec = format_law(law)

    def fail(kind: str, n: int, comp: Optional[Composition], detail: str) -> ConsistencyReport:
        failure = {
            "check": kind,
            "n": n,
            "composition": list(comp) if comp is not None else None,
            "detail": detail,
        }
        return ConsistencyReport(spec, n_max, False, failure)

    cylinder = law.cylinder
    for n in range(1, n_max + 1):
        total = Fraction(0)
        for i in compositions(n, law.K):
            p = cylinder(i)
            if p <= 0:
                return fail("positivity", n, i, format_rational(p))
            total += class_size(i) * p
            extended = sum(
                (cylinder(i.increment(j)) for j in range(law.K)),
                Fraction(0),
            )
            if extended != p:
                return fail(
                    "kolmogorov", n, i,
                    f"{format_rational(p)} != {format_rational(extended)}",
                )
        if total != 1:
            return fail("normalization", n, None, format_rational(total))
    return ConsistencyReport(spec, n_max, True, None)


# law-spec grammar: "family:key=v1,v2,...;key=..." with rational values


def _tokenize(family: str, body: str) -> list[tuple[str, list[str]]]:
    pairs: list[tuple[str, list[str]]] = []
    if family == "hls":
        # hls uses "," both to separate parameters and inside alpha, so
        # split on key boundaries instead of raw commas.
        for piece in body.split(","):
            key, eq, raw = piece.partition("=")
            if eq:
                pairs.append((key.strip(), [raw.strip()] if raw.strip() else []))
            elif pairs and piece.strip():
                pairs[-1][1].append(piece.strip())
            else:
                raise ValueError(f"malformed hls parameter near {piece!r}")
        return pairs
    for segment in body.split(";"):
        segment = segment.strip()
        if not segment:
            continue
        key, eq, raw = segment.partition("=")
        if not eq:
            raise ValueError(f"malformed law parameter {segment!r}")
        pairs.append((key.strip(), [v.strip() for v in raw.split(",") if v.strip()]))
    return pairs


def parse_law(text: str) -> ExchangeableLaw:
    """Parse a law spec string through its JSON form.

    Grammar: ``iid:p=1/2,1/3,1/6`` | ``polya:alpha=1,2,3`` |
    ``hls:K=3,pi=1,nu=2,alpha=1/2`` |
    ``mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2``.
    """
    family, sep, body = text.strip().partition(":")
    family = family.strip().lower()
    if not sep:
        raise ValueError(f"law spec {text!r} is missing the family prefix")
    cls = _FAMILIES.get(family)
    fields = {field.key: field for field in cls.params} if cls else {}
    obj: dict = {"family": family}
    for key, tokens in _tokenize(family, body):
        if key in obj:
            raise ValueError(f"duplicate law parameter {key!r}")
        obj[key] = fields[key].from_tokens(tokens) if key in fields else tokens
    return law_from_jsonable(obj)


def _fields(law: ExchangeableLaw) -> list[tuple[str, _Rational, object]]:
    return [(key, field, value) for field in law.params
            for key, value in field.items(getattr(law, field.attr))]


def format_law(law: ExchangeableLaw) -> str:
    """Canonical law spec string; parse_law(format_law(law)) == law."""
    sep = "," if law.family == "hls" else ";"  # the hls split in _tokenize
    return f"{law.family}:" + sep.join(f"{k}={f.spec(v)}" for k, f, v in _fields(law))


def law_to_jsonable(law: ExchangeableLaw) -> dict:
    """JSON form mirroring the inline law-string grammar, one field per
    parameter."""
    return {"family": law.family, **{k: f.dump(v) for k, f, v in _fields(law)}}


def law_from_jsonable(obj: dict) -> ExchangeableLaw:
    """The one validator of law input: every declared field present with
    its JSON type (booleans are never numbers), no unknown keys."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValueError("law JSON must be an object with a 'family' field")
    family = obj["family"]
    cls = _FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ValueError(f"unknown law family {family!r}")
    rest = {key: value for key, value in obj.items() if key != "family"}
    args = {field.attr: field.take(rest) for field in cls.params}
    if rest:
        raise ValueError(f"unknown {family} law fields {list(rest)}")
    return cls(**args)


def _read_json_file(path: str, noun: str):
    """The JSON value in ``path``; an unreadable or malformed file, or one
    with a key repeated inside an object, raises a ValueError that names the
    ``noun`` file."""

    def without_repeats(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"{noun} file {path} repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=without_repeats)
    except OSError as exc:
        raise ValueError(f"cannot read {noun} file {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{noun} file {path} is not valid JSON: {exc}") from exc


def load_law_file(path: str) -> ExchangeableLaw:
    return law_from_jsonable(_read_json_file(path, "law"))
