"""Exchangeable sequence laws over a finite alphabet.

Each family exposes the exact cylinder probability P_n(i): the probability
of observing any single length-n sequence whose color counts equal the
composition i (the law of an exchangeable sequence is constant on such
classes).  Families:

  IID(p)            product law, P_n(i) = prod_j p_j^(i_j)
  Polya(alpha)      Dirichlet-multinomial,
                    P_n(i) = prod_j rising(alpha_j, i_j) / rising(sum alpha, n)
  HLS(K,pi,nu,a)    first color driven by a Beta(pi,nu) weight, the other
                    colors splitting the remainder in fixed proportions
                    a_1..a_{K-2}, sum a < 1:
                    P_n(i) = prod_t a_t^(i_{t+1}) * (1-sum a)^(i_K)
                             * B(pi+i_1, nu+n-i_1) / B(pi, nu)
  MixtureIID        finite mixture of IID laws

All parameters are rational and every probability is an exact Fraction.
Colors are indexed 0..K-1 throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar, Optional, Sequence, Union

from .exactnum import (
    Composition,
    Rational,
    RationalLike,
    beta_ratio,
    class_size,
    compositions,
    format_rational,
    multinomial,
    parse_rational,
    rising_factorial,
)

__all__ = [
    "IID",
    "Polya",
    "HLS",
    "MixtureIID",
    "ExchangeableLaw",
    "cylinder_prob",
    "class_prob",
    "predictive_prob",
    "conditional_block_prob",
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


class _Factors(dict):
    """fn(*args, *key) per key, each computed on its first lookup: one factor
    of a law's cylinder formula, or P(i) itself.  Laws keep it in a field
    outside ==, hash and repr, so a filled cache changes nothing but speed."""

    def __init__(self, fn, *args) -> None:
        super().__init__()
        self.fn, self.args = fn, args

    def __missing__(self, key: tuple) -> Rational:
        value = self[key] = self.fn(*self.args, *key)
        return value


def _power(bases: Sequence[Rational], t: int, e: int) -> Rational:
    return bases[t] ** e


def _rising(bases: Sequence[Rational], t: int, e: int) -> Rational:
    return rising_factorial(bases[t], e)


def _beta_moment(pi: Rational, nu: Rational, a: int, n: int) -> Rational:
    # E[theta^a (1 - theta)^(n - a)] for theta ~ Beta(pi, nu)
    return beta_ratio(pi, nu, a, n - a)


def _product(factors: _Factors, i: Sequence[int]) -> Rational:
    """prod_t factors[t, i_t]."""
    out = Fraction(1)
    for key in enumerate(i):
        out *= factors[key]
    return out


class _Law:
    """A family's P_n(i), memoized per count tuple i in its _cylinders, a
    _Factors of its _formula: every caller of one law shares one memo."""

    def cylinder(self, i: tuple[int, ...]) -> Rational:
        return self._cylinders[i]


@dataclass(frozen=True)
class IID(_Law):
    """Independent draws from a fixed strictly positive distribution p."""

    family: ClassVar[str] = "iid"
    params: ClassVar[tuple[_Rational, ...]] = (_Vector("p"),)

    p: tuple[Rational, ...]
    # p_t^e per (t, e)
    _powers: _Factors = field(init=False, repr=False, compare=False)
    _cylinders: _Factors = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = _rational_vector(self.p)
        object.__setattr__(self, "p", p)
        if len(p) < 2:
            raise ValueError("IID needs at least two colors")
        if any(x <= 0 for x in p):
            raise ValueError("IID probabilities must be strictly positive")
        if sum(p) != 1:
            raise ValueError("IID probabilities must sum to 1")
        object.__setattr__(self, "_powers", _Factors(_power, p))
        object.__setattr__(self, "_cylinders", _Factors(self._formula))

    @property
    def K(self) -> int:
        return len(self.p)

    def _formula(self, *i: int) -> Rational:
        return _product(self._powers, i)


@dataclass(frozen=True)
class Polya(_Law):
    """Dirichlet-directed exchangeable law with positive weights alpha."""

    family: ClassVar[str] = "polya"
    params: ClassVar[tuple[_Rational, ...]] = (_Vector("alpha"),)

    alpha: tuple[Rational, ...]
    # rising(alpha_j, e) per (j, e) and rising(sum alpha, N) per (K, N)
    _risings: _Factors = field(init=False, repr=False, compare=False)
    _cylinders: _Factors = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alpha = _rational_vector(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if len(alpha) < 2:
            raise ValueError("Polya needs at least two colors")
        if any(x <= 0 for x in alpha):
            raise ValueError("Polya weights must be strictly positive")
        object.__setattr__(self, "_risings", _Factors(_rising, (*alpha, sum(alpha))))
        object.__setattr__(self, "_cylinders", _Factors(self._formula))

    @property
    def K(self) -> int:
        return len(self.alpha)

    def _formula(self, *i: int) -> Rational:
        return _product(self._risings, i) / self._risings[self.K, sum(i)]


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
    # the Beta moment per (i_1, N), and share_t^e per (t, e) for the shares
    # alpha_1, ..., alpha_{K-2}, 1 - sum(alpha) of colors 2..K
    _moments: _Factors = field(init=False, repr=False, compare=False)
    _powers: _Factors = field(init=False, repr=False, compare=False)
    _cylinders: _Factors = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_moments", _Factors(_beta_moment, self.pi, self.nu))
        object.__setattr__(self, "_powers", _Factors(_power, (*alpha, 1 - sum(alpha))))
        object.__setattr__(self, "_cylinders", _Factors(self._formula))

    def _formula(self, *i: int) -> Rational:
        return self._moments[i[0], sum(i)] * _product(self._powers, i[1:])


@dataclass(frozen=True)
class MixtureIID(_Law):
    """Finite mixture of IID laws with positive weights summing to 1."""

    family: ClassVar[str] = "mixture"
    params: ClassVar[tuple[_Rational, ...]] = (_Vector("w", "weights"),
                                               _Indexed("p", "components"))

    weights: tuple[Rational, ...]
    components: tuple[tuple[Rational, ...], ...]
    # p_t^e per (t, e), one cache per component
    _powers: tuple[_Factors, ...] = field(init=False, repr=False, compare=False)
    _cylinders: _Factors = field(init=False, repr=False, compare=False)

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
        k = len(components[0])
        for comp in components:
            if len(comp) != k:
                raise ValueError("MixtureIID components must share one alphabet")
            if len(comp) < 2 or any(x <= 0 for x in comp) or sum(comp) != 1:
                raise ValueError("each MixtureIID component must be a valid IID vector")
        object.__setattr__(self, "_powers", tuple(_Factors(_power, p) for p in components))
        object.__setattr__(self, "_cylinders", _Factors(self._formula))

    @property
    def K(self) -> int:
        return len(self.components[0])

    def _formula(self, *i: int) -> Rational:
        terms = (w * _product(powers, i) for w, powers in zip(self.weights, self._powers))
        return sum(terms, Fraction(0))


ExchangeableLaw = Union[IID, Polya, HLS, MixtureIID]

_FAMILIES: dict[str, type] = {cls.family: cls for cls in (IID, Polya, HLS, MixtureIID)}


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
    return _cylinder(law, _as_composition(law, i))


def class_prob(law: ExchangeableLaw, i: Sequence[int]) -> Rational:
    """Probability of the whole class: multinomial(n; i) * P_n(i)."""
    comp = _as_composition(law, i)
    return class_size(comp) * _cylinder(law, comp)


def predictive_prob(law: ExchangeableLaw, h: Sequence[int], j: int) -> Rational:
    """P(next draw is color j | counts so far are h) = P(h + e_j) / P(h)."""
    comp = _as_composition(law, h)
    ph = _cylinder(law, comp)
    if ph == 0:
        raise ValueError("conditioning class has zero probability")
    return _cylinder(law, comp.increment(j)) / ph


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
    pa = _cylinder(law, ca)
    if pa == 0:
        raise ValueError("conditioning class has zero probability")
    head = law.K - 1
    diffs = tuple(cb[p] - ca[p] for p in range(head))
    if any(d < 0 for d in diffs) or sum(diffs) > u - 1:
        return Fraction(0)
    return multinomial(u - 1, diffs) * _cylinder(law, cb) / pa


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
