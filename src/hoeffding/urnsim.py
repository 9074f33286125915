"""Seeded simulation of K-color reinforced urns.

Three urn functions map the current ball counts to integer weights for the
next draw: the counts (classical reinforcement), a constant vector (i.i.d.
draws), and the two-parameter family whose non-first colors share the
complement of the first proportion in fixed ratios.  A draw cuts a SHA-256
counter uniform at the cumulative weights reduced by their gcd, which are
the exact rational thresholds of the drawn probabilities, so a (seed,
sample, step) triple always yields the same color on every platform and
under any execution order.  A state's cut (those thresholds, their total
and the counter's rejection limit) depends on the counts alone, so
`empirical_cylinder` computes each state's cut once and shares it across
all of its samples.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Sequence, Union

from .exactnum import Composition, Rational, RationalLike, compositions, parse_rational
from .exactnum import _common_denominator
from .laws import HLS, IID, ExchangeableLaw, Polya

__all__ = [
    "UrnState",
    "IdentityUrn",
    "ConstantUrn",
    "HLSUrn",
    "UrnFunction",
    "simulate",
    "EmpiricalCell",
    "empirical_cylinder",
    "within_four_sigma",
]


@dataclass(frozen=True)
class UrnState:
    """Ball counts per color.  Individual colors may start empty, but the
    urn itself must not be; counts only ever grow by one per draw."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        if len(counts) < 2:
            raise ValueError("an urn needs at least two colors")
        if any(c < 0 for c in counts):
            raise ValueError(f"counts must be non-negative, got {counts}")
        if sum(counts) < 1:
            raise ValueError("the urn must contain at least one ball")
        object.__setattr__(self, "counts", counts)


class _Cut(NamedTuple):
    """The integers one draw from a state compares a counter value with."""

    # W / g: the total weight W over the gcd g of the weights
    bound: int
    # the largest multiple of bound that is at most 2**256; counter values
    # at or above it are redrawn, which keeps value % bound uniform
    limit: int
    # the cumulative reduced weights (w_1 + ... + w_j) / g
    thresholds: tuple[int, ...]


_SPACE = 1 << 256


def _cut(weights: Sequence[int]) -> _Cut:
    # the reduced w_j / W have lcm denominator W / g and numerators w_j / g
    # over it: the exact rational thresholds of the drawn probabilities
    g = math.gcd(*weights)
    thresholds = tuple(accumulate(w // g for w in weights))
    bound = thresholds[-1]
    return _Cut(bound, _SPACE - _SPACE % bound, thresholds)


class _Urn:
    """The draw thresholds of an urn function, from its integer weights.
    Each family's ``law(counts)`` is the exact law of its draws from counts."""

    def cut(self, counts: Sequence[int]) -> _Cut:
        """The thresholds of the next draw from ``counts``."""
        return _cut(self.weights(counts))


@dataclass(frozen=True)
class IdentityUrn(_Urn):
    """Draw proportional to current counts (classical reinforcement)."""

    def weights(self, counts: Sequence[int]) -> Sequence[int]:
        return counts

    def law(self, counts: Sequence[int]) -> ExchangeableLaw:
        return Polya(counts)


@dataclass(frozen=True)
class ConstantUrn(_Urn):
    """Draw from a fixed distribution regardless of state: i.i.d. colors."""

    p: tuple[Rational, ...]
    _weights: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # the one cut of every state, fixed with the weights
    _fixed_cut: _Cut = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = tuple(parse_rational(x) for x in self.p)
        if len(p) < 2:
            raise ValueError("need at least two colors")
        if any(x < 0 for x in p):
            raise ValueError("probabilities must be non-negative")
        if sum(p) != 1:
            raise ValueError("probabilities must sum to 1 exactly")
        object.__setattr__(self, "p", p)
        weights = tuple(_common_denominator(p)[0])
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_fixed_cut", _cut(weights))

    def weights(self, counts: Sequence[int]) -> Sequence[int]:
        return self._weights

    def cut(self, counts: Sequence[int]) -> _Cut:
        return self._fixed_cut

    def law(self, counts: Sequence[int]) -> ExchangeableLaw:
        return IID(self.p)


@dataclass(frozen=True)
class HLSUrn(_Urn):
    """First color reinforces itself with its own proportion y_1; the
    remaining colors share 1 - y_1 in the fixed ratios alpha_1, ...,
    alpha_{K-2}, 1 - sum(alpha)."""

    alpha: tuple[Rational, ...]
    # D, the lcm of the alpha denominators (1 - sum(alpha) adds no new
    # factor), and alpha_t D, (1 - sum(alpha)) D
    _scale: int = field(init=False, repr=False, compare=False)
    _shares: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alpha = tuple(parse_rational(x) for x in self.alpha)
        if not alpha:
            raise ValueError("need at least one ratio (three colors)")
        if any(a <= 0 for a in alpha):
            raise ValueError("ratios must be positive")
        if sum(alpha) >= 1:
            raise ValueError("ratios must sum to less than 1")
        object.__setattr__(self, "alpha", alpha)
        shares, scale = _common_denominator((*alpha, 1 - sum(alpha)))
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_shares", tuple(shares))

    def weights(self, counts: Sequence[int]) -> Sequence[int]:
        # the probabilities (y_1, alpha_t (1 - y_1), ...) times D * sum(counts)
        rest = sum(counts) - counts[0]
        return (counts[0] * self._scale, *(s * rest for s in self._shares))

    def law(self, counts: Sequence[int]) -> ExchangeableLaw:
        return HLS(len(self.alpha) + 2, counts[0], sum(counts) - counts[0], self.alpha)


UrnFunction = Union[IdentityUrn, ConstantUrn, HLSUrn]


class _CutTable:
    """An urn function that computes each state's cut once.  One table
    serves every trajectory of one `empirical_cylinder` call, which visits
    at most C(n + K - 1, K) states; a single trajectory never revisits a
    state, so `simulate` alone keeps no table."""

    def __init__(self, fn: UrnFunction) -> None:
        self._fn = fn
        self._cuts: dict[tuple[int, ...], _Cut] = {}

    def cut(self, counts: Sequence[int]) -> _Cut:
        key = tuple(counts)
        try:
            return self._cuts[key]
        except KeyError:
            made = self._cuts[key] = self._fn.cut(counts)
            return made


def _draw(cut: _Cut, prefix: str, step: int) -> int:
    # the counter value for nonce 0, 1, ... until one falls below the
    # rejection limit; its residue mod the bound picks the first color
    # whose cumulative threshold exceeds it
    bound, limit, thresholds = cut
    nonce = 0
    while True:
        digest = hashlib.sha256(f"{prefix}{step}|{nonce}".encode()).digest()
        value = int.from_bytes(digest, "big")
        if value < limit:
            return bisect_right(thresholds, value % bound)
        nonce += 1


def simulate(
    initial: UrnState,
    fn: UrnFunction,
    steps: int,
    seed: int,
    sample_index: int = 0,
) -> list[int]:
    """Run one urn trajectory; returns the drawn color indices (0-based).

    Deterministic in (initial, fn, steps, seed, sample_index); the sample
    index keys independent replications off one seed.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    counts = list(initial.counts)
    cut = fn.cut(counts)  # the first draw's, checked here
    if (emitted := len(cut.thresholds)) != len(counts):
        raise ValueError(f"urn function emits {emitted} colors, state has {len(counts)}")
    prefix = f"{seed}|{sample_index}|"
    out = []
    for step in range(steps):
        j = _draw(fn.cut(counts) if step else cut, prefix, step)
        out.append(j)
        counts[j] += 1
    return out


@dataclass(frozen=True)
class EmpiricalCell:
    count: int
    estimate: Fraction
    stderr: float


def empirical_cylinder(
    initial: UrnState, fn: UrnFunction, n: int, samples: int, seed: int
) -> dict[Composition, EmpiricalCell]:
    """Monte Carlo estimate of every class probability at length n.

    Simulates `samples` independent prefixes and tallies count vectors;
    the estimate for a class is its relative frequency and the reported
    standard error is the binomial one at the estimated rate.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    table = _CutTable(fn)
    colors = len(initial.counts)
    tallies: dict[tuple[int, ...], int] = {}
    for s in range(samples):
        seq = simulate(initial, table, n, seed, sample_index=s)
        key = tuple([seq.count(j) for j in range(colors)])
        tallies[key] = tallies.get(key, 0) + 1
    out = {}
    for comp in compositions(n, colors):
        count = tallies.get(comp, 0)
        estimate = Fraction(count, samples)
        stderr = math.sqrt(float(estimate) * (1.0 - float(estimate)) / samples)
        out[comp] = EmpiricalCell(count, estimate, stderr)
    return out


def within_four_sigma(count: int, samples: int, exact: RationalLike) -> bool:
    """Exact-rational binomial sanity check: is the observed frequency
    within four standard errors (at the exact rate) of the exact value?"""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    p = parse_rational(exact)
    if not 0 <= p <= 1:
        raise ValueError("exact probability must lie in [0, 1]")
    phat = Fraction(count, samples)
    return (phat - p) ** 2 * samples <= 16 * p * (1 - p)
