"""Seeded simulation of K-color reinforced urns.

Three urn functions map the current ball counts to integer weights for the
next draw: the counts (classical reinforcement), a constant vector (i.i.d.
draws), and the two-parameter family whose non-first colors share the
complement of the first proportion in fixed ratios.  A draw cuts a SHA-256
counter uniform at the cumulative weights reduced by their gcd, which are
the exact rational thresholds of the drawn probabilities, so a (seed,
sample, step) triple always yields the same color on every platform and
under any execution order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

from .exactnum import Composition, Rational, RationalLike, compositions, parse_rational
from .exactnum import _common_denominator

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


@dataclass(frozen=True)
class IdentityUrn:
    """Draw proportional to current counts (classical reinforcement)."""

    def weights(self, counts: Sequence[int]) -> Sequence[int]:
        return counts


@dataclass(frozen=True)
class ConstantUrn:
    """Draw from a fixed distribution regardless of state: i.i.d. colors."""

    p: tuple[Rational, ...]
    _weights: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = tuple(parse_rational(x) for x in self.p)
        if len(p) < 2:
            raise ValueError("need at least two colors")
        if any(x < 0 for x in p):
            raise ValueError("probabilities must be non-negative")
        if sum(p) != 1:
            raise ValueError("probabilities must sum to 1 exactly")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_weights", tuple(_common_denominator(p)[0]))

    def weights(self, counts: Sequence[int]) -> Sequence[int]:
        return self._weights


@dataclass(frozen=True)
class HLSUrn:
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


UrnFunction = Union[IdentityUrn, ConstantUrn, HLSUrn]


def _counter_uniform(seed: int, sample: int, step: int, bound: int) -> int:
    # uniform in [0, bound) from a hash counter; rejection keeps it unbiased
    if bound < 1:
        raise ValueError("bound must be positive")
    space = 1 << 256
    limit = space - (space % bound)
    nonce = 0
    while True:
        digest = hashlib.sha256(f"{seed}|{sample}|{step}|{nonce}".encode()).digest()
        value = int.from_bytes(digest, "big")
        if value < limit:
            return value % bound
        nonce += 1


def _draw(weights: Sequence[int], seed: int, sample: int, step: int) -> int:
    # the reduced w_j / W have lcm denominator W / g (g the gcd of the
    # weights) and numerators w_j / g over it: the exact rational thresholds
    g = math.gcd(*weights)
    r = _counter_uniform(seed, sample, step, sum(weights) // g)
    acc = 0
    for j, w in enumerate(weights):
        acc += w // g
        if r < acc:
            return j
    raise AssertionError("unreachable: the weights sum to the bound")


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
    if (emitted := len(fn.weights(counts))) != len(counts):
        raise ValueError(f"urn function emits {emitted} colors, state has {len(counts)}")
    out = []
    for step in range(steps):
        j = _draw(fn.weights(counts), seed, sample_index, step)
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
    colors = len(initial.counts)
    tallies: dict[Composition, int] = {}
    for s in range(samples):
        seq = simulate(initial, fn, n, seed, sample_index=s)
        counts = [0] * colors
        for j in seq:
            counts[j] += 1
        comp = Composition(counts)
        tallies[comp] = tallies.get(comp, 0) + 1
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
