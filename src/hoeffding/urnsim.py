"""Seeded simulation of K-color reinforced urns.

Three urn functions map the current ball counts to integer weights for the
next draw: the counts (classical reinforcement), a constant vector (i.i.d.
draws), and the two-parameter family whose non-first colors share the
complement of the first proportion in fixed ratios.  A draw cuts a SHA-256
counter uniform at the cumulative weights reduced by their gcd, which are
the exact rational thresholds of the drawn probabilities, so a (seed,
sample, step) triple always yields the same color on every platform and
under any execution order.  A state's cut (those thresholds, their total
and the counter's rejection limit) depends on the counts alone.
`empirical_cylinder` walks a graph of urn states, one node per count
vector, with each state's cut made on the first draw from it and the
state each drawn color leads to linked on first use; a sample is one walk
from the initial state, and its class is where the walk ends.  A single
`simulate` trajectory never revisits a state, so it keeps no graph.  Both
run the same draw loop.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .exactnum import Composition, Rational, RationalLike, compositions, parse_rational
from .exactnum import _common_denominator
from .laws import HLS, IID, ExchangeableLaw, Polya

try:
    # CPython's own SHA-256 (_sha2 from 3.12, _sha256 before): on messages
    # this short OpenSSL's per-call set-up dominates, and one hash takes
    # 0.34 against 0.67 us (Python 3.11, Xeon).  The digests are the same
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:  # a build without CPython's own hashes
        from hashlib import sha256 as _sha256

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
    thresholds = tuple(accumulate(weights if g == 1 else [w // g for w in weights]))
    bound = thresholds[-1]
    # tuple.__new__ skips the NamedTuple's Python-level __new__, about a
    # tenth of the cost of a cut
    return tuple.__new__(_Cut, (bound, _SPACE - _SPACE % bound, thresholds))


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
        return (counts[0] * self._scale, *[s * rest for s in self._shares])

    def law(self, counts: Sequence[int]) -> ExchangeableLaw:
        return HLS(len(self.alpha) + 2, counts[0], sum(counts) - counts[0], self.alpha)


UrnFunction = Union[IdentityUrn, ConstantUrn, HLSUrn]


class _Node:
    """One urn state of a walk: its counts, its cut once a draw is made
    from it, and the state each drawn color leads to once linked."""

    __slots__ = ("counts", "cut", "children")

    def __init__(self, counts: Sequence[int], children: Sequence[_Node | None]) -> None:
        self.counts = counts
        self.cut: _Cut | None = None
        self.children = children


def _walk(
    node: _Node, fn: UrnFunction, prefix: bytes, tails: Iterable[bytes],
    child: Callable[[_Node, int], _Node],
) -> _Node:
    # the one draw loop.  Step k hashes prefix + f"{k}|{nonce}" for nonce
    # 0, 1, ... until the counter value falls below the state's rejection
    # limit; the k-th tail is the nonce-0 end, f"{k}|0".  The value's residue
    # mod the bound picks the first color whose cumulative threshold
    # exceeds it; a color not yet linked from the state asks child(node, j)
    sha256, from_bytes = _sha256, int.from_bytes
    for step, tail in enumerate(tails):
        cut = node.cut
        if cut is None:
            cut = node.cut = fn.cut(node.counts)
        bound, limit, thresholds = cut
        message = prefix + tail
        nonce = 0
        while (value := from_bytes(sha256(message).digest(), "big")) >= limit:
            nonce += 1
            message = prefix + b"%d|%d" % (step, nonce)
        j = bisect_right(thresholds, value % bound)
        node = node.children[j] or child(node, j)
    return node


def _tails(steps: int) -> Iterable[bytes]:
    # the nonce-0 ends f"{k}|0" of steps 0, ..., steps - 1, made lazily
    return map(b"%d|0".__mod__, range(steps))


def _check_colors(node: _Node, fn: UrnFunction) -> None:
    # the first draw's cut, made here to check the urn function's colors
    node.cut = fn.cut(node.counts)
    if (emitted := len(node.cut.thresholds)) != len(node.counts):
        raise ValueError(f"urn function emits {emitted} colors, state has {len(node.counts)}")


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
    # a lone trajectory never revisits a state, so it keeps no graph: its
    # one node links no color and moves to each next state in place
    counts = list(initial.counts)
    node = _Node(counts, (None,) * len(counts))
    _check_colors(node, fn)
    out: list[int] = []

    def advance(node: _Node, j: int) -> _Node:
        out.append(j)
        counts[j] += 1
        node.cut = None
        return node

    _walk(node, fn, f"{seed}|{sample_index}|".encode(), _tails(steps), advance)
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
    # the state graph: one node per counts, so a state two paths reach is
    # one node, cut once; the call makes at most C(n + K, K) nodes
    nodes: dict[tuple[int, ...], _Node] = {}

    def child(node: _Node, j: int) -> _Node:
        counts = node.counts
        key = (*counts[:j], counts[j] + 1, *counts[j + 1:])
        made = nodes.get(key)
        if made is None:
            made = nodes[key] = _Node(key, [None] * len(key))
        node.children[j] = made
        return made

    root = _Node(initial.counts, [None] * len(initial.counts))
    _check_colors(root, fn)
    # one walk per sample; its class is the final state's counts minus
    # the initial counts
    finals: dict[_Node, int] = {}
    tails = list(_tails(n))
    for s in range(samples):
        node = _walk(root, fn, f"{seed}|{s}|".encode(), tails, child)
        finals[node] = finals.get(node, 0) + 1
    tallies = {
        tuple([c - c0 for c, c0 in zip(node.counts, initial.counts)]): count
        for node, count in finals.items()
    }
    out = {}
    for comp in compositions(n, len(initial.counts)):
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
