"""Urn simulation: state validation, the integer weights of the three urn
functions, the integer draw against exact rational thresholds, the walks
of `simulate` and `empirical_cylinder` (per-state cuts, a shared state
graph) against a copy of the draw that rebuilt the cut each step,
determinism of the hash-counter draws, the memory of a lone trajectory,
and frequency agreement with exact class probabilities at loose Monte
Carlo tolerances."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hoeffding import urnsim
from hoeffding.exactnum import compositions
from hoeffding.laws import class_prob, cylinder_prob, parse_law
from hoeffding.urnsim import (
    ConstantUrn,
    EmpiricalCell,
    HLSUrn,
    IdentityUrn,
    UrnState,
    _cut,
    empirical_cylinder,
    simulate,
    within_four_sigma,
)


class TestUrnState:
    def test_basics(self):
        state = UrnState([1, 2, 0])
        assert state.counts == (1, 2, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            UrnState((3,))
        with pytest.raises(ValueError):
            UrnState((1, -1))
        with pytest.raises(ValueError):
            UrnState((0, 0))


def ratios(weights):
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


class TestUrnFunctions:
    def test_identity_weights_are_the_counts(self):
        assert tuple(IdentityUrn().weights((1, 2, 3))) == (1, 2, 3)

    def test_constant_ignores_state(self):
        urn = ConstantUrn(("1/2", "1/3", "1/6"))
        for counts in ((1, 1, 1), (9, 1, 2)):
            assert urn.weights(counts) == (3, 2, 1)
            assert ratios(urn.weights(counts)) == (
                Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))

    def test_constant_cut_is_fixed_once(self):
        urn = ConstantUrn(("1/6", "1/3", "1/2"))
        assert urn.cut((1, 1, 1)) is urn.cut((9, 0, 4))
        assert urn.cut((1, 1, 1)) == IdentityUrn().cut(urn.weights((1, 1, 1)))

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            ConstantUrn(("1/2",))
        with pytest.raises(ValueError):
            ConstantUrn(("1/2", "1/4"))
        with pytest.raises(ValueError):
            ConstantUrn(("3/2", "-1/2"))

    def test_hls_splits_the_complement_in_fixed_ratios(self):
        urn = HLSUrn(("1/2",))
        assert urn.weights((1, 1, 1)) == (2, 2, 2)
        assert ratios(urn.weights((2, 1, 1))) \
            == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        four = HLSUrn(("1/4", "1/4"))
        assert four.weights((1, 4, 0, 0)) == (4, 4, 4, 8)
        assert ratios(four.weights((1, 0, 0, 4))) == (
            Fraction(1, 5), Fraction(1, 5), Fraction(1, 5), Fraction(2, 5))
        # a full first color leaves nothing for the others
        assert four.weights((3, 0, 0, 0)) == (12, 0, 0, 0)

    def test_hls_validation(self):
        with pytest.raises(ValueError):
            HLSUrn(())
        with pytest.raises(ValueError):
            HLSUrn(("0",))
        with pytest.raises(ValueError):
            HLSUrn(("1/2", "1/2"))


def positive_fractions(min_size, max_size):
    return st.lists(st.fractions(min_value=0, max_value=3, max_denominator=40)
                    .filter(bool), min_size=min_size, max_size=max_size)


@given(positive_fractions(2, 5), st.integers(0, 3), positive_fractions(1, 4),
       st.fractions(min_value=0, max_value=2, max_denominator=40).filter(bool))
def test_integer_weights_match_per_entry_lcm_scaling(mass, zeros, ratios_in, slack):
    # the weights before exactnum._common_denominator: each probability
    # times the lcm of the denominators, by Fraction product and int()
    p = tuple(x / sum(mass) for x in mass) + (Fraction(0),) * zeros
    denom = math.lcm(*(x.denominator for x in p))
    assert ConstantUrn(p)._weights == tuple(int(x * denom) for x in p)
    alpha = tuple(x / (sum(ratios_in) + slack) for x in ratios_in)
    urn = HLSUrn(alpha)
    scale = math.lcm(*(a.denominator for a in alpha))
    assert urn._scale == scale
    assert urn._shares == tuple(int(a * scale) for a in (*alpha, 1 - sum(alpha)))


class TestSimulate:
    def test_deterministic(self):
        state = UrnState((1, 2, 0))
        urn = HLSUrn(("1/2",))
        a = simulate(state, urn, 12, seed=7, sample_index=3)
        b = simulate(state, urn, 12, seed=7, sample_index=3)
        assert a == b
        assert simulate(state, urn, 12, seed=7, sample_index=4) != a

    def test_prefix_stable(self):
        # extending a run must not change what was already drawn
        state = UrnState((2, 1))
        urn = IdentityUrn()
        short = simulate(state, urn, 5, seed=11)
        long = simulate(state, urn, 9, seed=11)
        assert long[:5] == short

    def test_color_count_mismatch(self):
        with pytest.raises(ValueError, match="colors"):
            simulate(UrnState((1, 1, 1)), HLSUrn(("1/4", "1/4")), 3, seed=0)

    def test_zero_steps(self):
        assert simulate(UrnState((1, 1)), IdentityUrn(), 0, seed=0) == []
        with pytest.raises(ValueError):
            simulate(UrnState((1, 1)), IdentityUrn(), -1, seed=0)

    def test_lone_trajectory_keeps_no_graph(self):
        # a state graph kept along one trajectory would hold all 20,001
        # states and their cuts, several megabytes
        tracemalloc.start()
        try:
            simulate(UrnState((1, 1, 1)), IdentityUrn(), 20000, seed=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


# The draw that rebuilt the weights, their gcd, the cumulative cut and the
# rejection limit at every step: the reference for the draw loop that
# `simulate` and `empirical_cylinder` share.

def reference_counter_uniform(seed, sample, step, bound, nonces=None):
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
            if nonces is not None:
                nonces.append(nonce)
            return value % bound
        nonce += 1


def reference_draw(weights, seed, sample, step, nonces=None):
    g = math.gcd(*weights)
    r = reference_counter_uniform(seed, sample, step, sum(weights) // g, nonces)
    acc = 0
    for j, w in enumerate(weights):
        acc += w // g
        if r < acc:
            return j
    raise AssertionError("unreachable: the weights sum to the bound")


def reference_simulate(initial, fn, steps, seed, sample_index=0, nonces=None):
    counts = list(initial.counts)
    out = []
    for step in range(steps):
        j = reference_draw(fn.weights(counts), seed, sample_index, step, nonces)
        out.append(j)
        counts[j] += 1
    return out


def fraction_draw(weights, seed, sample, step):
    # the draw before integer weights: probabilities w_j / W as reduced
    # fractions, thresholds over the lcm of their denominators
    total = sum(weights)
    probs = [Fraction(w, total) for w in weights]
    denom = math.lcm(*(p.denominator for p in probs))
    r = reference_counter_uniform(seed, sample, step, denom)
    acc = 0
    for j, p in enumerate(probs):
        acc += p.numerator * (denom // p.denominator)
        if r < acc:
            return j
    raise AssertionError("probabilities do not sum to 1")


@given(
    st.lists(st.integers(0, 40), min_size=2, max_size=6).filter(any),
    st.integers(1, 12),
    st.integers(0, 2**32),
    st.integers(0, 10**6),
    st.integers(0, 100),
)
def test_integer_draw_matches_fraction_thresholds(weights, scale, seed, sample, step):
    # zeros and a common factor in the weights must not move any draw
    weights = [w * scale for w in weights]
    expected = fraction_draw(weights, seed, sample, step)

    class FixedWeights:
        # every state draws at the same weights
        def cut(self, counts):
            return _cut(weights)

    state = UrnState((1,) * len(weights))
    assert simulate(state, FixedWeights(), step + 1, seed, sample)[step] == expected
    assert weights[expected] > 0


@st.composite
def urns(draw):
    """An initial state and an urn function of one of the three families,
    with as many colors as the state."""
    family = draw(st.sampled_from(("identity", "constant", "hls")))
    if family == "hls":
        ratios_in = draw(positive_fractions(1, 3))
        slack = draw(st.fractions(min_value=0, max_value=2, max_denominator=40)
                     .filter(bool))
        fn = HLSUrn(tuple(x / (sum(ratios_in) + slack) for x in ratios_in))
        colors = len(ratios_in) + 2
    elif family == "constant":
        mass = draw(positive_fractions(2, 4))
        zeros = draw(st.integers(0, 2))
        p = tuple(x / sum(mass) for x in mass) + (Fraction(0),) * zeros
        fn = ConstantUrn(draw(st.permutations(p)))
        colors = len(p)
    else:
        fn = IdentityUrn()
        colors = draw(st.integers(2, 5))
    counts = draw(st.lists(st.integers(0, 6), min_size=colors, max_size=colors)
                  .filter(any))
    return UrnState(counts), fn


@st.composite
def positive_urns(draw):
    """An urn function of one of the three families and positive start
    counts, from which its draws follow a named exact law."""
    family = draw(st.sampled_from(("identity", "constant", "hls")))
    if family == "hls":
        ratios_in = draw(positive_fractions(1, 2))
        slack = draw(st.fractions(min_value=0, max_value=2, max_denominator=40)
                     .filter(bool))
        fn = HLSUrn(tuple(x / (sum(ratios_in) + slack) for x in ratios_in))
        colors = len(ratios_in) + 2
    elif family == "constant":
        mass = draw(positive_fractions(2, 4))
        fn = ConstantUrn(tuple(x / sum(mass) for x in mass))
        colors = len(mass)
    else:
        fn = IdentityUrn()
        colors = draw(st.integers(2, 4))
    counts = draw(st.lists(st.integers(1, 5), min_size=colors, max_size=colors))
    return tuple(counts), fn


def path_product(fn, counts, i):
    """P(i) from the urn itself: the product of w_j / sum(w) over the draws
    of one path from counts to counts + i, all of color 0 first."""
    h = list(counts)
    out = Fraction(1)
    for j, e in enumerate(i):
        for _ in range(e):
            w = fn.weights(h)
            out *= Fraction(w[j], sum(w))
            h[j] += 1
    return out


@given(positive_urns())
def test_urn_law_is_the_path_product(urn):
    counts, fn = urn
    law = fn.law(counts)
    for n in range(6):
        for i in compositions(n, len(counts)):
            assert law.cylinder(i) == path_product(fn, counts, i), (counts, i)


class TestDrawMatchesReference:
    @given(urns(), st.integers(0, 2**32), st.integers(0, 10**6), st.integers(0, 12))
    def test_simulate(self, urn, seed, sample, steps):
        state, fn = urn
        assert simulate(state, fn, steps, seed, sample) \
            == reference_simulate(state, fn, steps, seed, sample)

    @given(urns(), st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 30))
    def test_empirical_cylinder_counts(self, urn, seed, n, samples):
        state, fn = urn
        tallies = {}
        for s in range(samples):
            seq = reference_simulate(state, fn, n, seed, s)
            key = tuple(seq.count(j) for j in range(len(state.counts)))
            tallies[key] = tallies.get(key, 0) + 1
        table = empirical_cylinder(state, fn, n, samples, seed)
        assert {comp: cell.count for comp, cell in table.items() if cell.count} \
            == tallies

    @pytest.mark.parametrize("counts", [(2**255, 1), (2**254, 2**254 + 1)])
    def test_rejected_counter_values_are_redrawn(self, monkeypatch, counts):
        # the bound W = 2**255 + 1 is also the rejection limit, so about
        # half of all counter values are redrawn with the next nonce
        state = UrnState(counts)
        cut = _cut(counts)
        assert cut.bound == cut.limit == 2**255 + 1
        hashed = []

        def recording(data):
            hashed.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(urnsim, "_sha256", recording)
        got = [simulate(state, IdentityUrn(), 3, 5, s) for s in range(12)]
        nonces = []
        expected = [reference_simulate(state, IdentityUrn(), 3, 5, s, nonces)
                    for s in range(12)]
        assert got == expected
        assert max(nonces) >= 1
        messages = [
            f"5|{s}|{step}|{nonce}".encode()
            for s in range(12) for step in range(3)
            for nonce in range(nonces[3 * s + step] + 1)]
        assert hashed == messages
        # the walks over one shared state graph hash the same messages in
        # the same order, and tally the same classes
        hashed.clear()
        table = empirical_cylinder(state, IdentityUrn(), 3, 12, 5)
        assert hashed == messages
        tallies = {}
        for seq in expected:
            key = tuple(seq.count(j) for j in range(2))
            tallies[key] = tallies.get(key, 0) + 1
        assert {comp: cell.count for comp, cell in table.items() if cell.count} \
            == tallies


class TestWithinFourSigma:
    def test_exact_boundary(self):
        # p = 1/2, N = 400: the band is exactly |count - 200| <= 40
        assert within_four_sigma(240, 400, "1/2")
        assert not within_four_sigma(241, 400, "1/2")
        assert within_four_sigma(160, 400, "1/2")
        assert not within_four_sigma(159, 400, "1/2")

    def test_degenerate_rates(self):
        assert within_four_sigma(0, 100, 0)
        assert not within_four_sigma(1, 100, 0)
        assert within_four_sigma(100, 100, 1)
        assert not within_four_sigma(99, 100, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            within_four_sigma(1, 0, "1/2")
        with pytest.raises(ValueError):
            within_four_sigma(1, 10, "3/2")


class TestEmpiricalCylinder:
    def test_complete_and_consistent(self):
        table = empirical_cylinder(UrnState((1, 1)), IdentityUrn(), 3, 200, seed=5)
        assert set(table) == set(compositions(3, 2))
        assert sum(cell.count for cell in table.values()) == 200
        for cell in table.values():
            assert isinstance(cell, EmpiricalCell)
            assert cell.estimate == Fraction(cell.count, 200)

    def test_each_state_is_cut_once(self):
        # one table serves every sample; a lone trajectory asks its urn
        # function once per draw, the first state's cut also serving the
        # color-count check
        asked = []

        class Recording:
            def cut(self, counts):
                asked.append(tuple(counts))
                return IdentityUrn().cut(counts)

        empirical_cylinder(UrnState((1, 1, 1)), Recording(), 4, 500, seed=3)
        assert len(asked) == len(set(asked)) == math.comb(4 + 3 - 1, 3)
        asked.clear()
        seq = simulate(UrnState((1, 2, 0)), Recording(), 6, seed=3)
        assert seq == simulate(UrnState((1, 2, 0)), IdentityUrn(), 6, seed=3)
        assert len(asked) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_cylinder(UrnState((1, 1)), IdentityUrn(), 0, 10, seed=0)
        with pytest.raises(ValueError):
            empirical_cylinder(UrnState((1, 1)), IdentityUrn(), 2, 0, seed=0)


class TestFrequenciesMatchExactLaws:
    def test_constant_urn_first_draw(self):
        urn = ConstantUrn(("1/6", "1/3", "1/2"))
        tallies = [0, 0, 0]
        samples = 3000
        for s in range(samples):
            tallies[simulate(UrnState((1, 1, 1)), urn, 1, seed=23, sample_index=s)[0]] += 1
        for j, p in enumerate(urn.p):
            assert within_four_sigma(tallies[j], samples, p)

    def test_identity_urn_matches_polya_classes(self):
        law = parse_law("polya:alpha=1,2,3")
        initial = UrnState((1, 2, 3))
        table = empirical_cylinder(initial, IdentityUrn(), 2, 4000, seed=31)
        for comp, cell in table.items():
            assert within_four_sigma(cell.count, 4000, class_prob(law, comp))

    def test_identity_urn_order_exchangeable(self):
        # (0, 1) and (1, 0) prefixes both estimate the same cylinder
        initial = UrnState((1, 2, 3))
        hits = {(0, 1): 0, (1, 0): 0}
        samples = 4000
        for s in range(samples):
            seq = tuple(simulate(initial, IdentityUrn(), 2, seed=37, sample_index=s))
            if seq in hits:
                hits[seq] += 1
        p = cylinder_prob(parse_law("polya:alpha=1,2,3"), (1, 1, 0))
        for count in hits.values():
            assert within_four_sigma(count, samples, p)

    def test_hls_urn_matches_exact_classes(self):
        law = parse_law("hls:K=3,pi=1,nu=2,alpha=1/2")
        table = empirical_cylinder(UrnState((1, 2, 0)), HLSUrn(("1/2",)), 2,
                                   4000, seed=41)
        for comp, cell in table.items():
            assert within_four_sigma(cell.count, 4000, class_prob(law, comp))

    def test_hls_second_color_split_is_irrelevant(self):
        # only the first proportion feeds the urn function, so moving the
        # remaining mass between the other colors must not change the law
        law = parse_law("hls:K=3,pi=1,nu=2,alpha=1/2")
        samples = 2000
        for counts in ((1, 2, 0), (1, 1, 1)):
            table = empirical_cylinder(UrnState(counts), HLSUrn(("1/2",)), 2,
                                       samples, seed=43)
            for comp, cell in table.items():
                assert within_four_sigma(cell.count, samples,
                                         class_prob(law, comp)), (counts, comp)
