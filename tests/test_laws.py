"""Law families checked against independently derived probabilities.

The laws compute P(i) as a product of predictive probabilities along a
path.  The independent reference is `closed_form`: products of powers,
rising factorials and Beta moments, with no predictive rule.  HLS values
with integer parameters are also re-derived as polynomial moments of the
driving weight, by termwise integration of y^a (1-y)^b.  Polya values are
also re-derived as sequential draw products (the urn chain rule), which is
now the same algorithm as the code's, so only `closed_form` checks it.
"""

import gc
import re
import json
import math
import pickle
import random
import weakref
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoeffding.exactnum import Composition, compositions
from hoeffding.laws import (
    HLS,
    IID,
    MixtureIID,
    Polya,
    check_consistency,
    class_prob,
    cylinder_prob,
    format_law,
    law_from_jsonable,
    law_to_jsonable,
    load_law_file,
    parse_law,
)
from reference import conditional_block_prob, predictive_prob
from test_characterization import drawn_laws

IID_REF = IID((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
POLYA_REF = Polya((Fraction(1), Fraction(2), Fraction(3)))
HLS3 = HLS(3, 1, 2, (Fraction(1, 2),))
HLS3B = HLS(3, Fraction(3, 2), Fraction(5, 2), (Fraction(1, 3),))
HLS4 = HLS(4, 1, 2, (Fraction(1, 4), Fraction(1, 4)))
MIX = MixtureIID(
    (Fraction(1, 2), Fraction(1, 2)),
    ((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
     (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))),
)

ALL_LAWS = [IID_REF, POLYA_REF, HLS3, HLS3B, HLS4, MIX]


def canonical_sequence(i):
    seq = []
    for color, count in enumerate(i):
        seq.extend([color] * count)
    return seq


def polya_sequence_prob(alpha, seq):
    # chain rule of the reinforced urn: each draw sees alpha plus the
    # colors drawn so far
    seen = [0] * len(alpha)
    total = sum(alpha)
    out = Fraction(1)
    for step, j in enumerate(seq):
        out *= (alpha[j] + seen[j]) / (total + step)
        seen[j] += 1
    return out


def unit_power_moment(a, b):
    # integral over [0,1] of y^a (1-y)^b dy, by binomial expansion
    return sum(
        Fraction((-1) ** j * math.comb(b, j), a + j + 1) for j in range(b + 1)
    )


def hls_prob_by_integration(law, i):
    # only for integer pi, nu: the Beta weight density is polynomial
    n = sum(i)
    pi, nu = int(law.pi), int(law.nu)
    base = unit_power_moment(pi - 1, nu - 1)
    top = unit_power_moment(pi - 1 + i[0], nu - 1 + (n - i[0]))
    mono = Fraction(1)
    for a_t, count in zip(law.alpha, i[1:-1]):
        mono *= a_t ** count
    mono *= (1 - sum(law.alpha)) ** i[-1]
    return mono * top / base


class TestCylinderProb:
    def test_reference_values(self):
        assert cylinder_prob(HLS3, (1, 0, 0)) == Fraction(1, 3)
        assert cylinder_prob(Polya((1, 1, 1)), (1, 1, 0)) == Fraction(1, 12)
        assert cylinder_prob(IID_REF, (1, 1, 0)) == Fraction(1, 6)

    def test_iid_is_product_of_marginals(self):
        for n in range(0, 5):
            for i in compositions(n, 3):
                expect = Fraction(1)
                for pj, ij in zip(IID_REF.p, i):
                    expect *= pj ** ij
                assert cylinder_prob(IID_REF, i) == expect

    @pytest.mark.parametrize("alpha", [(1, 1, 1), (1, 2, 3),
                                       (Fraction(1, 2), Fraction(3, 2), 2)])
    def test_polya_matches_draw_chain(self, alpha):
        law = Polya(tuple(Fraction(a) for a in alpha))
        for n in range(0, 6):
            for i in compositions(n, 3):
                expect = polya_sequence_prob(law.alpha, canonical_sequence(i))
                assert cylinder_prob(law, i) == expect

    @pytest.mark.parametrize("law", [HLS3, HLS4])
    def test_hls_matches_weight_integration(self, law):
        for n in range(0, 5):
            for i in compositions(n, law.K):
                assert cylinder_prob(law, i) == hls_prob_by_integration(law, i)

    def test_hls_middle_colors_enter_only_through_the_monomial(self):
        for law in (HLS3, HLS3B, HLS4):
            for n in range(1, 5):
                comps = list(compositions(n, law.K))
                for i in comps:
                    for i2 in comps:
                        if i[0] != i2[0]:
                            continue
                        ratio = Fraction(1)
                        for a_t, c, c2 in zip(law.alpha, i[1:-1], i2[1:-1]):
                            ratio *= a_t ** (c - c2)
                        tail = 1 - sum(law.alpha)
                        ratio *= tail ** (i[-1] - i2[-1])
                        assert cylinder_prob(law, i) == ratio * cylinder_prob(law, i2)

    def test_mixture_is_weighted_sum(self):
        for n in range(0, 4):
            for i in compositions(n, 3):
                expect = sum(
                    w * cylinder_prob(IID(p), i)
                    for w, p in zip(MIX.weights, MIX.components)
                )
                assert cylinder_prob(MIX, i) == expect

    def test_single_component_mixture_collapses_to_iid(self):
        solo = MixtureIID((Fraction(1),), (IID_REF.p,))
        for n in range(0, 5):
            for i in compositions(n, 3):
                assert cylinder_prob(solo, i) == cylinder_prob(IID_REF, i)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            cylinder_prob(HLS4, (1, 0, 0))


class TestConstruction:
    def test_iid_rejections(self):
        with pytest.raises(ValueError):
            IID((Fraction(1, 2), Fraction(1, 2), 0))
        with pytest.raises(ValueError):
            IID((Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(ValueError):
            IID((Fraction(1),))

    def test_polya_rejections(self):
        with pytest.raises(ValueError):
            Polya((1, 0, 1))
        with pytest.raises(ValueError):
            Polya((2,))

    def test_hls_rejections(self):
        with pytest.raises(ValueError):
            HLS(2, 1, 2, ())
        with pytest.raises(ValueError):
            HLS(3, 0, 2, (Fraction(1, 2),))
        with pytest.raises(ValueError):
            HLS(3, 1, 2, (Fraction(1, 2), Fraction(1, 4)))
        with pytest.raises(ValueError):
            HLS(4, 1, 2, (Fraction(1, 2), Fraction(1, 2)))

    def test_mixture_rejections(self):
        p = (Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            MixtureIID((Fraction(1, 2),), (p, p))
        with pytest.raises(ValueError):
            MixtureIID((Fraction(1, 2), Fraction(1, 2)), (p, (Fraction(1), Fraction(0))))
        with pytest.raises(ValueError):
            MixtureIID((), ())


class TestPredictiveProb:
    def test_reference_values(self):
        assert predictive_prob(HLS3, (1, 0, 0), 0) == Fraction(1, 2)
        assert predictive_prob(IID_REF, (2, 1, 0), 1) == Fraction(1, 3)
        assert predictive_prob(Polya((1, 1, 1)), (0, 0, 0), 2) == Fraction(1, 3)

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_sums_to_one(self, law):
        for n in range(0, 4):
            for h in compositions(n, law.K):
                total = sum(predictive_prob(law, h, j) for j in range(law.K))
                assert total == 1


class TestConditionalBlockProb:
    def test_reference_value(self):
        uniform = IID((Fraction(1, 3),) * 3)
        assert conditional_block_prob(uniform, 1, 2, (1, 0, 0), (1, 0, 1)) == Fraction(1, 3)

    def test_incoherent_counts_give_zero(self):
        assert conditional_block_prob(HLS3, 2, 2, (1, 1, 0), (0, 2, 1)) == 0
        # more than u-1 units placed on the first K-1 colors
        assert conditional_block_prob(HLS3, 1, 2, (0, 0, 1), (2, 0, 0)) == 0

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_total_probability(self, law):
        for n in (1, 2):
            for u in (2, 3):
                for a in compositions(n, law.K):
                    total = sum(
                        conditional_block_prob(law, n, u, a, b)
                        for b in compositions(n + u - 1, law.K)
                    )
                    assert total == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            conditional_block_prob(HLS3, 2, 1, (1, 1, 0), (1, 1, 0))
        with pytest.raises(ValueError):
            conditional_block_prob(HLS3, 2, 2, (1, 0, 0), (1, 1, 1))


class TestConsistency:
    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_all_fixtures_pass(self, law):
        report = check_consistency(law, 4)
        assert report.passed and report.failure is None

    def test_deeper_sweep_for_reference_laws(self):
        assert check_consistency(POLYA_REF, 5).passed
        assert check_consistency(HLS3, 5).passed

    def test_normalization_to_depth_six(self):
        for law in (IID_REF, HLS3):
            for n in range(1, 7):
                total = sum(class_prob(law, i) for i in compositions(n, law.K))
                assert total == 1

    def test_report_jsonable(self):
        obj = check_consistency(HLS3, 2).to_jsonable()
        assert obj == {
            "schema_version": 1,
            "law": "hls:K=3,pi=1,nu=2,alpha=1/2",
            "n_max": 2,
            "passed": True,
            "failure": None,
        }


class TestSpecStrings:
    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_format_parse_round_trip(self, law):
        assert parse_law(format_law(law)) == law

    def test_grammar_examples(self):
        assert parse_law("iid:p=1/2,1/3,1/6") == IID_REF
        assert parse_law("polya:alpha=1,2,3") == POLYA_REF
        assert parse_law("hls:K=3,pi=1,nu=2,alpha=1/2") == HLS3
        assert parse_law("hls:K=4,pi=1,nu=2,alpha=1/4,1/4") == HLS4
        assert parse_law("mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2") == MIX

    @staticmethod
    def canonical_pairs(spec):
        # (key, values) pairs of a canonical spec, which has no blanks
        family, _, body = spec.partition(":")
        pairs = []
        for piece in re.split("[,;]", body):
            key, eq, value = piece.partition("=")
            if eq:
                pairs.append((key, [value]))
            else:
                pairs[-1][1].append(piece)
        return family, pairs

    @given(st.data())
    def test_separators_and_blanks_do_not_change_the_law(self, data):
        law = data.draw(drawn_laws(data.draw(st.integers(3, 5), label="K")), label="law")
        spec = format_law(law)
        family, pairs = self.canonical_pairs(spec)
        pad = st.text(" ", max_size=2)

        def padded(token):
            return data.draw(pad) + token + data.draw(pad)

        pieces = [f"{padded(key)}={','.join(map(padded, values))}" for key, values in pairs]
        body = pieces[0]
        for piece in pieces[1:]:
            body += data.draw(st.sampled_from(",;"), label="separator") + piece
        respelled = parse_law(f"{padded(family)}:{body}")
        assert respelled == law and format_law(respelled) == spec

    @given(st.data())
    def test_an_empty_entry_is_an_error(self, data):
        law = data.draw(drawn_laws(data.draw(st.integers(3, 5), label="K")), label="law")
        family, pairs = self.canonical_pairs(format_law(law))
        _, values = data.draw(st.sampled_from(pairs), label="key")
        values.insert(data.draw(st.integers(0, len(values)), label="at"), "")
        spec = f"{family}:" + law.separator.join(f"{k}={','.join(v)}" for k, v in pairs)
        with pytest.raises(ValueError, match="empty entry"):
            parse_law(spec)

    def test_parse_rejections(self):
        for bad in (
            "iid",  # no family separator
            "gauss:sigma=1",
            "iid:q=1/2,1/2",
            "hls:K=3,pi=1,alpha=1/2",  # nu missing
            "mixture:w=1/2,1/2;p1=1/2,1/2",  # p2 missing
            "iid:p=1/2,1/2;p=1/2,1/2",
            "hls:K=3.9,pi=1,nu=2,alpha=1/2",
            "hls:K=3,4,pi=1,nu=2,alpha=1/2",  # K takes one value
            "hls:K=3,pi=1,2,nu=2,alpha=1/2",  # so does pi
            "iid:p=1/2,1/2;family=polya",
        ):
            with pytest.raises(ValueError):
                parse_law(bad)

    @pytest.mark.parametrize("bad,field", [
        ({"family": "iid"}, "'p'"),
        ({"family": "iid", "p": 5}, "'p'"),
        ({"family": "iid", "p": "1/2,1/2"}, "'p'"),
        ({"family": "iid", "p": ["1/2", True]}, "'p'"),
        ({"family": "iid", "p": [0.5, 0.5]}, "'p'"),
        ({"family": "iid", "p": ["1/2", "1/2"], "q": ["1/1"]}, "'q'"),
        ({"family": "hls", "K": 3.9, "pi": "1", "nu": "2", "alpha": ["1/2"]}, "'K'"),
        ({"family": "hls", "K": True, "pi": "1", "nu": "2", "alpha": ["1/2"]}, "'K'"),
        ({"family": "hls", "K": "3", "pi": "1", "nu": "2", "alpha": ["1/2"]}, "'K'"),
        ({"family": "hls", "K": 3, "pi": False, "nu": "2", "alpha": ["1/2"]}, "'pi'"),
        ({"family": "hls", "K": 3, "pi": ["1"], "nu": "2", "alpha": ["1/2"]}, "'pi'"),
        ({"family": "hls", "K": 3, "pi": "x", "nu": "2", "alpha": ["1/2"]}, "'pi'"),
        ({"family": "mixture", "w": ["1/1"], "p1": ["1/2", "1/2"], "p3": ["1/1"]},
         "'p3'"),
    ])
    def test_json_rejections_name_the_field(self, bad, field):
        with pytest.raises(ValueError, match=field):
            law_from_jsonable(bad)

    def test_json_rejections(self):
        for bad in (
            [],
            {"p": ["1/2", "1/2"]},
            {"family": "gauss"},
            {"family": ["iid"]},
            {"family": "mixture", "w": ["1/2", "1/2"], "p1": ["1/2", "1/2"]},
        ):
            with pytest.raises(ValueError):
                law_from_jsonable(bad)

    def test_inline_and_json_forms_agree(self):
        assert parse_law("hls:K=3,pi=1,nu=2,alpha=1/2") == law_from_jsonable(
            {"family": "hls", "K": 3, "pi": 1, "nu": "2/1", "alpha": ["1/2"]})

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_json_round_trip(self, law):
        assert law_from_jsonable(law_to_jsonable(law)) == law

    def test_json_rationals_are_strings(self):
        obj = law_to_jsonable(HLS3)
        assert obj == {
            "family": "hls", "K": 3, "pi": "1/1", "nu": "2/1", "alpha": ["1/2"],
        }

    def test_load_law_file(self, tmp_path):
        path = tmp_path / "law.json"
        path.write_text(json.dumps(law_to_jsonable(MIX)))
        assert load_law_file(str(path)) == MIX
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError):
            load_law_file(str(bad))


def rising(x, k):
    out = Fraction(1)
    for t in range(k):
        out *= x + t
    return out


def powers(p, i):
    out = Fraction(1)
    for pt, e in zip(p, i):
        out *= pt ** e
    return out


def closed_form(law, i):
    """P_n(i) from the family's formula, with no cached factor."""
    n = sum(i)
    if isinstance(law, IID):
        return powers(law.p, i)
    if isinstance(law, Polya):
        num = Fraction(1)
        for a, e in zip(law.alpha, i):
            num *= rising(a, e)
        return num / rising(sum(law.alpha), n)
    if isinstance(law, HLS):
        moment = rising(law.pi, i[0]) * rising(law.nu, n - i[0]) / rising(law.pi + law.nu, n)
        return moment * powers((*law.alpha, 1 - sum(law.alpha)), i[1:])
    return sum(w * powers(p, i) for w, p in zip(law.weights, law.components))


MEMO_SPECS = [
    "iid:p=1/2,1/3,1/6",
    "polya:alpha=1/2,2,3,5/3",
    "hls:K=3,pi=3/2,nu=5/2,alpha=1/3",
    "hls:K=4,pi=1,nu=2,alpha=1/4,1/4",
    "mixture:w=1/3,2/3;p1=2/5,1/5,1/5,1/5;p2=1/5,1/5,1/5,2/5",
]


class TestCylinderMemo:
    """Each law memoizes P(i) on the instance; the values must not depend
    on what the memo already holds."""

    @pytest.mark.parametrize("spec", MEMO_SPECS)
    def test_values_do_not_depend_on_the_fill_order(self, spec):
        colors = parse_law(spec).K
        comps = [i for n in range(9) for i in compositions(n, colors)]
        shuffled = comps[:]
        random.Random(spec).shuffle(shuffled)
        filled = parse_law(spec)
        from_filled = {i: filled.cylinder(i) for i in shuffled}
        for i in comps:
            expect = closed_form(filled, i)
            assert parse_law(spec).cylinder(i) == expect, i
            assert from_filled[i] == expect, i
            assert filled.cylinder(i) == expect, i

    @pytest.mark.parametrize("spec", MEMO_SPECS)
    def test_a_filled_memo_is_not_part_of_the_law(self, spec):
        fresh, filled = parse_law(spec), parse_law(spec)
        for i in compositions(6, filled.K):
            filled.cylinder(i)
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)
        assert format_law(filled) == format_law(fresh) == spec
        assert law_to_jsonable(filled) == law_to_jsonable(fresh)

    @pytest.mark.parametrize("spec", MEMO_SPECS)
    def test_plain_tuples_and_compositions_share_one_entry(self, spec):
        law = parse_law(spec)
        for i in compositions(4, law.K):
            p = law.cylinder(tuple(i))
            assert law.cylinder(Composition(i)) is p
        for i in compositions(5, law.K):
            p = law.cylinder(Composition(i))
            assert law.cylinder(tuple(i)) is p
        # one entry per class: the seed P(0, ..., 0) = 1, the classes read
        # and, for a path-product law, every class on their walks down
        read = set(compositions(4, law.K)) | set(compositions(5, law.K))
        walked = {(0,) * law.K} if isinstance(law, MixtureIID) else \
            {i for n in range(4) for i in compositions(n, law.K)}
        assert set(law._cylinders) == read | walked

    @pytest.mark.parametrize("spec", MEMO_SPECS)
    def test_a_filled_memo_pickles_back(self, spec):
        filled = parse_law(spec)
        comps = compositions(5, filled.K)
        values = [filled.cylinder(i) for i in comps]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(filled, protocol))
            assert back == filled and format_law(back) == spec
            assert back._cylinders == filled._cylinders
            assert [back.cylinder(i) for i in comps] == values
            # the restored memo computes new entries from the restored law
            i = compositions(6, back.K)[-1]
            assert back.cylinder(i) == closed_form(back, i)


def positive_fractions(size):
    return st.lists(st.fractions(min_value=0, max_value=5, max_denominator=7).filter(bool),
                    min_size=size, max_size=size)


@st.composite
def random_laws(draw):
    """A law of one of the four families with drawn rational parameters."""
    family = draw(st.sampled_from(("iid", "polya", "hls", "mixture")))
    colors = draw(st.integers(3 if family == "hls" else 2, 5))

    def simplex(size):
        mass = draw(positive_fractions(size))
        return tuple(x / sum(mass) for x in mass)

    if family == "iid":
        return IID(simplex(colors))
    if family == "polya":
        return Polya(tuple(draw(positive_fractions(colors))))
    if family == "hls":
        pi, nu = draw(positive_fractions(2))
        return HLS(colors, pi, nu, simplex(colors - 1)[:-1])
    w = draw(st.fractions(min_value=0, max_value=1, max_denominator=9)
             .filter(lambda x: 0 < x < 1))
    return MixtureIID((w, 1 - w), (simplex(colors), simplex(colors)))


class TestPathProduct:
    """Each law's memo is filled by walks over its predictive rule; the
    closed forms above are the independent reference."""

    @settings(max_examples=40)
    @given(random_laws(), st.randoms(use_true_random=False))
    def test_any_fill_order_gives_the_closed_form(self, law, rng):
        comps = [i for n in range(7) for i in compositions(n, law.K)]
        rng.shuffle(comps)
        filled = {i: law.cylinder(i) for i in comps}
        for i in comps:
            assert filled[i] == law.cylinder(i) == closed_form(law, i), (law, i)

    @settings(max_examples=20)
    @given(random_laws())
    def test_consistency_through_order_five(self, law):
        assert check_consistency(law, 5).passed

    def test_deep_classes_on_a_fresh_law(self):
        # 3,000 steps down to the seed: the walk is a loop, not a recursion
        half = Fraction(1, 2)
        assert IID((half, half)).cylinder((1500, 1500)) == Fraction(1, 2**3000)
        assert Polya((1, 1)).cylinder((0, 3000)) == Fraction(1, 3001)

    def test_only_classes_of_the_law_are_walked(self):
        for law in (HLS3, MIX):
            for bad in ((1, -1, 0), (1, 0), (1, 0, 0, 0)):
                with pytest.raises(ValueError, match="is not a class of a 3-color law"):
                    law.cylinder(bad)

    def test_a_mixture_keeps_one_memo(self):
        law = parse_law("mixture:w=2/7,5/7;p1=1/3,1/3,1/3;p2=1/9,2/9,2/3")
        read = set(compositions(5, 3)) | {(0, 7, 1)}
        for i in read:
            assert law.cylinder(i) == closed_form(law, i)
        assert set(law._cylinders) == read | {(0, 0, 0)}
        # no component law, and so no component memo, is kept beside it
        stack, dicts = list(vars(law).values()), []
        while stack:
            value = stack.pop()
            assert not isinstance(value, IID)
            if isinstance(value, tuple):
                stack.extend(value)
            elif isinstance(value, dict):
                dicts.append(value)
        assert dicts == [law._cylinders]


HELPER_CALLS = {
    "cylinder_prob": lambda law: cylinder_prob(law, (1, 1, 0)),
    "class_prob": lambda law: class_prob(law, (1, 1, 0)),
    "predictive_prob": lambda law: predictive_prob(law, (1, 0, 1), 2),
    "conditional_block_prob": lambda law: conditional_block_prob(law, 1, 2, (1, 0, 0), (1, 1, 0)),
}


@pytest.mark.parametrize("helper", list(HELPER_CALLS))
def test_a_dropped_law_is_freed_after_each_helper(helper):
    # the helpers read the law's own memo, which goes with the law. A
    # cache that already held an equal law would hide a kept reference, so
    # each case uses parameters no other test uses.
    t = 17 + list(HELPER_CALLS).index(helper)
    law = parse_law(f"hls:K=3,pi={t}/9,nu=19/7,alpha=3/{t}")
    assert HELPER_CALLS[helper](law) > 0
    ref = weakref.ref(law)
    del law
    gc.collect()
    assert ref() is None


def test_cylinder_prob_accepts_plain_tuples_and_compositions():
    assert cylinder_prob(HLS3, Composition((1, 1, 0))) == cylinder_prob(HLS3, (1, 1, 0))


def test_probabilities_are_exact_fractions():
    for law in ALL_LAWS:
        for i in compositions(3, law.K):
            assert isinstance(cylinder_prob(law, i), Fraction)
