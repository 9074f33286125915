"""Relabeling invariance of the criterion, a metamorphic check.

Hoeffding decomposability does not depend on the names of the colors, but
the criterion does: `_group_values` pools on the first count and keeps the
K - 2 middle ones, so the first and the last color play special roles.
Under every permutation of the colors, the verdict at every order, and so
the first failing order, must not change.  The values themselves may.

Run as a script, the check covers all 24 orders of the colors of the K=4
reference law through n = 5 (a few seconds):

    PYTHONPATH=src python tests/test_relabeling.py
"""

import sys
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoeffding.characterization import _group_values, verify_hd
from hoeffding.exactnum import compositions
from hoeffding.laws import IID, MixtureIID, Polya, parse_law

HLS3 = "hls:K=3,pi=1,nu=2,alpha=1/2"
HLS4 = "hls:K=4,pi=1,nu=2,alpha=1/4,1/4"
MIXTURE3 = "mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2"
MIXTURE4 = "mixture:w=1/3,2/3;p1=2/5,1/5,1/5,1/5;p2=1/5,1/5,1/5,2/5"


class Relabeled:
    """The law with its colors renamed: count i_t of color t here is the
    count of color perm[t] in the wrapped law.  `_group_values` needs only
    `cylinder`; `K` is kept for the sweep below."""

    def __init__(self, law, perm):
        self.law = law
        self.perm = tuple(perm)
        self.K = law.K

    def cylinder(self, i):
        counts = [0] * self.K
        for t, c in zip(self.perm, i):
            counts[t] = c
        return self.law.cylinder(tuple(counts))


def sweep(law, n_max):
    """Per order n = 2..n_max, whether every criterion value is zero, and
    the number of nonzero values over all orders."""
    verdicts, nonzero = [], 0
    for n in range(2, n_max + 1):
        values = [
            v
            for u in range(2, n + 1)
            for z in compositions(n - 1, law.K)
            for v in _group_values(law, n, u, z)
        ]
        count = sum(1 for v in values if v)
        verdicts.append(count == 0)
        nonzero += count
    return tuple(verdicts), nonzero


def first_failing(verdicts):
    return next((n for n, ok in enumerate(verdicts, start=2) if not ok), None)


def check_relabelings(law, n_max, perms=None):
    """Assert that every relabeling gives the identity's per-order verdicts
    and first failing order; returns the nonzero counts per relabeling."""
    identity, _ = sweep(Relabeled(law, range(law.K)), n_max)
    counts = {}
    for perm in perms or permutations(range(law.K)):
        verdicts, counts[perm] = sweep(Relabeled(law, perm), n_max)
        assert verdicts == identity, (perm, verdicts, identity)
        assert first_failing(verdicts) == first_failing(identity)
    return identity, counts


def test_identity_relabeling_matches_verify_hd():
    law = parse_law(MIXTURE3)
    report = verify_hd(law, 4)
    wrapped = tuple(
        (n, u, z, _group_values(Relabeled(law, range(3)), n, u, z))
        for n, u, z, _ in report.groups
    )
    assert wrapped == report.groups


def test_relabeled_cylinder_renames_the_colors():
    law = parse_law(MIXTURE3)
    assert Relabeled(law, (2, 0, 1)).cylinder((3, 1, 0)) == law.cylinder((1, 0, 3))


@pytest.mark.parametrize("spec,n_max,first", [
    (HLS3, 6, None),
    ("polya:alpha=1,2,3", 5, None),
    ("iid:p=1/2,1/3,1/6", 5, None),
    (MIXTURE3, 5, 2),
])
def test_every_relabeling_of_three_colors_keeps_the_verdicts(spec, n_max, first):
    identity, counts = check_relabelings(parse_law(spec), n_max)
    assert first_failing(identity) == first
    if first is not None:
        # the values move with the relabeling, so the check is not vacuous
        assert len(set(counts.values())) > 1


# the first color with the last, the first with a middle one, the last
# with a middle one, and a rotation
K4_PERMS = [(3, 1, 2, 0), (1, 0, 2, 3), (0, 1, 3, 2), (1, 2, 3, 0)]


@pytest.mark.parametrize("spec,n_max,first", [(HLS4, 5, None), (MIXTURE4, 4, 2)])
def test_some_relabelings_of_four_colors_keep_the_verdicts(spec, n_max, first):
    identity, _ = check_relabelings(parse_law(spec), n_max, K4_PERMS)
    assert first_failing(identity) == first


positive = st.integers(1, 6)


def distribution(weights):
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


laws3 = st.one_of(
    st.builds(lambda a: Polya(tuple(Fraction(n, d) for n, d in a)),
              st.lists(st.tuples(positive, positive), min_size=3, max_size=3)),
    st.builds(lambda w: IID(distribution(w)), st.lists(positive, min_size=3, max_size=3)),
    st.builds(
        lambda w, p1, p2: MixtureIID(distribution(w), (distribution(p1), distribution(p2))),
        st.lists(positive, min_size=2, max_size=2),
        st.lists(positive, min_size=3, max_size=3),
        st.lists(positive, min_size=3, max_size=3),
    ),
)


@settings(max_examples=25)
@given(laws3)
def test_relabeling_keeps_the_verdicts_of_drawn_laws(law):
    check_relabelings(law, 4)


def main():
    # all 24 orders of the K=4 reference law through n = 5
    identity, counts = check_relabelings(parse_law(HLS4), 5)
    assert all(identity) and not any(counts.values())
    print(f"{HLS4}: {len(counts)} relabelings, zero through n = 5")
    return 0


if __name__ == "__main__":
    sys.exit(main())
