"""Criterion machinery: closed-form kernels, coherent splits,
symmetrization, the criterion sweep, and the Beta identities.

Brute-force companions live next to each test: permutation averages for
the symmetrization, product() filters for the coherent splits, and the
independent null-space route from the decomposition module for the
closed-form kernel basis.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hoeffding import characterization, linalg
from hoeffding.characterization import (
    IdentityResult,
    VerificationEntry,
    check_identity,
    coherent_splits,
    sigma_hls,
    sommedentro_sum,
    star_vandermonde,
    symmetrize_bisym,
    verify_hd,
    xi_basis,
    xi_basis_kernel,
    xi_dimension,
    xi_index_set,
)
from hoeffding.decomp import xi_constraint_matrix
from hoeffding.exactnum import Composition, beta_ratio, compositions, multinomial_star
from hoeffding.laws import HLS, IID, MixtureIID, Polya, cylinder_prob, parse_law
from reference import characterization_sum, nullspace_basis

IID_REF = parse_law("iid:p=1/2,1/3,1/6")
POLYA_REF = parse_law("polya:alpha=1,2,3")
HLS3 = parse_law("hls:K=3,pi=1,nu=2,alpha=1/2")
HLS3B = parse_law("hls:K=3,pi=3/2,nu=5/2,alpha=1/3")
HLS4 = parse_law("hls:K=4,pi=1,nu=2,alpha=1/4,1/4")
MIX = parse_law("mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2")
MIX4 = parse_law("mixture:w=1/3,2/3;p1=2/5,1/5,1/5,1/5;p2=1/5,1/5,1/5,2/5")
MIX5 = parse_law("mixture:w=1/2,1/2;p1=1/3,1/6,1/6,1/6,1/6;p2=1/6,1/6,1/6,1/6,1/3")

UNIFORM3 = parse_law("iid:p=1/3,1/3,1/3")
UNIFORM4 = parse_law("iid:p=1/4,1/4,1/4,1/4")


def counts_of(seq, colors):
    tally = [0] * colors
    for s in seq:
        tally[s] += 1
    return Composition(tally)


class TestXiDimension:
    def test_values(self):
        assert xi_dimension(2, 3) == 3
        for n in range(2, 7):
            assert xi_dimension(n, 2) == 1

    def test_matches_nullspace_rank(self):
        for law, n_top in ((UNIFORM3, 6), (UNIFORM4, 6)):
            for n in range(2, n_top + 1):
                assert xi_dimension(n, law.K) == len(nullspace_basis(law, n))

    def test_index_set_size_matches_dimension(self):
        for colors in (3, 4, 5):
            for n in range(2, 7):
                assert len(xi_index_set(n, colors)) == xi_dimension(n, colors)

    def test_two_colors_routed_away(self):
        with pytest.raises(ValueError, match="oracle"):
            xi_index_set(3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            xi_dimension(1, 3)


class TestXiBasis:
    def test_uniform_iid_reference_kernel(self):
        phi = xi_basis_kernel(UNIFORM3, 2, (0,))
        expected = {
            (0, 0, 2): 1, (1, 0, 1): -1, (2, 0, 0): 1,
            (0, 1, 1): 0, (1, 1, 0): 0, (0, 2, 0): 0,
        }
        for comp, value in expected.items():
            assert phi(comp) == value

    @pytest.mark.parametrize("law", [IID_REF, POLYA_REF, HLS3, HLS3B, HLS4, MIX])
    def test_kernels_lie_in_the_constraint_nullspace(self, law):
        for n in (2, 3, 4):
            matrix = xi_constraint_matrix(law, n)
            for phi in xi_basis(law, n):
                vec = phi.as_vector()
                for row in matrix:
                    residual = sum((r * x for r, x in zip(row, vec)), Fraction(0))
                    assert residual == 0

    @pytest.mark.parametrize("law", [IID_REF, HLS3, HLS4])
    def test_full_rank(self, law):
        for n in (2, 3, 4):
            vectors = [phi.as_vector() for phi in xi_basis(law, n)]
            assert linalg.rank(vectors) == xi_dimension(n, law.K)

    @pytest.mark.parametrize("law", [HLS3, HLS4, POLYA_REF])
    def test_slice_at_zero_first_count_is_a_delta(self, law):
        # with no first-color occurrences the kernel is the plain
        # indicator of its index m
        n = 3
        for m in xi_index_set(n, law.K):
            phi = xi_basis_kernel(law, n, m)
            ref = Composition((0, *m, n - sum(m)))
            for i in compositions(n, law.K):
                if i[0] != 0:
                    continue
                assert phi(i) == (1 if i == ref else 0)

    @pytest.mark.parametrize("law", [HLS3, IID_REF, MIX, HLS4])
    def test_recursion_through_the_shift_operators(self, law):
        # the constraint row at i - e_1, rewritten: (phi P)(i) equals minus
        # the sum of (phi P) over all single-unit moves out of color 1
        n = 3
        colors = law.K
        for phi in xi_basis(law, n):
            for i in compositions(n, colors):
                if i[0] == 0:
                    continue
                lhs = cylinder_prob(law, i) * phi(i)
                rhs = Fraction(0)
                for p in range(1, colors):
                    moved = list(i)
                    moved[0] -= 1
                    moved[p] += 1
                    j = Composition(moved)
                    rhs -= cylinder_prob(law, j) * phi(j)
                assert lhs == rhs

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            xi_basis_kernel(HLS3, 3, (4,))
        with pytest.raises(ValueError):
            xi_basis_kernel(HLS3, 3, (1, 1))
        with pytest.raises(ValueError):
            xi_basis_kernel(parse_law("iid:p=1/2,1/2"), 3, ())


def feasible_splits(m, v, z):
    head = len(z) - 1
    out = []
    for k in product(*(range(zp + 1) for zp in z[:head])):
        last = v - sum(k)
        if 0 <= last <= z[head]:
            out.append(k)
    return out


class TestCoherentSplits:
    def test_against_product_filter(self):
        for colors in (3, 4):
            for m in range(0, 6):
                for z in compositions(m, colors):
                    for v in range(0, m + 1):
                        got = sorted(coherent_splits(v, z))
                        assert got == sorted(feasible_splits(m, v, z)), (m, v, tuple(z))

    def test_six_color_spot_check(self):
        z = Composition((2, 1, 0, 1, 0, 2))
        got = sorted(coherent_splits(3, z))
        assert got == sorted(feasible_splits(6, 3, z))

    def test_validation(self):
        with pytest.raises(ValueError):
            list(coherent_splits(4, (1, 1, 1)))


class TestSymmetrizeBisym:
    def test_constant_table(self):
        c = Fraction(5, 9)
        assert symmetrize_bisym(lambda a, b: c, 2, (2, 1, 1)) == c

    def test_against_sequence_enumeration(self):
        rng = random.Random(19)
        for m in range(1, 6):
            for z in compositions(m, 3):
                for v in range(0, m + 1):
                    table = {}
                    for k in coherent_splits(v, z):
                        ka = Composition((*k, v - sum(k)))
                        kb = Composition(tuple(zp - ap for zp, ap in zip(z, ka)))
                        table[(ka, kb)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    f = lambda a, b: table[(a, b)]
                    total = Fraction(0)
                    hits = 0
                    for seq in product(range(3), repeat=m):
                        if counts_of(seq, 3) != z:
                            continue
                        total += table[(counts_of(seq[:v], 3), counts_of(seq[v:], 3))]
                        hits += 1
                    assert symmetrize_bisym(f, v, z) == total / hits

    def test_block_merged_tables_pass_through(self):
        # if f only sees the merged counts it is already symmetric
        f = lambda a, b: Fraction(a[0] + b[0], 7)
        z = Composition((2, 0, 1))
        assert symmetrize_bisym(f, 1, z) == Fraction(2, 7)


class TestCharacterizationSum:
    def test_hls_tuples_vanish(self):
        for law in (HLS3, HLS3B):
            for u in (2, 3):
                for z in compositions(2, 3):
                    for m in xi_index_set(3, 3):
                        assert characterization_sum(law, 3, u, z, m) == 0

    def test_four_color_hls_tuples_vanish(self):
        for z in compositions(2, 4):
            for m in xi_index_set(3, 4):
                assert characterization_sum(HLS4, 3, 2, z, m) == 0

    def test_iid_and_polya_tuples_vanish(self):
        for law in (IID_REF, POLYA_REF):
            for z in compositions(1, 3):
                for m in xi_index_set(2, 3):
                    assert characterization_sum(law, 2, 2, z, m) == 0

    def test_mixture_regression_value(self):
        assert characterization_sum(MIX, 2, 2, (1, 0, 0), (1,)) == Fraction(-1, 60)

    def test_validation(self):
        with pytest.raises(ValueError, match="oracle"):
            characterization_sum(parse_law("iid:p=1/2,1/2"), 2, 2, (1, 0), ())
        with pytest.raises(ValueError):
            characterization_sum(HLS3, 3, 4, (1, 1, 0), (0,))
        with pytest.raises(ValueError):
            characterization_sum(HLS3, 3, 2, (1, 1, 1), (0,))
        with pytest.raises(ValueError):
            characterization_sum(HLS3, 3, 2, (1, 1, 0), (5,))


small_positive = st.fractions(min_value=0, max_value=3, max_denominator=4).filter(bool)


@st.composite
def drawn_laws(draw, colors):
    """An iid, Polya, HLS or two-component mixture law over the given
    colors, with small positive rational parameters."""

    def simplex(size):
        mass = draw(st.lists(small_positive, min_size=size, max_size=size))
        return tuple(x / sum(mass) for x in mass)

    family = draw(st.sampled_from(("iid", "polya", "hls", "mixture")))
    if family == "iid":
        return IID(simplex(colors))
    if family == "polya":
        return Polya(tuple(draw(st.lists(small_positive, min_size=colors, max_size=colors))))
    if family == "hls":
        pi, nu = draw(st.lists(small_positive, min_size=2, max_size=2))
        return HLS(colors, pi, nu, simplex(colors - 1)[:-1])
    return MixtureIID(simplex(2), (simplex(colors), simplex(colors)))


class TestVerifyHd:
    def test_hls_all_zero(self):
        report = verify_hd(HLS3, 3)
        assert report.all_zero and report.first_nonzero is None
        assert len(report.entries) == 57
        assert report.law_spec == "hls:K=3,pi=1,nu=2,alpha=1/2"

    def test_mixture_first_nonzero_regression(self):
        report = verify_hd(MIX, 3)
        assert not report.all_zero
        first = report.first_nonzero
        assert first == VerificationEntry(2, 2, Composition((1, 0, 0)), (1,),
                                          Fraction(-1, 60))

    def test_entries_enumerate_lexicographically(self):
        report = verify_hd(HLS3, 3)
        seen = [(e.n, e.u, tuple(e.z), e.m) for e in report.entries]
        expect = [
            (n, u, tuple(z), tuple(m))
            for n in (2, 3)
            for u in range(2, n + 1)
            for z in compositions(n - 1, 3)
            for m in xi_index_set(n, 3)
        ]
        assert seen == expect

    # the mixtures give nonzero values with one, two and three middle colors
    @pytest.mark.parametrize("law, n_max", [
        (IID_REF, 5), (POLYA_REF, 5), (HLS3, 5), (HLS4, 4), (MIX, 5),
        (MIX4, 4), (MIX5, 3),
    ])
    def test_every_entry_matches_the_per_tuple_sum(self, law, n_max):
        report = verify_hd(law, n_max)
        for e in report.entries:
            assert e.value == characterization_sum(law, e.n, e.u, e.z, e.m), e
        nonzero = sum(1 for e in report.entries if e.value)
        if law is MIX:
            assert nonzero > 100
        if law in (MIX4, MIX5):
            assert nonzero > 200
            assert any(e.value and sum(e.m) == e.n for e in report.entries)

    def test_jsonable_schema_and_zeros_only(self):
        report = verify_hd(MIX, 2)
        full = report.to_jsonable(include_zeros=True)
        assert set(full) == {
            "schema_version", "law", "n_max", "all_zero", "entries", "first_nonzero",
        }
        assert full["schema_version"] == 1
        assert full["all_zero"] is False
        assert len(full["entries"]) == 9
        assert full["entries"][0]["value"] == "0/1"
        trimmed = report.to_jsonable(include_zeros=False)
        assert all(e["value"] != "0/1" for e in trimmed["entries"])
        assert trimmed["first_nonzero"] == full["first_nonzero"]
        assert trimmed["first_nonzero"] == {
            "n": 2, "u": 2, "z": [1, 0, 0], "m": [1], "value": "-1/60",
        }

    @settings(max_examples=20)
    @given(st.data())
    def test_drawn_laws_swept_alternately_match_the_per_tuple_sum(self, data):
        # two laws of one K share every index plan: each sweep must still
        # equal its own reference, so the plans hold nothing of a law
        colors = data.draw(st.integers(3, 5), label="K")
        n_max = data.draw(st.integers(2, 4 if colors < 5 else 3), label="n_max")
        first = data.draw(drawn_laws(colors), label="first")
        second = data.draw(drawn_laws(colors), label="second")
        assume(first != second)
        for law in (first, second, first):
            for e in verify_hd(law, n_max).entries:
                assert e.value == characterization_sum(law, e.n, e.u, e.z, e.m), (law, e)

    def test_validation(self):
        with pytest.raises(ValueError, match="oracle"):
            verify_hd(parse_law("iid:p=1/2,1/2"), 3)
        with pytest.raises(ValueError):
            verify_hd(HLS3, 1)


class TestSommedentro:
    def test_worked_example_terms(self):
        # (pi=1, nu=1, n=2, u=2, z=1, k=0): the three alternating terms
        terms = [
            (-1) ** q * beta_ratio(1 + q, 3 - q, 1, 0) * [1, 2, 1][q]
            for q in range(3)
        ]
        assert terms == [Fraction(1, 4), Fraction(-1), Fraction(3, 4)]
        assert sommedentro_sum(1, 1, 2, 2, 1, 0) == 0

    def test_reference_zeros(self):
        assert sommedentro_sum(Fraction(3, 2), Fraction(5, 2), 4, 3, 2, 1) == 0
        assert sommedentro_sum(1, 2, 3, 2, 0, 0) == 0

    def test_out_of_range_k_rejected(self):
        with pytest.raises(ValueError):
            sommedentro_sum(1, 1, 4, 2, 3, 0)  # k below z - (u-1)
        with pytest.raises(ValueError):
            sommedentro_sum(1, 1, 4, 2, 1, 3)  # k above min(z, n-u)
        with pytest.raises(ValueError):
            sommedentro_sum(0, 1, 2, 2, 1, 0)

    def test_vanishes_on_a_rational_spot_grid(self):
        for pi in (Fraction(1, 2), Fraction(5, 2)):
            for nu in (Fraction(3, 2), Fraction(2)):
                for n in (2, 3, 4):
                    for u in range(2, n + 1):
                        for z in range(n):
                            lo, hi = max(0, z - (u - 1)), min(z, n - u)
                            for k in range(lo, hi + 1):
                                assert sommedentro_sum(pi, nu, n, u, z, k) == 0


class TestSigmaHls:
    def test_star_indicator_regions_vanish(self):
        # m < k2 kills the star factor; k2 <= m <= k1+u kills the sum
        assert sigma_hls(1, 2, 4, 2, 1, 2, 1, 3) == 0
        assert sigma_hls(1, 2, 4, 2, 3, 2, 1, 2) == 0

    def test_all_valid_tuples_vanish_to_depth_four(self):
        for n in range(2, 5):
            for u in range(2, n + 1):
                for z1 in range(n):
                    lo, hi = max(0, z1 - (u - 1)), min(z1, n - u)
                    for k1 in range(lo, hi + 1):
                        for m in range(n + 1):
                            for k2 in range(n + 1):
                                assert sigma_hls(1, 2, n, u, m, z1, k1, k2) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            sigma_hls(1, 2, 3, 2, 1, 1, 2, 0)  # k1 outside the coherent range
        with pytest.raises(ValueError):
            sigma_hls(1, 2, 3, 2, 4, 1, 1, 0)  # m above n
        with pytest.raises(ValueError):
            sigma_hls(1, 2, 3, 2, 1, 1, 1, -1)  # k2 negative
        with pytest.raises(ValueError):
            sigma_hls(0, 2, 3, 2, 1, 1, 1, 0)  # pi not positive
        with pytest.raises(ValueError):
            sigma_hls(1, 2, 3, 4, 1, 1, 1, 0)  # u above n
        with pytest.raises(ValueError):
            sigma_hls(1, 2, 3, 2, 1, 3, 1, 0)  # z1 above n-1


class TestStarVandermonde:
    def test_reference_pair(self):
        assert star_vandermonde(2, 0, 1, 1) == (3, 3)

    def test_negative_j_trivial(self):
        for j in (-1, -2, -5):
            assert star_vandermonde(3, 1, 2, j) == (0, 0)

    def test_equality_on_a_grid(self):
        for u in range(0, 5):
            for q1 in range(0, u + 1):
                for k1 in range(0, 5):
                    for j in range(-2, 10):
                        summed, closed = star_vandermonde(u, q1, k1, j)
                        assert summed == closed

    def test_validation(self):
        with pytest.raises(ValueError):
            star_vandermonde(2, 3, 1, 1)
        with pytest.raises(ValueError):
            star_vandermonde(2, 1, -1, 1)


def expand_star_power(a, r):
    """(1 + x_1 + ... + x_r)^a by repeated multiplication, as a dict from
    exponent tuples to coefficients."""
    poly = {(0,) * r: 1}
    for _ in range(a):
        out = {}
        for d, c in poly.items():
            out[d] = out.get(d, 0) + c
            for t in range(r):
                e = (*d[:t], d[t] + 1, *d[t + 1:])
                out[e] = out.get(e, 0) + c
        poly = out
    return poly


class TestStarGeneratingFunction:
    """sum_d C*(a; d) x^d = (1 + x_1 + ... + x_r)^a, the identity that
    lets the sweep read every kernel index m off one polynomial."""

    def test_coefficients_are_star_multinomials(self):
        for r in range(4):
            for a in range(9):
                poly = expand_star_power(a, r)
                for d in product(range(-1, a + 2), repeat=r):
                    expected = multinomial_star(a, d)
                    assert poly.get(d, 0) == expected, (a, d)
                    if any(x < 0 for x in d) or sum(d) > a:
                        assert expected == 0, (a, d)

    def test_reference_expansion(self):
        assert expand_star_power(2, 2) == {
            (0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 1, (1, 1): 2, (0, 2): 1,
        }


class TestCheckIdentity:
    def test_default_grids_all_hold(self):
        for name in ("sommedentro", "star-vandermonde", "pascal-star", "quandebello"):
            result = check_identity(name)
            assert result.holds and result.counterexample is None, name

    def test_checked_counts(self):
        assert check_identity("pascal-star").checked == 12 * 19
        assert check_identity("quandebello").checked == 40
        assert check_identity("star-vandermonde").checked == 28 * 7 * 15

    def test_single_pair_sommedentro(self):
        result = check_identity("sommedentro", pi=1, nu=2, n_max=3)
        assert result.holds
        assert result.checked == sum(
            min(z, n - u) - max(0, z - (u - 1)) + 1
            for n in (2, 3)
            for u in range(2, n + 1)
            for z in range(n)
        )

    def test_lone_pi_or_nu_pairs_with_every_grid_value(self, monkeypatch):
        seen = []

        def record(pi, nu, n, u, z, k):
            seen.append((pi, nu))
            return Fraction(0)

        monkeypatch.setattr(characterization, "sommedentro_sum", record)
        grid = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]
        pin = Fraction(7, 3)
        # two cases per pair at n_max 2, in grid order
        assert check_identity("sommedentro", pi="7/3", n_max=2).checked == 10
        assert seen == [(pin, b) for b in grid for _ in range(2)]
        seen.clear()
        assert check_identity("sommedentro", nu="7/3", n_max=2).checked == 10
        assert seen == [(a, pin) for a in grid for _ in range(2)]

    def test_jsonable(self):
        obj = check_identity("pascal-star", a_max=2).to_jsonable()
        assert obj == {
            "schema_version": 1,
            "identity": "pascal-star",
            "holds": True,
            "checked": 38,
            "counterexample": None,
        }

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            check_identity("fermat")

    def test_a_bound_the_identity_does_not_read_is_refused(self):
        with pytest.raises(ValueError, match="does not take --amax"):
            check_identity("pascal-star", amax=3)

    def test_result_type(self):
        assert isinstance(check_identity("quandebello", n_max=2, k_max=2), IdentityResult)
