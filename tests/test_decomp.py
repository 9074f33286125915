"""Decomposition machinery against sequence-level brute force.

U-statistics are re-derived by enumerating position subsets of concrete
sequences, inner products by summing over all K^n raw sequences, and the
weak-independence witnesses for the mixture law are pinned as regression
fixtures.
"""

import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from hoeffding import linalg
from hoeffding.decomp import (
    DegeneracyCheck,
    OracleResult,
    SymmetricKernel,
    SymmetricStatistic,
    composition_list,
    decompose,
    degenerate_kernel_for,
    inner_product,
    is_completely_degenerate,
    kernel_for,
    load_statistic_file,
    sh_dims,
    statistic_from_jsonable,
    table_to_jsonable,
    u_statistic,
    weak_independence_oracle,
    xi_constraint_matrix,
    xi_nullspace_basis,
    _ustat_matrix,
)
from hoeffding.exactnum import Composition, compositions
from hoeffding.laws import cylinder_prob, parse_law, predictive_prob

IID_REF = parse_law("iid:p=1/2,1/3,1/6")
POLYA_REF = parse_law("polya:alpha=1,2,3")
HLS3 = parse_law("hls:K=3,pi=1,nu=2,alpha=1/2")
HLS3B = parse_law("hls:K=3,pi=3/2,nu=5/2,alpha=1/3")
HLS4 = parse_law("hls:K=4,pi=1,nu=2,alpha=1/4,1/4")
MIX = parse_law("mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2")

K3_LAWS = [IID_REF, POLYA_REF, HLS3, HLS3B, MIX]
ALL_LAWS = K3_LAWS + [HLS4]


def counts_of(seq, colors):
    tally = [0] * colors
    for s in seq:
        tally[s] += 1
    return Composition(tally)


def canonical_sequence(i):
    seq = []
    for color, count in enumerate(i):
        seq.extend([color] * count)
    return tuple(seq)


def ustat_by_position_subsets(phi, seq):
    total = Fraction(0)
    for pos in combinations(range(len(seq)), phi.order):
        total += phi(counts_of((seq[p] for p in pos), phi.colors))
    return total


def random_kernel(order, colors, rng):
    values = {
        c: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for c in composition_list(order, colors)
    }
    return SymmetricKernel(order, colors, values)


def random_statistic(order, colors, rng):
    values = {
        c: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for c in composition_list(order, colors)
    }
    return SymmetricStatistic(order, colors, values)


class TestUStatistic:
    def test_indicator_examples(self):
        phi = SymmetricKernel.indicator((1, 0, 0))
        assert u_statistic(phi, 2)((2, 0, 0)) == 2
        phi2 = SymmetricKernel.indicator((1, 1, 0))
        assert u_statistic(phi2, 3)((2, 1, 0)) == 2

    def test_constant_kernel_counts_subsets(self):
        for k in range(0, 4):
            phi = SymmetricKernel.constant(k, 3, 1)
            f = u_statistic(phi, 4)
            for i in composition_list(4, 3):
                assert f(i) == math.comb(4, k)

    def test_against_position_subset_enumeration(self):
        rng = random.Random(7)
        for n in range(1, 6):
            for k in range(0, n + 1):
                phi = random_kernel(k, 3, rng)
                f = u_statistic(phi, n)
                for i in composition_list(n, 3):
                    assert f(i) == ustat_by_position_subsets(phi, canonical_sequence(i))

    def test_four_colors(self):
        rng = random.Random(11)
        phi = random_kernel(2, 4, rng)
        f = u_statistic(phi, 3)
        for i in composition_list(3, 4):
            assert f(i) == ustat_by_position_subsets(phi, canonical_sequence(i))

    def test_order_above_n_rejected(self):
        with pytest.raises(ValueError):
            u_statistic(SymmetricKernel.constant(3, 3, 1), 2)

    def test_linearity(self):
        rng = random.Random(3)
        a, b = random_kernel(2, 3, rng), random_kernel(2, 3, rng)
        assert u_statistic(a + b, 4) == u_statistic(a, 4) + u_statistic(b, 4)
        assert u_statistic(a.scale(Fraction(2, 3)), 4) == u_statistic(a, 4).scale(Fraction(2, 3))


class TestInnerProduct:
    def test_normalization(self):
        one = SymmetricStatistic.constant(2, 3, 1)
        for law in ALL_LAWS:
            if law.K == 3:
                assert inner_product(law, 2, one, one) == 1

    def test_reference_values(self):
        uniform = parse_law("iid:p=1/3,1/3,1/3")
        ind = SymmetricStatistic.indicator((1, 0, 0))
        assert inner_product(uniform, 1, ind, ind) == Fraction(1, 3)
        polya1 = parse_law("polya:alpha=1,1,1")
        count1 = SymmetricStatistic.from_function(2, 3, lambda c: c[0])
        one = SymmetricStatistic.constant(2, 3, 1)
        assert inner_product(polya1, 2, count1, one) == Fraction(2, 3)

    def test_against_raw_sequence_sum(self):
        rng = random.Random(5)
        for law in (IID_REF, POLYA_REF, HLS3, MIX):
            for n in (1, 2, 3, 4):
                t1 = random_statistic(n, 3, rng)
                t2 = random_statistic(n, 3, rng)
                brute = Fraction(0)
                for seq in product(range(3), repeat=n):
                    i = counts_of(seq, 3)
                    brute += cylinder_prob(law, i) * t1(i) * t2(i)
                assert inner_product(law, n, t1, t2) == brute

    def test_order_mismatch_rejected(self):
        one2 = SymmetricStatistic.constant(2, 3, 1)
        one3 = SymmetricStatistic.constant(3, 3, 1)
        with pytest.raises(ValueError):
            inner_product(IID_REF, 3, one2, one3)
        with pytest.raises(ValueError):
            inner_product(HLS4, 2, one2, one2)


class TestDecompose:
    def test_constant_statistic(self):
        t = SymmetricStatistic.constant(3, 3, Fraction(5, 7))
        parts = decompose(POLYA_REF, 3, t)
        assert parts[0] == t
        assert all(p.is_zero() for p in parts[1:])

    def test_uniform_iid_count_example(self):
        uniform = parse_law("iid:p=1/3,1/3,1/3")
        t = SymmetricStatistic.from_function(2, 3, lambda c: c[0])
        f0, f1, f2 = decompose(uniform, 2, t)
        assert f0 == SymmetricStatistic.constant(2, 3, Fraction(2, 3))
        expected_f1 = SymmetricStatistic.from_function(2, 3, lambda c: c[0] - Fraction(2, 3))
        assert f1 == expected_f1
        assert f2.is_zero()

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_reconstruction_orthogonality_idempotence(self, law):
        rng = random.Random(42)
        for n in (1, 2, 3):
            t = random_statistic(n, law.K, rng)
            parts = decompose(law, n, t)
            assert len(parts) == n + 1
            total = parts[0]
            for p in parts[1:]:
                total = total + p
            assert total == t
            for j in range(n + 1):
                for k in range(j + 1, n + 1):
                    assert inner_product(law, n, parts[j], parts[k]) == 0
            # projecting a layer returns it unchanged in its own slot
            for k, part in enumerate(parts):
                again = decompose(law, n, part)
                assert again[k] == part
                assert all(q.is_zero() for idx, q in enumerate(again) if idx != k)

    def test_f0_is_the_mean(self):
        rng = random.Random(9)
        for law in (IID_REF, HLS3, MIX):
            t = random_statistic(3, 3, rng)
            one = SymmetricStatistic.constant(3, 3, 1)
            mean = inner_product(law, 3, t, one)
            parts = decompose(law, 3, t)
            assert parts[0] == SymmetricStatistic.constant(3, 3, mean)

    def test_order_mismatch_rejected(self):
        t = SymmetricStatistic.constant(2, 3, 1)
        with pytest.raises(ValueError):
            decompose(IID_REF, 3, t)
        with pytest.raises(ValueError):
            decompose(HLS4, 2, t)


class TestKernelFor:
    def test_ustat_matrix_has_full_column_rank(self):
        # kernel_for returns the one solution of its solve as the kernel and
        # decompose takes SU_n as the whole space; both rest on this
        for colors in range(1, 6):
            for n in range(6 if colors == 5 else 7):
                for k in range(n + 1):
                    assert linalg.nullspace(_ustat_matrix(n, k, colors)) == []
                size = len(composition_list(n, colors))
                identity = tuple(
                    tuple(int(r == c) for c in range(size)) for r in range(size)
                )
                assert _ustat_matrix(n, n, colors) == identity

    def test_round_trip_on_u_statistic_images(self):
        rng = random.Random(13)
        for n in (2, 3, 4):
            for k in range(0, n + 1):
                phi = random_kernel(k, 3, rng)
                f = u_statistic(phi, n)
                back = kernel_for(IID_REF, n, f, k)
                assert back.order == k
                assert u_statistic(back, n) == f
                # k = n skips eliminating the identity; same kernel
                x = linalg.solve(_ustat_matrix(n, k, 3), f.as_vector())
                assert back.as_vector() == x

    def test_constant_statistic_has_constant_kernel_image(self):
        f = SymmetricStatistic.constant(4, 3, math.comb(4, 2))
        phi = kernel_for(IID_REF, 4, f, 2)
        assert u_statistic(phi, 4) == f

    def test_zero_statistic(self):
        zero = SymmetricStatistic.constant(3, 3, 0)
        phi = kernel_for(HLS3, 3, zero, 2)
        assert u_statistic(phi, 3).is_zero()

    def test_membership_failure_raises(self):
        t = SymmetricStatistic.from_function(2, 3, lambda c: c[0])
        with pytest.raises(ValueError, match="SU_0"):
            kernel_for(IID_REF, 2, t, 0)


class TestDegeneracy:
    def test_centered_indicator(self):
        phi = SymmetricKernel.from_function(
            1, 3, lambda c: (1 if c[0] == 1 else 0) - IID_REF.p[0]
        )
        check = is_completely_degenerate(IID_REF, phi)
        assert check == DegeneracyCheck(True, None)

    def test_constant_kernel_fails_with_witness(self):
        phi = SymmetricKernel.constant(2, 3, 1)
        check = is_completely_degenerate(POLYA_REF, phi)
        assert not check.degenerate
        h, residual = check.witness
        assert h == next(iter(compositions(1, 3)))
        assert residual == 1

    def test_centered_product_kernel(self):
        # phi(x, y) = (1(x=d1) - p1)(1(y=d1) - p1) written on count vectors
        p1 = IID_REF.p[0]

        def value(c):
            if c[0] == 2:
                return (1 - p1) ** 2
            if c[0] == 1:
                return -p1 * (1 - p1)
            return p1 ** 2

        phi = SymmetricKernel.from_function(2, 3, value)
        assert is_completely_degenerate(IID_REF, phi).degenerate

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            is_completely_degenerate(IID_REF, SymmetricKernel.constant(0, 3, 1))


def degeneracy_rows(law, k):
    comps_k = composition_list(k, law.K)
    col = {c: idx for idx, c in enumerate(comps_k)}
    rows = []
    for h in composition_list(k - 1, law.K):
        row = [Fraction(0)] * len(comps_k)
        for j in range(law.K):
            row[col[h.increment(j)]] += predictive_prob(law, h, j)
        rows.append(row)
    return rows


class TestDegenerateKernelFor:
    @pytest.mark.parametrize("law", [IID_REF, POLYA_REF, HLS3])
    def test_every_layer_admits_a_degenerate_kernel(self, law):
        rng = random.Random(17)
        for n in (2, 3):
            t = random_statistic(n, law.K, rng)
            parts = decompose(law, n, t)
            for k in range(1, n + 1):
                phi = degenerate_kernel_for(law, n, parts[k], k)
                assert phi is not None
                assert is_completely_degenerate(law, phi).degenerate
                assert u_statistic(phi, n) == parts[k]
                assert phi == kernel_for(law, n, parts[k], k)

    @pytest.mark.parametrize("law", [IID_REF, POLYA_REF, HLS3])
    def test_degenerate_images_are_orthogonal_to_lower_layers(self, law):
        # the converse direction: any completely degenerate kernel has a
        # U-statistic orthogonal to all of SU_{k-1}
        rng = random.Random(23)
        for n in (2, 3):
            for k in range(1, n + 1):
                null = linalg.nullspace(degeneracy_rows(law, k))
                assert null
                coefs = [rng.randint(-5, 5) for _ in null]
                vec = [
                    sum((c * v[idx] for c, v in zip(coefs, null)), Fraction(0))
                    for idx in range(len(null[0]))
                ]
                phi = SymmetricKernel(k, law.K, dict(zip(composition_list(k, law.K), vec)))
                assert is_completely_degenerate(law, phi).degenerate
                image = u_statistic(phi, n)
                for c in composition_list(k - 1, law.K):
                    lower = u_statistic(SymmetricKernel.indicator(c), n)
                    assert inner_product(law, n, image, lower) == 0

    def test_returns_none_when_no_degenerate_kernel_exists(self):
        # the constant statistic 1 is not the U-statistic of any
        # completely degenerate order-1 kernel
        one = SymmetricStatistic.constant(2, 3, 1)
        assert degenerate_kernel_for(IID_REF, 2, one, 1) is None


class TestXiNullspace:
    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_basis_dimension(self, law):
        for n in (2, 3, 4):
            basis = xi_nullspace_basis(law, n)
            expect = math.comb(n + law.K - 1, law.K - 1) - math.comb(n + law.K - 2, law.K - 1)
            assert len(basis) == expect

    def test_basis_kernels_kill_the_conditional_expectation(self):
        for law in (IID_REF, HLS3, MIX):
            for n in (2, 3):
                for phi in xi_nullspace_basis(law, n):
                    for h in compositions(n - 1, law.K):
                        acc = sum(
                            (cylinder_prob(law, h.increment(j)) * phi(h.increment(j))
                             for j in range(law.K)),
                            Fraction(0),
                        )
                        assert acc == 0

    def test_constraint_matrix_shape(self):
        rows = xi_constraint_matrix(HLS3, 3)
        assert len(rows) == math.comb(4, 2)
        assert len(rows[0]) == math.comb(5, 2)


class TestWeakIndependenceOracle:
    @pytest.mark.parametrize("law", [IID_REF, POLYA_REF, HLS3, HLS3B, HLS4])
    def test_decomposable_laws_pass(self, law):
        for n in (2, 3):
            res = weak_independence_oracle(law, n)
            assert res.weakly_independent and res.witness is None
            expect = math.comb(n + law.K - 1, law.K - 1) - math.comb(n + law.K - 2, law.K - 1)
            assert res.basis_size == expect

    def test_mixture_witness_regression(self):
        res = weak_independence_oracle(MIX, 2)
        assert res == OracleResult(False, 3, res.witness)
        w = res.witness
        assert (w.kernel_index, w.u, tuple(w.z)) == (0, 2, (1, 0, 0))
        assert w.value == Fraction(-1, 720)

        res3 = weak_independence_oracle(MIX, 3)
        w3 = res3.witness
        assert (w3.kernel_index, w3.u, tuple(w3.z)) == (0, 2, (2, 0, 0))
        assert w3.value == Fraction(1, 900)

    def test_witness_kernel_is_in_the_constraint_nullspace(self):
        w = weak_independence_oracle(MIX, 2).witness
        for h in compositions(1, 3):
            acc = sum(
                (cylinder_prob(MIX, h.increment(j)) * w.kernel(h.increment(j))
                 for j in range(3)),
                Fraction(0),
            )
            assert acc == 0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            weak_independence_oracle(IID_REF, 1)


class TestShDims:
    def test_reference_profile(self):
        for law in (HLS3, IID_REF, POLYA_REF, MIX):
            assert sh_dims(law, 3) == [1, 2, 3, 4]

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_layers_fill_the_whole_space(self, law):
        for n in (1, 2, 3):
            dims = sh_dims(law, n)
            assert dims[0] == 1
            assert sum(dims) == math.comb(n + law.K - 1, law.K - 1)


class TestTables:
    def test_total_map_required(self):
        grid = composition_list(2, 3)
        partial = {c: 1 for c in grid[:-1]}
        with pytest.raises(ValueError, match="missing value"):
            SymmetricStatistic(2, 3, partial)

    def test_off_grid_values_rejected(self):
        values = {c: 1 for c in composition_list(2, 3)}
        values[Composition((3, 0, 0))] = 1
        with pytest.raises(ValueError, match="off the order-2 grid"):
            SymmetricStatistic(2, 3, values)

    def test_off_grid_lookup_rejected(self):
        t = SymmetricStatistic.constant(2, 3, 1)
        with pytest.raises(ValueError):
            t((1, 0, 0))

    def test_kernels_and_statistics_do_not_compare_equal(self):
        k = SymmetricKernel.constant(2, 3, 1)
        s = SymmetricStatistic.constant(2, 3, 1)
        assert k != s

    def test_algebra(self):
        a = SymmetricStatistic.from_function(2, 3, lambda c: c[0])
        b = SymmetricStatistic.constant(2, 3, 2)
        assert (a + b)((2, 0, 0)) == 4
        assert (a - b)((0, 2, 0)) == -2
        assert a.scale("1/2")((2, 0, 0)) == 1
        with pytest.raises(ValueError):
            a + SymmetricStatistic.constant(3, 3, 1)

    def test_items_follow_enumeration_order(self):
        t = SymmetricStatistic.from_function(2, 3, lambda c: c[0])
        assert [c for c, _ in t.items()] == list(composition_list(2, 3))


class TestJson:
    def test_schema(self):
        t = SymmetricStatistic.from_function(1, 3, lambda c: Fraction(c[0], 2))
        obj = table_to_jsonable(t)
        assert obj == {
            "order": 1,
            "K": 3,
            "values": [
                {"composition": [1, 0, 0], "value": "1/2"},
                {"composition": [0, 1, 0], "value": "0/1"},
                {"composition": [0, 0, 1], "value": "0/1"},
            ],
        }

    def test_round_trips(self):
        rng = random.Random(31)
        t = random_statistic(3, 3, rng)
        assert statistic_from_jsonable(table_to_jsonable(t)) == t

    def test_incomplete_json_rejected(self):
        obj = table_to_jsonable(SymmetricStatistic.constant(2, 3, 1))
        obj["values"] = obj["values"][:-1]
        with pytest.raises(ValueError):
            statistic_from_jsonable(obj)
        with pytest.raises(ValueError):
            statistic_from_jsonable({"order": 2})

    @pytest.mark.parametrize("field, raw", [
        ("value", True),           # a boolean is not the number 1
        ("value", 0.1),            # a float is not the rational 1/10
        ("composition", [True, 0, 1]),
    ])
    def test_values_and_counts_are_never_coerced(self, field, raw):
        obj = table_to_jsonable(SymmetricStatistic.constant(1, 3, 1))
        obj["values"][0][field] = raw
        with pytest.raises(ValueError, match="malformed value entry"):
            statistic_from_jsonable(obj)

    def test_load_statistic_file(self, tmp_path):
        t = SymmetricStatistic.from_function(2, 3, lambda c: c[1])
        path = tmp_path / "stat.json"
        path.write_text(json.dumps(table_to_jsonable(t)))
        assert load_statistic_file(str(path)) == t
        bad = tmp_path / "broken.json"
        bad.write_text("[1, 2,")
        with pytest.raises(ValueError):
            load_statistic_file(str(bad))
