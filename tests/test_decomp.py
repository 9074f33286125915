"""Decomposition machinery against sequence-level brute force.

U-statistics are re-derived by enumerating position subsets of concrete
sequences, inner products by summing over all K^n raw sequences, and the
weak-independence witnesses for the mixture law are pinned as regression
fixtures.
"""

import gc
import json
import math
import random
import weakref
from fractions import Fraction
from itertools import combinations, product
from operator import add
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoeffding import linalg
from hoeffding.decomp import (
    DegeneracyCheck,
    OracleResult,
    OracleWitness,
    SymmetricKernel,
    SymmetricStatistic,
    decompose,
    degenerate_kernel_for,
    inner_product,
    is_completely_degenerate,
    load_statistic_file,
    sh_dims,
    statistic_from_jsonable,
    table_to_jsonable,
    u_statistic,
    weak_independence_oracle,
    xi_constraint_matrix,
    _block_split_census,
    _class_weights,
    _count_census,
    _kernel_of,
    _oracle_rows,
    _project_su,
    _su_gram,
    _ustat_matrix,
    _xi_kernel,
    _xi_pivots,
)
from hoeffding.exactnum import Composition, compositions
from hoeffding.characterization import verify_hd
from hoeffding.laws import (
    check_consistency,
    cylinder_prob,
    format_law,
    parse_law,
)
from reference import basis_oracle, nullspace, nullspace_basis, predictive_prob
from test_characterization import drawn_laws

IID_REF = parse_law("iid:p=1/2,1/3,1/6")
POLYA_REF = parse_law("polya:alpha=1,2,3")
HLS3 = parse_law("hls:K=3,pi=1,nu=2,alpha=1/2")
HLS3B = parse_law("hls:K=3,pi=3/2,nu=5/2,alpha=1/3")
HLS4 = parse_law("hls:K=4,pi=1,nu=2,alpha=1/4,1/4")
MIX = parse_law("mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2")
HLS5 = parse_law("hls:K=5,pi=2,nu=3,alpha=1/5,1/4,1/3")

K3_LAWS = [IID_REF, POLYA_REF, HLS3, HLS3B, MIX]
ALL_LAWS = K3_LAWS + [HLS4]
K2_LAWS = [
    parse_law("polya:alpha=1,3/2"),
    parse_law("iid:p=1/3,2/3"),
    parse_law("mixture:w=1/2,1/2;p1=1/2,1/2;p2=1/4,3/4"),
]


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
    return SymmetricKernel.from_function(
        order, colors, lambda c: Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def random_statistic(order, colors, rng):
    return SymmetricStatistic.from_function(
        order, colors, lambda c: Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


class TestUStatistic:
    def test_indicator_examples(self):
        phi = SymmetricKernel.from_function(1, 3, lambda c: int(c == (1, 0, 0)))
        assert u_statistic(phi, 2)((2, 0, 0)) == 2
        phi2 = SymmetricKernel.from_function(2, 3, lambda c: int(c == (1, 1, 0)))
        assert u_statistic(phi2, 3)((2, 1, 0)) == 2

    def test_constant_kernel_counts_subsets(self):
        for k in range(0, 4):
            phi = SymmetricKernel.from_function(k, 3, lambda c: 1)
            f = u_statistic(phi, 4)
            for i in compositions(4, 3):
                assert f(i) == math.comb(4, k)

    def test_against_position_subset_enumeration(self):
        rng = random.Random(7)
        for n in range(1, 6):
            for k in range(0, n + 1):
                phi = random_kernel(k, 3, rng)
                f = u_statistic(phi, n)
                for i in compositions(n, 3):
                    assert f(i) == ustat_by_position_subsets(phi, canonical_sequence(i))

    def test_four_colors(self):
        rng = random.Random(11)
        phi = random_kernel(2, 4, rng)
        f = u_statistic(phi, 3)
        for i in compositions(3, 4):
            assert f(i) == ustat_by_position_subsets(phi, canonical_sequence(i))

    def test_order_above_n_rejected(self):
        with pytest.raises(ValueError):
            u_statistic(SymmetricKernel.from_function(3, 3, lambda c: 1), 2)

    def test_linearity(self):
        rng = random.Random(3)
        a, b = random_kernel(2, 3, rng), random_kernel(2, 3, rng)
        assert u_statistic(a + b, 4) == u_statistic(a, 4) + u_statistic(b, 4)
        two_thirds = SymmetricKernel.from_function(2, 3, lambda c: Fraction(2, 3) * a(c))
        assert u_statistic(two_thirds, 4).as_vector() == [
            Fraction(2, 3) * v for v in u_statistic(a, 4).as_vector()]


class TestInnerProduct:
    def test_normalization(self):
        one = SymmetricStatistic.from_function(2, 3, lambda c: 1)
        for law in ALL_LAWS:
            if law.K == 3:
                assert inner_product(law, one, one) == 1

    def test_reference_values(self):
        uniform = parse_law("iid:p=1/3,1/3,1/3")
        ind = SymmetricStatistic.from_function(1, 3, lambda c: int(c == (1, 0, 0)))
        assert inner_product(uniform, ind, ind) == Fraction(1, 3)
        polya1 = parse_law("polya:alpha=1,1,1")
        count1 = SymmetricStatistic.from_function(2, 3, lambda c: c[0])
        one = SymmetricStatistic.from_function(2, 3, lambda c: 1)
        assert inner_product(polya1, count1, one) == Fraction(2, 3)

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
                assert inner_product(law, t1, t2) == brute

    def test_order_mismatch_rejected(self):
        one2 = SymmetricStatistic.from_function(2, 3, lambda c: 1)
        one3 = SymmetricStatistic.from_function(3, 3, lambda c: 1)
        with pytest.raises(ValueError):
            inner_product(IID_REF, one2, one3)
        with pytest.raises(ValueError):
            inner_product(HLS4, one2, one2)


class TestDecompose:
    def test_constant_statistic(self):
        t = SymmetricStatistic.from_function(3, 3, lambda c: Fraction(5, 7))
        parts = [part for part, _ in decompose(POLYA_REF, t)]
        assert parts[0] == t
        assert not any(v for p in parts[1:] for v in p.as_vector())

    def test_uniform_iid_count_example(self):
        uniform = parse_law("iid:p=1/3,1/3,1/3")
        t = SymmetricStatistic.from_function(2, 3, lambda c: c[0])
        (f0, _), (f1, _), (f2, _) = decompose(uniform, t)
        assert f0 == SymmetricStatistic.from_function(2, 3, lambda c: Fraction(2, 3))
        expected_f1 = SymmetricStatistic.from_function(2, 3, lambda c: c[0] - Fraction(2, 3))
        assert f1 == expected_f1
        assert not any(f2.as_vector())

    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_reconstruction_orthogonality_idempotence(self, law):
        rng = random.Random(42)
        for n in (1, 2, 3):
            t = random_statistic(n, law.K, rng)
            parts = [part for part, _ in decompose(law, t)]
            assert len(parts) == n + 1
            total = parts[0]
            for p in parts[1:]:
                total = total + p
            assert total == t
            for j in range(n + 1):
                for k in range(j + 1, n + 1):
                    assert inner_product(law, parts[j], parts[k]) == 0
            # projecting a layer returns it unchanged in its own slot
            for k, part in enumerate(parts):
                again = [q for q, _ in decompose(law, part)]
                assert again[k] == part
                assert not any(
                    v for idx, q in enumerate(again) if idx != k for v in q.as_vector())

    def test_f0_is_the_mean(self):
        rng = random.Random(9)
        for law in (IID_REF, HLS3, MIX):
            t = random_statistic(3, 3, rng)
            one = SymmetricStatistic.from_function(3, 3, lambda c: 1)
            mean = inner_product(law, t, one)
            parts = [part for part, _ in decompose(law, t)]
            assert parts[0] == SymmetricStatistic.from_function(3, 3, lambda c: mean)

    def test_order_mismatch_rejected(self):
        t = SymmetricStatistic.from_function(2, 3, lambda c: 1)
        with pytest.raises(ValueError):
            decompose(HLS4, t)


def fraction_rhs_projection(matrix, weights, tvec):
    # the projection before integer sums: M^T W t accumulated term by
    # term in Fractions, then the same normal-equation solve
    rhs = []
    for a in range(len(matrix[0])):
        acc = Fraction(0)
        for w, mrow, tv in zip(weights, matrix, tvec):
            if mrow[a] and tv:
                acc += w * mrow[a] * tv
        rhs.append(acc)
    gram, den = _su_gram(matrix, weights)
    return linalg.solve([[Fraction(g, den) for g in row] for row in gram], rhs)


@given(st.sampled_from(ALL_LAWS), st.integers(1, 3), st.data())
def test_project_su_matches_fraction_rhs(law, n, data):
    size = len(compositions(n, law.K))
    tvec = data.draw(st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        min_size=size, max_size=size))
    weights = _class_weights(law, n)
    for k in range(n):
        matrix = _ustat_matrix(n, k, law.K)
        assert _project_su(matrix, weights, tvec) \
            == fraction_rhs_projection(matrix, weights, tvec)


@pytest.mark.parametrize("law", ALL_LAWS)
def test_gram_solve_matches_the_general_solver(law):
    # the integer SU Gram systems of decompose through solve_symmetric,
    # with no fallback, against the general pivoting solver
    for n in range(1, 5):
        weights = _class_weights(law, n)
        for k in range(n):
            gram, den = _su_gram(_ustat_matrix(n, k, law.K), weights)
            assert all(type(g) is int for row in gram for g in row) and den >= 1
            rhs = [3 * a - 7 for a in range(len(gram))]
            expected = linalg.solve(gram, rhs)
            with mock.patch.object(linalg, "solve", side_effect=AssertionError):
                assert linalg.solve_symmetric(gram, rhs) == expected


class TestKernelFor:
    def test_ustat_matrix_has_full_column_rank(self):
        # a statistic in SU_k has one order-k kernel, which _kernel_of reads
        # off its projection, and decompose takes SU_n as the whole space;
        # both rest on this
        for colors in range(1, 6):
            for n in range(6 if colors == 5 else 7):
                for k in range(n + 1):
                    assert nullspace(_ustat_matrix(n, k, colors)) == []
                size = len(compositions(n, colors))
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
                back = _kernel_of(IID_REF, f, k)
                assert back == phi
                x = linalg.solve(_ustat_matrix(n, k, 3), f.as_vector())
                assert back.as_vector() == x

    @pytest.mark.parametrize("law", [K2_LAWS[0], POLYA_REF, MIX, HLS4, HLS5], ids=format_law)
    def test_projection_kernel_matches_bareiss(self, law):
        # the kernel of the SU_k projection, kept when its U-statistic is
        # the statistic, against one Bareiss solve of the whole U-statistic
        # system: the same kernel inside SU_k, None outside
        rng = random.Random(29 + law.K)
        inside = outside = 0
        for n in range(10 - law.K):
            for k in range(n):
                matrix = _ustat_matrix(n, k, law.K)
                image = u_statistic(random_kernel(k, law.K, rng), n)
                for f in (image, random_statistic(n, law.K, rng)):
                    phi = _kernel_of(law, f, k)
                    x = linalg.solve(matrix, f.as_vector())
                    if f is image or x is not None:
                        assert phi.as_vector() == x
                        inside += 1
                    else:
                        assert phi is None
                        outside += 1
        assert inside and outside

    def test_constant_statistic_has_constant_kernel_image(self):
        f = SymmetricStatistic.from_function(4, 3, lambda c: math.comb(4, 2))
        phi = _kernel_of(IID_REF, f, 2)
        assert u_statistic(phi, 4) == f

    def test_zero_statistic(self):
        zero = SymmetricStatistic.from_function(3, 3, lambda c: 0)
        phi = _kernel_of(HLS3, zero, 2)
        assert not any(phi.as_vector())

    def test_outside_su_k_gives_none(self):
        t = SymmetricStatistic.from_function(2, 3, lambda c: c[0])
        assert _kernel_of(IID_REF, t, 0) is None
        assert _kernel_of(IID_REF, t, 1) is not None
        with pytest.raises(ValueError, match="0 <= k <= n"):
            _kernel_of(IID_REF, t, 3)


@settings(max_examples=30)
@given(st.data())
def test_decompose_carries_the_kernel_of_each_layer(data):
    # each kernel decompose gives, from the lift of consecutive projection
    # kernels, is the one kernel of its layer
    colors = data.draw(st.integers(2, 4), label="K")
    law = K2_LAWS[0] if colors == 2 else data.draw(drawn_laws(colors), label="law")
    n = data.draw(st.integers(0, 4), label="n")
    comps = compositions(n, colors)
    values = data.draw(st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        min_size=len(comps), max_size=len(comps)), label="values")
    t = SymmetricStatistic(n, colors, values)
    for k, (part, kernel) in enumerate(decompose(law, t)):
        assert kernel.order == k
        assert u_statistic(kernel, n) == part
        assert kernel == _kernel_of(law, part, k)


class TestDegeneracy:
    def test_centered_indicator(self):
        phi = SymmetricKernel.from_function(
            1, 3, lambda c: (1 if c[0] == 1 else 0) - IID_REF.p[0]
        )
        check = is_completely_degenerate(IID_REF, phi)
        assert check == DegeneracyCheck(True, None)

    def test_constant_kernel_fails_with_witness(self):
        phi = SymmetricKernel.from_function(2, 3, lambda c: 1)
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
            is_completely_degenerate(IID_REF, SymmetricKernel.from_function(0, 3, lambda c: 1))


@pytest.mark.parametrize("law", ALL_LAWS)
def test_degeneracy_check_agrees_with_the_constraint_rows(law):
    # both read the conditioning rows of _xi_pivots: a kernel is completely
    # degenerate exactly when it dots every row of xi_constraint_matrix to
    # 0, and the witness residual is the first nonzero dot product / P(h)
    rng = random.Random(35)
    for k in range(1, 5):
        rows = xi_constraint_matrix(law, k)
        null = nullspace(rows)
        coefs = [rng.randint(-5, 5) for _ in null]
        degenerate = [sum(c * v[idx] for c, v in zip(coefs, null)) for idx in range(len(rows[0]))]
        perturbed = list(degenerate)
        perturbed[rng.randrange(len(perturbed))] += 1
        kernels = [random_kernel(k, law.K, rng)] + [
            SymmetricKernel(k, law.K, vec) for vec in (degenerate, perturbed)]
        for phi in kernels:
            dots = [sum(a * v for a, v in zip(row, phi.as_vector())) for row in rows]
            check = is_completely_degenerate(law, phi)
            assert check.degenerate == (not any(dots))
            if not check.degenerate:
                first = next(r for r, dot in enumerate(dots) if dot)
                h = compositions(k - 1, law.K)[first]
                assert check.witness == (h, dots[first] / cylinder_prob(law, h))


def degeneracy_rows(law, k):
    comps_k = compositions(k, law.K)
    col = {c: idx for idx, c in enumerate(comps_k)}
    rows = []
    for h in compositions(k - 1, law.K):
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
            parts = [part for part, _ in decompose(law, t)]
            for k in range(1, n + 1):
                phi = degenerate_kernel_for(law, parts[k], k)
                assert phi is not None
                assert is_completely_degenerate(law, phi).degenerate
                assert u_statistic(phi, n) == parts[k]
                assert phi == _kernel_of(law, parts[k], k)

    @pytest.mark.parametrize("law", [IID_REF, POLYA_REF, HLS3])
    def test_degenerate_images_are_orthogonal_to_lower_layers(self, law):
        # the converse direction: any completely degenerate kernel has a
        # U-statistic orthogonal to all of SU_{k-1}
        rng = random.Random(23)
        for n in (2, 3):
            for k in range(1, n + 1):
                null = nullspace(degeneracy_rows(law, k))
                assert null
                coefs = [rng.randint(-5, 5) for _ in null]
                vec = [
                    sum((c * v[idx] for c, v in zip(coefs, null)), Fraction(0))
                    for idx in range(len(null[0]))
                ]
                phi = SymmetricKernel(k, law.K, vec)
                assert is_completely_degenerate(law, phi).degenerate
                image = u_statistic(phi, n)
                for c in compositions(k - 1, law.K):
                    indicator = SymmetricKernel.from_function(k - 1, law.K, lambda d: int(d == c))
                    lower = u_statistic(indicator, n)
                    assert inner_product(law, image, lower) == 0

    def test_returns_none_when_no_degenerate_kernel_exists(self):
        # the constant statistic 1 is not the U-statistic of any
        # completely degenerate order-1 kernel
        one = SymmetricStatistic.from_function(2, 3, lambda c: 1)
        assert degenerate_kernel_for(IID_REF, one, 1) is None


def back_substituted_basis(law, n):
    # the oracle's kernel for each free column, in column order
    return [_xi_kernel(law, n, f) for f in _xi_pivots(n, law.K)[1]]


class TestXiNullspace:
    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_basis_dimension(self, law):
        for n in (2, 3, 4):
            basis = back_substituted_basis(law, n)
            expect = math.comb(n + law.K - 1, law.K - 1) - math.comb(n + law.K - 2, law.K - 1)
            assert len(basis) == expect

    def test_basis_kernels_kill_the_conditional_expectation(self):
        for law in (IID_REF, HLS3, MIX):
            for n in (2, 3):
                for phi in back_substituted_basis(law, n):
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

    @pytest.mark.parametrize("law,n", [
        pytest.param(law, n, id=f"{name}-n{n}")
        for name, law in zip(("iid", "polya", "hls3", "hls3b", "mixture", "hls4", "hls5"),
                             ALL_LAWS + [HLS5])
        for n in range(1, 4 if law is HLS5 else 6)
    ])
    def test_back_substitution_is_the_generic_nullspace(self, law, n):
        # the back-substituted basis against Bareiss on the constraint
        # rows, vector for vector
        basis = [phi.as_vector() for phi in back_substituted_basis(law, n)]
        assert basis == nullspace(xi_constraint_matrix(law, n))

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1, 7)])
    def test_a_nonpositive_cylinder_is_refused(self, bad):
        # with some P(i) <= 0 the rows need not be in echelon form: the
        # order is refused rather than reduced against the wrong pivots;
        # the next order reads that class only as a row's scale
        def cylinder(i):
            return bad if tuple(i) == (1, 1, 0) else HLS3.cylinder(i)

        law = SimpleNamespace(K=3, cylinder=cylinder)
        with pytest.raises(
            ValueError,
            match=r"weak_independence_oracle needs P\(i\) > 0, got .* at \(1, 1, 0\)",
        ):
            weak_independence_oracle(law, 2)
        assert weak_independence_oracle(law, 3) == OracleResult(True, 4, None)


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

    @pytest.mark.parametrize("law,n", [
        pytest.param(law, n, id=f"{name}-n{n}")
        for name, law in zip(("iid", "polya", "hls3", "hls3b", "mixture", "hls4"), ALL_LAWS)
        for n in ((2, 3, 4, 5) if law is HLS4 else (2, 3, 4))
    ])
    def test_shared_rows_match_the_per_kernel_tables(self, law, n):
        assert weak_independence_oracle(law, n) == per_kernel_oracle(law, n)

    @pytest.mark.parametrize("law", [
        pytest.param(law, id=format_law(law)) for law in ALL_LAWS + K2_LAWS
    ])
    def test_one_reduction_per_row_equals_the_basis_oracle(self, law):
        # the reduced rows against every basis kernel's dot product, on
        # fresh laws so that neither route reads the other's memo
        spec = format_law(law)
        for n in range(2, 6):
            assert weak_independence_oracle(parse_law(spec), n) == basis_oracle(parse_law(spec), n)

    def test_only_a_witness_kernel_is_built(self):
        # a holding order builds no kernel at all, a failing one only its
        # witness's
        with mock.patch("hoeffding.decomp.SymmetricKernel", wraps=SymmetricKernel) as built:
            assert weak_independence_oracle(HLS4, 4).weakly_independent
            assert built.call_count == 0
            witness = weak_independence_oracle(MIX, 4).witness
            assert built.call_count == 1
        assert witness.kernel == nullspace_basis(MIX, 4)[witness.kernel_index]

    @pytest.mark.parametrize("law", [
        pytest.param(law, id=name)
        for name, law in zip(("iid", "polya", "hls3", "hls3b", "mixture", "hls4"), ALL_LAWS)
    ])
    def test_one_table_serves_every_order(self, law):
        # verify and the oracle read one memo of P(i) on the law: after a
        # sweep to n_max = 3 (orders 2..5), the oracle at n = 3 reads
        # nothing new, and at n = 2 only the order-1 classes that scale its
        # rows, which no criterion value reads; a path-product law already
        # holds them, from the walks down to the classes the sweep read
        law = parse_law(format_law(law))
        verify_hd(law, 3)
        swept = set(law._cylinders)
        shared = [weak_independence_oracle(law, 3)]
        assert set(law._cylinders) == swept
        shared.insert(0, weak_independence_oracle(law, 2))
        assert set(law._cylinders) == swept | set(compositions(1, law.K))
        fresh = [weak_independence_oracle(parse_law(format_law(law)), n) for n in (2, 3)]
        assert shared == fresh

    @pytest.mark.parametrize("n", [3, 4])
    def test_shared_rows_give_every_symmetrized_value(self, n):
        # the mixture's first witness sits on a class of one sequence, so
        # compare every value, also where the census has several splits
        comps = compositions(n, MIX.K)
        rows = {u: _oracle_rows(MIX, n, u) for u in range(2, n + 1)}
        assert all(len(row) == len(comps) for u in rows for _, row, _ in rows[u])
        values = [
            (idx, u, z, sum((coef * phi(c) for c, coef in zip(comps, row)), Fraction(0)) / scale)
            for idx, phi in enumerate(nullspace_basis(MIX, n))
            for u in range(2, n + 1)
            for z, row, scale in rows[u]
        ]
        assert values == list(per_kernel_values(MIX, n))
        assert any(v != 0 and max(z) < n - 1 for _, _, z, v in values)


def enumerated_count_census(colors, length):
    # the multiplicity of each count vector among all colors^length
    # sequences, by enumerating them
    tally = {}
    for seq in product(range(colors), repeat=length):
        c = counts_of(seq, colors)
        tally[c] = tally.get(c, 0) + 1
    return tuple(sorted(tally.items()))


def enumerated_block_split_census(colors, length, first_block):
    # per class z, how its sequences split their counts between the first
    # first_block coordinates and the rest, by enumerating the sequences
    tally = {}
    for seq in product(range(colors), repeat=length):
        a = counts_of(seq[:first_block], colors)
        b = counts_of(seq[first_block:], colors)
        inner = tally.setdefault(Composition(map(add, a, b)), {})
        inner[(a, b)] = inner.get((a, b), 0) + 1
    return {
        z: tuple((a, b, c) for (a, b), c in sorted(d.items()))
        for z, d in tally.items()
    }


@pytest.mark.parametrize("colors", [2, 3, 4])
def test_counted_censuses_equal_the_enumerated_ones(colors):
    for length in range(8):
        assert _count_census(colors, length) == enumerated_count_census(colors, length)
        for first in range(length + 1):
            counted = _block_split_census(colors, length, first)
            assert counted == enumerated_block_split_census(colors, length, first)


def shift_expectation_table(law, phi, n, u):
    # f(a, b): E[phi(u fresh draws pooled with a) | conditioning counts
    # a + b], one Fraction per (a, b), rebuilt for every kernel
    fresh = enumerated_count_census(law.K, u)
    out = {}
    for a in compositions(n - u, law.K):
        for b in compositions(u - 1, law.K):
            z = Composition(map(add, a, b))
            acc = Fraction(0)
            for wc, mult in fresh:
                v = phi(Composition(map(add, wc, a)))
                if v:
                    acc += mult * v * cylinder_prob(law, Composition(map(add, wc, z)))
            out[(a, b)] = acc / cylinder_prob(law, z)
    return out


def per_kernel_values(law, n):
    """(kernel index, u, z, symmetrized value) in witness order, from one
    table per basis kernel and u summed over the block-split census of z."""
    for idx, phi in enumerate(nullspace_basis(law, n)):
        for u in range(2, n + 1):
            table = shift_expectation_table(law, phi, n, u)
            census = enumerated_block_split_census(law.K, n - 1, n - u)
            for z in compositions(n - 1, law.K):
                num = sum((mult * table[(a, b)] for a, b, mult in census[z]), Fraction(0))
                total = sum(mult for _, _, mult in census[z])
                yield idx, u, z, num / total


def per_kernel_oracle(law, n):
    basis = nullspace_basis(law, n)
    for idx, u, z, value in per_kernel_values(law, n):
        if value != 0:
            witness = OracleWitness(idx, u, z, value, basis[idx])
            return OracleResult(False, len(basis), witness)
    return OracleResult(True, len(basis), None)


def _run_consistency(law):
    assert check_consistency(law, 3).passed


def _run_decompose(law):
    decompose(law, random_statistic(3, law.K, random.Random(5)))


def _run_degeneracy(law):
    phi = random_kernel(2, law.K, random.Random(9))
    assert not is_completely_degenerate(law, phi).degenerate


def _run_oracle(law):
    weak_independence_oracle(law, 3)


@pytest.mark.parametrize("family", ["hls", "mixture"])
@pytest.mark.parametrize("run", [_run_consistency, _run_decompose, _run_degeneracy, _run_oracle])
def test_a_dropped_law_is_freed(run, family):
    # these paths read P(i) from the law's own memo, which goes with the
    # law; the law-keyed cache behind cylinder_prob would keep it alive.
    # That cache finds an equal law it already holds, so each case uses
    # parameters no other test uses.
    t = 11 + [_run_consistency, _run_decompose, _run_degeneracy, _run_oracle].index(run)
    law = parse_law(f"hls:K=3,pi={t}/7,nu=13/5,alpha=2/{t}" if family == "hls" else
                    f"mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/{t},1/4,{3 * t - 4}/{4 * t}")
    run(law)
    assert law._cylinders
    ref = weakref.ref(law)
    del law
    gc.collect()
    assert ref() is None


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


def statistic_json(values):
    return {"order": 2, "K": 3, "values": [
        {"composition": list(c), "value": v} for c, v in values.items()]}


class TestTables:
    def test_total_map_required(self):
        grid = compositions(2, 3)
        partial = {c: 1 for c in grid[:-1]}
        with pytest.raises(ValueError, match="missing value"):
            statistic_from_jsonable(statistic_json(partial))

    def test_a_vector_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError, match="6 values for the order-2 grid over 4 colors"):
            SymmetricStatistic(2, 4, [1] * 6)
        # the length is checked against the grid's count; the grid is not built
        with mock.patch("hoeffding.decomp.compositions", side_effect=AssertionError):
            with pytest.raises(ValueError, match="0 values for the order-1000000 grid"):
                SymmetricStatistic(10**6, 3, [])

    @pytest.mark.parametrize("order,colors", [(1000, 3), (10**5, 3), (1, 10**6), (0, 10**9)])
    def test_a_short_table_is_refused_before_its_grid_is_built(self, order, colors):
        # a statistic file of a few bytes can name a grid of billions of
        # compositions; listing fewer values than the grid has is refused
        # from the count alone
        def small_compositions(total, parts):
            assert total <= 50 and parts <= 50, "enumerated a large grid"
            return compositions(total, parts)

        obj = {"order": order, "K": colors, "values": []}
        with mock.patch("hoeffding.decomp.compositions", small_compositions):
            with pytest.raises(ValueError, match="missing values: 0 listed"):
                statistic_from_jsonable(obj)

    def test_off_grid_values_rejected(self):
        values = {c: 1 for c in compositions(2, 3)}
        values[Composition((3, 0, 0))] = 1
        with pytest.raises(ValueError, match="off the order-2 grid"):
            statistic_from_jsonable(statistic_json(values))

    def test_off_grid_lookup_rejected(self):
        t = SymmetricStatistic.from_function(2, 3, lambda c: 1)
        with pytest.raises(ValueError):
            t((1, 0, 0))

    def test_kernels_and_statistics_do_not_compare_equal(self):
        k = SymmetricKernel.from_function(2, 3, lambda c: 1)
        s = SymmetricStatistic.from_function(2, 3, lambda c: 1)
        assert k != s

    def test_algebra(self):
        a = SymmetricStatistic.from_function(2, 3, lambda c: c[0])
        b = SymmetricStatistic.from_function(2, 3, lambda c: 2)
        assert (a + b)((2, 0, 0)) == 4
        with pytest.raises(ValueError):
            a + SymmetricStatistic.from_function(3, 3, lambda c: 1)

    def test_items_follow_enumeration_order(self):
        t = SymmetricStatistic.from_function(2, 3, lambda c: c[0])
        assert [c for c, _ in t.items()] == list(compositions(2, 3))


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
        obj = table_to_jsonable(SymmetricStatistic.from_function(2, 3, lambda c: 1))
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
        obj = table_to_jsonable(SymmetricStatistic.from_function(1, 3, lambda c: 1))
        obj["values"][0][field] = raw
        with pytest.raises(ValueError, match="malformed value entry"):
            statistic_from_jsonable(obj)

    def test_repeated_composition_rejected(self):
        # a second entry must not silently replace the first
        obj = {"order": 1, "K": 2, "values": [
            {"composition": [1, 0], "value": "1/2"},
            {"composition": [1, 0], "value": 7},
            {"composition": [0, 1], "value": 0},
        ]}
        with pytest.raises(ValueError, match=r"composition \[1, 0\] is listed more than once"):
            statistic_from_jsonable(obj)

    def test_unknown_fields_rejected(self):
        obj = table_to_jsonable(SymmetricStatistic.from_function(1, 3, lambda c: 1))
        with pytest.raises(ValueError, match=r"unknown statistic fields \['n'\]"):
            statistic_from_jsonable({**obj, "n": 1})
        obj["values"][1]["weight"] = 2
        with pytest.raises(ValueError, match=r"malformed value entry .*unknown fields \['weight'\]"):
            statistic_from_jsonable(obj)
        obj["values"][1] = [[0, 1, 0], 1]
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
