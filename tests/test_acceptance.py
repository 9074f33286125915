"""Acceptance gate.

Each test covers one numbered criterion and prints a single verdict
line; everything is exact rational arithmetic except the urn run,
which uses a seeded four-sigma band.  Run order follows the numbering.
"""

import random
from fractions import Fraction
from itertools import product
from math import comb

from hoeffding import linalg
from hoeffding.characterization import (
    check_identity,
    coherent_splits,
    sigma_hls,
    symmetrize_bisym,
    verify_hd,
    xi_basis,
    xi_dimension,
)
from hoeffding.decomp import (
    SymmetricStatistic,
    decompose,
    degenerate_kernel_for,
    inner_product,
    is_completely_degenerate,
    sh_dims,
    u_statistic,
    weak_independence_oracle,
    xi_constraint_matrix,
)
from hoeffding.exactnum import Composition, compositions
from hoeffding.laws import class_prob, parse_law
from hoeffding.urnsim import HLSUrn, UrnState, simulate, within_four_sigma

IID_REF = parse_law("iid:p=1/2,1/3,1/6")
POLYA_REF = parse_law("polya:alpha=1,2,3")
HLS3 = parse_law("hls:K=3,pi=1,nu=2,alpha=1/2")
HLS3B = parse_law("hls:K=3,pi=3/2,nu=5/2,alpha=1/3")
HLS4 = parse_law("hls:K=4,pi=1,nu=2,alpha=1/4,1/4")
MIX = parse_law("mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2")

ALL_LAWS = (IID_REF, POLYA_REF, HLS3, HLS3B, HLS4, MIX)


def _check(label, fn):
    try:
        fn()
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {label}: PASS", flush=True)


def test_criterion_1():
    def body():
        for law in (HLS3, HLS3B, HLS4):
            report = verify_hd(law, 5)
            assert report.all_zero and report.first_nonzero is None
            assert all(e.value == 0 for e in report.entries)
            obj = report.to_jsonable()
            assert all(e["value"] == "0/1" for e in obj["entries"])

    _check("1 hls criterion sweep is exactly zero through depth 5", body)


def test_criterion_2():
    def body():
        for law in (IID_REF, POLYA_REF):
            report = verify_hd(law, 4)
            assert report.all_zero
            assert all(e.value == 0 for e in report.entries)

    _check("2 iid and polya sweeps are exactly zero through depth 4", body)


def test_criterion_3():
    def body():
        sweep = verify_hd(MIX, 4)
        assert not sweep.all_zero
        n_star = sweep.first_nonzero.n
        assert n_star <= 4
        oracle = weak_independence_oracle(MIX, n_star)
        assert not oracle.weakly_independent and oracle.witness is not None

        for law in ALL_LAWS:
            report = verify_hd(law, 4)
            for n in (2, 3, 4):
                sweep_zero = all(e.value == 0 for e in report.entries if e.n == n)
                verdict = weak_independence_oracle(law, n).weakly_independent
                assert verdict == sweep_zero, (law, n)

    _check("3 mixture fails both routes and all verdicts agree", body)


def test_criterion_4():
    def body():
        for law in (HLS3, HLS4):
            colors = law.K
            for n in range(2, 6):
                matrix = xi_constraint_matrix(law, n)
                vectors = [phi.as_vector() for phi in xi_basis(law, n)]
                for vec in vectors:
                    for row in matrix:
                        s = sum((r * x for r, x in zip(row, vec)), Fraction(0))
                        assert s == 0
                expected = comb(n + colors - 1, colors - 1) - comb(
                    n + colors - 2, colors - 1)
                assert len(vectors) == expected == xi_dimension(n, colors)
                assert linalg.rank(vectors) == expected

    _check("4 closed-form kernels span the exact nullspace", body)


def test_criterion_5():
    def body():
        rng = random.Random(5)
        for m in range(1, 7):
            for z in compositions(m, 3):
                for v in range(0, m + 1):
                    table = {}
                    for k in coherent_splits(v, z):
                        ka = Composition((*k, v - sum(k)))
                        kb = Composition(tuple(zp - ap for zp, ap in zip(z, ka)))
                        table[(ka, kb)] = Fraction(
                            rng.randint(-9, 9), rng.randint(1, 9))
                    total = Fraction(0)
                    hits = 0
                    for seq in product(range(3), repeat=m):
                        counts = [0, 0, 0]
                        for j in seq:
                            counts[j] += 1
                        if Composition(counts) != z:
                            continue
                        a = [0, 0, 0]
                        for j in seq[:v]:
                            a[j] += 1
                        b = [zc - ac for zc, ac in zip(counts, a)]
                        total += table[(Composition(a), Composition(b))]
                        hits += 1
                    got = symmetrize_bisym(lambda a, b: table[(a, b)], v, z)
                    assert got == total / hits, (m, v, tuple(z))

    _check("5 symmetrization matches full sequence enumeration", body)


def test_criterion_6():
    def body():
        assert check_identity("sommedentro").holds
        assert check_identity("star-vandermonde").holds
        for pi, nu in ((1, 2), (Fraction(3, 2), Fraction(5, 2))):
            for n in range(2, 6):
                for u in range(2, n + 1):
                    for z1 in range(n):
                        lo = max(0, z1 - (u - 1))
                        hi = min(z1, n - u)
                        for k1 in range(lo, hi + 1):
                            for m in range(n + 1):
                                for k2 in range(n + 1):
                                    assert sigma_hls(
                                        pi, nu, n, u, m, z1, k1, k2) == 0

    _check("6 beta-ratio identities hold on their grids", body)


def test_criterion_7():
    def body():
        rng = random.Random(2026)
        for law in (IID_REF, POLYA_REF, HLS3):
            for n in range(1, 5):
                for _ in range(50):
                    stat = SymmetricStatistic.from_function(
                        n, 3,
                        lambda c: Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                    parts = [part for part, _ in decompose(law, stat)]
                    recon = parts[0]
                    for part in parts[1:]:
                        recon = recon + part
                    assert recon == stat
                    for j in range(n + 1):
                        for k in range(j + 1, n + 1):
                            assert inner_product(law, parts[j], parts[k]) == 0
                    for k in range(1, n + 1):
                        g = degenerate_kernel_for(law, parts[k], k)
                        assert g is not None
                        assert is_completely_degenerate(law, g).degenerate
                        assert u_statistic(g, n) == parts[k]

    _check("7 random statistics decompose exactly with degenerate layers", body)


def test_criterion_8():
    def body():
        urn = HLSUrn(("1/2",))
        samples = 100000
        for counts, seed in (((1, 2, 0), 11), ((1, 1, 1), 12)):
            two, three = {}, {}
            for s in range(samples):
                seq = simulate(UrnState(counts), urn, 3, seed=seed,
                               sample_index=s)
                for tally, prefix in ((two, seq[:2]), (three, seq)):
                    c = [0, 0, 0]
                    for j in prefix:
                        c[j] += 1
                    key = Composition(c)
                    tally[key] = tally.get(key, 0) + 1
            for n, tally in ((2, two), (3, three)):
                for comp in compositions(n, 3):
                    exact = class_prob(HLS3, comp)
                    assert within_four_sigma(
                        tally.get(comp, 0), samples, exact), (counts, comp)

    _check("8 urn frequencies sit inside the four-sigma bands", body)


def test_criterion_9():
    def body():
        assert check_identity("quandebello").holds
        assert check_identity("pascal-star").holds
        for law in ALL_LAWS:
            for n in range(1, 5):
                dims = sh_dims(law, n)
                assert len(dims) == n + 1
                assert all(d >= 1 for d in dims)

    _check("9 auxiliary identities hold and every layer is nontrivial", body)
