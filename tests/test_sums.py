"""The alternating-sum families and their cross-identities."""

import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaltsum import sums
from qaltsum._kernels_py import divexact_steps
from qaltsum.cyclo import CycloFactorization, expand
from qaltsum.polycore import ZERO, IntPoly, InvalidArgument
from qaltsum.qcomb import binom, dset, nu_p_int, qbinom
from qaltsum.sums import (
    alt_power_sum,
    alt_power_sum_filtered,
    alt_power_sum_mod,
    alt_power_sums_mod,
    gjz_sum,
    pattern_sum,
    triple_sum,
    triple_sum_degree,
)

from oracles import (
    alt_sum_brute,
    conv,
    filtered_sum_brute,
    gjz_sum_brute,
    gjz_sum_q,
    pattern_sum_brute,
    pattern_sum_q,
    poly_at_root,
    q_alt_sum,
    root_of_unity,
    triple_sum_at_root,
    triple_sum_brute,
    triple_sum_q,
)

# The integer sums are evaluated over half their range; these pin each
# family against its full-range definition, for odd and even n (the power
# sum itself: TestAltPowerSum).
small_n = st.integers(1, 14)
exponent = st.integers(1, 5)
prime = st.sampled_from([2, 3, 5])
# the filter reads p | C(2n, k) from the row, so wider draws are cheap
filter_n = st.integers(1, 60)
filter_prime = st.sampled_from([2, 3, 5, 7, 11, 13])
# (N, K, m) with N <= 80 and 0 <= K <= K + m <= N
binomial_row = st.integers(0, 80).flatmap(
    lambda N: st.integers(0, N).flatmap(
        lambda K: st.tuples(st.just(N), st.just(K), st.integers(0, N - K))))
index_set = st.sets(st.integers(1, 4), min_size=1, max_size=3).map(sorted)
composition = st.lists(st.integers(1, 5), min_size=1, max_size=4)


class TestFoldedIntegerSums:
    """Each folded integer family against its full-range oracle."""

    @given(filter_n, exponent, filter_prime, st.sampled_from(["p_divides", "p_ndivides"]))
    @example(4, 1, 2, "p_divides").via("even n")
    @example(5, 2, 3, "p_ndivides").via("odd n")
    def test_filtered_sum(self, n, r, p, which):
        expected = filtered_sum_brute(n, r, p, which == "p_divides")
        assert alt_power_sum_filtered(n, r, p, which) == expected

    @given(small_n, exponent, prime, index_set)
    @example(4, 2, 2, [1, 2]).via("even n")
    @example(13, 3, 3, [1, 2]).via("odd n, carries at 3 and 9")
    @example(12, 1, 5, [1]).via("r = 1")
    def test_pattern_sum(self, n, r, p, I):
        assert pattern_sum(n, r, p, I, "integer") == pattern_sum_brute(n, r, p, I)

    @given(st.sampled_from([6, 8]), st.integers(1, 5), exponent, exponent, exponent)
    @example(6, 2, 1, 1, 1).via("even n")
    @example(8, 3, 2, 1, 3).via("odd n")
    def test_triple_sum(self, width, n, r, s, t):
        family = "six_four_two" if width == 6 else "eight_four_two"
        assert triple_sum(family, n, r, s, t, "integer") == triple_sum_brute(width, n, r, s, t)

    @given(composition)
    @example([3]).via("h = 1")
    @example([5, 1]).via("h = 2, n1 > min")
    @example([2, 4, 3]).via("h = 3")
    @example([4, 5, 2, 3]).via("h = 4, min not first")
    def test_gjz_sum(self, ns):
        assert gjz_sum(ns, "integer") == gjz_sum_brute(ns)

    def test_even_sum_reads_the_half_range(self):
        # [T(0), ..., T(5)] stands for the eleven terms k = -5..5
        assert sums._even_sum([1] * 6) == 1 + 2 * (2 - 3)
        assert sums._even_sum([7]) == 7

    def test_even_sum_holds_a_few_values_at_a_time(self):
        # 41 values of 125 kB each, as alt_power_sum's powers: held together
        # they would take 5 MB
        big = 1 << 10**6
        tracemalloc.start()
        try:
            total = sums._even_sum(big + j for j in range(41))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert total - big == 40


class TestAltPowerSum:
    def test_examples(self):
        assert alt_power_sum(1, 2) == -2
        assert alt_power_sum(2, 3) == 90
        assert alt_power_sum(2, 4) == 786

    def test_against_pascal_oracle(self):
        # the sum is folded about k = n, so odd and even n both matter
        for n in range(1, 13):
            for r in range(1, 6):
                assert alt_power_sum(n, r) == alt_sum_brute(n, r)

    def test_r_one_vanishes(self):
        for n in range(1, 12):
            assert alt_power_sum(n, 1) == 0

    def test_huge_exponent(self):
        # closed form for n = 1: 1 - 2^r + 1
        assert alt_power_sum(1, 10001) == 2 - 2**10001

    def test_closed_forms(self):
        for n in range(1, 13):
            assert alt_power_sum(n, 2) == (-1) ** n * binom(2 * n, n)
            assert alt_power_sum(n, 3) == (-1) ** n * binom(2 * n, n) * binom(3 * n, n)

    def test_reindexing_symmetry(self):
        # the centered sum equals (-1)^n times the [0, 2n] sum
        for n in range(1, 11):
            for r in range(1, 6):
                centered = sum(
                    (-1 if k % 2 else 1) * binom(2 * n, n + k) ** r
                    for k in range(-n, n + 1)
                )
                assert centered == (-1) ** n * alt_power_sum(n, r)

    @given(binomial_row)
    @example((80, 40, 40)).via("the central row of n = 40")
    @example((7, 0, 7)).via("a whole row")
    def test_row_is_the_binomial_row(self, args):
        N, K, m = args
        assert sums._row(N, K, m) == [math.comb(N, K + j) for j in range(m + 1)]

    def test_rejects(self):
        with pytest.raises(InvalidArgument):
            alt_power_sum(0, 2)
        with pytest.raises(InvalidArgument):
            alt_power_sum(2, 0)


class TestAltPowerSumMod:
    @given(st.integers(1, 12), st.integers(1, 30), st.integers(1, 10**40))
    @example(3, 4, 1)
    @example(2, 4, 6 * (2**61 - 1))  # C(4, 2) times the calkin prime
    @example(5, 7, 2**10)
    @example(1, 62, 2 * (2**61 - 1))  # the residue vanishes, the sum does not
    def test_is_the_sum_mod_m(self, n, r, m):
        assert alt_power_sum_mod(n, r, m) == alt_power_sum(n, r) % m

    def test_huge_exponent(self):
        # closed form for n = 1: 2 - 2^r
        m = 10**30 + 57
        for r in [10**50, 10**300] * 4:
            assert alt_power_sum_mod(1, r, m) == (2 - pow(2, r, m)) % m

    @pytest.mark.parametrize("n, r", [(0, 2), (2, 0), (-1, 1)])
    def test_rejects_what_the_full_sum_rejects(self, n, r):
        with pytest.raises(InvalidArgument) as full:
            alt_power_sum(n, r)
        with pytest.raises(InvalidArgument) as mod:
            alt_power_sum_mod(n, r, 7)
        assert str(mod.value) == str(full.value)

    @pytest.mark.parametrize("m", [0, -3])
    def test_rejects_modulus_below_one(self, m):
        with pytest.raises(InvalidArgument, match="m >= 1"):
            alt_power_sum_mod(2, 2, m)


CALKIN_PRIME = 2**61 - 1


def _reference(n, r, m):
    """alt_power_sum(n, r) % m.  Where the full sum would have millions of
    bits the terms are powered modulo m one by one, over the full range
    0..2n."""
    if r * binom(2 * n, n).bit_length() <= 1 << 22:
        return alt_power_sum(n, r) % m
    return sum((-1) ** k * pow(binom(2 * n, k), r, m) for k in range(2 * n + 1)) % m


class TestAltPowerSumsMod:
    @settings(deadline=None)
    @given(st.integers(1, 12), st.sampled_from([1, 15, 16, 255, 4096, 10**6, 10**50]),
           st.integers(1, 20), st.integers(1, 3),
           st.one_of(st.sampled_from([1, 2, 7, "calkin"]), st.integers(10**39, 10**40 - 1)))
    def test_each_exponent_is_the_sum_mod_m(self, n, start, length, step, m):
        m = binom(2 * n, n) * CALKIN_PRIME if m == "calkin" else m
        rs = range(start, start + length * step, step)
        assert list(alt_power_sums_mod(n, rs, m)) == [_reference(n, r, m) for r in rs]

    @pytest.mark.parametrize("rs", [range(3, 3), range(5, 1), range(5, 1, -1)])
    def test_rejects_an_empty_or_descending_range(self, rs):
        with pytest.raises(InvalidArgument, match="nonempty ascending range"):
            alt_power_sums_mod(2, rs, 7)

    def test_checks_its_arguments_at_the_call(self):
        with pytest.raises(InvalidArgument) as full:
            alt_power_sum(2, 0)
        with pytest.raises(InvalidArgument) as mod:
            alt_power_sums_mod(2, range(0, 3), 7)
        assert str(mod.value) == str(full.value)
        with pytest.raises(InvalidArgument, match="m >= 1"):
            alt_power_sums_mod(2, range(1, 3), 0)


class TestFilteredSums:
    def test_examples(self):
        assert alt_power_sum_filtered(2, 2, 2, "p_ndivides") == 2
        assert alt_power_sum_filtered(2, 2, 2, "p_divides") == 4
        assert alt_power_sum_filtered(1, 1, 2, "p_divides") == -2

    def test_partition_identity(self):
        for n in range(1, 21):
            for r in range(1, 5):
                for p in (2, 3, 5):
                    both = alt_power_sum_filtered(
                        n, r, p, "p_divides"
                    ) + alt_power_sum_filtered(n, r, p, "p_ndivides")
                    assert both == alt_power_sum(n, r), (n, r, p)

    def test_rejects(self):
        with pytest.raises(InvalidArgument):
            alt_power_sum_filtered(2, 2, 4, "p_divides")
        with pytest.raises(InvalidArgument):
            alt_power_sum_filtered(2, 2, 2, "sometimes")


class TestPatternSum:
    def test_integer_example(self):
        assert pattern_sum(2, 2, 2, [1], "integer") == -32

    def test_q_example(self):
        # direct expansion of -(1 + q^3)(1 + q + q^2 + q^3)^2
        sq = conv([1, 1, 1, 1], [1, 1, 1, 1])
        expected = IntPoly([-c for c in conv([1, 0, 0, 1], sq)])
        assert expected == IntPoly([-1, -2, -3, -5, -5, -5, -5, -3, -2, -1])
        assert pattern_sum(2, 2, 2, [1], "q") == expected

    def test_empty_index_match_gives_zero(self):
        assert pattern_sum(1, 1, 3, [1], "integer") == 0
        assert pattern_sum(1, 1, 3, [1], "q") == ZERO

    def test_integer_mode_is_q_at_one(self):
        for n in range(1, 7):
            for r in (1, 2):
                for p in (2, 3):
                    for I in ([1], [2], [1, 2]):
                        q_val = pattern_sum(n, r, p, I, "q")
                        assert q_val.evaluate(1) == pattern_sum(n, r, p, I, "integer")

    def test_inclusion_exclusion_against_filtered_sum(self):
        from itertools import combinations

        for n in range(1, 11):
            for r in (1, 2, 3):
                for p in (2, 3):
                    h, power = 0, 1
                    while power * p <= 2 * n:
                        power *= p
                        h += 1
                    h += 1
                    total = 0
                    for size in range(1, h + 1):
                        for I in combinations(range(1, h + 1), size):
                            sign = -1 if size % 2 == 0 else 1
                            total += sign * pattern_sum(n, r, p, I, "integer")
                    assert total == alt_power_sum_filtered(n, r, p, "p_divides"), (n, r, p)

    def test_rejects(self):
        with pytest.raises(InvalidArgument):
            pattern_sum(2, 1, 2, [], "integer")
        with pytest.raises(InvalidArgument):
            pattern_sum(2, 1, 9, [1], "integer")
        with pytest.raises(InvalidArgument):
            pattern_sum(2, 1, 2, [0], "integer")
        with pytest.raises(InvalidArgument):
            pattern_sum(2, 1, 2, [1], "polynomial")


class TestGjzSum:
    def test_examples(self):
        assert gjz_sum((1, 1), "q") == IntPoly("q + q^2")
        assert gjz_sum((1, 1), "integer") == 2
        assert gjz_sum((1, 1, 1), "integer") == 6

    def test_single_part_composition(self):
        # h = 1 wraps onto itself: the centered r = 1 power sum
        for n in range(1, 6):
            expected = sum(
                (-1 if k % 2 else 1) * binom(2 * n, n + k) for k in range(-n, n + 1)
            )
            assert gjz_sum((n,), "integer") == expected

    def test_integer_is_q_at_one(self):
        for ns in [(1,), (2,), (1, 2), (2, 1), (3, 2), (1, 1, 2), (2, 2, 2)]:
            assert gjz_sum(ns, "q").evaluate(1) == gjz_sum(ns, "integer"), ns

    def test_brute_force_small(self):
        # composition (2, 1): product over the cyclic pairs (2,1) and (1,2)
        expected = sum(
            (-1 if k % 2 else 1)
            * binom(3, 2 + k)
            * binom(3, 1 + k)
            for k in range(-2, 3)
        )
        assert gjz_sum((2, 1), "integer") == expected

    def test_rejects(self):
        with pytest.raises(InvalidArgument):
            gjz_sum((), "integer")
        with pytest.raises(InvalidArgument):
            gjz_sum((1, 0), "integer")


class TestTripleSum:
    def test_examples(self):
        assert triple_sum("six_four_two", 1, 1, 1, 1, "integer") == 120
        assert triple_sum("eight_four_two", 1, 2, 1, 1, "integer") == 33712
        assert triple_sum("six_four_two", 1, 1, 1, 1, "q").evaluate(1) == 120

    def test_brute_force_against_binomials(self):
        for family, width in (("six_four_two", 6), ("eight_four_two", 8)):
            for n in (1, 2):
                for r, s, t in [(1, 1, 1), (2, 1, 1), (1, 2, 3)]:
                    expected = sum(
                        (-1 if k % 2 else 1)
                        * binom(width * n, width * n // 2 + k) ** r
                        * binom(4 * n, 2 * n + k) ** s
                        * binom(2 * n, n + k) ** t
                        for k in range(-n, n + 1)
                    )
                    assert triple_sum(family, n, r, s, t, "integer") == expected

    def test_mode_consistency(self):
        for family in ("six_four_two", "eight_four_two"):
            for n in range(1, 5):
                for rst in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2)]:
                    q_val = triple_sum(family, n, *rst, "q")
                    assert q_val.evaluate(1) == triple_sum(family, n, *rst, "integer")

    def test_q_weight_keeps_terms_polynomial(self):
        # negative k contributes k(k-1)/2 >= 0, so no negative exponents
        for k in range(-8, 9):
            assert k * (k - 1) // 2 >= 0

    def test_rejects(self):
        with pytest.raises(InvalidArgument):
            triple_sum("five_four_two", 1, 1, 1, 1)
        with pytest.raises(InvalidArgument):
            triple_sum("six_four_two", 0, 1, 1, 1)


def _claim_ds(n):
    """Every d of a thm2 or cj2 q modulus at n, printed t2c2 form included."""
    alpha, beta = nu_p_int(n, 2).value, nu_p_int(n, 3).value
    ds = {*dset(6 * n, n), *dset(6 * n, 3 * n), *dset(8 * n, 3 * n)}
    ds |= {2 ** (a + 1) for a in range(alpha + 3)} | {3 ** (beta + 1)}
    return ds | {3 * 2**j for j in range(alpha + 1)}


class TestTripleSumResidues:
    """triple_sum(..., "q", modulo=F) against the full q sum, reduced."""

    @given(st.sampled_from(["six_four_two", "eight_four_two"]), st.integers(1, 4),
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.sampled_from([1, 2]))
    @example("six_four_two", 1, 1, 1, 1, 2).via("Phi_2^2 divides, Phi_4^2 does not")
    @example("eight_four_two", 4, 3, 3, 3, 2).via("the largest d and rows")
    @settings(deadline=None, max_examples=60)
    def test_residues_are_the_full_sum_reduced(self, family, n, r, s, t, e):
        full = triple_sum(family, n, r, s, t, "q")
        ds = _claim_ds(n)
        got = triple_sum(family, n, r, s, t, "q", modulo=CycloFactorization(dict.fromkeys(ds, e)))
        assert sorted(got) == sorted(ds)
        for d in ds:
            mod = expand(CycloFactorization({d: e})).coeffs
            assert list(got[d].coeffs) == divexact_steps(list(full.coeffs), mod)[1], d

    @given(st.sampled_from(["six_four_two", "eight_four_two"]), st.integers(1, 4),
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
    def test_degree_is_that_of_the_k0_term(self, family, n, r, s, t):
        full = triple_sum(family, n, r, s, t, "q")
        assert triple_sum_degree(family, n, r, s, t) == full.degree
        assert full.coeffs[-1] == 1

    def test_claims_on_one_sum_share_its_residues(self):
        # t2c1 and t2c2 ask for the same six_four_two sum over overlapping d
        def residues(factors):
            return triple_sum("six_four_two", 3, 2, 1, 2, "q", modulo=CycloFactorization(factors))

        sums._triple_residue.cache_clear()
        first, second = residues({2: 2, 5: 1, 7: 1}), residues({2: 2, 7: 1, 9: 1})
        info = sums._triple_residue.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (2, 4, sums._RESIDUES)
        assert first[2] == second[2] and first[7] == second[7]
        sums._triple_residue.cache_clear()
        assert residues({9: 1, 7: 1, 2: 2}) == {d: second[d] for d in (2, 7, 9)}

    def test_phi_1_is_the_value_at_one(self):
        got = triple_sum("six_four_two", 2, 1, 2, 1, "q", modulo=CycloFactorization({1: 1}))
        assert got == {1: IntPoly(triple_sum("six_four_two", 2, 1, 2, 1, "integer"))}

    def test_rejects_a_modulus_outside_q_mode(self):
        with pytest.raises(InvalidArgument):
            triple_sum("six_four_two", 1, 1, 1, 1, "integer", modulo=CycloFactorization({2: 1}))


class TestTripleSumAtRootsOfUnity:
    """triple_sum(..., "q", modulo=F) against the sum's value at a root of unity.

    Beyond n = 4 the full sum is too large to build here, so the oracle
    evaluates it term by term at q = zeta + eps in F_p[eps]/(eps^e), zeta
    a primitive d-th root of unity in F_p (tests/oracles.py).  The residue
    modulo Phi_d^e takes the same value there.
    """

    def test_root_has_order_d(self):
        for d in (1, 2, 6, 7, 16, 193):
            p, zeta = root_of_unity(d)
            assert (p - 1) % d == 0 and p > 1 << 61
            assert [k for k in range(1, d + 1) if pow(zeta, k, p) == 1] == [d]

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_oracle_is_the_full_sum_at_the_root(self, e):
        for width, n, rst in ((6, 1, (1, 1, 1)), (8, 2, (2, 1, 3)), (6, 3, (1, 2, 1))):
            full = triple_sum_q(width, n, *rst)
            for d in (1, 2, 3, 4, 5, 8, 12, 13):
                p, zeta, value = triple_sum_at_root(width, n, *rst, d, e)
                assert poly_at_root(full, zeta, p, e) == value, (width, n, d)

    @pytest.mark.parametrize("n", [16, 24, 32, 64])
    @pytest.mark.parametrize("family, width", [("six_four_two", 6), ("eight_four_two", 8)])
    def test_residues_take_the_sums_values(self, family, width, n):
        A = width * n
        two = 2 ** (nu_p_int(n, 2).value + 1)
        # small d, claim moduli, and d in no carry set (nonzero residues); e = 2 at four d
        factors = dict.fromkeys((*range(1, 13), 2 * two, n - 1, n + 1, 2 * n - 1, 3 * n - 1,
                                 A // 2 + 1, A - 1, A + 1), 1)
        squared = (2, 3, 5, two)
        if n == 64:  # there Phi_(A+1) alone, and each of Phi_2^2, Phi_3^2, Phi_5^2, takes seconds
            del factors[A + 1]
            # Phi_two^2 divides both sums, so six_four_two also takes Phi_2^2,
            # a nonzero value that checks the q-Pascal rows modulo a square
            squared = (2, two) if family == "six_four_two" else (two,)
        factors.update(dict.fromkeys(squared, 2))
        got = triple_sum(family, n, 3, 2, 2, "q", modulo=CycloFactorization(factors))
        nonzero = 0
        for d, e in factors.items():
            p, zeta, value = triple_sum_at_root(width, n, 3, 2, 2, d, e)
            assert poly_at_root(got[d].coeffs, zeta, p, e) == value, (d, e)
            nonzero += any(value)
        assert nonzero >= 7


class TestPackedQSums:
    """The packed evaluator against a term-by-term reference on coefficient lists."""

    def test_triple_matches_reference(self):
        for family, width in (("six_four_two", 6), ("eight_four_two", 8)):
            for n in (1, 2, 3):
                for rst in [(1, 1, 1), (2, 1, 1), (1, 3, 2), (3, 3, 3)]:
                    got = triple_sum(family, n, *rst, "q")
                    assert list(got.coeffs) == triple_sum_q(width, n, *rst), (family, n, rst)

    def test_gjz_matches_reference(self):
        # parts smaller than n1 make some factors zero for the extreme k
        for ns in [(1,), (3,), (1, 1), (2, 1), (1, 3), (3, 1, 2), (2, 2, 2), (4, 1, 3, 2)]:
            assert list(gjz_sum(ns, "q").coeffs) == gjz_sum_q(ns), ns

    def test_pattern_matches_reference(self):
        for n in range(1, 9):
            for r in (1, 2, 3):
                for p in (2, 3, 5):
                    for I in ((1,), (2,), (1, 2)):
                        got = pattern_sum(n, r, p, I, "q")
                        assert list(got.coeffs) == pattern_sum_q(n, r, p, I), (n, r, p, I)

    def test_factors_with_negative_coefficients_match_reference(self, monkeypatch):
        # the slot width comes from l1 norms, so it holds for any signs
        f = [1, -1, 1]
        monkeypatch.setattr(sums, "qbinom", lambda n, k: IntPoly(f))
        assert list(triple_sum("six_four_two", 1, 2, 3, 1, "q").coeffs) == q_alt_sum(
            (k, [(f, 2), (f, 3), (f, 1)]) for k in range(-1, 2))
        assert list(gjz_sum((2, 1), "q").coeffs) == q_alt_sum(
            (k, [(f, 1), (f, 1)]) for k in range(-2, 3))
        ks = [k for k in range(5) if 4 // 2 > k // 2 + (4 - k) // 2]  # carry at 2
        assert list(pattern_sum(2, 3, 2, [1], "q").coeffs) == q_alt_sum(
            (k, [(f, 3)]) for k in ks)

    def test_shared_products_and_cancellation(self):
        # +-k share one packed product; a sum whose terms cancel is ZERO
        assert sums._packed_sum([]) == ZERO
        f = qbinom(4, 2)
        assert sums._packed_sum([(0, [(f, 2)]), (2, [(f, 2)])]) == (f**2) + (f**2).shifted(1)
        assert sums._packed_sum([(1, [(f, 1)]), (0, [(f, 1)])]) == ZERO

    def test_coefficients_at_the_bound_fit_their_slots(self):
        # 200 equal monomial terms: one coefficient equals the q = 1 bound,
        # which needs the sign bit on top of its 8 bits
        one = qbinom(5, 0)
        assert sums._packed_sum([(0, [(one, 1)])] * 200) == IntPoly(200)
        assert sums._packed_sum([(1, [(one, 3)])] * 255) == IntPoly(-255)


def test_triple_sum_uses_qbinom_boundary_convention():
    # the k = +-n boundary factors hit the edge of every binomial range
    poly = triple_sum("six_four_two", 1, 1, 1, 1, "q")
    k_terms = [
        (qbinom(6, 3 + k) ** 1 * qbinom(4, 2 + k) * qbinom(2, 1 + k)).shifted(
            k * (k - 1) // 2
        )
        for k in (-1, 0, 1)
    ]
    assert poly == k_terms[0].__neg__() + k_terms[1] - k_terms[2]
