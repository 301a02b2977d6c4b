"""The alternating-sum families and their cross-identities."""

import pytest

from qaltsum import sums
from qaltsum.polycore import ZERO, IntPoly, InvalidArgument
from qaltsum.qcomb import binom, qbinom
from qaltsum.sums import (
    SumSpec,
    alt_power_sum,
    alt_power_sum_filtered,
    gjz_sum,
    pattern_sum,
    triple_sum,
)

from oracles import alt_sum_brute, conv, gjz_sum_q, pattern_sum_q, q_alt_sum, triple_sum_q


class TestAltPowerSum:
    def test_examples(self):
        assert alt_power_sum(1, 2) == -2
        assert alt_power_sum(2, 3) == 90
        assert alt_power_sum(2, 4) == 786

    def test_against_pascal_oracle(self):
        for n in range(1, 9):
            for r in range(1, 5):
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

    def test_rejects(self):
        with pytest.raises(InvalidArgument):
            alt_power_sum(0, 2)
        with pytest.raises(InvalidArgument):
            alt_power_sum(2, 0)


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


class TestSumSpec:
    def test_power(self):
        assert SumSpec("power", 2, (4,)).compute() == 786

    def test_gjz(self):
        assert SumSpec("gjz", (1, 1), mode="q").compute() == IntPoly("q + q^2")

    def test_triple(self):
        assert SumSpec("triple_642", 1, (1, 1, 1)).compute() == 120
        assert SumSpec("triple_842", 1, (2, 1, 1)).compute() == 33712

    def test_pattern(self):
        spec = SumSpec("pattern", 2, (2,), (2, (1,)), "integer")
        assert spec.compute() == -32

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            SumSpec("power", 2, (0,))
        with pytest.raises(InvalidArgument):
            SumSpec("pattern", 2, (1,))
        with pytest.raises(InvalidArgument):
            SumSpec("power", 2, (1,), mode="q").compute()


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
