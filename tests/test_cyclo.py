"""Cyclotomic construction, q-integers, factored products."""

import concurrent.futures
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaltsum.cyclo import (
    CycloFactorization,
    cyclotomic,
    cyclotomic_power,
    expand,
    is_prime,
    prime_power_form,
    q_int,
    residue,
)
from qaltsum import polycore
from qaltsum.polycore import ONE, IntPoly, InvalidArgument, monomial
from qaltsum.qcomb import euler_phi, qbinom, qbinom_factored

from oracles import conv, poly_rem_brute


class TestQInt:
    def test_examples(self):
        assert q_int(1) == ONE
        assert q_int(3) == IntPoly("1 + q + q^2")
        assert q_int(2, step=4) == IntPoly("1 + q^4")

    def test_structure(self):
        p = q_int(5, step=3)
        assert p.degree == 12
        assert sum(p.coeffs) == 5 and set(p.coeffs) == {0, 1}

    @pytest.mark.parametrize("n,step", [(0, 1), (1, 0), (0, 0), (-2, 3)])
    def test_rejects(self, n, step):
        with pytest.raises(InvalidArgument):
            q_int(n, step)

    def test_closed_form(self):
        # (1 - q^(n*e)) = (1 - q^e) * [n] over q^e
        for n, e in [(4, 1), (3, 2), (7, 5)]:
            assert (monomial(n * e) - 1) == (monomial(e) - 1) * q_int(n, step=e)


KNOWN = {
    1: "-1 + q",
    2: "1 + q",
    3: "1 + q + q^2",
    4: "1 + q^2",
    6: "1 - q + q^2",
    8: "1 + q^4",
    9: "1 + q^3 + q^6",
    12: "1 - q^2 + q^4",
}


class TestCyclotomic:
    @pytest.mark.parametrize("d,text", sorted(KNOWN.items()))
    def test_known_values(self, d, text):
        assert cyclotomic(d) == IntPoly(text)

    def test_rejects_zero(self):
        with pytest.raises(InvalidArgument):
            cyclotomic(0)

    def test_product_over_divisors_is_qn_minus_1(self):
        for n in range(1, 201):
            prod = ONE
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == monomial(n) - 1, n

    def test_degree_is_totient(self):
        for d in range(1, 201):
            assert cyclotomic(d).degree == euler_phi(d), d

    def test_value_at_one(self):
        # p at prime powers, 1 when d has at least two distinct prime factors
        for d in range(2, 201):
            factors = {p for p in range(2, d + 1) if d % p == 0 and is_prime(p)}
            value = cyclotomic(d).evaluate(1)
            if len(factors) == 1:
                assert value == next(iter(factors)), d
            else:
                assert value == 1, d

    def test_first_nontrivial_coefficient(self):
        # the classical first index with a coefficient of magnitude 2
        p = cyclotomic(105)
        assert p.degree == 48
        assert p[7] == -2 and min(p.coeffs) == -2

    def test_palindromic(self):
        for d in (5, 7, 9, 10, 15, 24, 36, 100):
            cs = cyclotomic(d).coeffs
            assert cs == cs[::-1], d


    def test_powers_are_repeated_products(self):
        for d in range(1, 61):
            for e in range(1, 4):
                assert cyclotomic_power(d, e) == cyclotomic(d) ** e, (d, e)

    def test_highly_composite_index_is_reached(self):
        # 2*3*5*7*11*13: the mu = -1 factors have degree 45,504 in all, and
        # one long division by their dense product takes 30 s of CPU (x86-64,
        # CPython 3.11), against well under 1 s one two-term factor at a time
        start = time.perf_counter()
        phi = cyclotomic.__wrapped__(30030)  # uncached
        assert time.perf_counter() - start < 5.0
        assert phi.degree == 5760 and phi.evaluate(1) == 1


def _power(f, e):
    out = [1]
    for _ in range(e):
        out = conv(out, f)
    return out


class TestResidue:
    """Reduction modulo Phi_d^e by e steps by q^d - 1 and one long division."""

    @settings(deadline=None)
    @given(st.integers(1, 40), st.integers(1, 4), st.data())
    def test_matches_oracle(self, d, e, data):
        size = data.draw(st.one_of(st.integers(0, d), st.integers(0, d * e),
                                   st.integers(0, 300)))
        cs = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=size, max_size=size))
        mod = _power(list(cyclotomic(d).coeffs), e)
        want = poly_rem_brute(cs, mod)
        assert residue(cs, d, e) == want
        assert residue(cs, d, e, tuple(mod)) == want

    @settings(deadline=None)
    @given(st.integers(1, 40), st.integers(1, 4), st.data())
    def test_short_inputs_match_oracle(self, d, e, data):
        # up to d e coefficients go straight to the long division, past it
        # through the digits in base q^d - 1
        size = data.draw(st.one_of(st.integers(max(0, d * e - 1), d * e + 2),
                                   st.integers(0, d * e + 2)))
        cs = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=size, max_size=size))
        mod = _power(list(cyclotomic(d).coeffs), e)
        assert residue(cs, d, e) == poly_rem_brute(cs, mod)

    def test_multiples_reduce_to_zero(self):
        for d in (1, 2, 6, 12, 30):
            for e in (1, 2, 3):
                assert residue(list(cyclotomic_power(d, e).coeffs) + [0] * 5, d, e) == []
                assert residue(list((cyclotomic_power(d, e) * q_int(7)).coeffs), d, e) == []


class TestPrimePowerForm:
    def test_examples(self):
        assert prime_power_form(2, 1) == IntPoly("1 + q")
        assert prime_power_form(3, 2) == IntPoly("1 + q^3 + q^6")
        assert prime_power_form(2, 3) == IntPoly("1 + q^4")

    def test_matches_cyclotomic_bit_exactly(self):
        for p in (2, 3, 5, 7):
            for alpha in range(1, 7):
                assert prime_power_form(p, alpha) == cyclotomic(p**alpha), (p, alpha)

    def test_rejects(self):
        with pytest.raises(InvalidArgument):
            prime_power_form(4, 1)
        with pytest.raises(InvalidArgument):
            prime_power_form(3, 0)


class TestFactorization:
    def test_empty_is_one(self):
        assert expand(CycloFactorization({})) == ONE
        assert str(CycloFactorization({})) == "1"

    def test_examples(self):
        assert expand(CycloFactorization({2: 1, 3: 1})) == IntPoly("1 + 2*q + 2*q^2 + q^3")
        assert expand(CycloFactorization({3: 1, 4: 1})) == qbinom(4, 2)

    def test_multiplicity(self):
        assert expand(CycloFactorization({2: 2})) == IntPoly("1 + 2*q + q^2")
        assert str(CycloFactorization({2: 2, 4: 1})) == "Phi_2^2 * Phi_4"

    def test_degree_is_weighted_totient_sum(self):
        rng = random.Random(7)
        for _ in range(20):
            factors = {d: rng.randint(1, 3) for d in rng.sample(range(1, 40), 4)}
            f = CycloFactorization(factors)
            assert expand(f).degree == sum(m * euler_phi(d) for d, m in factors.items())

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.integers(1, 110), st.integers(1, 3), max_size=3))
    def test_expand_matches_chained_convolution(self, factors):
        # Phi_105 and others above it have coefficients outside {-1, 0, 1}
        want = [1]
        for d, m in factors.items():
            for _ in range(m):
                want = conv(want, list(cyclotomic(d).coeffs))
        assert list(expand(CycloFactorization(factors)).coeffs) == want

    def test_signed_factors_keep_the_slots_narrow(self, monkeypatch):
        # the l1 norms of the cyclotomic factors of qbinom(100, 50) multiply
        # to 268 bits, while its coefficients have 88
        widths = []
        pack = polycore._pack
        monkeypatch.setattr(polycore, "_pack",
                            lambda cs, bits, nbytes: widths.append(bits) or pack(cs, bits, nbytes))
        assert expand(qbinom_factored(100, 50)) == qbinom(100, 50)
        assert max(widths) <= 104

    def test_each_factor_is_packed_once_per_width(self, monkeypatch):
        polycore._factor_memo.cache_clear()
        packs = []
        pack = polycore._pack
        monkeypatch.setattr(polycore, "_pack",
                            lambda cs, bits, nbytes: packs.append((cs, bits)) or pack(cs, bits, nbytes))
        for n in range(21):
            for k in range(n + 1):
                assert expand(qbinom_factored(n, k)) == qbinom(n, k), (n, k)
        phis = {cyclotomic(d).coeffs for d in range(1, 21)}
        packed = Counter((cs, bits) for cs, bits in packs if isinstance(cs, tuple) and cs in phis)
        assert len(packed) > 20 and max(packed.values()) == 1

    def test_rejects_bad_entries(self):
        with pytest.raises(InvalidArgument):
            CycloFactorization({0: 1})
        with pytest.raises(InvalidArgument):
            CycloFactorization({3: 0})


class TestIsPrime:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in primes), n


class TestCacheConcurrency:
    def test_parallel_readers_agree(self):
        # hammer the memoized construction from several threads; duplicate
        # computation is fine, inconsistent results are not
        ds = list(range(1, 80)) * 4
        random.Random(0).shuffle(ds)
        expected = {d: cyclotomic(d) for d in range(1, 80)}
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda d: (d, cyclotomic(d)), ds))
        for d, poly in results:
            assert poly == expected[d]
