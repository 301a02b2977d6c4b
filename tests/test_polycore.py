"""Ring arithmetic, exact division, packed products, text forms."""

import functools
from itertools import islice
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaltsum import _kernels_py, polycore
from qaltsum.cyclo import cyclotomic
from qaltsum.polycore import (
    ONE,
    ZERO,
    CongruenceWitness,
    IntPoly,
    NotDivisible,
    ZeroPolynomial,
    _mul_kronecker,
    _pack,
    _slot_bits,
    _unpack,
    divexact,
    divexact_qm1,
    divmod_qm1,
    monomial,
    mul_qm1,
    packed_sum,
    product,
)

from oracles import conv, poly_add, poly_rem_brute

coeffs_st = st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=65)
polys = coeffs_st.map(IntPoly)
nonzero_polys = polys.filter(bool)


class TestArithmeticExamples:
    def test_add_cancellation(self):
        assert IntPoly("1 + q") + IntPoly("1 - q") == IntPoly(2)

    def test_difference_of_squares(self):
        assert IntPoly("1 + q") * IntPoly("1 - q") == IntPoly("1 - q^2")

    def test_mul_matches_convolution_oracle(self):
        a, b = [1, 1, 1], [1, 1]
        assert (IntPoly(a) * IntPoly(b)).coeffs == tuple(conv(a, b))
        assert IntPoly(a) * IntPoly(b) == IntPoly("1 + 2*q + 2*q^2 + q^3")

    def test_int_coercion(self):
        assert 2 * Q_SQUARED + 1 == IntPoly("1 + 2*q^2")
        assert 1 - IntPoly("q") == IntPoly("1 - q")

    def test_pow(self):
        assert IntPoly("1 + q") ** 3 == IntPoly("1 + 3*q + 3*q^2 + q^3")
        assert ZERO**0 == ONE
        with pytest.raises(ValueError):
            IntPoly("q") ** -1
        with pytest.raises(ValueError):
            IntPoly("q") ** 2.0


Q_SQUARED = monomial(2)


class TestDivexact:
    def test_geometric_series(self):
        assert divexact(IntPoly("[-1, 0, 0, 0, 1]"), IntPoly("[-1, 1]")) == IntPoly(
            "1 + q + q^2 + q^3"
        )

    def test_common_factor(self):
        assert divexact(IntPoly("[0, 1, 1]"), IntPoly("[1, 1]")) == IntPoly("q")

    def test_not_divisible(self):
        with pytest.raises(NotDivisible) as exc:
            divexact(IntPoly("[1, 0, 1]"), IntPoly("[1, 1]"))
        assert exc.value.remainder == IntPoly(2)

    def test_inexact_leading_coefficient(self):
        # 5 q is not divisible by 2 q even though degrees allow it
        with pytest.raises(NotDivisible) as exc:
            divexact(IntPoly("[0, 5]"), IntPoly("[0, 2]"))
        assert exc.value.step is not None

    def test_zero_dividend(self):
        assert divexact(ZERO, IntPoly("1 + q")) == ZERO

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            divexact(ONE, ZERO)

    def test_low_degree_dividend(self):
        with pytest.raises(NotDivisible):
            divexact(IntPoly("1 + q"), IntPoly("1 + q + q^2"))

    def test_nonmonic_exact(self):
        a = IntPoly("[3, 0, -3]") * IntPoly("[2, 2]")
        assert divexact(a, IntPoly("[2, 2]")) == IntPoly("[3, 0, -3]")


canonical_lists = st.lists(st.integers(-(10**6), 10**6), max_size=40).map(
    lambda cs: list(IntPoly(cs).coeffs)
)
step_m = st.integers(1, 8)


def _qm1(m):
    return [-1] + [0] * (m - 1) + [1]


class TestQm1Steps:
    """The q^m - 1 step pair against the defining convolution."""

    @given(canonical_lists, step_m)
    def test_mul_matches_convolution(self, cs, m):
        assert mul_qm1(cs, m) == conv(cs, _qm1(m))

    @given(canonical_lists, step_m)
    def test_mul_then_divide_returns_original(self, cs, m):
        assert divexact_qm1(mul_qm1(cs, m), m) == cs
        assert divexact_qm1(conv(cs, _qm1(m)), m) == cs

    @given(canonical_lists.filter(bool), step_m, st.integers(0, 10**6),
           st.integers(-5, 5).filter(bool))
    def test_perturbed_multiple_is_inexact(self, cs, m, where, delta):
        prod = conv(cs, _qm1(m))
        i = where % len(prod)
        prod[i] += delta
        with pytest.raises(NotDivisible) as exc:
            divexact_qm1(prod, m)
        # q^i == q^(i mod m) modulo q^m - 1, so the remainder is delta q^(i mod m)
        assert exc.value.remainder == monomial(i % m, delta)
        assert exc.value.divisor == IntPoly(_qm1(m))

    @given(st.data(), step_m)
    def test_nonzero_list_below_degree_m_is_inexact(self, data, m):
        cs = data.draw(st.lists(st.integers(-50, 50), min_size=1, max_size=m).filter(any))
        with pytest.raises(NotDivisible) as exc:
            divexact_qm1(cs, m)
        assert exc.value.remainder == IntPoly(cs)

    @given(st.lists(st.integers(-(10**6), 10**6), max_size=60), step_m)
    def test_divmod_matches_oracle(self, cs, m):
        quot, rem = divmod_qm1(cs, m)
        assert len(rem) == min(m, len(cs))
        assert IntPoly(rem).coeffs == tuple(poly_rem_brute(cs, _qm1(m)))
        assert IntPoly(poly_add(conv(quot, _qm1(m)), rem)) == IntPoly(cs)

    @given(st.lists(st.integers(-(10**6), 10**6), max_size=60), step_m)
    def test_divexact_raises_with_the_divmod_remainder(self, cs, m):
        quot, rem = divmod_qm1(cs, m)
        if not any(rem):
            assert divexact_qm1(cs, m) == quot
            return
        with pytest.raises(NotDivisible) as exc:
            divexact_qm1(cs, m)
        assert exc.value.remainder == IntPoly(rem) == IntPoly(poly_rem_brute(cs, _qm1(m)))
        assert exc.value.dividend == IntPoly(cs) and exc.value.step is None

    def test_zero_and_examples(self):
        assert divmod_qm1([], 3) == ([], [])
        assert divmod_qm1([1, 2], 3) == ([], [1, 2])
        assert mul_qm1([], 3) == [] and divexact_qm1([], 3) == []
        assert divexact_qm1([-1, 0, 0, 0, 1], 2) == [1, 0, 1]
        assert mul_qm1((1, 1), 1) == [-1, 0, 1]


# Dense divisors: every division is long division, however many terms.
dense_lists = st.lists(st.integers(-(10**6), 10**6).filter(bool), min_size=7, max_size=30)
quotient_lists = st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=40).filter(
    lambda cs: cs[-1] != 0
)


def _power(f, e):
    out = [1]
    for _ in range(e):
        out = conv(out, f)
    return out


def _steps_witness(a, b):
    """(remainder, step) of the long division that decides a / b."""
    quot, rem, step = _kernels_py.divexact_steps(a, b)
    return IntPoly(rem), (step if quot is None else None)


class TestDenseDivision:
    """divexact by a dense divisor: the exact quotient, or the long-division witness."""

    @given(dense_lists, quotient_lists)
    def test_exact_quotient_matches_oracle(self, b, q):
        a = conv(b, q)
        assert divexact(IntPoly(a), IntPoly(b)).coeffs == tuple(q)
        assert _kernels_py.divexact_steps(a, b) == (q, [], -1)

    @given(dense_lists, quotient_lists, st.integers(0, 10**6),
           st.integers(-(10**3), 10**3).filter(bool))
    def test_inexact_dividend_keeps_the_long_division_witness(self, b, q, where, delta):
        a = conv(b, q)
        a[where % len(a)] += delta  # b has degree >= 6, so it cannot divide delta q^i
        a = list(IntPoly(a).coeffs)
        with pytest.raises(NotDivisible) as exc:
            divexact(IntPoly(a), IntPoly(b))
        if len(a) < len(b):
            assert (exc.value.remainder, exc.value.step) == (IntPoly(a), None)
        else:
            assert (exc.value.remainder, exc.value.step) == _steps_witness(a, b)


monic_lists = st.one_of(
    st.lists(st.integers(-9, 9), max_size=11).map(lambda cs: cs + [1]),
    st.lists(st.integers(-9, 9).filter(bool), min_size=7, max_size=11).map(lambda cs: cs + [1]),
    st.integers(1, 40).map(lambda d: list(cyclotomic(d).coeffs)),
)


class TestSharedDivision:
    """divexact_steps, the one long division behind divexact, cyclo.residue and q-Lucas."""

    @given(monic_lists, st.lists(st.integers(-(10**6), 10**6), max_size=50))
    def test_remainder_modulo_monic_matches_oracle(self, b, a):
        assert _kernels_py.divexact_steps(a, b)[1] == poly_rem_brute(a, b)

    @given(monic_lists, quotient_lists, st.lists(st.integers(-(10**3), 10**3), max_size=11))
    def test_multiple_plus_remainder(self, b, q, r):
        r = r[: len(b) - 1]
        a = poly_add(conv(b, q), r)
        assert _kernels_py.divexact_steps(conv(b, q), b) == (q, [], -1)
        assert _kernels_py.divexact_steps(a, b)[1] == poly_rem_brute(a, b) == poly_add(r, [])

    @given(canonical_lists.filter(bool), st.data())
    def test_shorter_and_zero_dividends(self, b, data):
        assert _kernels_py.divexact_steps([], b) == ([], [], -1)
        a = data.draw(st.lists(st.integers(-(10**6), 10**6), max_size=len(b) - 1))
        rem = list(IntPoly(a).coeffs)
        assert _kernels_py.divexact_steps(a, b) == ([], rem, -1)
        if rem:
            with pytest.raises(NotDivisible) as exc:
                divexact(IntPoly(a), IntPoly(b))
            assert (exc.value.remainder, exc.value.step) == (IntPoly(a), None)
        else:
            assert divexact(IntPoly(a), IntPoly(b)) == ZERO


def _slot_values(bits):
    half = 1 << (bits - 1)
    return st.one_of(st.sampled_from([-half, half - 1, -(half - 1), -1, 0, 1]),
                     st.integers(-half, half - 1))


class TestPacking:
    """Borrow-free pack and biased unpack at the edges of a slot."""

    @pytest.mark.parametrize("bits", [8, 16, 32, 64, 136])
    def test_round_trip_at_slot_edges(self, bits):
        half = 1 << (bits - 1)
        nbytes = bits >> 3
        for cs in (
            [half - 1, -(half - 1), -half, 0, 0, 5, -half],
            [-1, -half, -(half - 1), -7],
            [3, 0, 0, 0, -3],
            [0, 0, half - 1],
            [-half],
        ):
            value = _pack(cs, bits, nbytes)
            assert value == sum(c << (bits * i) for i, c in enumerate(cs))
            assert _unpack(value, bits, nbytes, len(cs)) == cs

    @given(st.one_of(st.sampled_from([1, 2, 4, 8]), st.integers(1, 17)).flatmap(
        lambda nbytes: st.tuples(st.just(nbytes), st.lists(_slot_values(8 * nbytes),
                                                           min_size=1, max_size=30))))
    def test_round_trip(self, nbytes_and_coeffs):
        # 1, 2, 4 and 8 bytes go through the array codec, the rest one slot
        # at a time; slot i is worth 2^(w i) whatever the host's byte order
        nbytes, cs = nbytes_and_coeffs
        bits = 8 * nbytes
        value = _pack(cs, bits, nbytes)
        assert value == sum(c << (bits * i) for i, c in enumerate(cs))
        assert _unpack(value, bits, nbytes, len(cs)) == cs

    def test_values_without_a_balanced_form_decode_to_none(self):
        for value, n in ((1 << 7, 1), (-(1 << 7) - 1, 1), (1 << 16, 2)):
            with pytest.raises(AssertionError, match="Kronecker decode imbalance"):
                _unpack(value, 8, 1, n)
        assert _unpack(-(1 << 7), 8, 1, 1) == [-(1 << 7)]
        assert _unpack((1 << 7) - 1 + (3 << 8), 8, 1, 2) == [127, 3]

    @pytest.mark.parametrize("nbytes", [1, 2, 4, 8])
    def test_array_widths_decode_unrepresentable_values_to_none(self, nbytes):
        bits = 8 * nbytes
        half = 1 << (bits - 1)
        for value, n in ((half, 1), (-half - 1, 1), (1 << (2 * bits), 2), (half << bits, 2),
                         (-(half << bits) - half - 1, 2), (-(1 << (3 * bits)), 3)):
            with pytest.raises(AssertionError, match="Kronecker decode imbalance"):
                _unpack(value, bits, nbytes, n)
        assert _unpack(-half, bits, nbytes, 1) == [-half]
        assert _unpack(((half - 1) << bits) - half, bits, nbytes, 2) == [-half, half - 1]

    def test_every_decode_is_checked(self, monkeypatch):
        # in slots forced to 8 bits, a product whose leading coefficient,
        # 100^2, does not fit one has no balanced form: each caller that
        # decodes raises on it rather than return digits
        monkeypatch.setattr(polycore, "_slot_bits", lambda nbits: 8)
        f = [1] * 199 + [100]
        for decode in (lambda: _mul_kronecker(f, f), lambda: packed_sum([(1, 0, [(f, 2)])]),
                       lambda: product([f, f])):
            with pytest.raises(AssertionError, match="Kronecker decode imbalance"):
                decode()

    def test_slot_widths(self):
        # powers of two up to a machine word, byte-aligned past it
        assert [_slot_bits(n) for n in (1, 8, 9, 16, 17, 33, 64, 65, 136)] == [
            8, 8, 16, 16, 32, 64, 64, 72, 136]


def _chained(terms):
    """The reference for packed_sum: chained convolution and addition."""
    total = []
    for sign, shift, factors in terms:
        term = [sign]
        for f, e in factors:
            for _ in range(e):
                term = conv(term, list(f))
        total = poly_add(total, [0] * shift + term)
    return total


signed_factors = st.lists(st.integers(-(10**4), 10**4), max_size=8)
packed_terms = st.lists(
    st.tuples(st.sampled_from([1, -1]), st.integers(0, 10),
              st.lists(st.tuples(signed_factors, st.integers(0, 3)), max_size=4)),
    max_size=6,
)


class TestPackedSum:
    """The one packed evaluator against chained convolution."""

    @given(packed_terms)
    def test_matches_chained_convolution(self, terms):
        assert packed_sum(terms) == _chained(terms)

    @given(packed_terms)
    def test_shared_factor_objects(self, terms):
        # the same coefficient objects in several terms are packed once
        shared = [f for _, _, fs in terms for f, _ in fs][:2] or [[1]]
        terms = [(sign, shift, [(shared[i % len(shared)], e) for i, (_, e) in enumerate(fs)])
                 for sign, shift, fs in terms]
        assert packed_sum(terms) == _chained(terms)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_coefficient_at_the_l1_bound_fits_its_slot(self, sign):
        # the three terms all land on q^4 with one sign, so that coefficient
        # is sign * (25 + 35 + 140), exactly the bound; 200 needs 8 bits,
        # and the sign bit on top of them
        terms = [
            (sign, 0, [([0, 0, 5], 2)]),
            (sign, 2, [([0, -5], 1), ([0, -7], 1)]),
            (-sign, 4, [([-2], 2), ([-5], 1), ([7], 1), ([3, 1], 0)]),
        ]
        assert packed_sum(terms) == [0, 0, 0, 0, sign * 200] == _chained(terms)

    def test_signed_products_past_a_machine_word(self):
        # the l1 norms of these 45 factors multiply to 80 bits, past a
        # 64-bit machine word; the second term has no signed factor
        factors = [[1, -1], [1, 0, -2, 1], [3, -1, 0, 1]] * 15
        terms = [(1, 2, [(f, 1) for f in factors]), (-1, 0, [([5, 7], 3), ([2, 0, 1], 2)])]
        assert packed_sum(terms) == _chained(terms)

    def test_zero_factors_and_empty_sums(self):
        assert packed_sum([]) == []
        assert packed_sum([(1, 3, [([], 2), ([1, 1], 1)])]) == []
        assert packed_sum([(1, 2, [([], 0)])]) == [0, 0, 1]  # 0^0 = 1
        assert packed_sum([(1, 0, [([1, 1], 1)]), (-1, 0, [([1, 1], 1)])]) == []
        # zero written with zero coefficients drops its term before the
        # slot width is taken, so the term's other factors need no slot
        assert packed_sum([(1, 0, [([0], 1), ([10**6], 1)]), (1, 1, [([1], 1)])]) == [0, 1]
        assert packed_sum([(1, 0, [([0, 0], 2), ([-(10**6), 1], 1)]), (1, 0, [([3], 1)])]) == [3]


class TestProduct:
    """The product tree against chained convolution."""

    @given(st.lists(signed_factors.map(lambda f: list(IntPoly(f).coeffs)).filter(bool),
                    max_size=12))
    def test_matches_chained_convolution(self, factors):
        # from 32 bits of l1 norm the list is split, below it packed whole;
        # tuples go through the memo of packed factors, lists do not
        want = functools.reduce(conv, factors, [1])
        assert product(factors) == want
        assert product([tuple(f) for f in factors]) == want

    @pytest.mark.parametrize("count", range(10))
    @given(data=st.data())
    def test_packed_tree_of_any_count(self, count, data):
        # small factors keep the l1 bound under 32 bits, but for the largest
        # draws of 9 factors, so the whole list is packed and multiplied as
        # a pairwise tree, odd counts included
        factor = st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(lambda f: f[-1])
        factors = data.draw(st.lists(factor, min_size=count, max_size=count))
        assert product(factors) == functools.reduce(conv, factors, [1])

    def test_signed_factors_across_the_split(self):
        # cyclotomic factors and signed factors with large coefficients, whose
        # l1 norms multiply past 32 and then past 64 bits: packed whole, split
        # once, split again; as lists and as tuples
        factors = [list(cyclotomic(d).coeffs) for d in (1, 2, 6, 10, 15, 30, 105)]
        factors += [[-(3**15), 0, 7, -1], [5, -(2**40), 1], [1, 0, 0, -(7**9)], [-1, 2**33]]
        crossed = set()
        for count in range(1, len(factors) + 1):
            fs = factors[:count]
            want = functools.reduce(conv, fs, [1])
            crossed.add(prod(sum(map(abs, f)) for f in fs).bit_length() // 32)
            assert product(fs) == want, count
            assert product([tuple(f) for f in fs]) == want, count
        assert {0, 1, 2} <= crossed

    @pytest.mark.parametrize("length,boundary,wider", [(2, 32, 64), (8, 32, 64), (2, 72, 80)])
    def test_cauchy_schwarz_width_is_met(self, monkeypatch, length, boundary, wider):
        # a = b = [m] * length meets |c_k| <= ||a||_2 ||b||_2 at its middle
        # coefficient, length * m^2: just below 2^(boundary - 1) it fits the
        # slot of boundary bits, which max|a| max|b| min(len) would not give,
        # and at 2^(boundary - 1) it takes the next wider slot
        widths = []
        pack = polycore._pack
        monkeypatch.setattr(polycore, "_pack",
                            lambda cs, w, nbytes: widths.append(w) or pack(cs, w, nbytes))
        top = 1 << (boundary - 1)
        m = isqrt(top // length)
        assert length * m * m == top
        assert 2 * (m - 1).bit_length() + length.bit_length() + 1 > boundary
        for m, bits in ((m - 1, boundary), (m, wider)):
            widths.clear()
            a = [m] * length
            out = _mul_kronecker(a, a)
            assert out == conv(a, a) and max(out) == length * m * m
            assert widths == [bits, bits]

    # nonzero operands, the coefficients of each at most 2^bits in size, bits in 0..100
    sized = st.integers(0, 100).flatmap(
        lambda bits: st.lists(st.integers(-(1 << bits), 1 << bits), min_size=1, max_size=40)
    ).filter(any)

    @given(sized, sized)
    def test_slot_width_is_the_two_bound_rule(self, a, b):
        # the sum of squares is skipped where it cannot narrow the slot, and
        # the width is still the smaller of the two bounds' slots
        terms = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                 + min(len(a), len(b)).bit_length())
        squares = sum(x * x for x in a) * sum(y * y for y in b)
        want = _slot_bits(min(terms, (squares.bit_length() + 1) >> 1) + 1)
        widths = []
        pack = polycore._pack
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polycore, "_pack",
                          lambda cs, w, nbytes: widths.append(w) or pack(cs, w, nbytes))
            out = _mul_kronecker(a, b)
        assert widths == [want, want]
        want = conv(a, b)
        assert out == want + [0] * (len(a) + len(b) - 1 - len(want))

    def test_factor_memo_stays_bounded(self):
        memo = polycore._factor_memo
        memo.cache_clear()
        # one factor at every packed width: 8, 16 and 32 bits, then from 32
        # bits of l1 norm, where the list is split and f is not packed
        f = (1, 1)
        for big in (1, 2**10, 2**20, 2**40, 2**70):
            assert product([f, (1, big)]) == [1, big + 1, big]
        assert sorted(memo(f)[1]) == [8, 16, 32]
        size = memo.cache_info().maxsize
        for i in range(1, 2 * size):
            product([(1, i), (i, 1)])
        assert memo.cache_info().currsize == size


class TestEvalAndContent:
    def test_eval_examples(self):
        assert IntPoly("1 + q + q^2").evaluate(1) == 3
        assert IntPoly("[1, 0, 1]").evaluate(1) == 2
        assert IntPoly("[1, 1, 2, 1, 1]").evaluate(1) == 6

    @given(polys, st.integers(-2, 2))
    def test_eval_matches_horner(self, a, x):
        # x = 1 takes the coefficient sum, the other points Horner's rule
        want = 0
        for c in reversed(a.coeffs):
            want = want * x + c
        assert a.evaluate(x) == want

    def test_eval_negative_point(self):
        assert IntPoly("[1, 0, 1]").evaluate(-1) == 2
        assert IntPoly("1 + q").evaluate(-1) == 0

    def test_primitive(self):
        assert IntPoly("[1, 0, 1]").is_primitive()
        assert not IntPoly("[2, 2]").is_primitive()
        assert not IntPoly("[3]").is_primitive()

    def test_primitive_of_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            ZERO.is_primitive()

    def test_content(self):
        assert IntPoly("[6, -9, 3]").content() == 3
        assert ZERO.content() == 0


class TestStructure:
    def test_zero_degree_sentinel(self):
        assert ZERO.degree == float("-inf")
        assert IntPoly("[5]").degree == 0
        assert monomial(7).degree == 7

    def test_canonical_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()

    def test_shifted(self):
        assert IntPoly("1 + q").shifted(2) == IntPoly("q^2 + q^3")
        assert ZERO.shifted(5) == ZERO

    def test_getitem_past_degree(self):
        p = IntPoly("1 + q")
        assert p[0] == 1 and p[1] == 1 and p[5] == 0

    def test_iteration_stops_at_the_stored_coefficients(self):
        # islice first: were iteration to fall back on __getitem__, it
        # would yield zeros forever and list() below would never return
        p = IntPoly("1 + q")
        assert list(islice(p, 5)) == [1, 1] and list(islice(ZERO, 5)) == []
        assert list(p) == [1, 1] and sum(p) == 2 and 1 in p and 0 not in p
        assert list(ZERO) == [] and sum(ZERO) == 0 and 0 not in ZERO

    def test_coefficients_must_be_integers(self):
        # int() would truncate 0.5 to 0 and parse "1"
        with pytest.raises(TypeError):
            IntPoly([0.5, 1])
        with pytest.raises(TypeError):
            IntPoly(["1", 2])
        poly = IntPoly([True, 2])
        assert poly == IntPoly([1, 2]) and type(poly.coeffs[0]) is int
        assert type(IntPoly(True).coeffs[0]) is int and IntPoly(True).coeff_list_str() == "[1]"

    def test_hashable_equal(self):
        assert hash(IntPoly([1, 2])) == hash(IntPoly((1, 2, 0)))

    def test_immutable(self):
        p = IntPoly("q")
        with pytest.raises(AttributeError):
            p.coeffs = (5,)


class TestTextForms:
    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("[]", ()),
            ("[1, 1, 2, 1, 1]", (1, 1, 2, 1, 1)),
            ("0", ()),
            ("1 + q + 2*q^2 + q^3 + q^4", (1, 1, 2, 1, 1)),
            ("1 - q + q^2", (1, -1, 1)),
            ("-1 + q", (-1, 1)),
            ("q", (0, 1)),
            ("-q^3", (0, 0, 0, -1)),
            ("2", (2,)),
            ("[-1,0,1]", (-1, 0, 1)),
        ],
    )
    def test_parse(self, text, coeffs):
        assert IntPoly(text).coeffs == coeffs

    @pytest.mark.parametrize("bad", ["", "[1, 2", "q^", "1 + * q", "spam", "q+-"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            IntPoly(bad)

    @given(polys)
    def test_roundtrip_both_forms(self, p):
        assert IntPoly(str(p)) == p
        assert IntPoly(p.coeff_list_str()) == p

    def test_pretty_matches_display_convention(self):
        assert str(IntPoly((1, 1, 2, 1, 1))) == "1 + q + 2*q^2 + q^3 + q^4"
        assert str(ZERO) == "0"
        assert str(IntPoly((0, -1))) == "-q"


class TestRingAxioms:
    @given(polys, polys)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(polys, polys)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @settings(max_examples=50)
    @given(polys, polys, polys)
    def test_mul_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=50)
    @given(polys, polys, polys)
    def test_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys)
    def test_neutral_elements(self, a):
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO

    @given(polys, polys)
    def test_canonical_preserved(self, a, b):
        for r in (a + b, a - b, a * b, -a):
            assert r.coeffs == () or r.coeffs[-1] != 0

    @given(polys, nonzero_polys)
    def test_divexact_roundtrip(self, a, b):
        assert divexact(a * b, b) == a

    @given(polys, st.integers(0, 6))
    def test_pow_is_repeated_product(self, a, e):
        assert (a**e).coeffs == tuple(_power(list(a.coeffs), e))

    @given(polys, polys, st.integers(min_value=-9, max_value=9))
    def test_eval_is_ring_hom(self, a, b, x):
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)

    @given(polys, polys)
    def test_mul_degree_adds(self, a, b):
        if a and b:
            assert (a * b).degree == a.degree + b.degree


class TestKernelLanes:
    """The multiplication paths agree bit-exactly with the defining convolution."""

    @given(coeffs_st, coeffs_st)
    def test_kronecker_and_dispatch_match_convolution(self, a, b):
        # operands of up to 65 coefficients put small dense products
        # through the dispatcher as well as large ones
        a, b = IntPoly(a).coeffs, IntPoly(b).coeffs
        expected = conv(list(a), list(b))
        assert (IntPoly(a) * IntPoly(b)).coeffs == tuple(expected)
        if not a or not b:
            return
        assert _mul_kronecker(a, b) == expected + [0] * (
            len(a) + len(b) - 1 - len(expected)
        )

    def test_mul_big_coefficients_kronecker_regime(self):
        a = IntPoly([3**80, -(2**90), 1])
        b = IntPoly([-(5**40), 7**33])
        assert (a * b).coeffs == tuple(conv(list(a.coeffs), list(b.coeffs)))
        assert (IntPoly((2**70, 1)) * IntPoly((1, 1))).coeffs == (2**70, 2**70 + 1, 1)


class TestCongruenceWitness:
    def test_invariant(self):
        w = CongruenceWitness(IntPoly("[0,1,1]"), IntPoly("[1,1]"), IntPoly("q"), True)
        assert w.quotient * w.modulus == w.dividend
