"""Carry sets, (q-)binomials, q-Lucas reduction, valuations, totient."""

import concurrent.futures
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaltsum import qcomb
from qaltsum.cyclo import CycloFactorization, cyclotomic, expand
from qaltsum.polycore import ONE, ZERO, IntPoly, InvalidArgument, divexact
from qaltsum.qcomb import (
    binom,
    dset,
    euler_phi,
    nu_p_binom,
    nu_p_int,
    qbinom,
    qbinom_factored,
    qlucas_check,
)

from oracles import legendre_nu, pascal_binom, phi_brute, poly_rem_brute, qbinom_qpascal


class TestDSet:
    def test_examples(self):
        assert dset(4, 2).members == (3, 4)
        assert dset(9, 0).members == ()
        assert dset(6, 3).members == (2, 4, 5, 6)

    def test_out_of_range_k(self):
        assert dset(5, -1).members == ()
        assert dset(5, 7).members == ()
        assert dset(5, 5).members == ()

    @given(st.integers(0, 120), st.integers(-5, 125))
    def test_membership_definition(self, n, k):
        ds = dset(n, k)
        expected = {
            d
            for d in range(2, n + 1)
            if 0 < k < n and n // d > k // d + (n - k) // d
        }
        assert set(ds.members) == expected
        assert list(ds.members) == sorted(ds.members)

    @given(st.integers(0, 120), st.integers(0, 120))
    def test_symmetry(self, n, k):
        assert dset(n, k).members == dset(n, n - k).members

    @given(st.integers(0, 80), st.integers(0, 80))
    def test_totient_degree_sum(self, n, k):
        # sum of phi over the carry set equals the q-binomial degree k(n-k)
        if 0 <= k <= n:
            assert sum(euler_phi(d) for d in dset(n, k)) == k * (n - k)

    def test_contains_and_str(self):
        ds = dset(6, 3)
        assert 4 in ds and 3 not in ds
        assert str(ds) == "{2, 4, 5, 6}"

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidArgument):
            dset(-1, 0)


class TestBinom:
    def test_examples(self):
        assert binom(4, 2) == 6
        assert binom(2, -1) == 0
        assert binom(8, 3) == 56

    def test_against_pascal_oracle(self):
        for n in range(15):
            for k in range(-2, n + 3):
                assert binom(n, k) == pascal_binom(n, k), (n, k)

    def test_rejects_negative_n(self):
        with pytest.raises(InvalidArgument):
            binom(-1, 0)


class TestQBinom:
    def test_examples(self):
        assert qbinom(2, 1) == IntPoly("1 + q")
        assert qbinom(4, 2) == IntPoly("1 + q + 2*q^2 + q^3 + q^4")
        assert qbinom(3, 5) == ZERO
        assert qbinom(7, 0) == ONE
        assert qbinom(3, -2) == ZERO

    def test_against_qpascal_oracle(self):
        for n in range(16):
            for k in range(n + 1):
                assert list(qbinom(n, k).coeffs) == qbinom_qpascal(n, k), (n, k)

    def test_degree(self):
        for n in range(25):
            for k in range(n + 1):
                assert qbinom(n, k).degree == k * (n - k) or (
                    k * (n - k) == 0 and qbinom(n, k) == ONE
                )

    def test_eval_at_one_is_binom(self):
        for n in range(30):
            for k in range(n + 1):
                assert qbinom(n, k).evaluate(1) == binom(n, k)

    def test_symmetry(self):
        for n in range(25):
            for k in range(n + 1):
                assert qbinom(n, k) == qbinom(n, n - k)

    def test_mirror_indices_share_one_build(self):
        # qb(n, k) is built as qb(n, n - k) when k > n/2: 5 steps, not 55
        qcomb._qbinom_product.cache_clear()
        first = qbinom(60, 55)
        assert qbinom(60, 5) is first
        assert qcomb._qbinom_product.cache_info().misses == 1
        assert list(first.coeffs) == qbinom_qpascal(60, 5)

    def test_q_pascal_recurrence(self):
        for n in range(1, 41):
            for k in range(n + 1):
                rhs = qbinom(n - 1, k - 1) + qbinom(n - 1, k).shifted(k)
                assert qbinom(n, k) == rhs, (n, k)

    def test_coefficients_nonnegative_unimodal_sample(self):
        cs = qbinom(12, 5).coeffs
        assert min(cs) >= 1
        peak = cs.index(max(cs))
        assert all(cs[i] <= cs[i + 1] for i in range(peak))
        assert all(cs[i] >= cs[i + 1] for i in range(peak, len(cs) - 1))


class TestQBinomFactored:
    def test_examples(self):
        assert qbinom_factored(4, 2) == CycloFactorization({3: 1, 4: 1})
        assert qbinom_factored(9, 0) == CycloFactorization({})
        f = qbinom_factored(6, 3)
        assert f == CycloFactorization({2: 1, 4: 1, 5: 1, 6: 1})
        assert expand(f).evaluate(1) == 20

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgument):
            qbinom_factored(4, 5)
        with pytest.raises(InvalidArgument):
            qbinom_factored(4, -1)

    def test_expansion_equals_product_formula(self):
        for n in range(31):
            for k in range(n + 1):
                assert expand(qbinom_factored(n, k)) == qbinom(n, k), (n, k)


class TestQLucas:
    def test_examples(self):
        assert qlucas_check(3, 1, 2, 0, 2)
        assert qlucas_check(2, 2, 0, 1, 0)
        assert qlucas_check(5, 0, 4, 0, 2)

    def test_rejects(self):
        with pytest.raises(InvalidArgument):
            qlucas_check(1, 0, 0, 0, 0)
        with pytest.raises(InvalidArgument):
            qlucas_check(3, 1, 3, 0, 0)
        with pytest.raises(InvalidArgument):
            qlucas_check(3, -1, 0, 0, 0)

    def test_against_direct_polynomial_route(self):
        # the residue recurrence must agree with literal divisibility of
        # qb(x1 d + x2, y1 d + y2) - C(x1, y1) qb(x2, y2) by Phi_d
        for d in range(2, 7):
            for x1 in range(4):
                for y1 in range(4):
                    for x2 in range(d):
                        for y2 in range(d):
                            delta = qbinom(x1 * d + x2, y1 * d + y2) - binom(
                                x1, y1
                            ) * qbinom(x2, y2)
                            direct = _divides(delta, cyclotomic(d))
                            assert qlucas_check(d, x1, x2, y1, y2) == direct

    def test_small_sweep_holds(self):
        assert all(
            qlucas_check(d, x1, x2, y1, y2)
            for d in range(2, 9)
            for x1 in range(5)
            for y1 in range(5)
            for x2 in range(d)
            for y2 in range(d)
        )


class TestQPascalRowsModPhi:
    def test_deep_row_does_not_recurse(self):
        # 600 rows modulo Phi_2: one recursion per row would pass the
        # interpreter's recursion limit
        assert qlucas_check(2, 600, 0, 300, 0)

    def test_residues_match_product_formula(self):
        for d in range(1, 13):
            mod = cyclotomic(d).coeffs
            for n in range(41):
                for k in range(n + 1):
                    want = tuple(poly_rem_brute(qbinom(n, k).coeffs, mod))
                    assert qcomb._row_mod(n, d, 1)[k] == want, (n, k, d)

    def test_concurrent_callers_get_exact_rows(self, monkeypatch):
        monkeypatch.setattr(qcomb, "_ROWS", qcomb._RowStore(qcomb._ROW_BUDGET))
        steps = qcomb.divexact_steps

        def yielding_steps(coeffs, mod):
            time.sleep(0)  # invite a thread switch inside the row loop
            return steps(coeffs, mod)

        monkeypatch.setattr(qcomb, "divexact_steps", yielding_steps)
        d, top = 7, 60
        ns = list(range(top)) * 4
        random.Random(0).shuffle(ns)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                calls = pool.map(lambda n: (n, qcomb._row_mod(n, d, 1)[n // 2]), ns, timeout=120)
                got = list(calls)
        finally:
            sys.setswitchinterval(interval)
        mod = cyclotomic(d).coeffs
        for n, residue in got:
            assert residue == tuple(steps(qbinom(n, n // 2).coeffs, mod)[1]), n
        # every row left in the store is one whole row, the one a serial walk builds
        serial = [((1,),)]
        while len(serial) < top:
            serial.append(qcomb._next_row(serial[-1], d, 1, mod))
        # (the reference qbinom calls above put product-formula rows, lines n, beside them)
        stored = {key: entry for key, entry in qcomb._ROWS.entries.items()
                  if not isinstance(key[0], int)}
        assert sorted(stored) == [((d, 1), n) for n in range(top)]
        assert all(row == serial[n] and asked for (_, n), (row, _, asked) in stored.items())

    def test_rows_in_any_order(self, monkeypatch):
        mod = expand(CycloFactorization({4: 2})).coeffs
        for ns in [(6, 4), (4, 6), (2, 7, 7, 0), (5,)]:
            monkeypatch.setattr(qcomb, "_ROWS", qcomb._RowStore(qcomb._ROW_BUDGET))
            for n in ns:
                row = qcomb._row_mod(n, 4, 2)
                assert row == tuple(tuple(poly_rem_brute(qbinom(n, k).coeffs, mod))
                                    for k in range(n + 1)), (ns, n)

    def test_store_keeps_its_rows_within_the_budget(self, monkeypatch):
        mod = (1, 2, 1)  # Phi_2^2
        want = tuple(qcomb.divexact_steps(qbinom(200, 100).coeffs, mod)[1])
        sizes = qcomb._RowStore(1 << 20)
        monkeypatch.setattr(qcomb, "_ROWS", sizes)
        for n in (120, 150, 200):
            qcomb._row_mod(n, 2, 2)
        units = {n: sizes.entries[(2, 2), n][1] for n in (120, 150, 200)}
        # a deep row keeps the row asked for, and as many of the rows it
        # walked through as the budget holds
        store = qcomb._RowStore(1000)
        monkeypatch.setattr(qcomb, "_ROWS", store)
        assert qcomb._row_mod(200, 2, 2)[100] == want
        assert ((2, 2), 200) in store.entries and len(store.entries) < 200
        assert store.units == sum(units for _, units, _ in store.entries.values()) <= 1000
        # over the budget the walked rows go first, then the oldest asked for;
        # the row being walked to stays
        store.budget = units[200] + units[150]
        qcomb._row_mod(150, 2, 2)
        assert sorted(store.entries) == [((2, 2), 150), ((2, 2), 200)]
        qcomb._row_mod(120, 2, 2)
        assert sorted(store.entries) == [((2, 2), 120), ((2, 2), 150)]
        assert store.units == units[120] + units[150]


class TestProductFormulaRows:
    """qb(n, k) walked along k in the row store, line n, from the highest stored k."""

    @pytest.fixture
    def store(self, monkeypatch):
        store = qcomb._RowStore(qcomb._ROW_BUDGET)
        monkeypatch.setattr(qcomb, "_ROWS", store)
        qcomb._qbinom_product.cache_clear()
        yield store
        qcomb._qbinom_product.cache_clear()

    @pytest.mark.parametrize("order", ["lexicographic", "reversed", "shuffled"])
    def test_values_in_any_order(self, store, order):
        pairs = [(n, k) for n in range(26) for k in range(n + 1)]
        if order == "reversed":
            pairs.reverse()
        elif order == "shuffled":
            random.Random(3).shuffle(pairs)
        for n, k in pairs:
            assert list(qbinom(n, k).coeffs) == qbinom_qpascal(n, k), (order, n, k)
        assert sorted(store.entries) == sorted({(n, min(k, n - k)) for n, k in pairs})

    def test_each_row_is_walked_once(self, store, monkeypatch):
        walk, steps = qcomb._qbinom_steps, []

        def counted(coeffs, n, j, k):
            steps.extend((n, i) for i in range(j, k))
            return walk(coeffs, n, j, k)

        monkeypatch.setattr(qcomb, "_qbinom_steps", counted)
        pairs = [(n, k) for n in range(40) for k in range(n + 1)]
        random.Random(4).shuffle(pairs)
        for n, k in pairs:
            qbinom(n, k)
        # step (n, i) builds qb(n, i + 1), each once, up to k = n/2
        assert sorted(steps) == [(n, i) for n in range(40) for i in range(n // 2)]

    def test_walk_stays_within_the_budget(self, store):
        store.budget = 500
        for n, k in [(40, 20), (60, 30), (40, 15), (60, 25)]:
            poly = qbinom(n, k)
            assert list(poly.coeffs) == qbinom_qpascal(n, k), (n, k)
            # walked through: qb(40, j) holds j (40 - j) + 1 coefficients
            assert store.entries[n, k] == [poly.coeffs, len(poly) + 1, True]
            assert store.units == sum(units for _, units, _ in store.entries.values())
            assert store.units <= store.budget + len(poly) + 1

    def test_walk_makes_room_from_its_own_line_first(self, store):
        qcomb._row_mod(30, 2, 2)
        rows = sorted(key for key in store.entries if key[0] == (2, 2))
        assert rows == [((2, 2), n) for n in range(1, 31)]
        # the walk to qb(40, 20) passes 5,570 units of q-binomials: it drops
        # its own q-binomials, not the rows walked through before it
        store.budget = store.units + 2000
        assert list(qbinom(40, 20).coeffs) == qbinom_qpascal(40, 20)
        assert sorted(key for key in store.entries if key[0] == (2, 2)) == rows
        assert store.units <= store.budget

    def test_concurrent_callers_get_exact_q_binomials(self, store, monkeypatch):
        walk = qcomb._qbinom_steps

        def yielding(coeffs, n, j, k):
            time.sleep(0)  # invite a thread switch inside the walk
            return walk(coeffs, n, j, k)

        monkeypatch.setattr(qcomb, "_qbinom_steps", yielding)
        wanted = [(n, k) for n in range(24) for k in range(n + 1)] * 2
        random.Random(5).shuffle(wanted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda nk: qbinom(*nk), wanted, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(list(poly.coeffs) == qbinom_qpascal(n, k) for (n, k), poly in zip(wanted, got))
        # every stored entry is the whole q-binomial of its key, each key once
        assert sorted(store.entries) == [(n, k) for n in range(24) for k in range(n // 2 + 1)]
        assert all(list(coeffs) == qbinom_qpascal(n, k)
                   for (n, k), (coeffs, _, _) in store.entries.items())
        assert store.units == sum(units for _, units, _ in store.entries.values())


class TestReducedQBinomials:
    """Each reduced q-binomial against the plain one, reduced by long division."""

    def test_qlucas_reduction(self):
        for d in range(1, 13):
            mod = cyclotomic(d).coeffs
            for n in range(31):
                for k in range(n + 1):
                    scale = binom(n // d, k // d)
                    got = [scale * c for c in qcomb._digit_residue(d, n % d, k % d)]
                    want = poly_rem_brute(qbinom(n, k).coeffs, mod)
                    assert (got if scale else []) == want, (n, k, d)

    @pytest.mark.parametrize("e", [2, 3])
    def test_rows_modulo_a_cyclotomic_power(self, e):
        for d in range(1, 13):
            mod = expand(CycloFactorization({d: e})).coeffs
            for n in range(25):
                for k in range(n + 1):
                    want = tuple(poly_rem_brute(qbinom(n, k).coeffs, mod))
                    assert qcomb._row_mod(n, d, e)[k] == want, (n, k, d, e)

    def test_digit_residue_outside_the_range_is_zero(self):
        assert qcomb._digit_residue(5, 2, 3) == () == qcomb._digit_residue(5, 2, -1)

    def test_digit_cursors_walk_rows_in_any_order(self, monkeypatch):
        monkeypatch.setattr(qcomb, "_CURSORS", {})
        rng = random.Random(0)
        for x in rng.sample(range(30), 30):
            for y in rng.sample(range(x + 1), x + 1):
                assert qcomb._cursor_qbinom(x, y) == list(qbinom(x, y).coeffs), (x, y)
                assert len(qcomb._CURSORS) <= qcomb._MAX_CURSORS

    def test_concurrent_callers_get_exact_digits(self, monkeypatch):
        monkeypatch.setattr(qcomb, "_CURSORS", {})
        wanted = [(x, y) for x in range(24) for y in range(x + 1)] * 2
        random.Random(1).shuffle(wanted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda xy: qcomb._cursor_qbinom(*xy), wanted, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(coeffs == list(qbinom(x, y).coeffs) for (x, y), coeffs in zip(wanted, got))
        assert len(qcomb._CURSORS) <= qcomb._MAX_CURSORS

    def test_digit_cursor_steps_on_or_starts_again(self, monkeypatch):
        monkeypatch.setattr(qcomb, "_CURSORS", {})
        walk, steps = qcomb._qbinom_steps, []

        def counted(coeffs, n, j, k):
            steps.append((j, k))
            return walk(coeffs, n, j, k)

        monkeypatch.setattr(qcomb, "_qbinom_steps", counted)
        for y in (3, 5, 2, 9, 8, 0):
            qcomb._cursor_qbinom(20, y)
        # a request behind the cursor starts again from qb(20, 0)
        assert steps == [(0, 3), (3, 5), (0, 2), (2, 9), (0, 8), (0, 0)]
        assert qcomb._CURSORS == {20: (0, [1])}

    def test_digit_residues_keep_no_q_binomial(self):
        qcomb._qbinom_product.cache_clear()
        qcomb._digit_residue.cache_clear()
        assert qcomb._digit_residue(97, 60, 31) == tuple(
            poly_rem_brute(qbinom_qpascal(60, 31), cyclotomic(97).coeffs))
        assert qcomb._qbinom_product.cache_info().currsize == 0
        assert qcomb._qbinom_product.cache_info().maxsize == qcomb._QBINOMS


def _divides(a, b):
    if not a:
        return True
    try:
        divexact(a, b)
    except Exception:
        return False
    return True


class TestValuations:
    def test_nu_p_binom_examples(self):
        assert nu_p_binom(10, 5, 3).value == 2
        assert nu_p_binom(4, 2, 5).value == 0
        assert nu_p_binom(4, 2, 2).value == 1

    def test_nu_p_binom_rejects_composite(self):
        with pytest.raises(InvalidArgument):
            nu_p_binom(10, 5, 6)

    def test_against_legendre_oracle(self):
        for n in range(61):
            for k in range(n + 1):
                for p in (2, 3, 5, 7, 11):
                    assert nu_p_binom(n, k, p).value == legendre_nu(n, k, p), (n, k, p)

    def test_against_actual_factorization(self):
        for n in range(1, 40):
            for k in range(n + 1):
                c = math.comb(n, k)
                for p in (2, 3, 5):
                    e = 0
                    while c % p ** (e + 1) == 0:
                        e += 1
                    assert nu_p_binom(n, k, p).value == e

    def test_nu_p_int_examples(self):
        assert nu_p_int(90, 3).value == 2
        assert nu_p_int(0, 7).is_infinite
        assert nu_p_int(1, 2).value == 0
        assert nu_p_int(-24, 2).value == 3

    def test_nu_p_int_rejects_composite(self):
        with pytest.raises(InvalidArgument):
            nu_p_int(10, 4)

    def test_infinity_comparisons(self):
        assert nu_p_int(0, 5).value > 10**9


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        assert euler_phi(70) == 24

    def test_against_coprime_count(self):
        for n in range(1, 201):
            assert euler_phi(n) == phi_brute(n), n

    def test_rejects_zero(self):
        with pytest.raises(InvalidArgument):
            euler_phi(0)


@settings(max_examples=60)
@given(st.integers(0, 60), st.integers(0, 60))
def test_qbinom_eval_matches_binom_property(n, k):
    assert qbinom(n, k).evaluate(1) == binom(n, k)
