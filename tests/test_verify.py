"""Theorem-level drivers: moduli, branch selection, witnesses, reports."""

import functools
import itertools
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qaltsum import verify
from qaltsum.cli import build_cases, build_parser, run_sweep
from qaltsum.cyclo import cyclotomic, q_int
from qaltsum.polycore import IntPoly, InvalidArgument, divexact, monomial
from qaltsum.qcomb import binom, nu_p_int, qbinom
from qaltsum.sums import alt_power_sum, gjz_sum, pattern_sum, triple_sum, triple_sum_degree
from qaltsum.verify import (
    check_congruence,
    gcd_window,
    run_case,
    verify_gcd_window,
    verify_identity,
    verify_lemmas,
    verify_qlucas,
    verify_thm1,
    verify_thm2,
)


class TestCheckCongruence:
    def test_holds_with_quotient(self):
        w = verify.check_congruence(IntPoly("[0, 1, 1]"), IntPoly("[1, 1]"))
        assert w.holds and w.quotient == IntPoly("q")
        assert w.quotient * w.modulus == w.dividend

    def test_fails_with_remainder(self):
        w = verify.check_congruence(IntPoly("[1, 0, 1]"), IntPoly("[1, 1]"))
        assert not w.holds and w.quotient is None
        assert w.remainder == IntPoly(2)

    def test_integer_special_case(self):
        w = verify.check_congruence(120, 12)
        assert w.holds and w.quotient == IntPoly(10)

    def test_zero_modulus_rejected(self):
        with pytest.raises(InvalidArgument):
            verify.check_congruence(IntPoly("q"), 0)

    def test_float_coefficient_is_no_false_holds(self):
        # 0.5 + q is not q; truncating the 0.5 would report HOLDS
        with pytest.raises(TypeError):
            verify.check_congruence(IntPoly([0.5, 1]), IntPoly("q"))


def _printed_t2c2(n, r, s, t):
    """(dividend, printed modulus) of the t2c2 case, [3] at q^(2^alpha)."""
    alpha = nu_p_int(n, 2).value
    dividend = triple_sum("six_four_two", n, r, s, t, "q")
    two = cyclotomic(2 ** (alpha + 1))
    return dividend, two * q_int(3, step=2**alpha) * qbinom(6 * n, 3 * n)


def _divides_pairs():
    pairs = [_printed_t2c2(n, *rst) for n in range(1, 6) for rst in ((1, 1, 1), (2, 1, 2))]
    # sparse divisors q^m - 1
    for m in (2, 3, 5):
        qm1 = monomial(m) - 1
        for a in (monomial(6) - 1, qbinom(6, 2), q_int(5) * q_int(3, step=2)):
            pairs += [(a, qm1), (a * qm1, qm1), (a * qm1 + 1, qm1)]
    # a dense divisor whose quotient has large coefficients
    b = IntPoly([1, -1]) ** 7
    a = q_int(16) ** 7 * b
    pairs += [(a, b), (a + monomial(3), b), (IntPoly(7), IntPoly(7)), (IntPoly(8), IntPoly(3))]
    return pairs


class TestDivides:
    """check_congruence's witness on every division outcome."""

    @pytest.mark.parametrize("a,b", _divides_pairs())
    def test_agrees_with_check_congruence(self, a, b):
        w = check_congruence(a, b)
        if w.holds:
            assert w.quotient * b == a and w.remainder is None
        else:
            assert w.quotient is None and w.remainder

    def test_pairs_reach_every_path(self):
        holds = [check_congruence(a, b).holds for a, b in _divides_pairs()]
        assert True in holds and False in holds

    def test_printed_t2c2_moduli(self):
        # for n <= 5 the printed form, [3] at q^(2^alpha), fails only at n = 3
        assert [check_congruence(*_printed_t2c2(n, 1, 1, 1)).holds for n in range(1, 6)] == [
            True, True, False, True, True]

    def test_zero_cases(self):
        assert check_congruence(IntPoly(), IntPoly("1 + q")).holds
        with pytest.raises(ZeroDivisionError):
            divexact(IntPoly("q"), IntPoly())


class TestIdentities:
    def test_eq1_eq2_small(self):
        for n in range(1, 13):
            assert verify_identity("eq1", n=n).holds
            assert verify_identity("eq2", n=n).holds

    def test_eq2_spot_value(self):
        rep = verify_identity("eq2", n=3)
        assert rep.holds
        assert "-1680" in rep.case.derivation_note

    def test_calkin(self):
        assert verify_identity("calkin", n=3, r=5).holds

    @pytest.mark.parametrize("r", [range(1, 4), [5], 5.0, None])
    def test_calkin_takes_one_int_exponent(self, r):
        with pytest.raises(InvalidArgument, match="run_case"):
            verify_identity("calkin", n=3, r=r)

    def test_gjz(self):
        rep = verify_identity("gjz", ns=[1, 1])
        assert rep.holds
        assert rep.case.expected_modulus == IntPoly(2)

    def test_gjzq_spot(self):
        rep = verify_identity("gjzq", ns=[2, 1])
        assert rep.holds
        assert rep.case.expected_modulus == qbinom(3, 2)
        assert "ambiguity" in rep.case.derivation_note

    def test_gjzq_variant_reporting(self):
        # every component subscript is tried; the note lists the ones that divide
        rep = verify_identity("gjzq", ns=[1, 1])
        assert "[1, 2]" in rep.case.derivation_note

    def test_conj2_integer(self):
        r1 = verify_identity("cj2c1", n=1, r=1, s=1, t=1)
        assert r1.holds and r1.case.expected_modulus == IntPoly(2 * binom(6, 1))
        r2 = verify_identity("cj2c2", n=1, r=1, s=1, t=1)
        assert r2.holds and r2.case.expected_modulus == IntPoly(6 * binom(6, 3))
        r3 = verify_identity("cj2c3", n=1, r=2, s=1, t=1)
        assert r3.holds and r3.case.expected_modulus == IntPoly(2 * binom(8, 3))

    def test_conj2_excluded_triple(self):
        rep = verify_identity("cj2c3", n=2, r=1, s=1, t=1)
        assert rep.holds is None
        assert "not applicable" in rep.case.derivation_note

    def test_conj2_q_has_no_exclusion(self):
        rep = verify_identity("cj2c3q", n=1, r=1, s=1, t=1)
        assert rep.holds is True

    def test_unknown_claim(self):
        with pytest.raises(InvalidArgument):
            verify_identity("eq3", n=1)


class TestThm1:
    def test_per_prime_n2(self):
        reports = verify_thm1(2, "per_prime")
        by_key = {(r.case.params["p"], r.case.params["r"]): r for r in reports}
        assert set(by_key) == {(2, 4), (2, 6), (3, 8), (3, 14)}
        assert all(r.holds for r in reports)
        # the r = 4 case is the valuation of 786 = 2 * 3 * 131
        assert alt_power_sum(2, 4) == 786
        assert alt_power_sum(2, 8) == 1548546

    def test_full_modulus_n1(self):
        reports = verify_thm1(1, "full_modulus")
        assert len(reports) == 1
        rep = reports[0]
        assert rep.case.params["r"] == 4  # smallest r > 2 with r = 2 mod 2
        assert rep.holds
        assert alt_power_sum(1, 4) == -14

    def test_per_prime_sweep(self):
        for n in range(1, 6):
            assert all(r.holds for r in verify_thm1(n, "per_prime"))

    def test_budget(self):
        # an over-budget exponent is one not-evaluated report, not an exception
        [rep] = verify_thm1(4, "full_modulus", exponent_budget=100)
        assert rep.holds is None and rep.case.expected_modulus is None
        assert rep.case.params == {"n": 4, "variant": "full_modulus", "exponent_budget": 100}
        assert list(rep.case.params) == ["n", "variant", "exponent_budget"]
        assert rep.case.derivation_note == (
            "not evaluated: full_modulus exponent 1682 exceeds the budget 100 (n=4)"
        )

    @pytest.mark.parametrize("variant, budget", [
        ("per_prime", 100), ("full_modulus", 100), ("full_modulus", 10**6),
    ])
    def test_same_records_as_run_case(self, variant, budget):
        params = {"n": 4, "variant": variant, "exponent_budget": budget}
        assert _without_elapsed(verify_thm1(4, variant, budget)) == _without_elapsed(
            run_case("thm1", params))

    def test_rejects(self):
        with pytest.raises(InvalidArgument):
            verify_thm1(0)
        with pytest.raises(InvalidArgument):
            verify_thm1(1, "fastest")


def _without_elapsed(reports):
    return [{k: v for k, v in rep.record().items() if k != "elapsed_ms"} for rep in reports]


def _full_calkin(n, r):
    """The calkin report of the full path: the whole sum, divided exactly."""
    params = {"n": n, "r": r}
    return verify._timed(iter([
        verify._congruence("calkin", params, alt_power_sum(n, r), binom(2 * n, n))
    ]))


_full_sum = functools.cache(alt_power_sum)


def _stub_residues(value):
    """A stand-in for sums.alt_power_sums_mod: value mod m at every exponent."""
    return lambda n, rs, m: (value % m for _ in rs)


def _count_calls(monkeypatch, name):
    """The argument tuples of every call of verify.sums.<name>, which still runs."""
    calls = []
    real = getattr(verify.sums, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify.sums, name, counted)
    return calls


class TestResiduePaths:
    """calkin and thm1 decide by residues; calkin falls back to the full sum."""

    @given(st.integers(1, 12), st.integers(1, 30))
    def test_calkin_matches_the_full_path(self, n, r):
        reports = run_case("calkin", {"n": n, "r": r})
        assert _without_elapsed(reports) == _without_elapsed(_full_calkin(n, r))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_calkin_range_is_one_report_per_exponent(self, n):
        reports = run_case("calkin", {"n": n, "r": range(1, 21)})
        single = [rep for r in range(1, 21) for rep in run_case("calkin", {"n": n, "r": r})]
        assert _without_elapsed(reports) == _without_elapsed(single)

    def test_failed_report_ends_the_calkin_case(self, monkeypatch):
        # one more than the true value at r = 3, on both paths
        real_mod, real_full = verify.sums.alt_power_sums_mod, verify.sums.alt_power_sum
        drawn = []

        def residues(n, rs, m):
            for r, value in zip(rs, real_mod(n, rs, m)):
                drawn.append(r)
                yield (value + (r == 3)) % m

        monkeypatch.setattr(verify.sums, "alt_power_sums_mod", residues)
        monkeypatch.setattr(verify.sums, "alt_power_sum", lambda n, r: real_full(n, r) + (r == 3))
        reports = run_case("calkin", {"n": 2, "r": range(1, 11)})
        assert [rep.holds for rep in reports] == [True, True, False]
        assert [rep.case.params for rep in reports] == [{"n": 2, "r": r} for r in (1, 2, 3)]
        assert drawn == [1, 2, 3]

    @pytest.mark.parametrize("rs", [range(4, 4), range(4, 1, -1)])
    def test_calkin_rejects_an_empty_or_descending_range(self, rs):
        with pytest.raises(InvalidArgument, match="nonempty ascending range"):
            run_case("calkin", {"n": 2, "r": rs})

    @pytest.mark.parametrize("variant", ["per_prime", "full_modulus"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_thm1_nu_is_that_of_the_full_sum(self, n, variant):
        reports = verify_thm1(n, variant, exponent_budget=10**6)
        assert reports and all(rep.holds for rep in reports)
        for rep in reports:
            p, r = rep.case.params["p"], rep.case.params["r"]
            nu = nu_p_int(_full_sum(n, r), p).value
            assert rep.case.derivation_note.startswith(f"nu_{p}(sum)={nu},")

    def test_holding_residues_build_no_full_sum(self, monkeypatch):
        full = _count_calls(monkeypatch, "alt_power_sum")
        rep = run_case("calkin", {"n": 3, "r": 5})[0]
        assert rep.holds and rep.quotient_degree == 0
        assert all(rep.holds for rep in verify_thm1(4, "per_prime"))
        assert all(rep.holds for rep in verify_thm1(4, "full_modulus"))
        assert full == []

    def test_zero_sum_takes_the_full_path(self, monkeypatch):
        full = _count_calls(monkeypatch, "alt_power_sum")
        for n in range(1, 6):
            rep = run_case("calkin", {"n": n, "r": 1})[0]  # S = (1 - 1)^(2n) = 0
            assert rep.holds and rep.quotient_degree == -1
        assert full == [(n, 1) for n in range(1, 6)]

    def test_zero_residue_of_a_nonzero_sum_takes_the_full_path(self, monkeypatch):
        # n = 1: S = 2 - 2^r = -2 (2^(r-1) - 1), and 2^61 = 1 mod 2^61 - 1
        assert verify._CALKIN_PRIME == 2**61 - 1
        assert verify.sums.alt_power_sum_mod(1, 62, 2 * verify._CALKIN_PRIME) == 0
        assert alt_power_sum(1, 62) != 0
        full = _count_calls(monkeypatch, "alt_power_sum")
        rep = run_case("calkin", {"n": 1, "r": 62})[0]
        assert rep.holds and rep.quotient_degree == 0
        assert full == [(1, 62)]

    def test_intsum_sweep_takes_the_full_path_only_where_the_residue_vanishes(self, monkeypatch):
        # the reports are the same whichever path decides them, so a wrong walk
        # that sends its cases to the full sum would pass every output check:
        # the full path runs at r = 1 (S = 0) for each n, and at n = 1 where
        # 2^(r-1) = 1 mod 2^61 - 1, r = 62, 123, 184
        full = _count_calls(monkeypatch, "alt_power_sum")
        args = build_parser().parse_args(["verify", "calkin", "--n", "1..40", "--r", "1..200"])
        reports = run_sweep(build_cases(args), 1)
        assert len(reports) == 8000 and all(rep.holds for rep in reports)
        assert full == [(1, 1), (1, 62), (1, 123), (1, 184)] + [(n, 1) for n in range(2, 41)]

    def test_failed_residue_check_reruns_the_full_path(self, monkeypatch):
        # C(4, 2) = 6 does not divide the stubbed residue; the true sum,
        # S = 6, decides the claim
        monkeypatch.setattr(verify.sums, "alt_power_sums_mod", _stub_residues(7))
        full = _count_calls(monkeypatch, "alt_power_sum")
        rep = run_case("calkin", {"n": 2, "r": 2})[0]
        assert rep.holds and rep.quotient_degree == 0 and rep.witness is None
        assert full == [(2, 2)]

    @pytest.mark.parametrize("variant", ["per_prime", "full_modulus"])
    def test_zero_thm1_residue_fails_without_the_full_sum(self, monkeypatch, variant):
        # a zero S mod p^(gamma+1) proves nu_p(S) > gamma: the check fails
        # on the residue alone, with no exact valuation to witness
        def refuse(n, r):
            raise AssertionError(f"full sum built at n={n}, r={r}")

        monkeypatch.setattr(verify.sums, "alt_power_sum_mod", lambda n, r, m: 0)
        monkeypatch.setattr(verify.sums, "alt_power_sum", refuse)
        reports = verify_thm1(3, variant)
        assert [rep.case.params["p"] for rep in reports] == (
            [2, 2, 5, 5] if variant == "per_prime" else [2, 5]
        )
        for rep in reports:
            p = rep.case.params["p"]
            gamma = 2 if p == 2 else 1  # C(6, 3) = 20 = 2^2 * 5
            assert rep.holds is False and rep.witness is None
            assert rep.case.expected_modulus == IntPoly(p**gamma)
            assert rep.case.derivation_note == (
                f"nu_{p}(sum)>={gamma + 1}, expected gamma={gamma}"
            )


class TestReach:
    """Exponents whose full sums are out of reach, decided by residues alone."""

    @pytest.fixture(autouse=True)
    def no_full_sum(self, monkeypatch):
        # a fallback here would run for hours: fail at once instead
        def refuse(n, r):
            raise AssertionError(f"full sum built at n={n}, r={r}")

        monkeypatch.setattr(verify.sums, "alt_power_sum", refuse)

    def test_calkin_at_a_million(self):
        rep = run_case("calkin", {"n": 20, "r": 10**6})[0]
        assert rep.holds and rep.quotient_degree == 0
        assert rep.elapsed < 1.0

    def test_thm1_full_modulus_to_sixty(self):
        checked = 0
        for n in range(1, 61):
            reports = verify_thm1(n, "full_modulus", exponent_budget=10**80)
            primes = [p for p, _ in verify._prime_divisors_central(n)]
            assert [rep.case.params["p"] for rep in reports] == primes
            assert all(rep.holds for rep in reports), n
            checked += len(reports)
        assert checked == 715


def _full_q_report(claim_id, params):
    """The report of the full path: the whole q sum, divided exactly."""
    n, r, s, t = (params[key] for key in "nrst")
    family = "eight_four_two" if claim_id in ("t2c3", "cj2c3q") else "six_four_two"
    rep = run_case(claim_id, params)[0]
    dividend = triple_sum(family, n, r, s, t, "q")
    w = check_congruence(dividend, rep.case.expected_modulus)
    return w.holds, len(w.quotient) - 1 if w.holds else None, dividend


class TestQResiduePath:
    """thm2 and the cj2 q claims decide by residues modulo each Phi_d^e."""

    @pytest.fixture
    def no_full_division(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("check_congruence called on a holding case")

        def residues_only(family, n, r, s, t, mode="integer", *, modulo=None):
            assert modulo is not None, "the full q sum was built"
            return triple_sum(family, n, r, s, t, mode, modulo=modulo)

        monkeypatch.setattr(verify, "check_congruence", refuse)
        monkeypatch.setattr(verify.sums, "triple_sum", residues_only)

    @pytest.mark.parametrize("claim", ["t2c1", "t2c2", "t2c3", "cj2c1q", "cj2c2q", "cj2c3q"])
    @pytest.mark.parametrize("rst", [(3, 3, 3), (2, 1, 1), (1, 2, 1)])
    def test_holding_cases_at_n8_never_divide(self, no_full_division, claim, rst):
        rep = run_case(claim, dict(zip("nrst", (8, *rst))))[0]
        assert rep.holds and rep.witness is None
        family = "eight_four_two" if claim in ("t2c3", "cj2c3q") else "six_four_two"
        degree = triple_sum_degree(family, 8, *rst) - rep.case.expected_modulus.degree
        assert rep.quotient_degree == degree

    @pytest.mark.parametrize("claim", ["t2c1", "t2c2", "t2c3", "cj2c1q", "cj2c2q", "cj2c3q"])
    def test_reports_match_the_full_path(self, claim):
        for n in range(1, 4):
            for rst in ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (3, 2, 3)):
                params = dict(zip("nrst", (n, *rst)))
                rep = run_case(claim, params)[0]
                if rep.holds is None:
                    continue
                holds, degree, dividend = _full_q_report(claim, params)
                assert (rep.holds, rep.quotient_degree) == (holds, degree), params
                if claim == "t2c2":
                    printed = check_congruence(dividend, _printed_t2c2(n, *rst)[1]).holds
                    assert rep.case.derivation_note.endswith(
                        " also divides" if printed else " does NOT divide"), params

    def test_t2c2_moduli_agree_on_every_shared_cyclotomic(self, monkeypatch):
        # the asserted and printed moduli share one residue per Phi_d, so a
        # shared d must have one multiplicity in both; only the moduli are
        # built here, the sums and the expanded modulus are stubbed
        seen = []

        def residues(family, n, r, s, t, mode, *, modulo):
            seen.append(modulo.factors)
            return {d: IntPoly() for d in modulo.factors}

        monkeypatch.setattr(verify.sums, "triple_sum", residues)
        monkeypatch.setattr(verify, "qbinom", lambda N, K: IntPoly(1))
        for n in range(1, 65):
            rep = run_case("t2c2", {"n": n, "r": 1, "s": 1, "t": 1})[0]
            assert rep.holds and rep.case.derivation_note.endswith(" also divides"), n
        assert len(seen) == 64

    def test_moduli_that_disagree_are_an_internal_error(self):
        with pytest.raises(RuntimeError, match="internal invariant violated"):
            verify._q_triple("t2c2", {"n": 1, "r": 1, "s": 1, "t": 1}, "six_four_two",
                             (6, 3), {4: 1}, "", {4: 2})

    def test_printed_t2c2_form_decided_from_residues(self, no_full_division):
        # 3 * 2^j for j <= alpha: at n = 8 the printed modulus has four more factors
        rep = run_case("t2c2", {"n": 8, "r": 1, "s": 1, "t": 1})[0]
        dividend, printed = _printed_t2c2(8, 1, 1, 1)
        holds = check_congruence(dividend, printed).holds  # this module's binding, not verify's
        want = "also divides" if holds else "does NOT divide"
        assert rep.holds and rep.case.derivation_note.endswith(want)

    def test_nonzero_residue_reruns_the_full_path(self, monkeypatch):
        # a wrong alpha = 2 at n = 1 asserts Phi_8 * qb(6, 1), and Phi_8 does
        # not divide the sum: the full path decides and keeps its witness
        calls = []
        real = verify.check_congruence
        monkeypatch.setattr(verify, "check_congruence",
                            lambda a, b: calls.append(b) or real(a, b))
        monkeypatch.setattr(verify, "nu_p_int", lambda m, p: verify.ValuationRecord(p, 2))
        rep = run_case("t2c1", {"n": 1, "r": 1, "s": 1, "t": 1})[0]
        assert rep.holds is False and rep.quotient_degree is None
        assert rep.case.expected_modulus == cyclotomic(8) * qbinom(6, 1)
        assert calls == [rep.case.expected_modulus]
        assert rep.witness.dividend == triple_sum("six_four_two", 1, 1, 1, 1, "q")
        assert rep.witness.remainder and not rep.witness.holds


def _expected(witness):
    """(holds, quotient_degree) of the report check_congruence would give."""
    return witness.holds, None if witness.quotient is None else len(witness.quotient) - 1


class TestBuiltDividendResidues:
    """gjzq and lemma24 decide by residues of the dividend they build."""

    @pytest.fixture
    def real_check(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("check_congruence called on a holding case")

        monkeypatch.setattr(verify, "check_congruence", refuse)
        return check_congruence

    def test_gjzq_reports_match_the_full_division(self, real_check):
        for h in range(1, 4):
            for ns in itertools.product(range(1, 6), repeat=h):
                ns = list(ns)
                dividend, n1 = gjz_sum(ns, "q"), ns[0]
                modulus = qbinom(n1 + ns[-1], n1)
                variants = [i + 1 for i, ni in enumerate(ns)
                            if real_check(dividend, qbinom(n1 + ni, n1)).holds]
                rep = run_case("gjzq", {"ns": ns})[0]
                assert rep.case.expected_modulus == modulus
                assert (rep.holds, rep.quotient_degree) == _expected(
                    real_check(dividend, modulus)), ns
                assert rep.case.derivation_note.endswith(f"modulus divides: {variants}"), ns
                if h == 1:  # the sum over k of (-1)^k q^C(k,2) qb(2n, n + k) vanishes
                    assert not dividend and rep.quotient_degree == -1

    def test_lemma24_reports_match_the_full_division(self, real_check):
        checked = 0
        for n, p, r in itertools.product(range(1, 9), (2, 3, 5), range(1, 4)):
            for rep in run_case("lemmas", {"n": n, "p": p, "r": r}):
                if rep.case.claim_id != "lemma24":
                    continue
                dividend = pattern_sum(n, r, p, rep.case.params["I"], "q")
                want = _expected(real_check(dividend, rep.case.expected_modulus))
                assert (rep.holds, rep.quotient_degree) == want, rep.case.params
                checked += 1
        assert checked == 498

    def test_nonzero_residue_ends_with_the_full_division_witness(self, monkeypatch):
        # one more than the sum: no residue vanishes, and the exact division
        # of the dividend the case built supplies the witness
        real = gjz_sum
        monkeypatch.setattr(verify.sums, "gjz_sum", lambda ns, mode: real(ns, mode) + 1)
        rep = run_case("gjzq", {"ns": [2, 1]})[0]
        assert rep.holds is False and rep.quotient_degree is None
        assert rep.case.derivation_note.endswith("modulus divides: []")
        assert rep.witness.dividend == real([2, 1], "q") + 1
        assert rep.witness.modulus == qbinom(3, 2) and rep.witness.remainder == IntPoly(1)

    def test_nonzero_lemma24_residue_reruns_the_full_division(self, monkeypatch):
        real = pattern_sum

        def shifted(n, r, p, I, mode="integer"):
            value = real(n, r, p, I, mode)
            return value + 1 if mode == "q" else value

        monkeypatch.setattr(verify.sums, "pattern_sum", shifted)
        reports = [rep for rep in run_case("lemmas", {"n": 2, "p": 2, "r": 2})
                   if rep.case.claim_id == "lemma24"]
        assert reports and all(rep.holds is False for rep in reports)
        for rep in reports:
            assert rep.witness.remainder == IntPoly(1)
            assert rep.witness.modulus == rep.case.expected_modulus


class TestThm2:
    def test_t2c1_example(self):
        rep = verify_thm2(1, 1, 1, 1, "t2c1")
        assert rep.holds
        assert rep.case.expected_modulus == IntPoly("1 + q") * qbinom(6, 1)
        assert rep.case.expected_modulus.evaluate(1) == 12

    def test_t2c2_example(self):
        rep = verify_thm2(1, 1, 1, 1, "t2c2")
        assert rep.holds
        assert rep.case.expected_modulus == IntPoly("1 + q") * IntPoly("1 + q + q^2") * qbinom(6, 3)
        assert rep.case.expected_modulus.evaluate(1) == 120

    def test_t2c3_example(self):
        rep = verify_thm2(1, 2, 1, 1, "t2c3")
        assert rep.holds
        assert rep.case.expected_modulus == IntPoly("1 + q^4") * qbinom(8, 3)

    def test_t2c3_not_applicable(self):
        rep = verify_thm2(1, 1, 1, 1, "t2c3")
        assert rep.holds is None
        assert "not applicable" in rep.case.derivation_note

    @pytest.mark.parametrize(
        "n,r,s,t,step",
        [
            (1, 1, 1, 2, 0),  # t-guard: exponent 2^a
            (1, 1, 2, 1, 1),  # s-guard: 2^(a+1)
            (1, 2, 1, 1, 2),  # r-guard with n = 2^a mod 2^(a+2): 2^(a+2)
            (3, 2, 1, 1, 1),  # r-guard with n = 3*2^a: 2^(a+1)
            (2, 1, 1, 2, 1),  # alpha = 1 shifts every exponent
            (2, 1, 2, 1, 2),
            (2, 2, 1, 1, 3),
            (4, 2, 1, 1, 4),  # alpha = 2, n = 4 = 2^2 mod 16
        ],
    )
    def test_t2c3_branch_selection(self, n, r, s, t, step):
        rep = verify_thm2(n, r, s, t, "t2c3")
        assert rep.holds
        assert rep.case.expected_modulus == q_int(2, step=2**step) * qbinom(8 * n, 3 * n)
        assert f"2^{step}" in rep.case.derivation_note

    def test_t2c3_guard_precedence(self):
        # t >= 2 wins even when the r-guard would give a sharper factor
        rep = verify_thm2(1, 3, 3, 3, "t2c3")
        assert "t >= 2" in rep.case.derivation_note

    def test_t2c2_printed_variant_recorded(self):
        # alpha = beta = 0 makes the printed and derived forms coincide
        rep = verify_thm2(1, 1, 1, 1, "t2c2")
        assert "also divides" in rep.case.derivation_note
        # n = 2 separates them; the outcome is recorded either way
        rep = verify_thm2(2, 1, 1, 1, "t2c2")
        assert "divide" in rep.case.derivation_note

    def test_witness_specializes_to_integer_congruence(self):
        rep = verify_thm2(1, 1, 1, 1, "t2c1")
        w = check_congruence(triple_sum("six_four_two", 1, 1, 1, 1, "q"), rep.case.expected_modulus)
        assert w.modulus.evaluate(1) == 2 * binom(6, 1)
        assert w.quotient.evaluate(1) * w.modulus.evaluate(1) == triple_sum(
            "six_four_two", 1, 1, 1, 1, "integer"
        )
        assert rep.record()["quotient_degree"] == w.quotient.degree

    def test_rejects(self):
        with pytest.raises(InvalidArgument):
            verify_thm2(1, 1, 1, 1, "t2c4")
        with pytest.raises(InvalidArgument):
            verify_thm2(0, 1, 1, 1, "t2c1")


class TestLemmas:
    def test_spec_triple(self):
        reports = verify_lemmas(2, 2, 2)
        assert all(r.holds for r in reports)
        ids = {r.case.claim_id for r in reports}
        assert ids == {"lemma21", "lemma22", "lemma23", "lemma24"}
        # the modulus of the I = {1} pattern congruence is Phi_2^2 * Phi_4
        lem24 = {tuple(r.case.params["I"]): r for r in reports if r.case.claim_id == "lemma24"}
        assert lem24[(1,)].case.expected_modulus == IntPoly("1 + q") ** 2 * IntPoly("1 + q^2")

    def test_r_one_bound(self):
        reports = verify_lemmas(1, 2, 1)
        lem22 = next(r for r in reports if r.case.claim_id == "lemma22")
        assert lem22.holds  # nu_2(-2) = 1 >= 0 + 1

    def test_p3(self):
        assert all(r.holds for r in verify_lemmas(3, 3, 2))

    def test_prime_not_dividing_central(self):
        # gamma = 0 branches must hold as equalities/bounds too
        assert all(r.holds for r in verify_lemmas(1, 5, 2))

    def test_rejects(self):
        with pytest.raises(InvalidArgument):
            verify_lemmas(1, 4, 1)


class TestGcdWindow:
    def test_examples(self):
        assert gcd_window(1, 2, 5) == (2, True)
        g, ok = gcd_window(2, 2, 5)
        assert ok and g % 6 == 0
        assert gcd_window(1, 1, 2) == (2, True)

    def test_window_values_n2(self):
        assert [alt_power_sum(2, r) for r in range(2, 7)] == [6, 90, 786, 5730, 38466]

    def test_report_is_marked_evidence(self):
        rep = verify_gcd_window(2, 2, 5)
        assert rep.holds
        assert "evidence, not proof" in rep.case.derivation_note

    def test_rejects_narrow_window(self):
        with pytest.raises(InvalidArgument):
            gcd_window(1, 2, 1)


class TestRunCaseAndRecords:
    def test_dispatch(self):
        assert run_case("eq1", {"n": 2})[0].holds
        assert len(run_case("thm1", {"n": 1, "variant": "per_prime"})) == 2
        assert run_case("t2c1", {"n": 1, "r": 1, "s": 1, "t": 1})[0].holds
        assert len(run_case("lemmas", {"n": 1, "p": 2, "r": 1})) >= 4
        assert run_case("conj1_window", {"n": 1, "m": 2, "w": 3})[0].holds
        assert run_case("qlucas", {"d": 3, "x1": 1, "x2": 2, "y1": 0, "y2": 2})[0].holds

    def test_unknown_claim(self):
        with pytest.raises(InvalidArgument):
            run_case("fermat", {})

    def test_record_schema(self):
        rep = run_case("calkin", {"n": 2, "r": 2})[0]
        rec = rep.record()
        assert list(rec) == [
            "claim_id",
            "params",
            "modulus",
            "holds",
            "quotient_degree",
            "branch_note",
            "elapsed_ms",
        ]
        assert rec["claim_id"] == "calkin"
        assert rec["modulus"] == "[6]"
        assert rec["holds"] is True
        assert rec["quotient_degree"] == 0

    def test_reports_keep_only_what_they_print(self, monkeypatch):
        held = run_case("calkin", {"n": 2, "r": 2})[0]
        assert held.holds and held.witness is None and held.quotient_degree == 0
        zero = run_case("calkin", {"n": 3, "r": 1})[0]  # S = (1 - 1)^6 = 0
        assert zero.holds and zero.record()["quotient_degree"] == -1
        assert run_case("thm1", {"n": 2, "variant": "per_prime"})[0].quotient_degree is None
        # S = 7 on both paths: the residue check fails, the full path decides
        monkeypatch.setattr(verify.sums, "alt_power_sums_mod", _stub_residues(7))
        monkeypatch.setattr(verify.sums, "alt_power_sum", lambda n, r: 7)
        failed = run_case("calkin", {"n": 2, "r": 2})[0]
        assert failed.holds is False and failed.quotient_degree is None
        assert failed.witness.remainder == IntPoly(7)  # 6 does not divide 7 in Z[q]

    def test_over_budget_case_reported_not_evaluated(self):
        reps = run_case("thm1", {"n": 4, "variant": "full_modulus", "exponent_budget": 10})
        assert len(reps) == 1
        assert reps[0].holds is None and reps[0].case.expected_modulus is None
        assert reps[0].case.derivation_note == (
            "not evaluated: full_modulus exponent 1682 exceeds the budget 10 (n=4)"
        )

    def test_record_not_applicable(self):
        rep = run_case("t2c3", {"n": 1, "r": 1, "s": 1, "t": 1})[0]
        rec = rep.record()
        assert rec["holds"] is None and rec["modulus"] is None

    def test_qlucas_report(self):
        rep = verify_qlucas(3, 1, 2, 0, 2)
        assert rep.holds and rep.case.expected_modulus == IntPoly("1 + q + q^2")


class TestElapsedCoversWholeCase:
    """A report's elapsed includes building its dividend, not only the check."""

    DELAY = 0.05

    @pytest.fixture
    def slow(self, monkeypatch):
        def patch(name):
            original = getattr(verify.sums, name)

            def delayed(*args, **kwargs):
                time.sleep(self.DELAY)
                return original(*args, **kwargs)

            monkeypatch.setattr(verify.sums, name, delayed)

        return patch

    def test_calkin_and_thm1_per_prime(self, slow):
        slow("alt_power_sum")
        slow("alt_power_sums_mod")
        slow("alt_power_sum_mod")
        assert run_case("calkin", {"n": 3, "r": 4})[0].elapsed >= self.DELAY
        reports = run_case("thm1", {"n": 2, "variant": "per_prime"})
        assert len(reports) == 4
        assert all(rep.elapsed >= self.DELAY for rep in reports)

    def test_lemma24(self, slow):
        slow("pattern_sum")
        reports = [rep for rep in run_case("lemmas", {"n": 1, "p": 2, "r": 1})
                   if rep.case.claim_id == "lemma24"]
        assert len(reports) == 3
        assert all(rep.elapsed >= self.DELAY for rep in reports)

    def test_shared_sum_charged_once_and_reports_add_up(self, slow):
        slow("alt_power_sum")
        slow("alt_power_sum_mod")
        start = time.perf_counter()
        reports = run_case("thm1", {"n": 2, "variant": "full_modulus"})
        wall = time.perf_counter() - start
        assert len(reports) == 2
        assert reports[0].elapsed >= self.DELAY
        assert self.DELAY <= sum(rep.elapsed for rep in reports) <= wall
