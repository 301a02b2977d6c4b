"""Theorem-level drivers: moduli, branch selection, witnesses, reports."""

import time

import pytest

from qaltsum import verify
from qaltsum.cyclo import q_int
from qaltsum.polycore import IntPoly, InvalidArgument
from qaltsum.qcomb import binom, qbinom
from qaltsum.sums import alt_power_sum, triple_sum
from qaltsum.verify import (
    InfeasibleScale,
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
        with pytest.raises(InfeasibleScale):
            verify_thm1(4, "full_modulus", exponent_budget=100)

    def test_rejects(self):
        with pytest.raises(InvalidArgument):
            verify_thm1(0)
        with pytest.raises(InvalidArgument):
            verify_thm1(1, "fastest")


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
        w = rep.witness
        assert w.modulus.evaluate(1) == 2 * binom(6, 1)
        assert w.quotient.evaluate(1) * w.modulus.evaluate(1) == triple_sum(
            "six_four_two", 1, 1, 1, 1, "integer"
        )

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
        start = time.perf_counter()
        reports = run_case("thm1", {"n": 2, "variant": "full_modulus"})
        wall = time.perf_counter() - start
        assert len(reports) == 2
        assert reports[0].elapsed >= self.DELAY
        assert self.DELAY <= sum(rep.elapsed for rep in reports) <= wall
