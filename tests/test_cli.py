"""CLI: sweeps, output formats, exit codes, determinism."""

import argparse
import copy
import csv
import importlib
import io
import inspect
import json
import multiprocessing
import os
import random
import re
import shutil
import subprocess
import sys
import time
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qaltsum import cli, qcomb, sums, verify
from qaltsum.cli import (
    REPORT_FIELDS,
    build_cases,
    build_parser,
    emit_report,
    parse_range,
    parse_report_json,
    run,
    run_sweep,
)
from qaltsum.polycore import CongruenceWitness, IntPoly, InvalidArgument
from qaltsum.verify import TheoremCase, VerificationReport


class TestParsing:
    def test_parse_range(self):
        assert list(parse_range("3")) == [3]
        assert list(parse_range("1..4")) == [1, 2, 3, 4]
        assert list(parse_range("5..5")) == [5]

    @pytest.mark.parametrize("bad", ["", "4..1", "a..b", "1..2..3", "1.5"])
    def test_parse_range_rejects(self, bad):
        with pytest.raises(InvalidArgument):
            parse_range(bad)

    def test_build_cases_lexicographic(self):
        args = build_parser().parse_args(
            ["verify", "calkin", "--n", "1..2", "--r", "1..2"]
        )
        cases = build_cases(args)
        assert cases == [
            ("calkin", {"n": 1, "r": range(1, 3)}),
            ("calkin", {"n": 2, "r": range(1, 3)}),
        ]
        assert [rep.case.params for rep in run_sweep(cases)] == [
            {"n": 1, "r": 1},
            {"n": 1, "r": 2},
            {"n": 2, "r": 1},
            {"n": 2, "r": 2},
        ]

    def test_build_cases_compositions(self):
        args = build_parser().parse_args(
            ["verify", "gjz", "--h", "1..2", "--ni", "1..2"]
        )
        assert [params["ns"] for _, params in build_cases(args)] == [
            [1], [2], [1, 1], [1, 2], [2, 1], [2, 2],
        ]

    @pytest.mark.parametrize("argv, expected", [
        (["eq1", "--n", "1..2"], [("eq1", [("n", 1)]), ("eq1", [("n", 2)])]),
        (["calkin", "--n", "1..2", "--r", "3"],
         [("calkin", [("n", 1), ("r", range(3, 4))]), ("calkin", [("n", 2), ("r", range(3, 4))])]),
        (["gjz", "--ns", "2,1"], [("gjz", [("ns", [2, 1])])]),
        (["gjzq", "--h", "1..3", "--ni", "1"],
         [("gjzq", [("ns", [1])]), ("gjzq", [("ns", [1, 1])]), ("gjzq", [("ns", [1, 1, 1])])]),
        (["conj2", "--n", "1", "--r", "1..2", "--s", "1", "--t", "1", "--claim", "cj2c2",
          "--mode", "both"],
         [(claim, [("n", 1), ("r", r), ("s", 1), ("t", 1)])
          for r in (1, 2) for claim in ("cj2c2", "cj2c2q")]),
        (["thm1", "--n", "1..2", "--variant", "both", "--exponent-budget", "7"],
         [("thm1", [("n", n), ("variant", v), ("exponent_budget", 7)])
          for n in (1, 2) for v in ("per_prime", "full_modulus")]),
        (["thm2", "--n", "1..2", "--r", "1", "--s", "1", "--t", "1..2"],
         [(claim, [("n", n), ("r", 1), ("s", 1), ("t", t)])
          for n in (1, 2) for t in (1, 2) for claim in ("t2c1", "t2c2", "t2c3")]),
        (["lemmas", "--n", "1..2", "--p", "3,2", "--r", "1..2"],
         [("lemmas", [("n", n), ("p", p), ("r", r)])
          for n in (1, 2) for p in (3, 2) for r in (1, 2)]),
        (["gcd-window", "--n", "1..2", "--m", "3", "--window", "5"],
         [("conj1_window", [("n", n), ("m", 3), ("w", 5)]) for n in (1, 2)]),
    ])
    def test_build_cases_order_of_every_verb(self, argv, expected):
        cases = build_cases(build_parser().parse_args(["verify", *argv]))
        assert [(claim, list(params.items())) for claim, params in cases] == expected

    def test_conj2_modes(self):
        args = build_parser().parse_args(
            ["verify", "conj2", "--n", "1", "--r", "1", "--s", "1", "--t", "1",
             "--mode", "both"]
        )
        claims = [claim for claim, _ in build_cases(args)]
        assert claims == ["cj2c1", "cj2c2", "cj2c3", "cj2c1q", "cj2c2q", "cj2c3q"]


class TestExitCodes:
    def test_all_hold_exit_zero(self, capsys):
        assert run(["verify", "calkin", "--n", "1..3", "--r", "1..2",
                    "--output", "json", "--jobs", "1"]) == 0
        records = parse_report_json(capsys.readouterr().out)
        assert len(records) == 6
        assert all(rec["holds"] for rec in records)

    def test_usage_error_exit_two(self, capsys):
        assert run(["verify", "calkin", "--n", "3..1", "--r", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_exit_two(self, capsys):
        assert run(["verify", "fermat", "--n", "1"]) == 2

    def test_not_applicable_is_success(self, capsys):
        code = run(["verify", "thm2", "--claim", "t2c3",
                    "--n", "2", "--r", "1", "--s", "1", "--t", "1", "--jobs", "1"])
        assert code == 0
        assert "N/A" in capsys.readouterr().out

    def test_over_budget_case_reported_not_fatal(self, capsys):
        code = run(["verify", "thm1", "--n", "4", "--variant", "both",
                    "--exponent-budget", "10", "--jobs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "budget" in out and "N/A" in out
        assert "HOLDS" in out  # the per-prime cases still ran

    def test_failure_exit_one_with_dump(self, capsys, monkeypatch):
        def fake_run_case(claim_id, params):
            dividend, modulus = IntPoly("[1, 0, 1]"), IntPoly("[1, 1]")
            witness = CongruenceWitness(dividend, modulus, None, False, IntPoly(2))
            report_params = {"n": params["n"], "r": params["r"][0]}  # as _calkin reports
            case = TheoremCase(claim_id, report_params, modulus, "synthetic failure")
            return [VerificationReport(case, False, witness)]

        monkeypatch.setattr(verify, "run_case", fake_run_case)
        code = run(["verify", "calkin", "--n", "1..4", "--r", "1", "--jobs", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "COUNTEREXAMPLE" in err
        assert "[2]" in err  # the remainder polynomial
        assert "[1, 1]" in err

    def test_failed_calkin_residue_dumps_the_full_path_witness(self, capsys, monkeypatch):
        # S = 7 on both paths: C(4, 2) = 6 does not divide the residue, and
        # the full path supplies the witness
        monkeypatch.setattr(sums, "alt_power_sums_mod", lambda n, rs, m: (7 % m for _ in rs))
        monkeypatch.setattr(sums, "alt_power_sum", lambda n, r: 7)
        assert run(["verify", "calkin", "--n", "2", "--r", "2", "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert 'COUNTEREXAMPLE claim=calkin params={"n": 2, "r": 2}' in err
        assert "modulus   = [6]" in err
        assert "dividend  = [7]" in err and "remainder = [7]" in err

    def test_failed_gjzq_residue_dumps_the_full_path_witness(self, capsys, monkeypatch):
        # one more than the sum, which qb(3, 2) divides: the remainder is 1
        real = sums.gjz_sum
        monkeypatch.setattr(sums, "gjz_sum", lambda ns, mode: real(ns, mode) + 1)
        assert run(["verify", "gjzq", "--ns", "2,1", "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert 'COUNTEREXAMPLE claim=gjzq params={"ns": [2, 1]}' in err
        assert "modulus   = [1, 1, 1]" in err and "remainder = [1]" in err

    def test_zero_thm1_residue_fails_at_once(self, capsys, monkeypatch):
        # C(40, 20) = 2^2 * 3^2 * 5 * ...; the exponent has 22 digits, so a
        # full sum would never finish
        monkeypatch.setattr(sums, "alt_power_sum_mod", lambda n, r, m: 0)
        start = time.perf_counter()
        code = run(["verify", "thm1", "--n", "20", "--variant", "full_modulus",
                    "--exponent-budget", str(10**80), "--jobs", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert "COUNTEREXAMPLE claim=thm1" in err
        assert "note      = nu_2(sum)>=3, expected gamma=2" in err
        assert "modulus   = [4]" in err
        assert "dividend" not in err and "valuation =" not in err

    @pytest.mark.parametrize("n, r, got", [("0..1", "1", "n=0, r=1"), ("1", "0..1", "n=1, r=0")])
    def test_power_sum_arguments_below_one_exit_two(self, capsys, n, r, got):
        assert run(["verify", "calkin", "--n", n, "--r", r, "--jobs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: alt_power_sum requires n, r >= 1, got {got}\n"
        assert captured.out == ""

    def test_internal_error_exit_three(self, capsys, monkeypatch):
        def broken_run_case(claim_id, params):
            raise RuntimeError("boom")

        monkeypatch.setattr(verify, "run_case", broken_run_case)
        code = run(["verify", "calkin", "--n", "1..2", "--r", "1", "--jobs", "1"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: boom\n"
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_internal_error_in_inspect_exit_three(self, capsys, monkeypatch):
        def broken_dset(n, k):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli.qcomb, "dset", broken_dset)
        assert run(["inspect", "dset", "6", "3"]) == 3
        err = capsys.readouterr().err
        assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"

    @pytest.mark.parametrize("argv", [
        ["calkin", "--n", "1..1000000000000", "--r", "1"],
        ["calkin", "--n", "1..1000", "--r", f"1..{10**30}"],  # past sys.maxsize
        ["thm2", "--n", "1..100", "--r", "1..100", "--s", "1..4", "--t", "1"],
        ["gjz", "--h", "1..1000000000000", "--ni", "1..2"],
        ["gjz", "--h", "1..1000000000000", "--ni", "1"],
        ["gjzq", "--h", "1000000000000", "--ni", "1..2"],  # |ni|^h is never computed
    ])
    def test_sweep_above_cap_exit_two_before_any_case(self, capsys, monkeypatch, argv):
        def no_product(*args, **kwargs):
            raise AssertionError("a case list was built")

        monkeypatch.setattr(cli, "product", no_product)
        assert run(["verify", *argv]) == 2
        assert capsys.readouterr().err == "error: the sweep has more than MAX_CASES = 100000 cases\n"

    @pytest.mark.parametrize("h", ["-1..1", "0..1", "0"])
    def test_composition_length_below_one_exit_two(self, capsys, monkeypatch, h):
        def no_product(*args, **kwargs):
            raise AssertionError("a case list was built")

        monkeypatch.setattr(cli, "product", no_product)  # rejected before any case is built
        assert run(["verify", "gjz", f"--h={h}", "--ni", "1..2", "--jobs", "1"]) == 2
        start = h.split("..")[0]
        assert capsys.readouterr().err == f"error: composition length must be >= 1, got {start}\n"

    @pytest.mark.parametrize("argv, last_over_cap", [
        (["calkin", "--n", "1..3", "--r", "1..2"], "1..3"),
        (["thm2", "--n", "1", "--r", "1..2", "--s", "1", "--t", "1"], "1..2"),
        (["gjz", "--h", "1..2", "--ni", "1..2"], "1..3"),
    ])
    def test_cap_is_inclusive(self, monkeypatch, argv, last_over_cap):
        # the cap counts reports: a calkin case reports each of its exponents
        monkeypatch.setattr(cli, "MAX_CASES", 6)
        assert len(run_sweep(build_cases(build_parser().parse_args(["verify", *argv])))) == 6
        over = ["verify", *argv[:-1], last_over_cap]
        with pytest.raises(InvalidArgument, match="MAX_CASES = 6"):
            build_cases(build_parser().parse_args(over))

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_two(self, capsys, jobs):
        assert run(["verify", "calkin", "--n", "1", "--r", "1", "--jobs", jobs]) == 2
        assert capsys.readouterr().err == "error: parallelism must be >= 1\n"

    @pytest.mark.parametrize("argv, message", [
        (["verify", "gjz"], "gjz needs either --ns or both --h and --ni"),
        (["verify", "lemmas", "--n", "1", "--p", "2,x", "--r", "1"],
         "malformed integer list '2,x'"),
        (["verify", "lemmas", "--n", "1", "--p", ",", "--r", "1"],
         "the requested sweep is empty"),
        (["verify", "lemmas", "--n", "0", "--r", "1"], "requires n, r >= 1, got n=0, r=1"),
        (["verify", "gcd-window", "--n", "0"], "requires n, m >= 1, got n=0, m=2"),
        (["verify", "gcd-window", "--n", "1", "--m", "0"], "requires n, m >= 1, got n=1, m=0"),
        (["inspect", "qbinom", "-1", "0"], "qbinom requires n >= 0, got -1"),
    ], ids=["gjz-no-composition", "lemmas-bad-p", "lemmas-empty-p", "lemmas-n0",
            "gcd-window-n0", "gcd-window-m0", "inspect-qbinom-negative"])
    def test_rejected_arguments_exit_two(self, capsys, argv, message):
        jobs = ["--jobs", "1"] if argv[0] == "verify" else []
        assert run([*argv, *jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_failed_valuation_dumps_computed_and_expected(self, capsys, monkeypatch):
        # lemma21 at n = 2, p = 2 expects nu_2 = nu_2(C(4, 2)) = 1; the sum 1 has 0
        monkeypatch.setattr(sums, "alt_power_sum_filtered", lambda n, r, p, which: 1)
        assert run(["verify", "lemmas", "--n", "2", "--p", "2", "--r", "1", "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert 'COUNTEREXAMPLE claim=lemma21 params={"n": 2, "p": 2}' in err
        assert "  valuation = computed nu_2 = 0, expected 1\n" in err


class TestEmitReport:
    def _passing(self):
        return verify.run_case("calkin", {"n": 2, "r": 2})[0]

    def _failing(self):
        dividend, modulus = IntPoly("[1, 0, 1]"), IntPoly("[1, 1]")
        witness = CongruenceWitness(dividend, modulus, None, False, IntPoly(2))
        case = TheoremCase("calkin", {"n": 0, "r": 0}, modulus, "synthetic")
        return VerificationReport(case, False, witness)

    def test_empty_json(self):
        assert emit_report([], "json") == "[]"

    def test_csv_header_and_row(self):
        text = emit_report([self._passing()], "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "claim_id,params,modulus,holds,quotient_degree,branch_note,elapsed_ms"
        assert lines[1].startswith('calkin,"{""n"": 2, ""r"": 2}",[6],true,0')

    def test_pretty_failing_includes_remainder(self):
        text = emit_report([self._failing()], "pretty")
        assert "FAILED" in text and "remainder 2" in text

    def test_pretty_formats_no_modulus(self, monkeypatch):
        # the pretty layout prints no modulus, so it never formats one
        argv = ["verify", "thm2", "--n", "1..2", "--r", "1..2", "--s", "1", "--t", "1",
                "--claim", "all"]
        reports = run_sweep(build_cases(build_parser().parse_args(argv)), 1)
        formatted = []
        coeff_list_str = IntPoly.coeff_list_str
        monkeypatch.setattr(IntPoly, "coeff_list_str",
                            lambda poly: formatted.append(poly) or coeff_list_str(poly))
        text = emit_report(reports, "pretty")
        assert formatted == []
        assert text.count("HOLDS") + text.count("N/A") == len(reports) == 12
        emit_report(reports, "csv")
        # once per distinct modulus value: 6 values among the 10 moduli
        assert len(formatted) == len({rep.case.expected_modulus for rep in reports} - {None}) > 0

    def test_json_round_trip(self):
        reports = verify.run_case("thm1", {"n": 2, "variant": "per_prime"})
        reports += verify.run_case("t2c3", {"n": 1, "r": 1, "s": 1, "t": 1})
        text = emit_report(reports, "json")
        assert parse_report_json(text) == [rep.record() for rep in reports]

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_report_json('{"claim_id": "x"}')
        with pytest.raises(ValueError):
            parse_report_json('[{"claim_id": "x"}]')
        # a record that is not an object: a string holding every field name,
        # a number and null
        for text in ('["claim_id params modulus holds quotient_degree branch_note elapsed_ms"]',
                     '[1]', '[null]'):
            with pytest.raises(ValueError):
                parse_report_json(text)

    def test_unknown_format(self):
        with pytest.raises(InvalidArgument):
            emit_report([], "yaml")

    def test_json_is_indent_2_for_a_sweep(self):
        # eq1 (no modulus), calkin, gjz (a list param), thm1 and t2c3 (not applicable)
        reports = verify.run_case("eq1", {"n": 3})
        reports += verify.run_case("calkin", {"n": 4, "r": range(1, 4)})
        reports += verify.run_case("gjz", {"ns": [2, 1, 3]})
        reports += verify.run_case("thm1", {"n": 4, "variant": "per_prime"})
        reports += verify.run_case("thm1", {"n": 6, "variant": "full_modulus"})
        reports += verify.run_case("t2c3", {"n": 1, "r": 1, "s": 1, "t": 1})
        assert [rep.holds for rep in reports].count(None) >= 1
        assert emit_report(reports, "json") == json.dumps(
            [rep.record() for rep in reports], indent=2
        )


_JSON_LEAVES = (
    st.text()  # non-ASCII, quotes, backslashes, control characters, lone surrogates
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "\ud800", "\udfff x", "\u00e9\U0001f600"])
    | st.integers()
    | st.integers(min_value=10**30) | st.integers(max_value=-(10**30))
    | st.booleans() | st.none()
    | st.floats()  # nan and +-inf included
    | st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


class _Colour(IntEnum):
    RED = 1


class TestIndented:
    @given(_JSON_VALUES)
    @example(([], {}, (), [[]], [{}], {"a": []}))
    def test_matches_json_indent_2(self, value):
        assert cli._indented(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        {1: "a", "b": [2.5, {3: None}]},  # int keys: json's conversion
        {"x": {True: 1, None: [], 2.5: {}}},
        [_Colour.RED, {"c": _Colour.RED}],  # an int subclass
        {"deep": [{"e": [float("nan"), {0: float("-inf")}]}]},
    ])
    def test_other_values_take_the_json_fallback(self, value):
        assert cli._indented(value) == json.dumps(value, indent=2)
        assert cli._indented(value, "\n    ") == json.dumps(value, indent=2).replace(
            "\n", "\n    ")

    def test_rejects_what_json_rejects(self):
        for value in ({1, 2}, [1, {"a": {2}}], {(1, 2): 3}, object()):
            with pytest.raises(TypeError) as ours:
                cli._indented(value)
            with pytest.raises(TypeError) as theirs:
                json.dumps(value, indent=2)
            assert str(ours.value) == str(theirs.value)


def _reference_csv(reports):
    """The CSV text as csv.writer writes the rows of record(), one by one."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_FIELDS)
    for rec in (rep.record() for rep in reports):
        writer.writerow(
            [
                rec["claim_id"],
                json.dumps(rec["params"]),
                rec["modulus"] if rec["modulus"] is not None else "",
                "na" if rec["holds"] is None else str(rec["holds"]).lower(),
                "" if rec["quotient_degree"] is None else rec["quotient_degree"],
                rec["branch_note"],
                rec["elapsed_ms"],
            ]
        )
    return buf.getvalue()


_TEXTS = st.text() | st.sampled_from(["", "\n\t\x00\x1f\x7f", "\ud800", "\udfff x", '"\\,'])
_KEYS = st.text() | st.integers() | st.booleans() | st.none() | st.sampled_from([2.5, "\ud800"])
_COEFFS = st.lists(st.integers() | st.integers(max_value=-(10**40)), max_size=6)
_MODULI = (
    st.none()
    # a few fixed values, so that equal moduli recur as distinct objects
    | st.builds(IntPoly, st.sampled_from([[], [0], [6], [-(10**50), 0, 3], [1, -1]]))
    | st.builds(IntPoly, _COEFFS)
)
_REPORTS = st.builds(
    lambda claim_id, params, modulus, note, holds, elapsed, degree: VerificationReport(
        TheoremCase(claim_id, params, modulus, note), holds, None, elapsed, degree),
    _TEXTS,
    st.dictionaries(st.text(), _JSON_VALUES, max_size=4)
    | st.dictionaries(_KEYS, _JSON_VALUES | st.just(_Colour.RED), max_size=4)
    | st.sampled_from([{}, {"n": 3, "r": 4}, {"ns": [[2, [1]], []]}]),
    _MODULI,
    _TEXTS,
    st.sampled_from([True, False, None]),
    st.floats(min_value=0.0, max_value=1e9) | st.sampled_from([0.0, 1.2345e-4, 2.5e-7]),
    st.none() | st.integers() | st.integers(min_value=10**30) | st.integers(max_value=-1),
)


def _untimed(text):
    """text with every elapsed_ms value, the last field of a JSON record or CSV row, as 0."""
    return re.sub(r'("elapsed_ms": |,)[-+.e0-9]+$', r"\g<1>0", text, flags=re.M)


class TestRecordLayout:
    """JSON and CSV from the fixed record layout, with one modulus text per value."""

    @given(st.lists(_REPORTS, max_size=6))
    def test_hand_built_reports_match_json_and_csv_writer(self, reports):
        assert emit_report(reports, "json") == json.dumps(
            [rep.record() for rep in reports], indent=2)
        assert emit_report(reports, "csv") == _reference_csv(reports)

    def test_record_keys_are_the_report_fields(self):
        case = TheoremCase("c", {}, IntPoly(2))
        assert tuple(VerificationReport(case, True).record()) == REPORT_FIELDS

    @pytest.mark.parametrize("argv", [
        # 3 values of n, each modulus object shared by its 5 exponents
        ["calkin", "--n", "2..4", "--r", "1..5"],
        # equal moduli built as distinct objects by different cases
        ["thm2", "--n", "1..2", "--r", "1..2", "--s", "1", "--t", "1", "--claim", "all"],
    ], ids=["calkin", "thm2"])
    def test_each_modulus_value_is_formatted_once_per_call(self, monkeypatch, argv):
        reports = run_sweep(build_cases(build_parser().parse_args(["verify", *argv])), 1)
        moduli = [rep.case.expected_modulus for rep in reports]
        distinct = set(moduli) - {None}
        objects = {id(m) for m in moduli if m is not None}
        if argv[0] == "calkin":
            assert len(objects) == len(distinct) == 3 < len(moduli)
        else:
            assert len(objects) > len(distinct) > 0
        records = [rep.record() for rep in reports]
        formatted = []
        coeff_list_str = IntPoly.coeff_list_str
        monkeypatch.setattr(IntPoly, "coeff_list_str",
                            lambda poly: formatted.append(poly) or coeff_list_str(poly))
        for output, expected in (("json", json.dumps(records, indent=2)),
                                 ("csv", _reference_csv(reports))):
            formatted.clear()
            text = emit_report(reports, output)
            assert len(formatted) == len(distinct) and set(formatted) == distinct
            assert _untimed(text) == _untimed(expected)

    @pytest.mark.parametrize("output", ["json", "csv"])
    @pytest.mark.parametrize("argv", [
        ["calkin", "--n", "1..6", "--r", "1..30"],
        ["thm2", "--n", "1..2", "--r", "1..2", "--s", "1", "--t", "1", "--claim", "all"],
    ], ids=["calkin", "thm2"])
    def test_run_writes_what_emit_report_joins(self, capsys, argv, output):
        argv = ["verify", *argv, "--output", output, "--jobs", "1"]
        assert run(argv) == 0
        streamed = capsys.readouterr().out
        reports = run_sweep(build_cases(build_parser().parse_args(argv)), 1)
        joined = emit_report(reports, output)
        assert _untimed(streamed) == _untimed(joined) != joined.replace("\n", "")
        assert streamed.count("\n") == joined.count("\n") > len(reports)


def _normalize(records):
    out = copy.deepcopy(records)
    for rec in out:
        rec["elapsed_ms"] = 0.0
    return out


class TestDeterminism:
    def test_parallel_matches_serial(self):
        cases = build_cases(
            build_parser().parse_args(
                ["verify", "conj2", "--n", "1..2", "--r", "1..2", "--s", "1", "--t", "1"]
            )
        )
        serial = [rep.record() for rep in run_sweep(cases, jobs=1)]
        parallel = [rep.record() for rep in run_sweep(cases, jobs=2)]
        assert _normalize(serial) == _normalize(parallel)

    def test_calkin_reports_ignore_case_order_and_pool(self, capsys, monkeypatch):
        argv = ["verify", "calkin", "--n", "1..12", "--r", "1..20", "--output", "json"]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        runs = []
        for jobs in ("1", "2"):
            assert run([*argv, "--jobs", jobs]) == 0
            runs.append(_normalize(parse_report_json(capsys.readouterr().out)))
        cases = build_cases(build_parser().parse_args(argv))
        shuffled = random.Random(0).sample(cases, len(cases))
        records = {json.dumps(rep.case.params): rep.record() for rep in run_sweep(shuffled, 1)}
        runs.append(_normalize([records[json.dumps(rec["params"])] for rec in runs[0]]))
        assert len(runs[0]) == 240
        assert runs[0] == runs[1] == runs[2]

    def test_thm2_reports_and_rows_ignore_case_order(self, monkeypatch):
        # the row store and the shared residues serve the cases in any order,
        # and no q-Pascal row (d, e, n) is built twice
        argv = ["verify", "thm2", "--n", "1..4", "--r", "1..2", "--s", "1..2", "--t", "1..2",
                "--claim", "all"]
        cases = build_cases(build_parser().parse_args(argv))
        next_row, built = qcomb._next_row, []

        def counted(prev, d, e, mod):
            built.append((d, e, len(prev)))
            return next_row(prev, d, e, mod)

        monkeypatch.setattr(qcomb, "_next_row", counted)
        runs, rows = [], []
        for order in (cases, cases[::-1], random.Random(0).sample(cases, len(cases))):
            monkeypatch.setattr(qcomb, "_ROWS", qcomb._RowStore(qcomb._ROW_BUDGET))
            sums._triple_residue.cache_clear()
            built.clear()
            records = _normalize([rep.record() for rep in run_sweep(order, 1)])
            runs.append(sorted(records, key=lambda rec: json.dumps(rec, sort_keys=True)))
            assert len(built) == len(set(built)) > 0
            rows.append(sorted(built))
        sums._triple_residue.cache_clear()
        assert len(runs[0]) == 96
        assert runs[0] == runs[1] == runs[2]
        assert rows[0] == rows[1] == rows[2]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched sum reaches the workers only when they are forked",
    )
    def test_failure_stops_at_same_case_at_every_jobs(self, monkeypatch):
        real = sums.alt_power_sum

        def perturbed(n, r):
            return real(n, r) + (1 if (n, r) == (2, 1) else 0)

        monkeypatch.setattr(sums, "alt_power_sum", perturbed)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        cases = build_cases(
            build_parser().parse_args(["verify", "calkin", "--n", "1..6", "--r", "1..5"])
        )
        serial = [rep.record() for rep in run_sweep(cases, jobs=1)]
        parallel = [rep.record() for rep in run_sweep(cases, jobs=2)]
        assert len(serial) == 6 and serial[-1]["holds"] is False
        assert _normalize(serial) == _normalize(parallel)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the
    shutdown arguments, runs in-process."""

    created: list[int] = []
    shutdowns: list[dict] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append({"wait": wait, "cancel_futures": cancel_futures})


class TestWorkerBound:
    @pytest.fixture
    def pools(self, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "created", [])
        monkeypatch.setattr(_SerialPool, "shutdowns", [])
        return _SerialPool.created

    def test_failed_batch_cancels_queued_cases(self, pools, monkeypatch):
        real = sums.alt_power_sum
        monkeypatch.setattr(sums, "alt_power_sum",
                            lambda n, r: real(n, r) + (1 if n == 2 else 0))
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        cases = [("calkin", {"n": n, "r": 1}) for n in range(1, 5)]
        reports = run_sweep(cases, jobs=2)
        assert [rep.holds for rep in reports] == [True, False]
        assert pools == [2]
        assert _SerialPool.shutdowns == [{"wait": True, "cancel_futures": True}]

    @pytest.mark.parametrize("n_range, cpus, workers", [
        ("1..2", 8, [2]),  # one per case
        ("1..5", 3, [3]),  # one per CPU
        ("1..5", 1, []),  # one CPU: serial, no pool
        ("1", 8, []),  # one case: serial, no pool
    ])
    def test_workers_bounded_by_cases_and_cpus(self, pools, monkeypatch, capsys,
                                               n_range, cpus, workers):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert run(["verify", "calkin", "--n", n_range, "--r", "1",
                    "--jobs", "100000", "--output", "json"]) == 0
        assert pools == workers
        assert len(parse_report_json(capsys.readouterr().out)) == len(parse_range(n_range))

    def test_jobs_one_starts_no_pool(self, pools):
        cases = [("calkin", {"n": 1, "r": 1}), ("calkin", {"n": 2, "r": 1})]
        assert len(run_sweep(cases, jobs=1)) == 2
        assert pools == []


def _verify_verbs():
    """The subcommands of qaltsum verify, read from the parser."""
    def subcommands(parser):
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    return set(subcommands(subcommands(build_parser())["verify"]))


EVERY_VERB = [
    ["eq1", "--n", "1"],
    ["eq2", "--n", "1"],
    ["calkin", "--n", "1", "--r", "1"],
    ["gjz", "--ns", "1,2"],
    ["gjzq", "--h", "1..2", "--ni", "1"],
    ["conj2", "--n", "1", "--r", "1", "--s", "1", "--t", "1", "--claim", "all",
     "--mode", "both"],
    ["thm2", "--n", "1", "--r", "1", "--s", "1", "--t", "1", "--claim", "all"],
    ["thm1", "--n", "1", "--variant", "both"],
    ["lemmas", "--n", "1", "--r", "1"],
    ["gcd-window", "--n", "1"],
]


class TestCasesMatchClaimTable:
    """Every case the CLI builds names a claim verify knows, with its parameters."""

    def test_every_verb_is_covered(self):
        assert {argv[0] for argv in EVERY_VERB} == _verify_verbs()

    @pytest.mark.parametrize("argv", EVERY_VERB, ids=lambda argv: argv[0])
    def test_claim_ids_and_params_fit_the_table(self, argv):
        cases = build_cases(build_parser().parse_args(["verify", *argv]))
        assert cases
        for claim, params in cases:
            assert claim in verify._CLAIMS
            inspect.signature(verify._CLAIMS[claim]).bind(claim, **params)

    def test_every_claim_but_qlucas_is_reachable(self):
        claims = set()
        for argv in EVERY_VERB:
            claims |= {claim for claim, _ in build_cases(build_parser().parse_args(
                ["verify", *argv]))}
        assert claims == set(verify._CLAIMS) - {"qlucas"}  # qlucas has no verb


class TestInspect:
    def test_qbinom(self, capsys):
        assert run(["inspect", "qbinom", "4", "2"]) == 0
        out = capsys.readouterr().out
        assert "1 + q + 2*q^2 + q^3 + q^4" in out
        assert "Phi_3 * Phi_4" in out

    def test_qbinom_out_of_range(self, capsys):
        assert run(["inspect", "qbinom", "3", "5"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_dset(self, capsys):
        assert run(["inspect", "dset", "6", "3"]) == 0
        assert "{2, 4, 5, 6}" in capsys.readouterr().out

    def test_cyclotomic(self, capsys):
        assert run(["inspect", "cyclotomic", "6"]) == 0
        assert "1 - q + q^2" in capsys.readouterr().out

    def test_sum_families(self, capsys):
        assert run(["inspect", "sum", "triple_642", "--n", "1",
                    "--r", "1", "--s", "1", "--t", "1"]) == 0
        assert capsys.readouterr().out.strip() == "120"
        assert run(["inspect", "sum", "gjz", "--ns", "1,1", "--mode", "q"]) == 0
        assert capsys.readouterr().out.strip() == "q + q^2"
        assert run(["inspect", "sum", "pattern", "--n", "2", "--r", "2",
                    "--p", "2", "--I", "1"]) == 0
        assert capsys.readouterr().out.strip() == "-32"

    def test_sum_missing_args(self, capsys):
        assert run(["inspect", "sum", "gjz"]) == 2
        assert run(["inspect", "sum", "pattern", "--n", "2"]) == 2

    def _sum(self, capsys, *args):
        assert run(["inspect", "sum", *args]) == 0
        return capsys.readouterr().out.strip()

    def test_sum_power(self, capsys):
        assert self._sum(capsys, "power", "--n", "2", "--r", "4") == "786"

    def test_sum_gjz(self, capsys):
        assert self._sum(capsys, "gjz", "--ns", "1,1", "--mode", "q") == "q + q^2"

    def test_sum_triple(self, capsys):
        assert self._sum(capsys, "triple_642", "--n", "1") == "120"
        assert self._sum(capsys, "triple_842", "--n", "1", "--r", "2") == "33712"

    def test_sum_pattern(self, capsys):
        assert self._sum(capsys, "pattern", "--n", "2", "--r", "2", "--p", "2", "--I", "1") == "-32"

    def test_sum_rejections(self, capsys):
        assert run(["inspect", "sum", "power", "--n", "2", "--r", "0"]) == 2
        assert run(["inspect", "sum", "pattern", "--n", "2"]) == 2
        assert run(["inspect", "sum", "power", "--n", "2", "--mode", "q"]) == 2
        assert "the power family is integer-only" in capsys.readouterr().err


SRC = Path(__file__).resolve().parents[1] / "src"
OK_ARGS = ["verify", "eq1", "--n", "1..5", "--output", "csv"]
USAGE_ERROR_ARGS = ["verify", "calkin", "--n", "oops", "--r", "1"]

needs_script = pytest.mark.skipif(
    shutil.which("qaltsum") is None,
    reason="the qaltsum console script is not installed on PATH",
)


def _module_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), env.get("PYTHONPATH")) if path
    )
    return env


def run_module(args):
    """Run ``python -m qaltsum`` from this checkout's ``src``, no install needed."""
    return subprocess.run(
        [sys.executable, "-m", "qaltsum", *args],
        capture_output=True,
        text=True,
        env=_module_env(),
    )


def run_script(args):
    return subprocess.run(["qaltsum", *args], capture_output=True, text=True)


class TestConsoleScript:
    """The CLI as a separate process, with its real exit code and stdout."""

    def test_subprocess_ok(self):
        proc = run_module(OK_ARGS)
        assert proc.returncode == 0
        assert proc.stdout.startswith("claim_id,")

    def test_subprocess_usage_error(self):
        proc = run_module(USAGE_ERROR_ARGS)
        assert proc.returncode == 2

    @pytest.mark.parametrize("args", [
        # a few hundred bytes, held in the stdout buffer until a flush
        ["verify", "eq1", "--n", "1..2", "--output", "csv"],
        # about 100 kB, more than a pipe holds, so the write fails even if
        # it starts before the reader is gone
        ["verify", "calkin", "--n", "1..5", "--r", "1..100", "--output", "json", "--jobs", "1"],
    ])
    def test_closed_stdout_is_an_internal_error(self, args):
        # exit 1 would mean a falsified claim, and 120 a failed flush at
        # shutdown; stdout is buffered, as it is by default
        env = _module_env()
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "qaltsum", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 3
        assert "Traceback" not in stderr and "Exception ignored" not in stderr
        assert stderr.count("\n") == 1 and "BrokenPipeError" in stderr

    @needs_script
    def test_installed_script_ok(self):
        proc = run_script(OK_ARGS)
        assert proc.returncode == 0
        assert proc.stdout.startswith("claim_id,")

    @needs_script
    def test_installed_script_usage_error(self):
        proc = run_script(USAGE_ERROR_ARGS)
        assert proc.returncode == 2

    def test_entry_point_is_cli_main(self):
        # ``python -m qaltsum`` bypasses the installed wrapper, so check that
        # the wrapper pyproject.toml declares runs the same function.
        tomllib = pytest.importorskip("tomllib")
        with open(SRC.parent / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert scripts.get("qaltsum") == "qaltsum.cli:main"
        assert importlib.import_module("qaltsum.__main__").main is cli.main
