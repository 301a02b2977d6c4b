"""CLI: sweeps, output formats, exit codes, determinism."""

import copy
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qaltsum import cli, verify
from qaltsum.cli import (
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
        assert parse_range("3") == [3]
        assert parse_range("1..4") == [1, 2, 3, 4]
        assert parse_range("5..5") == [5]

    @pytest.mark.parametrize("bad", ["", "4..1", "a..b", "1..2..3", "1.5"])
    def test_parse_range_rejects(self, bad):
        with pytest.raises(InvalidArgument):
            parse_range(bad)

    def test_build_cases_lexicographic(self):
        args = build_parser().parse_args(
            ["verify", "calkin", "--n", "1..2", "--r", "1..2"]
        )
        assert build_cases(args) == [
            ("calkin", {"n": 1, "r": 1}),
            ("calkin", {"n": 1, "r": 2}),
            ("calkin", {"n": 2, "r": 1}),
            ("calkin", {"n": 2, "r": 2}),
        ]

    def test_build_cases_compositions(self):
        args = build_parser().parse_args(
            ["verify", "gjz", "--h", "1..2", "--ni", "1..2"]
        )
        assert [params["ns"] for _, params in build_cases(args)] == [
            [1], [2], [1, 1], [1, 2], [2, 1], [2, 2],
        ]

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
            case = TheoremCase(claim_id, params, modulus, "synthetic failure")
            return [VerificationReport(case, False, witness)]

        monkeypatch.setattr(verify, "run_case", fake_run_case)
        code = run(["verify", "calkin", "--n", "1..4", "--r", "1", "--jobs", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "COUNTEREXAMPLE" in err
        assert "[2]" in err  # the remainder polynomial
        assert "[1, 1]" in err

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

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_two(self, capsys, jobs):
        assert run(["verify", "calkin", "--n", "1", "--r", "1", "--jobs", jobs]) == 2
        assert capsys.readouterr().err == "error: parallelism must be >= 1\n"


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

    def test_unknown_format(self):
        with pytest.raises(InvalidArgument):
            emit_report([], "yaml")


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


SRC = Path(__file__).resolve().parents[1] / "src"
OK_ARGS = ["verify", "eq1", "--n", "1..5", "--output", "csv"]
USAGE_ERROR_ARGS = ["verify", "calkin", "--n", "oops", "--r", "1"]

needs_script = pytest.mark.skipif(
    shutil.which("qaltsum") is None,
    reason="the qaltsum console script is not installed on PATH",
)


def run_module(args):
    """Run ``python -m qaltsum`` from this checkout's ``src``, no install needed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), env.get("PYTHONPATH")) if path
    )
    return subprocess.run(
        [sys.executable, "-m", "qaltsum", *args],
        capture_output=True,
        text=True,
        env=env,
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
