"""Command-line front end: verification sweeps and inspection commands.

Verification sweeps expand the given parameter ranges in lexicographic
order, run every case (optionally across worker processes), and emit the
reports as pretty text, JSON or CSV on stdout.  Report content for a
fixed configuration is deterministic regardless of parallelism; only the
elapsed_ms fields (the wall time of each case) vary.  Exit codes: 0 all
checks hold (or are not applicable), 1 at least one check failed
(counterexample on stderr), 2 usage or configuration error, 3 internal
error (one line on stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import product

from . import cyclo, qcomb, verify
from .polycore import IntPoly, InvalidArgument
from .sums import SumSpec
from .verify import VerificationReport

__all__ = ["emit_report", "main", "parse_report_json", "run", "run_sweep"]

REPORT_FIELDS = (
    "claim_id",
    "params",
    "modulus",
    "holds",
    "quotient_degree",
    "branch_note",
    "elapsed_ms",
)


def parse_range(text: str) -> list[int]:
    """Inclusive integer range 'a..b', or a single integer 'a'."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            value = int(parts[0])
            return [value]
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
            if lo > hi:
                raise ValueError
            return list(range(lo, hi + 1))
    except ValueError:
        pass
    raise InvalidArgument(f"malformed range {text!r} (expected 'a' or 'a..b' with a <= b)")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidArgument(f"malformed integer list {text!r}")


# -- sweep construction -----------------------------------------------------------


def _compositions(h_range, ni_range):
    for h in h_range:
        for ns in product(ni_range, repeat=h):
            yield list(ns)


def build_cases(args: argparse.Namespace) -> list[tuple[str, dict]]:
    verb = args.claim_verb
    if verb in ("eq1", "eq2"):
        return [(verb, {"n": n}) for n in parse_range(args.n)]
    if verb == "calkin":
        return [
            ("calkin", {"n": n, "r": r})
            for n in parse_range(args.n)
            for r in parse_range(args.r)
        ]
    if verb in ("gjz", "gjzq"):
        if args.ns:
            return [(verb, {"ns": _parse_int_list(args.ns)})]
        if not (args.h and args.ni):
            raise InvalidArgument("gjz needs either --ns or both --h and --ni")
        return [
            (verb, {"ns": ns})
            for ns in _compositions(parse_range(args.h), parse_range(args.ni))
        ]
    if verb == "conj2":
        claims = ["cj2c1", "cj2c2", "cj2c3"] if args.claim == "all" else [args.claim]
        if args.mode == "q":
            claims = [c + "q" for c in claims]
        elif args.mode == "both":
            claims = claims + [c + "q" for c in claims]
        return [
            (c, {"n": n, "r": r, "s": s, "t": t})
            for n in parse_range(args.n)
            for r in parse_range(args.r)
            for s in parse_range(args.s)
            for t in parse_range(args.t)
            for c in claims
        ]
    if verb == "thm1":
        variants = ["per_prime", "full_modulus"] if args.variant == "both" else [args.variant]
        return [
            ("thm1", {"n": n, "variant": v, "exponent_budget": args.exponent_budget})
            for n in parse_range(args.n)
            for v in variants
        ]
    if verb == "thm2":
        claims = ["t2c1", "t2c2", "t2c3"] if args.claim == "all" else [args.claim]
        return [
            (c, {"n": n, "r": r, "s": s, "t": t})
            for n in parse_range(args.n)
            for r in parse_range(args.r)
            for s in parse_range(args.s)
            for t in parse_range(args.t)
            for c in claims
        ]
    if verb == "lemmas":
        return [
            ("lemmas", {"n": n, "p": p, "r": r})
            for n in parse_range(args.n)
            for p in _parse_int_list(args.p)
            for r in parse_range(args.r)
        ]
    if verb == "gcd-window":
        return [
            ("conj1_window", {"n": n, "m": args.m, "w": args.window})
            for n in parse_range(args.n)
        ]
    raise InvalidArgument(f"unknown verify subcommand {verb!r}")


# -- execution ---------------------------------------------------------------------


def run_sweep(cases: list[tuple[str, dict]], jobs: int = 1) -> list[VerificationReport]:
    """Run cases in order; reports are merged by case order, not completion.

    Serial runs stop scheduling new cases after the first failure;
    parallel runs stop at the end of the chunk that contained it.
    Already-collected reports are always returned.
    """
    reports: list[VerificationReport] = []
    if jobs <= 1 or len(cases) <= 1:
        for claim_id, params in cases:
            batch = verify.run_case(claim_id, params)
            reports.extend(batch)
            if any(rep.holds is False for rep in batch):
                break
        return reports
    chunk = max(1, 4 * jobs)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for lo in range(0, len(cases), chunk):
            failed = False
            for batch in pool.map(verify.run_case, *zip(*cases[lo : lo + chunk])):
                reports.extend(batch)
                failed = failed or any(rep.holds is False for rep in batch)
            if failed:
                break
    return reports


def dump_counterexample(report: VerificationReport, stream) -> None:
    case = report.case
    print(
        f"COUNTEREXAMPLE claim={case.claim_id} params={json.dumps(case.params)}",
        file=stream,
    )
    if case.derivation_note:
        print(f"  note      = {case.derivation_note}", file=stream)
    if case.expected_modulus is not None:
        print(f"  modulus   = {case.expected_modulus.coeff_list_str()}", file=stream)
    witness = report.witness
    if witness is not None and hasattr(witness, "dividend"):
        print(f"  dividend  = {witness.dividend.coeff_list_str()}", file=stream)
        if witness.remainder is not None:
            print(f"  remainder = {witness.remainder.coeff_list_str()}", file=stream)
    elif isinstance(witness, tuple):
        computed, expected = witness
        print(
            f"  valuation = computed nu_{computed.p} = {computed.value}, "
            f"expected {expected.value}",
            file=stream,
        )


# -- report emission ----------------------------------------------------------------


def emit_report(reports: list[VerificationReport], format: str = "pretty") -> str:
    """Serialize reports with a stable field order.

    Timings (elapsed_ms) are included but excluded from any determinism
    guarantee.
    """
    records = [rep.record() for rep in reports]
    if format == "json":
        return json.dumps(records, indent=2)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_FIELDS)
        for rec in records:
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
    if format == "pretty":
        lines = []
        held = failed = skipped = 0
        for rep, rec in zip(reports, records):
            params = " ".join(f"{k}={v}" for k, v in rec["params"].items())
            if rec["holds"] is True:
                held += 1
                status = "HOLDS"
            elif rec["holds"] is False:
                failed += 1
                status = "FAILED"
            else:
                skipped += 1
                status = "N/A"
            extra = ""
            if rec["quotient_degree"] is not None:
                extra = f" (quotient degree {rec['quotient_degree']})"
            if rec["holds"] is False:
                remainder = getattr(rep.witness, "remainder", None)
                if remainder is not None:
                    extra = f" (remainder {remainder})"
            note = f"  # {rec['branch_note']}" if rec["branch_note"] else ""
            lines.append(f"{rec['claim_id']:12s} {params:40s} {status}{extra}{note}")
        lines.append(
            f"total {len(records)}: {held} hold, {failed} failed, {skipped} not applicable"
        )
        return "\n".join(lines) + "\n"
    raise InvalidArgument(f"unknown output format {format!r}")


def parse_report_json(text: str) -> list[dict]:
    """Inverse of emit_report(..., 'json'): validated list of records."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("report JSON must be a list")
    for rec in data:
        missing = [f for f in REPORT_FIELDS if f not in rec]
        if missing:
            raise ValueError(f"report record missing fields {missing}")
    return data


# -- inspection -------------------------------------------------------------------


def _run_inspect(args) -> int:
    what = args.inspect_what
    if what == "qbinom":
        poly = qcomb.qbinom(args.n, args.k)
        print(poly)
        if 0 <= args.k <= args.n:
            print(qcomb.qbinom_factored(args.n, args.k))
        return 0
    if what == "dset":
        ds = qcomb.dset(args.n, args.k)
        print(f"D({args.n}, {args.k}) = {ds}")
        return 0
    if what == "cyclotomic":
        print(cyclo.cyclotomic(args.d))
        return 0
    if what == "sum":
        spec = _sum_spec(args)
        value = spec.compute()
        print(value if isinstance(value, (int, IntPoly)) else str(value))
        return 0
    raise InvalidArgument(f"unknown inspect command {what!r}")


def _sum_spec(args) -> SumSpec:
    family = args.family
    if family == "gjz":
        if not args.ns:
            raise InvalidArgument("inspect sum gjz requires --ns")
        return SumSpec("gjz", tuple(_parse_int_list(args.ns)), mode=args.mode)
    if family == "power":
        return SumSpec("power", args.n, (args.r,), mode=args.mode)
    if family == "pattern":
        if args.p is None or not args.I:
            raise InvalidArgument("inspect sum pattern requires --p and --I")
        return SumSpec(
            "pattern", args.n, (args.r,), (args.p, tuple(_parse_int_list(args.I))), args.mode
        )
    if family in ("triple_642", "triple_842"):
        return SumSpec(family, args.n, (args.r, args.s, args.t), mode=args.mode)
    raise InvalidArgument(f"unknown sum family {family!r}")


# -- argument parsing ----------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 without argparse's SystemExit noise
        raise InvalidArgument(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="qaltsum", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("pretty", "json", "csv"), default="pretty")
    common.add_argument("--jobs", type=int, default=None, help="worker processes")

    ver = top.add_parser("verify", help="run a verification sweep")
    claims = ver.add_subparsers(dest="claim_verb", required=True)

    for verb, doc in (("eq1", "squared-sum closed form"), ("eq2", "cubed-sum closed form")):
        sub = claims.add_parser(verb, parents=[common], help=doc)
        sub.add_argument("--n", required=True, help="range a..b")

    sub = claims.add_parser("calkin", parents=[common], help="central-binomial divisibility")
    sub.add_argument("--n", required=True)
    sub.add_argument("--r", required=True)

    for verb in ("gjz", "gjzq"):
        sub = claims.add_parser(verb, parents=[common], help="cyclic multi-factor congruence")
        sub.add_argument("--ns", help="one composition, e.g. 2,1")
        sub.add_argument("--h", help="composition length range")
        sub.add_argument("--ni", help="range of each composition part")

    sub = claims.add_parser("conj2", parents=[common], help="triple-sum congruences")
    sub.add_argument("--n", required=True)
    sub.add_argument("--r", required=True)
    sub.add_argument("--s", required=True)
    sub.add_argument("--t", required=True)
    sub.add_argument("--claim", choices=("cj2c1", "cj2c2", "cj2c3", "all"), default="all")
    sub.add_argument("--mode", choices=("integer", "q", "both"), default="integer")

    sub = claims.add_parser("thm1", parents=[common], help="exact valuation of power sums")
    sub.add_argument("--n", required=True)
    sub.add_argument("--variant", choices=("per_prime", "full_modulus", "both"),
                     default="per_prime")
    sub.add_argument("--exponent-budget", type=int, default=verify.DEFAULT_EXPONENT_BUDGET)

    sub = claims.add_parser("thm2", parents=[common], help="sharpened q-moduli")
    sub.add_argument("--n", required=True)
    sub.add_argument("--r", required=True)
    sub.add_argument("--s", required=True)
    sub.add_argument("--t", required=True)
    sub.add_argument("--claim", choices=("t2c1", "t2c2", "t2c3", "all"), default="all")

    sub = claims.add_parser("lemmas", parents=[common], help="filtered-sum valuation bounds")
    sub.add_argument("--n", required=True)
    sub.add_argument("--p", default="2,3,5", help="comma-separated primes")
    sub.add_argument("--r", required=True)

    sub = claims.add_parser("gcd-window", parents=[common], help="finite gcd evidence")
    sub.add_argument("--n", required=True)
    sub.add_argument("--m", type=int, default=2, help="window start exponent")
    sub.add_argument("--window", type=int, default=20, help="window width (>= 2)")

    ins = top.add_parser("inspect", help="print one object")
    what = ins.add_subparsers(dest="inspect_what", required=True)

    sub = what.add_parser("qbinom", help="q-binomial and its cyclotomic factorization")
    sub.add_argument("n", type=int)
    sub.add_argument("k", type=int)

    sub = what.add_parser("dset", help="carry set")
    sub.add_argument("n", type=int)
    sub.add_argument("k", type=int)

    sub = what.add_parser("cyclotomic", help="cyclotomic polynomial")
    sub.add_argument("d", type=int)

    sub = what.add_parser("sum", help="evaluate one sum instance")
    sub.add_argument("family", choices=("power", "gjz", "triple_642", "triple_842", "pattern"))
    sub.add_argument("--n", type=int, default=1)
    sub.add_argument("--ns", help="composition for the gjz family")
    sub.add_argument("--r", type=int, default=1)
    sub.add_argument("--s", type=int, default=1)
    sub.add_argument("--t", type=int, default=1)
    sub.add_argument("--p", type=int, help="prime for the pattern family")
    sub.add_argument("--I", help="comma-separated carry indices for the pattern family")
    sub.add_argument("--mode", choices=("integer", "q"), default="integer")

    return parser


def run(argv=None) -> int:
    """Execute one command; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "inspect":
            return _run_inspect(args)
        cases = build_cases(args)
        jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
        if jobs < 1:
            raise InvalidArgument("parallelism must be >= 1")
        if not cases:
            raise InvalidArgument("the requested sweep is empty")
        reports = run_sweep(cases, jobs)
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # code 1 means a falsified claim; Ctrl-C still interrupts
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(emit_report(reports, args.output))
    failures = [rep for rep in reports if rep.holds is False]
    if failures:
        dump_counterexample(failures[0], sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
