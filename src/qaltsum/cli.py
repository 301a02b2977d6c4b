"""Command-line front end: verification sweeps and inspection commands.

Verification sweeps expand the given parameter ranges in lexicographic
order (at most MAX_CASES cases, each exponent of a calkin sweep counted
as one), run every case (optionally across worker processes) until the
first failed check, and write the reports as pretty text, JSON or CSV to
stdout, each one as soon as it is encoded.  Report content for a fixed
configuration is deterministic regardless of parallelism; only the
elapsed_ms fields (the wall time of each report) vary.  Exit codes: 0
all checks hold (or are not applicable), 1 at least one check failed
(counterexample on stderr), 2 usage or configuration error, 3 internal
error (one line on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from itertools import product
from json.encoder import encode_basestring_ascii
from typing import Iterator

from . import cyclo, qcomb, sums, verify
from .polycore import IntPoly, InvalidArgument
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

# Largest sweep a command may request; checked from the range sizes before
# any case is built, so a mistyped range fails fast instead of filling memory.
MAX_CASES = 100_000


def parse_range(text: str) -> range:
    """Inclusive integer range 'a..b', or a single integer 'a'."""
    parts = text.split("..")
    try:
        if len(parts) <= 2:
            lo, hi = int(parts[0]), int(parts[-1])
            if lo <= hi:
                return range(lo, hi + 1)
    except ValueError:
        pass
    raise InvalidArgument(f"malformed range {text!r} (expected 'a' or 'a..b' with a <= b)")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidArgument(f"malformed integer list {text!r}")


# -- sweep construction -----------------------------------------------------------


def _size(values) -> int:
    """len(values), also for a range longer than sys.maxsize."""
    return values.stop - values.start if isinstance(values, range) else len(values)


def _check_cap(count: int) -> None:
    if count > MAX_CASES:
        raise InvalidArgument(f"the sweep has more than MAX_CASES = {MAX_CASES} cases")


def _grid(claims: list[str], **axes) -> list[tuple[str, dict]]:
    """(claim, params) at every point of the axes' product, in lexicographic order.

    The last axis varies fastest and the claim fastest of all; params keep
    the axes' order.  The size is checked against MAX_CASES first.
    """
    _check_cap(len(claims) * math.prod(_size(values) for values in axes.values()))
    return [
        (claim, dict(zip(axes, point)))
        for point in product(*axes.values())
        for claim in claims
    ]


def _compositions(verb: str, h_range, ni_range) -> list[tuple[str, dict]]:
    if h_range.start < 1:
        raise InvalidArgument(f"composition length must be >= 1, got {h_range.start}")
    count = 0
    for h in h_range:
        # |ni|^h passes the cap for every h beyond the cap's bit length
        # (|ni| >= 2) or equals 1 (|ni| = 1), so the exponent can be clipped.
        count += _size(ni_range) ** min(h, MAX_CASES.bit_length())
        _check_cap(count)
    return [(verb, {"ns": list(ns)}) for h in h_range for ns in product(ni_range, repeat=h)]


# Claims of the triple-sum verbs, in the order that --claim all runs them.
_TRIPLE_CLAIMS = {"conj2": ["cj2c1", "cj2c2", "cj2c3"], "thm2": ["t2c1", "t2c2", "t2c3"]}
_MODE_SUFFIXES = {"integer": [""], "q": ["q"], "both": ["", "q"]}


def build_cases(args: argparse.Namespace) -> list[tuple[str, dict]]:
    verb = args.claim_verb
    if verb in ("eq1", "eq2"):
        return _grid([verb], n=parse_range(args.n))
    if verb == "calkin":
        # one case per n, which runs its exponent range in one pass
        ns, rs = parse_range(args.n), parse_range(args.r)
        _check_cap(_size(ns) * _size(rs))
        return [("calkin", {"n": n, "r": rs}) for n in ns]
    if verb in ("gjz", "gjzq"):
        if args.ns:
            return [(verb, {"ns": _parse_int_list(args.ns)})]
        if not (args.h and args.ni):
            raise InvalidArgument("gjz needs either --ns or both --h and --ni")
        return _compositions(verb, parse_range(args.h), parse_range(args.ni))
    if verb in _TRIPLE_CLAIMS:
        claims = _TRIPLE_CLAIMS[verb] if args.claim == "all" else [args.claim]
        suffixes = _MODE_SUFFIXES[getattr(args, "mode", "integer")]  # thm2 has no --mode
        axes = {axis: parse_range(getattr(args, axis)) for axis in ("n", "r", "s", "t")}
        return _grid([c + suffix for suffix in suffixes for c in claims], **axes)
    if verb == "thm1":
        variants = ["per_prime", "full_modulus"] if args.variant == "both" else [args.variant]
        return _grid(["thm1"], n=parse_range(args.n), variant=variants,
                     exponent_budget=[args.exponent_budget])
    if verb == "lemmas":
        return _grid(["lemmas"], n=parse_range(args.n), p=_parse_int_list(args.p),
                     r=parse_range(args.r))
    if verb == "gcd-window":
        return _grid(["conj1_window"], n=parse_range(args.n), m=[args.m], w=[args.window])
    raise InvalidArgument(f"unknown verify subcommand {verb!r}")


# -- execution ---------------------------------------------------------------------


def _run_case(case: tuple[str, dict]) -> list[VerificationReport]:
    return verify.run_case(*case)  # looked up per call, so a patched run_case is used


def run_sweep(cases: list[tuple[str, dict]], jobs: int = 1) -> list[VerificationReport]:
    """Run cases in order; reports are merged by case order, not completion.

    At most min(jobs, len(cases), CPU count) worker processes run the
    cases, and none when that is 1; a calkin sweep has one case per n.
    Either way the sweep stops after the first case with a failed check
    and returns the reports up to and including that case, so the result
    does not depend on jobs.  A calkin case ends at its first failed
    exponent, so a calkin sweep stops at its first failed report.
    """
    workers = min(jobs, len(cases), os.cpu_count() or 1)
    reports: list[VerificationReport] = []
    with ExitStack() as stack:
        if workers <= 1:
            batches = map(_run_case, cases)  # lazy: takes one case at a time
        else:
            pool = ProcessPoolExecutor(max_workers=workers)
            stack.callback(pool.shutdown, cancel_futures=True)
            chunksize = max(1, len(cases) // (16 * workers))
            batches = pool.map(_run_case, cases, chunksize=chunksize)
        for batch in batches:
            reports.extend(batch)
            if any(rep.holds is False for rep in batch):
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


_LITERALS = {True: "true", False: "false", None: "null"}


def _indented(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, nested at the line start pad.

    json.dumps uses its C encoder only without indent; here the layout
    is written in Python and every string goes through the C
    encode_basestring_ascii.  emit_report passes each value of a record
    through here, at the record's depth.  Whatever is not a plain str,
    int, bool, None, finite float, str-keyed dict, list or tuple (a
    non-finite float, an int subclass, a non-str key, a type json
    rejects) goes to json.dumps itself, for its exact output or its
    exact TypeError; the replace is safe because ensure_ascii output
    holds no raw newline.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _LITERALS[value]
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    inner = pad + "  "
    if kind is dict and {*map(type, value)} <= {str}:
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _indented(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_indented(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(value, indent=2).replace("\n", pad)


class _Echo:
    """A stream whose write returns the text, so that csv.writer.writerow returns its line."""

    @staticmethod
    def write(text: str) -> str:
        return text


def _encoded(reports: list[VerificationReport], format: str) -> Iterator[str]:
    """The text of emit_report(reports, format), a record or a line at a time.

    JSON fills one fixed layout per record: the REPORT_FIELDS keys at
    depth 1, each value through _indented.  JSON and CSV build each
    record with one moduli dict, so a call formats every distinct
    modulus value once, however many reports share it.
    """
    moduli: dict = {}
    if format == "json":
        if not reports:
            yield "[]"
            return
        pad, sep = "\n    ", "[\n  "
        for rep in reports:
            claim_id, params, modulus, holds, degree, note, ms = rep.record(moduli).values()
            # an f-string, which builds the exact-size text; % and str.format
            # over-allocate and raise the peak memory
            yield (f'{sep}{{\n    "claim_id": {_indented(claim_id, pad)},'
                   f'\n    "params": {_indented(params, pad)},'
                   f'\n    "modulus": {_indented(modulus, pad)},'
                   f'\n    "holds": {_indented(holds, pad)},'
                   f'\n    "quotient_degree": {_indented(degree, pad)},'
                   f'\n    "branch_note": {_indented(note, pad)},'
                   f'\n    "elapsed_ms": {_indented(ms, pad)}\n  }}')
            sep = ",\n  "
        yield "\n]"
    elif format == "csv":
        rows = csv.writer(_Echo, lineterminator="\n")
        yield rows.writerow(REPORT_FIELDS)
        for rep in reports:
            claim_id, params, modulus, holds, degree, note, ms = rep.record(moduli).values()
            yield rows.writerow(
                [
                    claim_id,
                    json.dumps(params),
                    "" if modulus is None else modulus,
                    "na" if holds is None else str(holds).lower(),
                    "" if degree is None else degree,
                    note,
                    ms,
                ]
            )
    elif format == "pretty":  # no modulus is printed, so no record() is built
        held = failed = skipped = 0
        for rep in reports:
            params = " ".join(f"{k}={v}" for k, v in rep.case.params.items())
            if rep.holds is True:
                held += 1
                status = "HOLDS"
            elif rep.holds is False:
                failed += 1
                status = "FAILED"
            else:
                skipped += 1
                status = "N/A"
            extra = ""
            if rep.quotient_degree is not None:
                extra = f" (quotient degree {rep.quotient_degree})"
            if rep.holds is False:
                remainder = getattr(rep.witness, "remainder", None)
                if remainder is not None:
                    extra = f" (remainder {remainder})"
            note = f"  # {rep.case.derivation_note}" if rep.case.derivation_note else ""
            yield f"{rep.case.claim_id:12s} {params:40s} {status}{extra}{note}\n"
        yield f"total {len(reports)}: {held} hold, {failed} failed, {skipped} not applicable\n"
    else:
        raise InvalidArgument(f"unknown output format {format!r}")


def emit_report(reports: list[VerificationReport], format: str = "pretty") -> str:
    """Serialize reports with a stable field order.

    Timings (elapsed_ms) are included but excluded from any determinism
    guarantee.  The JSON form is exactly json.dumps(records, indent=2),
    records being [rep.record() for rep in reports], written one record
    at a time in a fixed layout (see _encoded); the CSV rows are
    csv.writer's rows of the same records.  run writes these pieces to
    stdout as they are encoded, where this joins them.
    """
    return "".join(_encoded(reports, format))


def parse_report_json(text: str) -> list[dict]:
    """Inverse of emit_report(..., 'json'): validated list of records."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("report JSON must be a list")
    for rec in data:
        if not isinstance(rec, dict):
            raise ValueError(f"report record must be an object, got {rec!r}")
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
        print(_sum(args))
        return 0
    raise InvalidArgument(f"unknown inspect command {what!r}")


_TRIPLE_FAMILIES = {"triple_642": "six_four_two", "triple_842": "eight_four_two"}


def _sum(args) -> int | IntPoly:
    """The sum instance that inspect sum names, from its family's function."""
    family, n, mode = args.family, args.n, args.mode
    if family == "gjz":
        if not args.ns:
            raise InvalidArgument("inspect sum gjz requires --ns")
        return sums.gjz_sum(_parse_int_list(args.ns), mode)
    if family == "power":
        if mode != "integer":
            raise InvalidArgument("the power family is integer-only")
        return sums.alt_power_sum(n, args.r)
    if family == "pattern":
        if args.p is None or not args.I:
            raise InvalidArgument("inspect sum pattern requires --p and --I")
        return sums.pattern_sum(n, args.r, args.p, _parse_int_list(args.I), mode)
    if family in _TRIPLE_FAMILIES:
        return sums.triple_sum(_TRIPLE_FAMILIES[family], n, args.r, args.s, args.t, mode)
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
    common.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes (default: the CPU count); never more than "
                             "the cases or the CPUs, and none when that bound is 1")

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

    for verb, doc in (("conj2", "triple-sum congruences"), ("thm2", "sharpened q-moduli")):
        sub = claims.add_parser(verb, parents=[common], help=doc)
        for axis in ("--n", "--r", "--s", "--t"):
            sub.add_argument(axis, required=True)
        sub.add_argument("--claim", choices=(*_TRIPLE_CLAIMS[verb], "all"), default="all")
        if verb == "conj2":
            sub.add_argument("--mode", choices=tuple(_MODE_SUFFIXES), default="integer")

    sub = claims.add_parser("thm1", parents=[common], help="exact valuation of power sums")
    sub.add_argument("--n", required=True)
    sub.add_argument("--variant", choices=("per_prime", "full_modulus", "both"),
                     default="per_prime")
    sub.add_argument("--exponent-budget", type=int, default=verify.DEFAULT_EXPONENT_BUDGET)

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
            code = _run_inspect(args)
        else:
            cases = build_cases(args)
            if args.jobs < 1:
                raise InvalidArgument("parallelism must be >= 1")
            if not cases:
                raise InvalidArgument("the requested sweep is empty")
            reports = run_sweep(cases, args.jobs)
            sys.stdout.writelines(_encoded(reports, args.output))
            failures = [rep for rep in reports if rep.holds is False]
            if failures:
                dump_counterexample(failures[0], sys.stderr)
            code = 1 if failures else 0
        sys.stdout.flush()  # a closed reader fails here, inside the try
        return code
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # code 1 means a falsified claim; Ctrl-C still interrupts
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # else the interpreter's final flush prints "Exception ignored", exit 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
