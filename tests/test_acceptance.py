"""Acceptance suite: one test per criterion, at full stated scale.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
captured output).  All checks are exact; there are no tolerances to
tune, only equality and divisibility.  The stated runtimes are targets
on desk hardware, not assertions.
"""

import json
import os
import subprocess
import sys
import time
from itertools import combinations, product
from pathlib import Path

from qaltsum import cyclo, qcomb, sums, verify
from qaltsum.polycore import IntPoly, NotDivisible, divexact
from qaltsum.qcomb import binom, nu_p_binom, qbinom, qlucas_check

from oracles import legendre_nu


def _report(num, description, failures, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} [{elapsed:6.2f}s] {description}")
    assert not failures, f"criterion {num}: first failures: {failures[:5]}"


def _divides(dividend, modulus) -> bool:
    if isinstance(dividend, int):
        if isinstance(modulus, int):
            return dividend % modulus == 0
        dividend = IntPoly(dividend)
    if not dividend:
        return True
    try:
        divexact(dividend, IntPoly(modulus) if isinstance(modulus, int) else modulus)
    except NotDivisible:
        return False
    return True


def test_criterion_01_closed_form_identities():
    started = time.perf_counter()
    failures = []
    for n in range(1, 51):
        central = binom(2 * n, n)
        if sums.alt_power_sum(n, 2) != (-1) ** n * central:
            failures.append(("eq1", n))
        if sums.alt_power_sum(n, 3) != (-1) ** n * central * binom(3 * n, n):
            failures.append(("eq2", n))
    _report(1, "closed forms of squared/cubed sums, n <= 50", failures, started)


def test_criterion_02_central_binomial_divisibility():
    started = time.perf_counter()
    failures = [
        (n, r)
        for n in range(1, 41)
        for r in range(1, 7)
        if sums.alt_power_sum(n, r) % binom(2 * n, n) != 0
    ]
    _report(2, "central binomial divides power sums, n <= 40, r <= 6", failures, started)


def test_criterion_03_cyclic_multifactor_congruences():
    started = time.perf_counter()
    failures = []
    for h in range(1, 5):
        for ns in product(range(1, 9), repeat=h):
            value = sums.gjz_sum(ns, "integer")
            if value % binom(ns[0] + ns[-1], ns[0]) != 0:
                failures.append(("gjz", ns))
    for h in range(1, 4):
        for ns in product(range(1, 6), repeat=h):
            rep = verify.verify_identity("gjzq", ns=list(ns))
            if not rep.holds:
                failures.append(("gjzq", ns))
            if "component subscripts" not in rep.case.derivation_note:
                failures.append(("gjzq-variant-note", ns))
    _report(3, "cyclic multi-factor congruences (h <= 4 int, h <= 3 q)", failures, started)


def test_criterion_04_integer_triple_sum_congruences():
    started = time.perf_counter()
    failures = []
    if sums.triple_sum("six_four_two", 1, 1, 1, 1, "integer") != 120:
        failures.append("spot value 120")
    for n in range(1, 5):
        m1 = 2 * binom(6 * n, n)
        m2 = 6 * binom(6 * n, 3 * n)
        m3 = 2 * binom(8 * n, 3 * n)
        for r, s, t in product(range(1, 4), repeat=3):
            six = sums.triple_sum("six_four_two", n, r, s, t, "integer")
            if six % m1 != 0:
                failures.append(("cj2c1", n, r, s, t))
            if six % m2 != 0:
                failures.append(("cj2c2", n, r, s, t))
            if (r, s, t) != (1, 1, 1):
                eight = sums.triple_sum("eight_four_two", n, r, s, t, "integer")
                if eight % m3 != 0:
                    failures.append(("cj2c3", n, r, s, t))
    _report(4, "integer triple-sum congruences, n <= 4, r,s,t <= 3", failures, started)


def test_criterion_05_q_triple_sum_congruences():
    started = time.perf_counter()
    failures = []
    for n in range(1, 4):
        for r, s, t in product(range(1, 3), repeat=3):
            for claim in ("cj2c1q", "cj2c2q", "cj2c3q"):
                rep = verify.verify_identity(claim, n=n, r=r, s=s, t=t)
                if not rep.holds:
                    failures.append((claim, n, r, s, t))
    _report(5, "q triple-sum congruences, n <= 3, r,s,t <= 2", failures, started)


def test_criterion_06_exact_valuations():
    started = time.perf_counter()
    failures = []
    for n in range(1, 9):
        for rep in verify.verify_thm1(n, "per_prime"):
            if not rep.holds:
                failures.append(("per_prime", rep.case.params))
    spot = {
        (r.case.params["p"], r.case.params["r"]): r.holds
        for r in verify.verify_thm1(2, "per_prime")
    }
    if not (spot.get((2, 4)) and spot.get((3, 8))):
        failures.append("spot n=2 valuations")
    for n in range(1, 5):
        for rep in verify.verify_thm1(n, "full_modulus", exponent_budget=100_000):
            if not rep.holds:
                failures.append(("full_modulus", rep.case.params))
    _report(6, "exact power-sum valuations (per-prime n <= 8, full n <= 4)", failures, started)


def test_criterion_07_sharpened_q_moduli():
    started = time.perf_counter()
    failures = []
    for n in range(1, 5):
        for r, s, t in product(range(1, 4), repeat=3):
            for claim in ("t2c1", "t2c2", "t2c3"):
                rep = verify.verify_thm2(n, r, s, t, claim)
                if claim == "t2c3" and (r, s, t) == (1, 1, 1):
                    if rep.holds is not None:
                        failures.append(("t2c3 applicability", n, r, s, t))
                elif not rep.holds:
                    failures.append((claim, n, r, s, t))
    # stated branch spot checks: the two-factor exponent per n
    for n, r, s, t, step in ((1, 2, 1, 1, 2), (3, 2, 1, 1, 1), (2, 1, 1, 2, 1),
                             (2, 1, 2, 1, 2), (2, 2, 1, 1, 3)):
        rep = verify.verify_thm2(n, r, s, t, "t2c3")
        want = cyclo.q_int(2, step=2**step) * qbinom(8 * n, 3 * n)
        if rep.case.expected_modulus != want:
            failures.append(("branch", n, r, s, t))
    _report(7, "sharpened q-moduli for triple sums, n <= 4, r,s,t <= 3", failures, started)


def test_criterion_08_filtered_sum_bounds():
    started = time.perf_counter()
    failures = []
    for n in range(1, 9):
        for p in (2, 3, 5):
            for r in range(1, 4):
                for rep in verify.verify_lemmas(n, p, r):
                    if not rep.holds:
                        failures.append((rep.case.claim_id, rep.case.params))
    # inclusion-exclusion ties the pattern sums to the p-divisible sum
    for n in range(1, 9):
        for p in (2, 3, 5):
            for r in range(1, 4):
                h, power = 0, 1
                while power * p <= 2 * n:
                    power *= p
                    h += 1
                h += 1
                total = 0
                for size in range(1, h + 1):
                    for I in combinations(range(1, h + 1), size):
                        sign = -1 if size % 2 == 0 else 1
                        total += sign * sums.pattern_sum(n, r, p, I, "integer")
                if total != sums.alt_power_sum_filtered(n, r, p, "p_divides"):
                    failures.append(("inclusion-exclusion", n, p, r))
    _report(8, "filtered-sum valuation bounds, n <= 8, p in {2,3,5}, r <= 3", failures, started)


def test_criterion_09_oracle_equivalences():
    started = time.perf_counter()
    failures = []
    for n in range(61):
        for k in range(n + 1):
            qb = qbinom(n, k)
            if cyclo.expand(qcomb.qbinom_factored(n, k)) != qb:
                failures.append(("factored", n, k))
            if qb.evaluate(1) != binom(n, k):
                failures.append(("eval1", n, k))
    for n in range(201):
        for k in range(n + 1):
            for p in (2, 3, 5, 7, 11):
                if nu_p_binom(n, k, p).value != legendre_nu(n, k, p):
                    failures.append(("legendre", n, k, p))
    for d in range(2, 13):
        for x1 in range(7):
            for y1 in range(7):
                for x2 in range(d):
                    for y2 in range(d):
                        if not qlucas_check(d, x1, x2, y1, y2):
                            failures.append(("qlucas", d, x1, x2, y1, y2))
    _report(9, "dual-route oracle equivalences (qbinom, valuations, q-Lucas)",
            failures, started)


def test_criterion_10_gcd_window_evidence():
    started = time.perf_counter()
    failures = []
    for n in range(1, 13):
        rep = verify.verify_gcd_window(n, 2, 20)
        if not rep.holds:
            failures.append(("window", n))
        if "evidence, not proof" not in rep.case.derivation_note:
            failures.append(("marking", n))
    _report(10, "gcd-window evidence for n <= 12, marked as evidence", failures, started)


def test_sharpened_q_moduli_at_n8_through_the_cli():
    # the residue path: every Phi_d^e of the modulus, no dividend built
    started = time.perf_counter()
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qaltsum", "verify", "thm2", "--n", "8", "--r", "3", "--s", "3",
         "--t", "3", "--claim", "all", "--output", "json", "--jobs", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    records = json.loads(proc.stdout)
    failures = [rec for rec in records if rec["holds"] is not True]
    if [rec["claim_id"] for rec in records] != ["t2c1", "t2c2", "t2c3"]:
        failures.append("claims")
    _report(11, "sharpened q-moduli at n = 8, (r, s, t) = (3, 3, 3), via the CLI",
            failures, started)
