"""Claim-level drivers: build the expected modulus, check, report.

Each driver materializes one verifiable claim instance -- an identity, a
congruence in Z or Z[q], or a valuation equality -- as a TheoremCase and
performs the exact check, giving an outcome (case, holds, witness).  One
runner, _timed, turns outcomes into VerificationReports and times them:
a report's elapsed covers everything computed for it, from the dividend
and the modulus to the check.  A report with holds=False means the
implementation is broken (every asserted claim is a proven statement),
so batch runners must surface it as a counterexample and stop;
holds=None marks a case whose side condition is not met (not
applicable), which is a normal outcome.

Claim identifiers:

  eq1, eq2        closed forms of the squared / cubed alternating sums
  calkin          central-binomial divisibility of the power sums
  gjz, gjzq       cyclic multi-factor sums, integer and q versions
  cj2c1..cj2c3    integer triple-sum congruences (eight_four_two for c3)
  cj2c1q..cj2c3q  their q-analogues
  thm1            exact valuation of power sums at tuned exponents
  t2c1..t2c3      sharpened q moduli with the two- and three-power factors
  lemma21..24     the filtered / pattern-restricted sum bounds
  conj1_window    finite gcd-window evidence (never a proof)
  qlucas          one instance of the q-Lucas congruence
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Union

from . import cyclo, qcomb, sums
from .polycore import CongruenceWitness, IntPoly, InvalidArgument, NotDivisible, divexact
from .qcomb import ValuationRecord, binom, euler_phi, nu_p_binom, nu_p_int, qbinom

__all__ = [
    "InfeasibleScale",
    "TheoremCase",
    "VerificationReport",
    "check_congruence",
    "gcd_window",
    "run_case",
    "verify_gcd_window",
    "verify_identity",
    "verify_lemmas",
    "verify_qlucas",
    "verify_thm1",
    "verify_thm2",
]

DEFAULT_EXPONENT_BUDGET = 100_000


class InfeasibleScale(RuntimeError):
    """A requested exponent exceeds the configured budget."""


@dataclass(frozen=True)
class TheoremCase:
    """One claim instance: identifier, parameters, expected modulus."""

    claim_id: str
    params: dict
    expected_modulus: Optional[IntPoly] = None
    derivation_note: str = ""


Witness = Union[CongruenceWitness, tuple[ValuationRecord, ValuationRecord], None]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one TheoremCase.

    holds is True/False for checked cases and None when the case's side
    condition ruled it out (reported, but neither success nor failure).
    """

    case: TheoremCase
    holds: Optional[bool]
    witness: Witness = None
    elapsed: float = 0.0

    def record(self) -> dict:
        """Serializable record with a stable field order."""
        quotient_degree = None
        if isinstance(self.witness, CongruenceWitness) and self.witness.quotient is not None:
            deg = self.witness.quotient.degree
            quotient_degree = -1 if deg == float("-inf") else int(deg)
        return {
            "claim_id": self.case.claim_id,
            "params": self.case.params,
            "modulus": (
                self.case.expected_modulus.coeff_list_str()
                if self.case.expected_modulus is not None
                else None
            ),
            "holds": self.holds,
            "quotient_degree": quotient_degree,
            "branch_note": self.case.derivation_note,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }


def check_congruence(dividend, modulus) -> CongruenceWitness:
    """Decide one "dividend == 0 (mod modulus)" claim in Z[q].

    Integers are accepted on either side as degree-0 polynomials.
    Failure is a valid outcome carried in the witness, not an exception.
    """
    dividend = dividend if isinstance(dividend, IntPoly) else IntPoly(dividend)
    modulus = modulus if isinstance(modulus, IntPoly) else IntPoly(modulus)
    if not modulus:
        raise InvalidArgument("congruence modulus must be nonzero")
    try:
        quotient = divexact(dividend, modulus)
    except NotDivisible as exc:
        return CongruenceWitness(dividend, modulus, None, False, remainder=exc.remainder)
    return CongruenceWitness(dividend, modulus, quotient, True)


def _divides(dividend, modulus) -> bool:
    try:
        divexact(dividend, modulus)
    except NotDivisible:
        return False
    return True


Outcome = tuple[TheoremCase, Optional[bool], Witness]


def _timed(outcomes: Iterator[Outcome]) -> list[VerificationReport]:
    """Report each outcome with the time taken to produce it.

    The only place a report is built or timed.  outcomes is consumed
    lazily, so a report's elapsed runs from the end of the previous
    report (or from the call) to the moment its outcome is ready: it
    includes every value computed for it, a value several reports share
    is charged to the first of them, and the reports of one call add up
    to the call's wall time.
    """
    reports = []
    start = time.perf_counter()
    for case, holds, witness in outcomes:
        now = time.perf_counter()
        reports.append(VerificationReport(case, holds, witness, now - start))
        start = now
    return reports


def _once(build, *args) -> Iterator[Outcome]:
    """The single outcome of build(*args), computed when asked for."""
    yield build(*args)


def _congruence(claim_id, params, dividend, modulus, note="") -> Outcome:
    witness = check_congruence(dividend, modulus)
    return TheoremCase(claim_id, params, witness.modulus, note), witness.holds, witness


# -- named identities and congruences ------------------------------------------


def verify_identity(claim: str, **params) -> VerificationReport:
    """Check one instance of a named identity or congruence claim.

    eq1/eq2 take n; calkin takes n and r; gjz/gjzq take ns (composition);
    the cj2 family takes n, r, s, t.
    """
    return _timed(_once(_identity, claim, params))[0]


def _identity(claim: str, params: dict) -> Outcome:
    if claim == "eq1":
        n = params["n"]
        lhs = sums.alt_power_sum(n, 2)
        rhs = (-1) ** n * binom(2 * n, n)
        case = TheoremCase(claim, {"n": n}, None, f"sum={lhs}, closed_form={rhs}")
        return case, lhs == rhs, None
    if claim == "eq2":
        n = params["n"]
        lhs = sums.alt_power_sum(n, 3)
        rhs = (-1) ** n * binom(2 * n, n) * binom(3 * n, n)
        case = TheoremCase(claim, {"n": n}, None, f"sum={lhs}, closed_form={rhs}")
        return case, lhs == rhs, None
    if claim == "calkin":
        n, r = params["n"], params["r"]
        return _congruence(claim, {"n": n, "r": r}, sums.alt_power_sum(n, r), binom(2 * n, n))
    if claim == "gjz":
        ns = tuple(params["ns"])
        dividend = sums.gjz_sum(ns, "integer")
        modulus = binom(ns[0] + ns[-1], ns[0])
        return _congruence(claim, {"ns": list(ns)}, dividend, modulus)
    if claim == "gjzq":
        return _gjzq(tuple(params["ns"]))
    if claim in _CONJ2:
        return _conj2(claim, params["n"], params["r"], params["s"], params["t"])
    raise InvalidArgument(f"unknown identity claim {claim!r}")


def _gjzq(ns: tuple[int, ...]) -> Outcome:
    dividend = sums.gjz_sum(ns, "q")
    n1 = ns[0]
    modulus = qbinom(n1 + ns[-1], n1)
    # The modulus subscript is printed ambiguously (last part vs an
    # undefined index r); assert the last-part reading and record, for
    # every component i, whether qb(n1 + n_i, n1) also divides.
    variants = [i + 1 for i, ni in enumerate(ns) if _divides(dividend, qbinom(n1 + ni, n1))]
    note = (
        "modulus subscript ambiguity: asserted last-part variant; "
        f"component subscripts whose modulus divides: {variants}"
    )
    return _congruence("gjzq", {"ns": list(ns)}, dividend, modulus, note)


_CONJ2 = {
    "cj2c1": ("six_four_two", "integer"),
    "cj2c2": ("six_four_two", "integer"),
    "cj2c3": ("eight_four_two", "integer"),
    "cj2c1q": ("six_four_two", "q"),
    "cj2c2q": ("six_four_two", "q"),
    "cj2c3q": ("eight_four_two", "q"),
}


def _conj2_modulus(claim: str, n: int) -> IntPoly:
    if claim == "cj2c1":
        return IntPoly(2 * binom(6 * n, n))
    if claim == "cj2c2":
        return IntPoly(6 * binom(6 * n, 3 * n))
    if claim == "cj2c3":
        return IntPoly(2 * binom(8 * n, 3 * n))
    if claim == "cj2c1q":
        return qbinom(6 * n, n)
    if claim == "cj2c2q":
        return qbinom(6 * n, 3 * n)
    return qbinom(8 * n, 3 * n)


def _conj2(claim: str, n: int, r: int, s: int, t: int) -> Outcome:
    params = {"n": n, "r": r, "s": s, "t": t}
    if claim == "cj2c3" and (r, s, t) == (1, 1, 1):
        note = "not applicable: the claim excludes (r, s, t) = (1, 1, 1)"
        return TheoremCase(claim, params, None, note), None, None
    family, mode = _CONJ2[claim]
    dividend = sums.triple_sum(family, n, r, s, t, mode)
    return _congruence(claim, params, dividend, _conj2_modulus(claim, n))


# -- valuation-equality driver ---------------------------------------------------


def _prime_divisors_central(n: int) -> list[tuple[int, int]]:
    """(p, gamma) for the primes dividing C(2n, n); all are <= 2n."""
    out = []
    for p in range(2, 2 * n + 1):
        if cyclo.is_prime(p):
            gamma = nu_p_binom(2 * n, n, p).value
            if gamma >= 1:
                out.append((p, gamma))
    return out


def verify_thm1(
    n: int,
    variant: str = "per_prime",
    exponent_budget: int = DEFAULT_EXPONENT_BUDGET,
) -> list[VerificationReport]:
    """Exact-valuation checks for the alternating power sum.

    per_prime: for each prime p | C(2n, n) with gamma = nu_p(C(2n, n)),
    take r = 2 + phi(p^(gamma+1)) and r = 2 + 2 phi(p^(gamma+1)) and
    assert nu_p(sum) == gamma exactly.

    full_modulus: one exponent for all primes at once, the smallest
    r > 2 with r == 2 (mod phi(C(2n, n)) * C(2n, n)); raises
    InfeasibleScale when that exponent exceeds the budget.
    """
    return _timed(_thm1(n, variant, exponent_budget))


def _thm1(n, variant="per_prime", exponent_budget=DEFAULT_EXPONENT_BUDGET) -> Iterator[Outcome]:
    if n < 1:
        raise InvalidArgument(f"verify_thm1 requires n >= 1, got {n}")
    if variant not in ("per_prime", "full_modulus"):
        raise InvalidArgument(f"unknown variant {variant!r}")
    central = binom(2 * n, n)
    primes = _prime_divisors_central(n)
    if variant == "per_prime":
        checks = [
            (p, gamma, 2 + k * p**gamma * (p - 1))  # phi(p^(gamma+1)) = p^gamma (p - 1)
            for p, gamma in primes
            for k in (1, 2)
        ]
    else:
        r = 2 + euler_phi(central) * central
        if r > exponent_budget:
            raise InfeasibleScale(
                f"full_modulus exponent {r} exceeds the budget {exponent_budget} (n={n})"
            )
        checks = [(p, gamma, r) for p, gamma in primes]
    total_r = None
    for p, gamma, r in checks:
        if r != total_r:  # full_modulus checks one sum at every prime
            total, total_r = sums.alt_power_sum(n, r), r
        computed = nu_p_int(total, p)
        case = TheoremCase(
            "thm1",
            {"n": n, "variant": variant, "p": p, "r": r},
            IntPoly(p**gamma),
            f"nu_{p}(sum)={computed.value}, expected gamma={gamma}",
        )
        yield case, computed.value == gamma, (computed, ValuationRecord(p, gamma))


# -- sharpened q-moduli for the triple sums ---------------------------------------


def _two_factor(step_exp: int) -> IntPoly:
    return cyclo.q_int(2, step=2**step_exp)


def verify_thm2(n: int, r: int, s: int, t: int, claim: str) -> VerificationReport:
    """Check the sharpened modulus for one triple-sum instance.

    With a = nu_2(n) and b = nu_3(n) the asserted moduli are

      t2c1  [2]_{q^{2^a}} * qb(6n, n)
      t2c2  [2]_{q^{2^a}} * [3]_{q^{3^b}} * qb(6n, 3n)
      t2c3  [2] over q^{2^a} / q^{2^(a+1)} / q^{2^(a+2)} -- picked by the
            exponent guards in their stated order -- times qb(8n, 3n)

    t2c2 asserts the modulus the case analysis actually produces (the
    three-factor carried at q^{3^b}); the printed form with [3] at
    q^{2^a} is checked too and recorded in the note, never asserted.
    t2c3 with no guard satisfied is reported as not applicable.
    """
    return _timed(_once(_thm2, n, r, s, t, claim))[0]


def _thm2(n: int, r: int, s: int, t: int, claim: str) -> Outcome:
    if min(n, r, s, t) < 1:
        raise InvalidArgument(f"requires n, r, s, t >= 1, got ({n}, {r}, {s}, {t})")
    params = {"n": n, "r": r, "s": s, "t": t}
    alpha = nu_p_int(n, 2).value
    if claim == "t2c1":
        dividend = sums.triple_sum("six_four_two", n, r, s, t, "q")
        modulus = _two_factor(alpha) * qbinom(6 * n, n)
        return _congruence(claim, params, dividend, modulus, f"alpha={alpha}")
    if claim == "t2c2":
        beta = nu_p_int(n, 3).value
        dividend = sums.triple_sum("six_four_two", n, r, s, t, "q")
        modulus = _two_factor(alpha) * cyclo.q_int(3, step=3**beta) * qbinom(6 * n, 3 * n)
        printed = _two_factor(alpha) * cyclo.q_int(3, step=2**alpha) * qbinom(6 * n, 3 * n)
        printed_ok = _divides(dividend, printed)
        note = (
            f"alpha={alpha}, beta={beta}; printed-form modulus with [3] at "
            f"q^(2^alpha) {'also divides' if printed_ok else 'does NOT divide'}"
        )
        return _congruence(claim, params, dividend, modulus, note)
    if claim == "t2c3":
        window = 2 ** (alpha + 2)
        if t >= 2:
            step, branch = alpha, "t >= 2"
        elif s >= 2 or (r >= 2 and n % window == 3 * 2**alpha):
            step, branch = alpha + 1, "s >= 2, or r >= 2 with n = 3*2^a mod 2^(a+2)"
        elif r >= 2 and n % window == 2**alpha:
            step, branch = alpha + 2, "r >= 2 with n = 2^a mod 2^(a+2)"
        else:
            note = "not applicable: no branch guard matched"
            return TheoremCase(claim, params, None, note), None, None
        dividend = sums.triple_sum("eight_four_two", n, r, s, t, "q")
        modulus = _two_factor(step) * qbinom(8 * n, 3 * n)
        note = f"alpha={alpha}; branch: {branch}; two-factor at q^(2^{step})"
        return _congruence(claim, params, dividend, modulus, note)
    raise InvalidArgument(f"unknown claim {claim!r}")


# -- filtered and pattern-restricted sum bounds -----------------------------------


def _pattern_height(n: int, p: int) -> int:
    """floor(log_p(2n)) + 1, by integer arithmetic."""
    h, power = 0, 1
    while power * p <= 2 * n:
        power *= p
        h += 1
    return h + 1


def verify_lemmas(n: int, p: int, r: int) -> list[VerificationReport]:
    """The four filtered-sum checks, one report each (per index set I).

    lemma21: the square sum over p-coprime binomials has valuation
             exactly gamma = nu_p(C(2n, n));
    lemma22: the complementary sum has valuation >= r - 1 + gamma;
    lemma23: each pattern-restricted integer sum has valuation
             >= (r - 1)|I| + gamma;
    lemma24: each pattern-restricted q sum is divisible by the matching
             product of prime-power cyclotomics.
    """
    return _timed(_lemmas(n, p, r))


def _lemmas(n: int, p: int, r: int) -> Iterator[Outcome]:
    if n < 1 or r < 1:
        raise InvalidArgument(f"requires n, r >= 1, got n={n}, r={r}")
    if not cyclo.is_prime(p):
        raise InvalidArgument(f"{p} is not prime")
    gamma = nu_p_binom(2 * n, n, p).value

    coprime = sums.alt_power_sum_filtered(n, 2, p, "p_ndivides")
    nu = nu_p_int(coprime, p)
    case = TheoremCase(
        "lemma21",
        {"n": n, "p": p},
        IntPoly(p**gamma),
        f"exponent fixed at 2; nu_{p}={nu.value}, gamma={gamma}",
    )
    yield case, nu.value == gamma, (nu, ValuationRecord(p, gamma))

    divisible_part = sums.alt_power_sum_filtered(n, r, p, "p_divides")
    nu = nu_p_int(divisible_part, p)
    bound = r - 1 + gamma
    case = TheoremCase(
        "lemma22",
        {"n": n, "p": p, "r": r},
        IntPoly(p**bound),
        f"nu_{p}={nu.value} >= {bound}",
    )
    yield case, nu.value >= bound, (nu, ValuationRecord(p, bound))

    h = _pattern_height(n, p)
    for size in range(1, h + 1):
        for subset in combinations(range(1, h + 1), size):
            value = sums.pattern_sum(n, r, p, subset, "integer")
            nu = nu_p_int(value, p)
            bound = (r - 1) * len(subset) + gamma
            case = TheoremCase(
                "lemma23",
                {"n": n, "p": p, "r": r, "I": list(subset)},
                IntPoly(p**bound),
                f"nu_{p}={nu.value} >= {bound}",
            )
            yield case, nu.value >= bound, (nu, ValuationRecord(p, bound))

            dividend = sums.pattern_sum(n, r, p, subset, "q")
            modulus = IntPoly(1)
            for a in subset:
                modulus = modulus * cyclo.prime_power_form(p, a) ** r
            for b in range(1, h + 1):
                if b not in subset and qcomb._carry_at(2 * n, n, p**b):
                    modulus = modulus * cyclo.prime_power_form(p, b)
            yield _congruence(
                "lemma24", {"n": n, "p": p, "r": r, "I": list(subset)}, dividend, modulus
            )


# -- gcd-window evidence ------------------------------------------------------------


def gcd_window(n: int, m: int, w: int) -> tuple[int, bool]:
    """gcd of |power sums| over the exponent window [m, m + w).

    Returns (g, central_divides) where central_divides is C(2n, n) | g.
    This is finite evidence only: the conjectured gcd identity ranges
    over all exponents r >= m and cannot be decided by any window.
    """
    if n < 1 or m < 1:
        raise InvalidArgument(f"requires n, m >= 1, got n={n}, m={m}")
    if w < 2:
        raise InvalidArgument(f"window must span at least 2 exponents, got {w}")
    g = 0
    for r in range(m, m + w):
        g = math.gcd(g, abs(sums.alt_power_sum(n, r)))
    return g, g % binom(2 * n, n) == 0


def verify_gcd_window(n: int, m: int, w: int) -> VerificationReport:
    return _timed(_once(_gcd_window, n, m, w))[0]


def _gcd_window(n: int, m: int, w: int) -> Outcome:
    g, divides = gcd_window(n, m, w)
    central = binom(2 * n, n)
    case = TheoremCase(
        "conj1_window",
        {"n": n, "m": m, "w": w},
        IntPoly(central),
        f"evidence, not proof (finite window r={m}..{m + w - 1}); gcd={g}",
    )
    return case, divides, None


def verify_qlucas(d: int, x1: int, x2: int, y1: int, y2: int) -> VerificationReport:
    return _timed(_once(_qlucas, d, x1, x2, y1, y2))[0]


def _qlucas(d: int, x1: int, x2: int, y1: int, y2: int) -> Outcome:
    holds = qcomb.qlucas_check(d, x1, x2, y1, y2)
    case = TheoremCase(
        "qlucas",
        {"d": d, "x1": x1, "x2": x2, "y1": y1, "y2": y2},
        cyclo.cyclotomic(d),
        "",
    )
    return case, holds, None


# -- dispatch ------------------------------------------------------------------------

_IDENTITY_CLAIMS = frozenset(_CONJ2) | {"eq1", "eq2", "calkin", "gjz", "gjzq"}


def run_case(claim_id: str, params: dict) -> list[VerificationReport]:
    """Run one claim instance by id; always returns a list of reports.

    A case whose exponent exceeds its budget is reported as not
    evaluated (holds None) instead of raising InfeasibleScale, so that
    it does not sink the rest of a sweep.
    """
    return _timed(_case(claim_id, params))


def _case(claim_id: str, params: dict) -> Iterator[Outcome]:
    try:
        if claim_id in _IDENTITY_CLAIMS:
            yield _identity(claim_id, params)
        elif claim_id == "thm1":
            yield from _thm1(**params)
        elif claim_id in ("t2c1", "t2c2", "t2c3"):
            yield _thm2(claim=claim_id, **params)
        elif claim_id == "lemmas":
            yield from _lemmas(**params)
        elif claim_id == "conj1_window":
            yield _gcd_window(**params)
        elif claim_id == "qlucas":
            yield _qlucas(**params)
        else:
            raise InvalidArgument(f"unknown claim id {claim_id!r}")
    except InfeasibleScale as exc:
        yield TheoremCase(claim_id, params, None, f"not evaluated: {exc}"), None, None
