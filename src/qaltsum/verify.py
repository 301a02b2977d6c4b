"""Claim-level drivers: build the expected modulus, check, report.

Each claim family is one generator of Outcomes (case, holds, witness,
quotient degree): it materializes claim instances -- identities,
congruences in Z or Z[q] (_congruence), valuation equalities and bounds
(_valuation) -- as TheoremCases and performs the exact checks.  One table, _CLAIMS, maps
every claim id to its generator, called as build(claim_id, **params),
and run_case is the only dispatcher but one: verify_thm1 calls _timed
itself, so that it raises InfeasibleScale.  One runner, _timed, turns
outcomes into VerificationReports and times them: a report's elapsed covers
everything computed for it, from the dividend and the modulus to the
check.  A report with holds=False means the implementation is broken
(every asserted claim is a proven statement), so batch runners must
surface it as a counterexample and stop; holds=None marks a case whose
side condition is not met (not applicable), which is a normal outcome.

Two integer claims are decided from residues of the power sum
S = sum_k (-1)^k C(2n, k)^r (sums.alt_power_sums_mod), so their cost
does not grow with r times the bits of C(2n, n):

  calkin  R = S mod C(2n, n) * (2^61 - 1).  R != 0 with C(2n, n) | R
          holds, quotient degree 0.  R = 0 (every r = 1, where S = 0)
          or C(2n, n) not dividing R runs the full sum, which decides
          whether S = 0 and supplies the NotDivisible witness.  A case
          is one n over an ascending range of r, one report per r in
          order, and ends after its first failed report; its residues
          come from one pass over the range.
  thm1    S mod p^(gamma+1) per prime.  A nonzero residue has the exact
          valuation nu_p(S) that the note prints; a zero one proves
          nu_p(S) >= gamma + 1 and fails the check, with no witness.

The full value of S (sums.alt_power_sum) is built only where a value is
printed or a witness is needed: eq1 and eq2, the calkin fallback and the
gcd window.

Every q-congruence -- t2c1..t2c3, cj2c1q..cj2c3q, gjzq and lemma24 -- is
decided from residues too, by one decider (_by_residues).  Each modulus
is a cyclotomic factorization whose Phi_d are monic and pairwise
coprime, so the dividend is divisible exactly when its residue modulo
each Phi_d^e is zero.  A holding check reports deg(dividend) -
deg(modulus) as its quotient degree (-1 for a zero dividend) and prints
the expanded modulus; a nonzero asserted residue reruns the full path
(the q sum, divided exactly) for the NotDivisible witness.  The triple
sums take their residues from sums.triple_sum(..., modulo=F) and never
build the sum (_q_triple): the modulus is qbinom_factored(base) times
[2]_{q^(2^a)} = Phi_{2^(a+1)} and, for t2c2, [3]_{q^(3^b)} =
Phi_{3^(b+1)}, multiplicities added, and F also covers t2c2's printed
[3]_{q^(2^a)} = prod_{j<=a} Phi_{3*2^j}.  gjzq and lemma24 reduce the q
sum they build by cyclo.residue; gjzq's note, the components i whose
qb(n1 + n_i, n1) also divides, is read from the residues over the union
of their carry sets.

Claim identifiers (the keys of _CLAIMS):

  eq1, eq2        closed forms of the squared / cubed alternating sums
  calkin          central-binomial divisibility of the power sums
  gjz, gjzq       cyclic multi-factor sums, integer and q versions
  cj2c1..cj2c3    integer triple-sum congruences (eight_four_two for c3)
  cj2c1q..cj2c3q  their q-analogues
  thm1            exact valuation of power sums at tuned exponents
  t2c1..t2c3      cj2c1q..cj2c3q sharpened by two- and three-power factors
  lemmas          lemma21..lemma24, the filtered / pattern-restricted bounds
  conj1_window    finite gcd-window evidence (never a proof)
  qlucas          one instance of the q-Lucas congruence
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Iterator, NamedTuple, Optional, Union

from . import cyclo, qcomb, sums
from .cyclo import CycloFactorization
from .polycore import (
    CongruenceWitness,
    IntPoly,
    InvalidArgument,
    NotDivisible,
    divexact,
)
from .qcomb import (
    ValuationRecord,
    binom,
    euler_phi,
    nu_p_binom,
    nu_p_int,
    qbinom,
    qbinom_factored,
)

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
    A report keeps only what it prints: the witness of a failed check,
    for the counterexample, and the degree of a congruence quotient
    (-1 for a zero quotient, where the dividend is 0).
    """

    case: TheoremCase
    holds: Optional[bool]
    witness: Witness = None
    elapsed: float = 0.0
    quotient_degree: Optional[int] = None

    def record(self, moduli: Optional[dict] = None) -> dict:
        """Serializable record with a stable field order.

        moduli, if given, maps modulus values to their text and is filled
        in as it is read, so that records built with one dict format each
        distinct modulus value once.
        """
        modulus = self.case.expected_modulus
        if modulus is None:
            text = None
        elif moduli is None:
            text = modulus.coeff_list_str()
        else:
            text = moduli.get(modulus)
            if text is None:
                text = moduli[modulus] = modulus.coeff_list_str()
        return {
            "claim_id": self.case.claim_id,
            "params": self.case.params,
            "modulus": text,
            "holds": self.holds,
            "quotient_degree": self.quotient_degree,
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


class Outcome(NamedTuple):
    """What a claim generator yields for one report.

    quotient_degree is that of a holding congruence's quotient.  The
    generator states it, so a check decided without building the
    quotient (the calkin residue path) needs no witness to carry it.
    """

    case: TheoremCase
    holds: Optional[bool]
    witness: Witness = None
    quotient_degree: Optional[int] = None


def _timed(outcomes: Iterator[Outcome]) -> list[VerificationReport]:
    """Report each outcome with the time taken to produce it.

    The only place a report is built or timed.  outcomes is consumed
    lazily, so a report's elapsed runs from the end of the previous
    report (or from the call) to the moment its outcome is ready: it
    includes every value computed for it, a value several reports share
    is charged to the first of them, and the reports of one call add up
    to the call's wall time.  A report keeps its witness only when the
    check failed, so a sweep does not hold every dividend and quotient
    until it ends.
    """
    reports = []
    start = time.perf_counter()
    for case, holds, witness, degree in outcomes:
        now = time.perf_counter()
        kept = witness if holds is False else None
        reports.append(VerificationReport(case, holds, kept, now - start, quotient_degree=degree))
        start = now
    return reports


def _congruence(claim_id, params, dividend, modulus, note="") -> Outcome:
    witness = check_congruence(dividend, modulus)
    degree = None if witness.quotient is None else len(witness.quotient) - 1
    case = TheoremCase(claim_id, params, witness.modulus, note)
    return Outcome(case, witness.holds, witness, degree)


_BOUND = "nu_{p}={nu} >= {expected}"


def _valuation(claim_id, params, value, p, expected, note, *, exact) -> Outcome:
    """Outcome of nu_p(value) == expected (exact) or nu_p(value) >= expected.

    The modulus is p^expected; note is formatted with p, expected and the
    computed valuation nu.
    """
    nu = nu_p_int(value, p)
    holds = nu.value == expected if exact else nu.value >= expected
    case = TheoremCase(claim_id, params, IntPoly(p**expected),
                       note.format(p=p, nu=nu.value, expected=expected))
    return Outcome(case, holds, (nu, ValuationRecord(p, expected)))


# -- named identities and congruences ------------------------------------------


def verify_identity(claim: str, **params) -> VerificationReport:
    """Check one instance of a named identity or congruence claim.

    eq1/eq2 take n; calkin takes n and one exponent r (run_case also
    takes a range of them); gjz/gjzq take ns (composition); the cj2
    family takes n, r, s, t.
    """
    if claim == "calkin" and not isinstance(params.get("r"), int):
        raise InvalidArgument(
            f"verify_identity takes one int exponent r for calkin, got {params.get('r')!r};"
            " run_case('calkin', ...) reports every exponent of a range"
        )
    return run_case(claim, params)[0]


def _closed_form(claim_id: str, n: int, power: int) -> Iterator[Outcome]:
    # sum_k (-1)^k C(2n, k)^power = (-1)^n (power*n)! / n!^power for power 2, 3
    lhs = sums.alt_power_sum(n, power)
    rhs = (-1) ** n * math.prod(binom(j * n, n) for j in range(2, power + 1))
    case = TheoremCase(claim_id, {"n": n}, None, f"sum={lhs}, closed_form={rhs}")
    yield Outcome(case, lhs == rhs)


# a fixed prime (the Mersenne prime 2^61 - 1) for the calkin residue
_CALKIN_PRIME = 2**61 - 1


def _calkin(claim_id: str, n: int, r: Union[int, range]) -> Iterator[Outcome]:
    # r is one exponent or an ascending range of them; R and S as in the
    # module docstring.  C(2n, n) | R exactly when C(2n, n) | S, and
    # R != 0 proves S != 0, so the quotient has degree 0.  n < 1 is left
    # to the sum to reject.
    rs = r if isinstance(r, range) else range(r, r + 1)
    central = binom(2 * n, n) if n >= 1 else 1
    modulus = IntPoly(central)
    residues = sums.alt_power_sums_mod(n, rs, central * _CALKIN_PRIME)
    for r, residue in zip(rs, residues):
        params = {"n": n, "r": r}
        if residue and residue % central == 0:
            yield Outcome(TheoremCase(claim_id, params, modulus), True, None, 0)
            continue
        outcome = _congruence(claim_id, params, sums.alt_power_sum(n, r), modulus)
        yield outcome
        if outcome.holds is False:
            return


def _gjz(claim_id: str, ns) -> Iterator[Outcome]:
    dividend = sums.gjz_sum(ns, "integer")
    yield _congruence(claim_id, {"ns": list(ns)}, dividend, binom(ns[0] + ns[-1], ns[0]))


def _gjzq(claim_id: str, ns) -> Iterator[Outcome]:
    dividend = sums.gjz_sum(ns, "q")
    n1 = ns[0]
    # The modulus subscript is printed ambiguously (last part vs an
    # undefined index r); assert the last-part reading and record, for
    # every component i, whether qb(n1 + n_i, n1) also divides.
    components = [qbinom_factored(n1 + ni, n1).factors for ni in ns]
    carried = {d for factors in components for d in factors}
    residues = {d: cyclo.residue(dividend.coeffs, d) for d in carried}
    variants = [i + 1 for i, factors in enumerate(components)
                if _divides_by(residues, factors)]
    note = (
        "modulus subscript ambiguity: asserted last-part variant; "
        f"component subscripts whose modulus divides: {variants}"
    )
    yield _by_residues(claim_id, {"ns": list(ns)}, residues, components[-1],
                       qbinom(n1 + ns[-1], n1), note, dividend.degree, lambda: dividend)


# claim -> (triple-sum family, mode, modulus as a function of n); a q
# modulus is the q-binomial (N, K) given as the pair, decided by _q_triple
_CONJ2 = {
    "cj2c1": ("six_four_two", "integer", lambda n: 2 * binom(6 * n, n)),
    "cj2c2": ("six_four_two", "integer", lambda n: 6 * binom(6 * n, 3 * n)),
    "cj2c3": ("eight_four_two", "integer", lambda n: 2 * binom(8 * n, 3 * n)),
    "cj2c1q": ("six_four_two", "q", lambda n: (6 * n, n)),
    "cj2c2q": ("six_four_two", "q", lambda n: (6 * n, 3 * n)),
    "cj2c3q": ("eight_four_two", "q", lambda n: (8 * n, 3 * n)),
}


def _conj2(claim_id: str, n: int, r: int, s: int, t: int) -> Iterator[Outcome]:
    params = {"n": n, "r": r, "s": s, "t": t}
    if claim_id == "cj2c3" and (r, s, t) == (1, 1, 1):
        note = "not applicable: the claim excludes (r, s, t) = (1, 1, 1)"
        yield Outcome(TheoremCase(claim_id, params, None, note), None)
        return
    family, mode, modulus = _CONJ2[claim_id]
    if mode == "q":
        yield _q_triple(claim_id, params, family, modulus(n), {})
        return
    yield _congruence(claim_id, params, sums.triple_sum(family, n, r, s, t, mode), modulus(n))


def _q_triple(claim_id, params, family, base, extra, note="", printed=None) -> Outcome:
    """Outcome of "the q triple sum == 0 mod modulus", decided by residues.

    The modulus is the q-binomial base = (N, K) times prod Phi_d^m over
    extra's (d, m); printed, if given, is the extra of a printed-form
    modulus that a note records, with " also divides" or " does NOT
    divide".  One sums.triple_sum(..., modulo=...) call gives the residues
    for both moduli, and the sum itself is not built; its degree is
    sums.triple_sum_degree.
    """
    n, r, s, t = params["n"], params["r"], params["s"], params["t"]
    carries = qbinom_factored(*base).factors

    def powers(factors):
        return {d: carries.get(d, 0) + factors.get(d, 0) for d in {*carries, *factors}}

    asserted = powers(extra)
    shown = {} if printed is None else powers(printed)
    clash = [d for d, e in shown.items() if asserted.get(d, e) != e]
    if clash:  # one residue per d serves both moduli
        raise RuntimeError(f"internal invariant violated: the {claim_id} moduli give "
                           f"Phi_{clash[0]} two multiplicities (n={n})")
    residues = sums.triple_sum(family, n, r, s, t, "q",
                               modulo=CycloFactorization({**asserted, **shown}))
    if printed is not None:
        note += " also divides" if _divides_by(residues, shown) else " does NOT divide"
    modulus = qbinom(*base)
    for d, m in extra.items():
        modulus = modulus * cyclo.cyclotomic_power(d, m)
    return _by_residues(claim_id, params, residues, asserted, modulus, note,
                        sums.triple_sum_degree(family, n, r, s, t),
                        lambda: sums.triple_sum(family, n, r, s, t, "q"))


def _divides_by(residues, factors) -> bool:
    """Whether prod Phi_d^e over factors divides the value of the residues.

    residues[d] is the value modulo Phi_d^e, e the multiplicity of d in
    factors, so Phi_d^e divides the value exactly when that residue is 0.
    """
    return not any(residues[d] for d in factors)


def _by_residues(claim_id, params, residues, asserted, modulus, note, degree,
                 full) -> Outcome:
    """Outcome of "dividend == 0 mod modulus", decided by the dividend's residues.

    residues[d] is the dividend modulo Phi_d^e, asserted the modulus as a
    factorization (d -> e) and modulus its expansion, and degree the
    dividend's (-inf for zero).  A nonzero asserted residue runs the
    exact division of full(), the dividend, for the witness.
    """
    if not _divides_by(residues, asserted):
        return _congruence(claim_id, params, full(), modulus, note)
    degree = max(degree - modulus.degree, -1)  # -1 for a zero dividend
    return Outcome(TheoremCase(claim_id, params, modulus, note), True, None, degree)


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
    return _timed(_thm1("thm1", n, variant, exponent_budget))


def _thm1(
    claim_id: str, n: int, variant="per_prime", exponent_budget=DEFAULT_EXPONENT_BUDGET
) -> Iterator[Outcome]:
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
    # nu_p(S) == gamma is decided by S mod p^(gamma+1): a nonzero residue
    # has the valuation of S, so the note prints the exact nu_p(S); a zero
    # one proves nu_p(S) >= gamma + 1, a failed check with no exact nu to
    # witness.  The checks at one r share one residue, modulo the product
    # of their p^(gamma+1) (full_modulus checks one r at every prime).
    moduli: dict[int, int] = {}
    for p, gamma, r in checks:
        moduli[r] = moduli.get(r, 1) * p ** (gamma + 1)
    residues: dict[int, int] = {}
    for p, gamma, r in checks:
        if r not in residues:
            residues[r] = sums.alt_power_sum_mod(n, r, moduli[r])
        value = residues[r] % p ** (gamma + 1)
        params = {"n": n, "variant": variant, "p": p, "r": r}
        if not value:
            note = f"nu_{p}(sum)>={gamma + 1}, expected gamma={gamma}"
            yield Outcome(TheoremCase(claim_id, params, IntPoly(p**gamma), note), False)
            continue
        note = "nu_{p}(sum)={nu}, expected gamma={expected}"
        yield _valuation(claim_id, params, value, p, gamma, note, exact=True)


# -- sharpened q-moduli for the triple sums ---------------------------------------


def verify_thm2(n: int, r: int, s: int, t: int, claim: str) -> VerificationReport:
    """Check the sharpened modulus for one triple-sum instance.

    With a = nu_2(n) and b = nu_3(n) the asserted moduli are

      t2c1  [2]_{q^{2^a}} * qb(6n, n)
      t2c2  [2]_{q^{2^a}} * [3]_{q^{3^b}} * qb(6n, 3n)
      t2c3  [2] over q^{2^a} / q^{2^(a+1)} / q^{2^(a+2)} -- picked by the
            exponent guards in their stated order -- times qb(8n, 3n)

    The family and the base q-binomial modulus are those of cj2c1q..cj2c3q.
    t2c2 asserts the modulus the case analysis actually produces (the
    three-factor carried at q^{3^b}); the printed form with [3] at
    q^{2^a} is checked too and recorded in the note, never asserted.
    t2c3 with no guard satisfied is reported as not applicable.
    """
    return run_case(claim, {"n": n, "r": r, "s": s, "t": t})[0]


def _thm2(claim_id: str, n: int, r: int, s: int, t: int) -> Iterator[Outcome]:
    if min(n, r, s, t) < 1:
        raise InvalidArgument(f"requires n, r, s, t >= 1, got ({n}, {r}, {s}, {t})")
    params = {"n": n, "r": r, "s": s, "t": t}
    family, _, base = _CONJ2[claim_id.replace("t2", "cj2") + "q"]
    alpha = nu_p_int(n, 2).value
    # [2]_{q^(2^a)} = Phi_{2^(a+1)} and [3]_{q^(3^b)} = Phi_{3^(b+1)}; the
    # printed [3] at q^(2^a) is prod_{j<=a} Phi_{3*2^j}
    two = {2 ** (alpha + 1): 1}
    printed = None
    if claim_id == "t2c1":
        factor, note = two, f"alpha={alpha}"
    elif claim_id == "t2c2":
        beta = nu_p_int(n, 3).value
        factor = {**two, 3 ** (beta + 1): 1}
        printed = {**two, **{3 * 2**j: 1 for j in range(alpha + 1)}}
        note = f"alpha={alpha}, beta={beta}; printed-form modulus with [3] at q^(2^alpha)"
    else:
        window = 2 ** (alpha + 2)
        if t >= 2:
            step, branch = alpha, "t >= 2"
        elif s >= 2 or (r >= 2 and n % window == 3 * 2**alpha):
            step, branch = alpha + 1, "s >= 2, or r >= 2 with n = 3*2^a mod 2^(a+2)"
        elif r >= 2 and n % window == 2**alpha:
            step, branch = alpha + 2, "r >= 2 with n = 2^a mod 2^(a+2)"
        else:
            note = "not applicable: no branch guard matched"
            yield Outcome(TheoremCase(claim_id, params, None, note), None)
            return
        factor = {2 ** (step + 1): 1}
        note = f"alpha={alpha}; branch: {branch}; two-factor at q^(2^{step})"
    yield _q_triple(claim_id, params, family, base(n), factor, note, printed)


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
    return run_case("lemmas", {"n": n, "p": p, "r": r})


def _lemmas(claim_id: str, n: int, p: int, r: int) -> Iterator[Outcome]:
    """The outcomes of lemma21..lemma24, each under its own claim id."""
    if n < 1 or r < 1:
        raise InvalidArgument(f"requires n, r >= 1, got n={n}, r={r}")
    gamma = nu_p_binom(2 * n, n, p).value  # raises for a p that is not prime

    coprime = sums.alt_power_sum_filtered(n, 2, p, "p_ndivides")
    note = "exponent fixed at 2; nu_{p}={nu}, gamma={expected}"
    yield _valuation("lemma21", {"n": n, "p": p}, coprime, p, gamma, note, exact=True)

    divisible_part = sums.alt_power_sum_filtered(n, r, p, "p_divides")
    params = {"n": n, "p": p, "r": r}
    yield _valuation("lemma22", params, divisible_part, p, r - 1 + gamma, _BOUND, exact=False)

    h = _pattern_height(n, p)
    powers = {p**a: cyclo.cyclotomic_power(p**a, r).coeffs for a in range(1, h + 1)}
    for size in range(1, h + 1):
        for subset in combinations(range(1, h + 1), size):
            params = {"n": n, "p": p, "r": r, "I": list(subset)}
            value = sums.pattern_sum(n, r, p, subset, "integer")
            bound = (r - 1) * len(subset) + gamma
            yield _valuation("lemma23", params, value, p, bound, _BOUND, exact=False)

            dividend = sums.pattern_sum(n, r, p, subset, "q")
            # Phi_{p^a}^r for a in I, and Phi_{p^b} for each carry b outside I
            factors = {p**a: r for a in subset}
            factors.update((p**b, 1) for b in range(1, h + 1)
                           if b not in subset and qcomb._carry_at(2 * n, n, p**b))
            residues = {d: cyclo.residue(dividend.coeffs, d, e, powers[d] if e == r else None)
                        for d, e in factors.items()}
            yield _by_residues("lemma24", dict(params), residues, factors,
                               cyclo.expand(CycloFactorization(factors)), "",
                               dividend.degree, lambda: dividend)


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
    return run_case("conj1_window", {"n": n, "m": m, "w": w})[0]


def _gcd_window(claim_id: str, n: int, m: int, w: int) -> Iterator[Outcome]:
    g, central_divides = gcd_window(n, m, w)
    note = f"evidence, not proof (finite window r={m}..{m + w - 1}); gcd={g}"
    case = TheoremCase(claim_id, {"n": n, "m": m, "w": w}, IntPoly(binom(2 * n, n)), note)
    yield Outcome(case, central_divides)


def verify_qlucas(d: int, x1: int, x2: int, y1: int, y2: int) -> VerificationReport:
    return run_case("qlucas", {"d": d, "x1": x1, "x2": x2, "y1": y1, "y2": y2})[0]


def _qlucas(claim_id: str, d: int, x1: int, x2: int, y1: int, y2: int) -> Iterator[Outcome]:
    holds = qcomb.qlucas_check(d, x1, x2, y1, y2)
    params = {"d": d, "x1": x1, "x2": x2, "y1": y1, "y2": y2}
    yield Outcome(TheoremCase(claim_id, params, cyclo.cyclotomic(d)), holds)


# -- dispatch ------------------------------------------------------------------------

# claim id -> generator of its outcomes, called as build(claim_id, **params)
_CLAIMS: dict[str, Callable[..., Iterator[Outcome]]] = {
    "eq1": partial(_closed_form, power=2),
    "eq2": partial(_closed_form, power=3),
    "calkin": _calkin,
    "gjz": _gjz,
    "gjzq": _gjzq,
    **dict.fromkeys(_CONJ2, _conj2),
    "thm1": _thm1,
    **dict.fromkeys(("t2c1", "t2c2", "t2c3"), _thm2),
    "lemmas": _lemmas,
    "conj1_window": _gcd_window,
    "qlucas": _qlucas,
}


def run_case(claim_id: str, params: dict) -> list[VerificationReport]:
    """Run one claim instance by id; always returns a list of reports.

    The only dispatcher but verify_thm1's.  A case whose exponent exceeds
    its budget is reported as not evaluated (holds None) instead of
    raising InfeasibleScale, so that it does not sink the rest of a sweep.
    """
    return _timed(_case(claim_id, params))


def _case(claim_id: str, params: dict) -> Iterator[Outcome]:
    if claim_id not in _CLAIMS:
        raise InvalidArgument(f"unknown claim id {claim_id!r}")
    try:
        yield from _CLAIMS[claim_id](claim_id, **params)
    except InfeasibleScale as exc:
        yield Outcome(TheoremCase(claim_id, params, None, f"not evaluated: {exc}"), None)
