"""Exact q-binomial and cyclotomic arithmetic with a congruence verifier.

The package constructs q-binomial coefficients and cyclotomic polynomials
over the integers, evaluates the classical families of alternating
binomial sums (plain power sums, carry-pattern-restricted sums, cyclic
multi-factor sums, and three-factor sums) in both integer and polynomial
form, and verifies the known identities, congruences and valuation
statements about them instance by instance.  See the qaltsum CLI for
batch verification sweeps.
"""

from ._kernels import BACKEND
from .cyclo import CycloFactorization, cyclotomic, expand, prime_power_form, q_int
from .polycore import (
    CongruenceWitness,
    IntPoly,
    InvalidArgument,
    NotDivisible,
    ZeroPolynomial,
    divexact,
    monomial,
)
from .qcomb import (
    DSet,
    ValuationRecord,
    binom,
    dset,
    euler_phi,
    nu_p_binom,
    nu_p_int,
    qbinom,
    qbinom_factored,
    qlucas_check,
)
from .sums import alt_power_sum, alt_power_sum_filtered, gjz_sum, pattern_sum, triple_sum
from .verify import (
    InfeasibleScale,
    TheoremCase,
    VerificationReport,
    check_congruence,
    gcd_window,
    verify_gcd_window,
    verify_identity,
    verify_lemmas,
    verify_thm1,
    verify_thm2,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CongruenceWitness",
    "CycloFactorization",
    "DSet",
    "InfeasibleScale",
    "IntPoly",
    "InvalidArgument",
    "NotDivisible",
    "TheoremCase",
    "ValuationRecord",
    "VerificationReport",
    "ZeroPolynomial",
    "alt_power_sum",
    "alt_power_sum_filtered",
    "binom",
    "check_congruence",
    "cyclotomic",
    "divexact",
    "dset",
    "euler_phi",
    "expand",
    "gcd_window",
    "gjz_sum",
    "monomial",
    "nu_p_binom",
    "nu_p_int",
    "pattern_sum",
    "prime_power_form",
    "q_int",
    "qbinom",
    "qbinom_factored",
    "qlucas_check",
    "triple_sum",
    "verify_gcd_window",
    "verify_identity",
    "verify_lemmas",
    "verify_thm1",
    "verify_thm2",
]
