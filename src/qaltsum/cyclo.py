"""Cyclotomic polynomials, q-integers and factored cyclotomic products.

Phi_d = prod_{e | d} (q^e - 1)^mu(d/e) (Arnold & Monagan, Math. Comp. 80,
2011): the factors with mu = 1 are multiplied up by polycore's q^m - 1
step, and the product is divided exactly by each two-term factor with
mu = -1 in turn.  Results are memoized; two threads racing to fill the
same cache entry simply duplicate an idempotent computation.
cyclotomic_power builds Phi_d^e from the e-th powers of the factors, a
sparse divisor of e + 1 terms each, and does not memoize e >= 2.

residue, the reduction behind the q-Lucas residues, the triple sum's
residue path and verify's q-congruences, uses that Phi_d^e divides
(q^d - 1)^e: e divisions by q^d - 1 give the lowest e base-(q^d - 1)
digits (polycore.divmod_qm1; the last digit is the fold, the sum over
each residue class of exponents mod d), Horner's rule puts them back
together below degree d e, and one long division by Phi_d^e finishes.

For prime powers there is also the direct construction
Phi_{p^a} = 1 + q^{p^(a-1)} + ... + q^{(p-1) p^(a-1)}, i.e. the
q-integer [p] evaluated at q^{p^(a-1)}; prime_power_form returns that
without touching the cache and must agree with cyclotomic(p**a)
bit-exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import zip_longest
from typing import Mapping

from ._kernels_py import divexact_steps
from .polycore import (IntPoly, InvalidArgument, divexact, divexact_qm1, divmod_qm1, mul_qm1,
                       product)

__all__ = [
    "CycloFactorization",
    "cyclotomic",
    "cyclotomic_power",
    "expand",
    "is_prime",
    "prime_power_form",
    "q_int",
    "residue",
]


def is_prime(n: int) -> bool:
    """Deterministic trial division; inputs here stay well below 10**6."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def q_int(n: int, step: int = 1) -> IntPoly:
    """The q-integer [n] in the variable q**step.

    [n] = 1 + q + ... + q^(n-1); with step e the terms sit at exponents
    0, e, ..., (n-1)e.

    >>> str(q_int(3))
    '1 + q + q^2'
    >>> str(q_int(2, step=4))
    '1 + q^4'
    """
    if n < 1 or step < 1:
        raise InvalidArgument(f"q_int requires n >= 1 and step >= 1, got n={n}, step={step}")
    return IntPoly(divexact_qm1(mul_qm1([1], n * step), step))


@functools.cache
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial, of degree phi(d).

    >>> str(cyclotomic(1))
    '-1 + q'
    >>> str(cyclotomic(6))
    '1 - q + q^2'
    """
    return _cyclotomic_power(d, 1)


def cyclotomic_power(d: int, e: int) -> IntPoly:
    """Phi_d^e for e >= 1: the cached cyclotomic(d) for e = 1.

    A higher power is built the same way as Phi_d and not cached: the
    product of the factors (q^m - 1)^e with mu = 1, divided exactly by
    each (q^m - 1)^e with mu = -1.

    >>> cyclotomic_power(6, 2) == cyclotomic(6) ** 2
    True
    """
    if e < 1:
        raise InvalidArgument(f"cyclotomic power must be >= 1, got {e}")
    return cyclotomic(d) if e == 1 else _cyclotomic_power(d, e)


def _cyclotomic_power(d: int, e: int) -> IntPoly:
    if d < 1:
        raise InvalidArgument(f"cyclotomic index must be positive, got {d}")
    factors = [(d, 1)]  # (m, mu(d/m)) for every m with d/m squarefree
    for p in range(2, d + 1):
        if d % p == 0 and is_prime(p):
            factors += [(m // p, -mu) for m, mu in factors]
    power = IntPoly(functools.reduce(mul_qm1, [m for m, mu in factors if mu > 0] * e, [1]))
    # the largest first, so that each division shortens what the next passes over
    for m in sorted([m for m, mu in factors if mu < 0], reverse=True):
        power = divexact(power, IntPoly(functools.reduce(mul_qm1, [m] * e, [1])))
    return power


def residue(coeffs, d: int, e: int = 1, mod=None) -> list[int]:
    """The coefficient list coeffs modulo Phi_d^e, canonical (module docstring).

    mod is Phi_d^e's coefficients, built by cyclotomic_power when omitted
    (cached only for e = 1).

    Below degree d e the base-(q^d - 1) digits put back together are
    coeffs itself, so a list of at most d e coefficients goes straight to
    the long division.

    >>> residue([1, 2, 3, 4, 5], 3), residue([1, 2, 3, 4, 5], 2, 2)
    ([2, 4], [-9, -12])
    """
    if mod is None:
        mod = cyclotomic_power(d, e).coeffs
    if len(coeffs) <= d * e:
        return divexact_steps(coeffs, mod)[1]
    digits = []
    for _ in range(e - 1):
        coeffs, digit = divmod_qm1(coeffs, d)
        digits.append(digit)
    low = [sum(coeffs[i::d]) for i in range(min(d, len(coeffs)))]  # the top digit: the fold
    for digit in reversed(digits):
        low = [a + b for a, b in zip_longest(mul_qm1(low, d), digit, fillvalue=0)]
    return divexact_steps(low, mod)[1]


def prime_power_form(p: int, alpha: int) -> IntPoly:
    """Phi_{p^alpha} as the q-integer [p] in q**(p^(alpha-1)).

    >>> prime_power_form(2, 3) == cyclotomic(8)
    True
    """
    if not is_prime(p):
        raise InvalidArgument(f"{p} is not prime")
    if alpha < 1:
        raise InvalidArgument(f"exponent must be >= 1, got {alpha}")
    return q_int(p, step=p ** (alpha - 1))


@dataclass(frozen=True)
class CycloFactorization:
    """A product of cyclotomic polynomials, kept unexpanded.

    Maps each index d >= 1 to its multiplicity >= 1; an absent index has
    multiplicity zero.  The empty factorization is the constant 1.
    """

    factors: Mapping[int, int]

    def __post_init__(self):
        for d, m in self.factors.items():
            if d < 1 or m < 1:
                raise InvalidArgument(
                    f"factor Phi_{d}^{m}: index and multiplicity must be >= 1"
                )

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for d in sorted(self.factors):
            m = self.factors[d]
            parts.append(f"Phi_{d}" if m == 1 else f"Phi_{d}^{m}")
        return " * ".join(parts)

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloFactorization):
            return dict(self.factors) == dict(other.factors)
        return NotImplemented


def expand(f: CycloFactorization) -> IntPoly:
    """Exact expanded product of a cyclotomic factorization.

    One call of polycore.product on the cached Phi_d, each repeated by its
    multiplicity, which keeps the slots narrow although the Phi_d have
    negative coefficients.  Since they are the same tuples on every call,
    product packs each of them once per slot width.

    >>> str(expand(CycloFactorization({2: 1, 3: 1})))
    '1 + 2*q + 2*q^2 + q^3'
    """
    return IntPoly(product(
        [cyclotomic(d).coeffs for d, m in sorted(f.factors.items()) for _ in range(m)]
    ))
