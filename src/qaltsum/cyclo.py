"""Cyclotomic polynomials, q-integers and factored cyclotomic products.

Phi_d = prod_{e | d} (q^e - 1)^mu(d/e) (Arnold & Monagan, Math. Comp. 80,
2011): the factors with mu = 1 and those with mu = -1 are multiplied up by
polycore's q^m - 1 step, and one exact division of the two proves the
result.  Results are memoized; two threads racing to fill the same cache
entry simply duplicate an idempotent computation.

For prime powers there is also the direct construction
Phi_{p^a} = 1 + q^{p^(a-1)} + ... + q^{(p-1) p^(a-1)}, i.e. the
q-integer [p] evaluated at q^{p^(a-1)}; prime_power_form returns that
without touching the cache and must agree with cyclotomic(p**a)
bit-exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

from .polycore import IntPoly, InvalidArgument, divexact, divexact_qm1, mul_qm1, product

__all__ = [
    "CycloFactorization",
    "cyclotomic",
    "expand",
    "is_prime",
    "prime_power_form",
    "q_int",
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
    if d < 1:
        raise InvalidArgument(f"cyclotomic index must be positive, got {d}")
    factors = [(d, 1)]  # (e, mu(d/e)) for every e with d/e squarefree
    for p in range(2, d + 1):
        if d % p == 0 and is_prime(p):
            factors += [(e // p, -mu) for e, mu in factors]
    num = functools.reduce(mul_qm1, [e for e, mu in factors if mu > 0], [1])
    den = functools.reduce(mul_qm1, [e for e, mu in factors if mu < 0], [1])
    return divexact(IntPoly(num), IntPoly(den))


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
    negative coefficients.

    >>> str(expand(CycloFactorization({2: 1, 3: 1})))
    '1 + 2*q + 2*q^2 + q^3'
    """
    return IntPoly(product(
        [cyclotomic(d).coeffs for d, m in sorted(f.factors.items()) for _ in range(m)]
    ))
