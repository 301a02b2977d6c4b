"""Carry sets, binomial and q-binomial coefficients, p-adic valuations.

The carry set D(n, k) collects the moduli d in [2, n] at which adding k
and n-k produces a floor-sum defect: floor(n/d) > floor(k/d) +
floor((n-k)/d).  For d = p^a this detects a carry in base-p addition, and
the q-binomial coefficient factors as the product of Phi_d over exactly
the members of D(n, k) -- the two constructions (product formula here,
cyclotomic expansion in cyclo) are kept as permanent mutual oracles.

Boundary conventions follow the q-binomial definition: any integer k is
accepted, with binom and qbinom returning 0 (and dset returning the
empty set) outside 0 <= k <= n, so summation loops over symmetric index
ranges need no special-casing.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterator, Union

from . import cyclo
from .cyclo import CycloFactorization, is_prime
from .polycore import ZERO, IntPoly, InvalidArgument, NotDivisible, divexact_qm1, mul_qm1

__all__ = [
    "DSet",
    "ValuationRecord",
    "binom",
    "dset",
    "euler_phi",
    "nu_p_binom",
    "nu_p_int",
    "qbinom",
    "qbinom_factored",
    "qlucas_check",
]

INFINITE = float("inf")


@dataclass(frozen=True)
class DSet:
    """The carry set D(n, k) with its defining parameters."""

    n: int
    k: int
    members: tuple[int, ...]

    def __contains__(self, d: int) -> bool:
        return d in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return "{" + ", ".join(str(d) for d in self.members) + "}"


def dset(n: int, k: int) -> DSet:
    """Carry set by direct scan of d in [2, n]; empty outside 0 < k < n."""
    if n < 0:
        raise InvalidArgument(f"dset requires n >= 0, got {n}")
    if k <= 0 or k >= n:
        return DSet(n, k, ())
    members = tuple(
        d for d in range(2, n + 1) if n // d > k // d + (n - k) // d
    )
    return DSet(n, k, members)


def _carry_at(n: int, k: int, d: int) -> bool:
    """Membership test d in D(n, k) without building the whole set."""
    if k < 0 or k > n or d < 2 or d > n:
        return False
    return n // d > k // d + (n - k) // d


def binom(n: int, k: int) -> int:
    """C(n, k), with 0 outside 0 <= k <= n.

    >>> binom(4, 2), binom(2, -1), binom(3, 5)
    (6, 0, 0)
    """
    if n < 0:
        raise InvalidArgument(f"binom requires n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def qbinom(n: int, k: int) -> IntPoly:
    """Gaussian binomial coefficient as an exact polynomial.

    Built from the product formula prod_{j=1..m} (q^(n+1-j) - 1)/(q^j - 1)
    with m = min(k, n-k), by the symmetry qb(n, k) = qb(n, n-k), and each
    division performed immediately.  Step j leaves qb(n, j), of degree
    j(n-j), and its multiplication reaches degree j(n+1-j), so no
    intermediate degree exceeds k(n-k) + m.  qb(n, k) and qb(n, n-k) are
    the same cached object.

    >>> str(qbinom(4, 2))
    '1 + q + 2*q^2 + q^3 + q^4'
    >>> qbinom(3, 5)
    IntPoly('0')
    """
    if n < 0:
        raise InvalidArgument(f"qbinom requires n >= 0, got {n}")
    if k < 0 or k > n:
        return ZERO
    return _qbinom_product(n, min(k, n - k))


@functools.lru_cache(maxsize=None)
def _qbinom_product(n: int, k: int) -> IntPoly:
    coeffs = [1]
    try:
        for j in range(1, k + 1):
            coeffs = divexact_qm1(mul_qm1(coeffs, n + 1 - j), j)
    except NotDivisible as exc:  # the product formula always divides exactly
        raise RuntimeError(
            f"internal invariant violated: q-binomial({n},{k}) step was inexact"
        ) from exc
    return IntPoly(coeffs)


def qbinom_factored(n: int, k: int) -> CycloFactorization:
    """The q-binomial as its squarefree cyclotomic factorization.

    >>> str(qbinom_factored(4, 2))
    'Phi_3 * Phi_4'
    """
    if n < 0 or k < 0 or k > n:
        raise InvalidArgument(f"qbinom_factored requires 0 <= k <= n, got n={n}, k={k}")
    return CycloFactorization({d: 1 for d in dset(n, k)})


# -- q-Lucas reduction ---------------------------------------------------------
#
# qlucas_check compares residues modulo Phi_d.  The left side reads q-Pascal
# rows kept modulo Phi_d, built in a loop with q^k applied as a shift by
# k mod d (q^d == 1 mod Phi_d) and _reduce_mod; the right side reduces an
# actual product-formula q-binomial, so the two never share a code path.
# Reduction modulo a monic polynomial is Z-linear, so the right side
# reduces qbinom(x2, y2) and scales the residue by C(x1, y1).


def _reduce_mod(coeffs: tuple[int, ...], mod: tuple[int, ...]) -> tuple[int, ...]:
    """Remainder of coeffs modulo a monic polynomial, as a trimmed tuple."""
    nm = len(mod)
    out = list(coeffs)
    for i in range(len(out) - nm, -1, -1):
        c = out[i + nm - 1]
        if not c:
            continue
        for j in range(nm - 1):
            if mod[j]:
                out[i + j] -= c * mod[j]
        out[i + nm - 1] = 0
    n = min(len(out), nm - 1)
    while n and out[n - 1] == 0:
        n -= 1
    return tuple(out[:n])


# d -> q-Pascal rows 0..n modulo Phi_d, extended under the lock so that
# concurrent callers never append the same row twice.
_ROWS: dict[int, list[tuple[tuple[int, ...], ...]]] = {}
_ROWS_LOCK = threading.Lock()


@functools.lru_cache(maxsize=None)
def _qbinom_mod(n: int, k: int, d: int) -> tuple[int, ...]:
    """Residue of the q-binomial (n, k) modulo Phi_d, from q-Pascal rows."""
    if k < 0 or k > n:
        return ()
    mod = cyclo.cyclotomic(d).coeffs
    with _ROWS_LOCK:
        rows = _ROWS.setdefault(d, [((1,),)])
        while len(rows) <= n:
            prev = rows[-1]
            row = [(1,)]
            for j in range(1, len(prev)):
                lower = (0,) * (j % d) + prev[j]
                both = [a + b for a, b in zip_longest(prev[j - 1], lower, fillvalue=0)]
                row.append(_reduce_mod(both, mod))
            rows.append(tuple(row) + ((1,),))
    return rows[n][k]


def qlucas_check(d: int, x1: int, x2: int, y1: int, y2: int) -> bool:
    """Check one instance of the q-analogue of Lucas' congruence.

    True iff the q-binomial (x1*d + x2, y1*d + y2) is congruent to
    C(x1, y1) times the q-binomial (x2, y2) modulo Phi_d.
    """
    if d < 2:
        raise InvalidArgument(f"qlucas_check requires d >= 2, got {d}")
    if not (0 <= x2 < d and 0 <= y2 < d):
        raise InvalidArgument(f"digit parts must satisfy 0 <= x2, y2 < {d}")
    if x1 < 0 or y1 < 0:
        raise InvalidArgument("quotient parts must be nonnegative")
    lhs = _qbinom_mod(x1 * d + x2, y1 * d + y2, d)
    scale = binom(x1, y1)
    residue = _reduce_mod(qbinom(x2, y2).coeffs, cyclo.cyclotomic(d).coeffs) if scale else ()
    return lhs == tuple(scale * c for c in residue)


# -- valuations ----------------------------------------------------------------


@dataclass(frozen=True)
class ValuationRecord:
    """A p-adic valuation; value is +inf exactly for the valuation of 0."""

    p: int
    value: Union[int, float]

    @property
    def is_infinite(self) -> bool:
        return self.value == INFINITE


def nu_p_binom(n: int, k: int, p: int) -> ValuationRecord:
    """Valuation of C(n, k) at p as the count of p-power carries.

    Counts the a >= 1 with p**a in D(n, k); agreement with the Legendre
    floor-sum is a standing test-suite invariant.

    >>> nu_p_binom(10, 5, 3).value
    2
    """
    if not is_prime(p):
        raise InvalidArgument(f"{p} is not prime")
    count = 0
    power = p
    while power <= n:
        if _carry_at(n, k, power):
            count += 1
        power *= p
    return ValuationRecord(p, count)


def nu_p_int(m: int, p: int) -> ValuationRecord:
    """Largest e with p**e dividing m; +inf for m = 0.

    >>> nu_p_int(90, 3).value
    2
    >>> nu_p_int(0, 7).is_infinite
    True
    """
    if not is_prime(p):
        raise InvalidArgument(f"{p} is not prime")
    if m == 0:
        return ValuationRecord(p, INFINITE)
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return ValuationRecord(p, e)


def euler_phi(n: int) -> int:
    """Euler's totient via trial-division factorization.

    >>> euler_phi(12)
    4
    """
    if n < 1:
        raise InvalidArgument(f"euler_phi requires n >= 1, got {n}")
    result = n
    rest = n
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            result -= result // d
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        result -= result // rest
    return result
