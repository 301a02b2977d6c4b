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
from ._kernels_py import divexact_steps
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
    intermediate degree exceeds k(n-k) + m.  The coefficients of every
    qb(n, j) a walk passes are kept in the row store (_RowStore, line n)
    while its budget holds them, so a q-binomial not yet built is walked
    on from the highest stored qb(n, j), j < m, and each step is taken
    once in whatever order the requests come.  qb(n, k) and qb(n, n-k)
    are the same cached object.

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


# qbinom's cache serves the printed moduli, the full q sums and the
# witnesses they give, the inspect command, and the q-binomial oracle.
_QBINOMS = 1 << 10


@functools.lru_cache(maxsize=_QBINOMS)
def _qbinom_product(n: int, k: int) -> IntPoly:
    def step(coeffs: tuple[int, ...], j: int) -> tuple[tuple[int, ...], int]:
        coeffs = tuple(_qbinom_steps(coeffs, n, j, j + 1))
        return coeffs, len(coeffs) + 1

    entry = _ROWS.walk(n, k, ((1,), 2), step)
    poly = IntPoly(entry[0])
    entry[0], entry[2] = poly.coeffs, True  # one tuple for the store and the q-binomial
    return poly


def _qbinom_steps(coeffs: list[int], n: int, j: int, k: int) -> list[int]:
    """qb(n, k) from coeffs = qb(n, j), j <= k, by the product formula's steps.

    Step i + 1 multiplies by q^(n-i) - 1 and divides exactly by q^(i+1) - 1.
    """
    try:
        for i in range(j, k):
            coeffs = divexact_qm1(mul_qm1(coeffs, n - i), i + 1)
    except NotDivisible as exc:  # the product formula always divides exactly
        raise RuntimeError(
            f"internal invariant violated: q-binomial({n},{k}) step was inexact"
        ) from exc
    return coeffs


def qbinom_factored(n: int, k: int) -> CycloFactorization:
    """The q-binomial as its squarefree cyclotomic factorization.

    >>> str(qbinom_factored(4, 2))
    'Phi_3 * Phi_4'
    """
    if n < 0 or k < 0 or k > n:
        raise InvalidArgument(f"qbinom_factored requires 0 <= k <= n, got n={n}, k={k}")
    return CycloFactorization({d: 1 for d in dset(n, k)})


# -- residues modulo Phi_d^e ----------------------------------------------------
#
# Two independent routes to the residue of a q-binomial modulo a power of
# a cyclotomic polynomial, both ending in the long division that decides
# divisibility in polycore (divexact_steps).
#
#   q-Pascal rows   qb(n, k) = qb(n-1, k-1) + q^k qb(n-1, k), every entry
#                   reduced modulo Phi_d^e (_row_mod).  For
#                   e = 1, q^k is applied as a shift by k mod d, since
#                   q^d == 1 modulo Phi_d; for e >= 2 the shift is by k.
#   q-Lucas         qb(x1 d + x2, y1 d + y2) == C(x1, y1) qb(x2, y2)
#                   modulo Phi_d, with the residue of the small qb(x2, y2)
#                   taken from an actual q-binomial, walked by the
#                   product formula and reduced by cyclo.residue
#                   (_digit_residue).  Reduction modulo a monic
#                   polynomial is Z-linear, so the scale C(x1, y1) is
#                   applied to the residue.
#
# The q-Pascal rows live in the row store beside the product-formula
# rows of qbinom, under one budget: line (d, e) holds the rows modulo
# Phi_d^e, line n the q-binomials qb(n, k).  The q-Lucas digits keep
# their own per-x cursors, which hold one q-binomial each and go through
# neither the store nor qbinom's cache.
#
# qlucas_check compares the two, so they share no code path above the
# division.  The sums' residue path (sums.triple_sum(..., modulo=F)) takes
# q-Lucas for the simple factors of F and the rows for the repeated ones.
# qlucas_check and the residue path both read the rows from _row_mod.
# _qbinom_mod, a cache over the same rows, is on no path of the package:
# its only reader is perfbench/spans.py, which reads its cache_info().

Row = tuple[tuple[int, ...], ...]


class _RowStore:
    """Walked entries by (line, i), each as [value, units, asked].

    A line is a sequence of values that each follow from the one before:
    the product-formula row n, whose entry i is the coefficient tuple of
    qb(n, i) (_qbinom_product), or the q-Pascal rows modulo Phi_d^e, line
    (d, e), whose entry i is row i (_row_mod).  Every entry built is kept
    while the entries hold at most budget units (a coefficient or an
    entry each, mirrored row entries counted once).  Over the budget the
    oldest entries go, those that were only walked through before those
    that were asked for, and of the walked-through ones first those of
    the line being walked, so that a long walk of large q-binomials does
    not flush the rows that other walks passed; the entry being walked
    to stays.  A missing entry is walked up from the highest stored entry
    of the same line below it (entry 0 when there is none), so an entry
    is built once in whatever order the requests come while the store
    holds it.  Walks run under the lock, so concurrent callers never see
    a half-built entry.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.units = 0
        self.entries: dict[tuple, list] = {}
        self.lock = threading.Lock()

    def walk(self, line, i: int, first: tuple, step) -> list:
        """The entry (line, i), built if it is missing.

        first is (value, units) of entry 0, and step(value, j) gives
        (value, units) of entry j + 1 from the value of entry j.
        """
        target = line, i
        with self.lock:
            if target not in self.entries:
                j = next((j for j in range(i - 1, 0, -1) if (line, j) in self.entries), 0)
                value = self.entries[line, j][0] if j else first[0]
                if i == 0:
                    self._put(target, *first, target)
                for j in range(j, i):
                    value, units = step(value, j)
                    self._put((line, j + 1), value, units, target)
            return self.entries[target]

    def _put(self, key, value, units: int, target) -> None:
        self.entries[key] = [value, units, key == target]
        self.units += units
        if self.units <= self.budget:
            return
        walked = [k for k, entry in self.entries.items() if not entry[2] and k != target]
        asked = [k for k, entry in self.entries.items() if entry[2] and k != target]
        line = target[0]
        for old in [k for k in walked if k[0] == line] + [k for k in walked if k[0] != line] + asked:
            self.units -= self.entries.pop(old)[1]
            if self.units <= self.budget:
                return


# Every qb(n, k) with n <= 45 takes 92k units, and the rows modulo Phi_d,
# d <= 12, that q-Lucas checks with x1, y1 < 7 read take 25k more: the
# product-formula and the q-Pascal rows of the q-binomial oracle fit
# together in 2^17 units, not in 2^16.
_ROW_BUDGET = 1 << 17
_ROWS = _RowStore(_ROW_BUDGET)


def _next_row(prev: Row, d: int, e: int, mod) -> Row:
    """Row n = len(prev) from row n - 1, modulo mod = Phi_d^e.

    Only the entries k <= n/2 are computed; the rest mirror them, since
    qb(n, k) = qb(n, n - k), and are the same tuple objects.
    """
    n = len(prev)
    half = [(1,)]
    for k in range(1, n // 2 + 1):
        lower = (0,) * (k % d if e == 1 else k) + prev[k]
        both = [a + b for a, b in zip_longest(prev[k - 1], lower, fillvalue=0)]
        half.append(tuple(divexact_steps(both, mod)[1]))
    return tuple(half + [half[n - k] for k in range(n // 2 + 1, n + 1)])


def _row_mod(n: int, d: int, e: int) -> Row:
    """The q-Pascal row n modulo Phi_d^e, asked for in any order."""
    entry = _ROWS.entries.get(((d, e), n))  # a stored row: no lock
    if entry is None:
        mod = cyclo.cyclotomic_power(d, e).coeffs

        def step(row: Row, j: int) -> tuple[Row, int]:
            row = _next_row(row, d, e, mod)
            half = row[: len(row) // 2 + 1]
            return row, sum(map(len, half)) + len(half)

        entry = _ROWS.walk((d, e), n, (((1,),), 2), step)
    entry[2] = True
    return entry[0]


@functools.lru_cache(maxsize=1 << 12)
def _qbinom_mod(n: int, k: int, d: int, e: int = 1) -> tuple[int, ...]:
    """Residue of the q-binomial (n, k) modulo Phi_d^e, from q-Pascal rows."""
    if k < 0 or k > n:
        return ()
    return _row_mod(n, d, e)[k]


# x -> (y, coefficients of qb(x, y)): the product formula walked along
# y, at most _MAX_CURSORS of them, the least recently used dropped first.
# Only the reduced residues are cached (_folded_residue); the cursors
# hold the one q-binomial each that the next step starts from.
_CURSORS: dict[int, tuple[int, list[int]]] = {}
_CURSORS_LOCK = threading.Lock()
_MAX_CURSORS = 4


def _digit_residue(d: int, x: int, y: int) -> tuple[int, ...]:
    """Residue of the q-binomial (x, y) modulo Phi_d, from the product formula.

    The q-binomial is reduced by cyclo.residue: folded modulo q^d - 1,
    which Phi_d divides, and the fold divided by Phi_d.  The residues are
    cached (bounded), qb(x, y) and qb(x, x - y) as one entry, so that
    equal residues are one tuple object.  Empty (zero) outside 0 <= y <= x.
    """
    if y < 0 or y > x:
        return ()
    return _folded_residue(d, x, min(y, x - y))


@functools.lru_cache(maxsize=1 << 12)
def _folded_residue(d: int, x: int, y: int) -> tuple[int, ...]:
    return tuple(cyclo.residue(_cursor_qbinom(x, y), d))


def _cursor_qbinom(x: int, y: int) -> list[int]:
    """qb(x, y) = qb(x, x - y), y <= x/2, walked on from the cursor of x.

    The cursor steps on to whichever of y and x - y is ahead of it, unless
    starting again from qb(x, 0) takes fewer steps; a request behind it
    on both counts starts again.
    """
    with _CURSORS_LOCK:
        at, coeffs = _CURSORS.pop(x, (0, [1]))
        target = y if y >= at else x - y
        if target < at or target - at > y:
            at, coeffs, target = 0, [1], y
        coeffs = _qbinom_steps(coeffs, x, at, target)
        _CURSORS[x] = (target, coeffs)  # most recently used last
        while len(_CURSORS) > _MAX_CURSORS:
            del _CURSORS[next(iter(_CURSORS))]
    return coeffs


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
    n, k = x1 * d + x2, y1 * d + y2
    lhs = _row_mod(n, d, 1)[k] if k <= n else ()
    scale = binom(x1, y1)
    residue = _digit_residue(d, x2, y2) if scale else ()
    return lhs == (residue if scale == 1 else tuple(map(scale.__mul__, residue)))


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
