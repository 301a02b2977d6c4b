"""Alternating binomial-sum families, in integer mode and q mode.

Every family sums (-1)^k times a product of (q-)binomial factors over a
symmetric or full index range, the q mode additionally weighted by
q^C(k,2) with C(k,2) = k(k-1)/2.  That weight exponent is nonnegative
for every integer k, negative k included, so the q mode stays inside
Z[q].  Integer mode always computes with plain integers (never by
evaluating the q polynomial), which keeps huge exponents r ~ 10^4
feasible; the q and integer modes agree under evaluation at q = 1, and
the test suite pins that.

Every q-mode sum is evaluated packed, as one call of polycore.packed_sum:
each q-binomial factor f is replaced by the integer f(2^w), each term by
the product of those integers shifted by w*C(k,2), and the signed total
is unpacked into coefficients once.  The slot width w comes from the l1
bound: no coefficient of the sum exceeds sum_k prod l1(f)^e, and for a
q-binomial, whose coefficients are nonnegative, l1(f) = f(1) =
binom(N, K), so the bound is the integer-mode sum of the absolute terms.
One sign bit on top of that bound keeps every coefficient inside its
balanced slot.

Families:

  power       sum_{k=0..2n} (-1)^k C(2n,k)^r
  pattern     the same sum restricted to the k whose base-p addition
              carries at p^a for every a in a prescribed index set I
  gjz         sum_{k=-n1..n1} (-1)^k [q^C(k,2)] prod_i qb(n_i+n_{i+1}, n_i+k)
              over a cyclic composition (n_1, ..., n_h), n_{h+1} = n_1
  triple      sum_{k=-n..n} (-1)^k [q^C(k,2)] qb(A, A/2+k)^r qb(4n, 2n+k)^s
              qb(2n, n+k)^t with A = 6n or 8n
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Optional, Sequence, Union

from .cyclo import is_prime
from .polycore import IntPoly, InvalidArgument, packed_sum
from .qcomb import _carry_at, binom, qbinom

__all__ = [
    "SumSpec",
    "alt_power_sum",
    "alt_power_sum_filtered",
    "gjz_sum",
    "pattern_sum",
    "triple_sum",
]

Mode = Literal["integer", "q"]


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def _weight(k: int) -> int:
    """The exponent k(k-1)/2; a nonnegative integer for every integer k."""
    return k * (k - 1) // 2


def _check_mode(mode: str) -> None:
    if mode not in ("integer", "q"):
        raise InvalidArgument(f"mode must be 'integer' or 'q', got {mode!r}")


def _packed_sum(terms: Iterable[tuple[int, list[tuple[IntPoly, int]]]]) -> IntPoly:
    """sum over (k, factors) of (-1)^k q^C(k,2) prod f^e, evaluated packed.

    factors is a list of (f, e) with f an IntPoly.  Terms with the same
    factors, such as k and -k in the triple sums, share one packed
    product, because qbinom returns one cached object per value.
    """
    return IntPoly(packed_sum(
        (_sign(k), _weight(k), [(f.coeffs, e) for f, e in fs]) for k, fs in terms
    ))


def alt_power_sum(n: int, r: int) -> int:
    """sum_{k=0}^{2n} (-1)^k C(2n, k)^r, exactly.

    >>> alt_power_sum(1, 2), alt_power_sum(2, 3), alt_power_sum(2, 4)
    (-2, 90, 786)
    """
    if n < 1 or r < 1:
        raise InvalidArgument(f"alt_power_sum requires n, r >= 1, got n={n}, r={r}")
    return sum(_sign(k) * binom(2 * n, k) ** r for k in range(2 * n + 1))


def _p_divides(N: int, k: int, p: int) -> bool:
    """p | C(N, k), detected by a base-p carry at some power of p."""
    power = p
    while power <= N:
        if _carry_at(N, k, power):
            return True
        power *= p
    return False


def alt_power_sum_filtered(
    n: int, r: int, p: int, filter: Literal["p_divides", "p_ndivides"]
) -> int:
    """The power sum restricted to the k with p | C(2n,k), or its complement.

    The two filtered halves add up to alt_power_sum(n, r).
    """
    if n < 1 or r < 1:
        raise InvalidArgument(f"requires n, r >= 1, got n={n}, r={r}")
    if not is_prime(p):
        raise InvalidArgument(f"{p} is not prime")
    if filter not in ("p_divides", "p_ndivides"):
        raise InvalidArgument(f"unknown filter {filter!r}")
    want = filter == "p_divides"
    return sum(
        _sign(k) * binom(2 * n, k) ** r
        for k in range(2 * n + 1)
        if _p_divides(2 * n, k, p) == want
    )


def pattern_sum(
    n: int,
    r: int,
    p: int,
    I: Sequence[int],
    mode: Mode = "integer",
) -> Union[int, IntPoly]:
    """Power sum restricted to k carrying at p^a for every a in I.

    In q mode each term is (-1)^k q^C(k,2) qb(2n, k)^r; integer mode is
    the same sum at q = 1, computed directly on integers.
    """
    if n < 1 or r < 1:
        raise InvalidArgument(f"requires n, r >= 1, got n={n}, r={r}")
    if not is_prime(p):
        raise InvalidArgument(f"{p} is not prime")
    idx = sorted(set(I))
    if not idx:
        raise InvalidArgument("the index set I must be nonempty")
    if idx[0] < 1:
        raise InvalidArgument(f"indices in I must be >= 1, got {idx[0]}")
    _check_mode(mode)
    ks = [
        k
        for k in range(2 * n + 1)
        if all(_carry_at(2 * n, k, p**a) for a in idx)
    ]
    if mode == "integer":
        return sum(_sign(k) * binom(2 * n, k) ** r for k in ks)
    return _packed_sum((k, [(qbinom(2 * n, k), r)]) for k in ks)


def gjz_sum(ns: Sequence[int], mode: Mode = "integer") -> Union[int, IntPoly]:
    """Cyclic multi-factor alternating sum over a composition.

    sum_{k=-n1}^{n1} (-1)^k [q^C(k,2)] prod_{i=1}^{h} qb(n_i + n_{i+1}, n_i + k)
    with the wraparound n_{h+1} = n_1.

    >>> gjz_sum((1, 1), mode="integer")
    2
    >>> str(gjz_sum((1, 1), mode="q"))
    'q + q^2'
    """
    ns = tuple(ns)
    if not ns:
        raise InvalidArgument("composition must be nonempty")
    if any(m < 1 for m in ns):
        raise InvalidArgument(f"composition parts must be >= 1, got {ns}")
    _check_mode(mode)
    h = len(ns)
    n1 = ns[0]
    if mode == "integer":
        total = 0
        for k in range(-n1, n1 + 1):
            term = 1
            for i in range(h):
                term *= binom(ns[i] + ns[(i + 1) % h], ns[i] + k)
                if not term:
                    break
            total += _sign(k) * term
        return total
    return _packed_sum(
        (k, [(qbinom(ns[i] + ns[(i + 1) % h], ns[i] + k), 1) for i in range(h)])
        for k in range(-n1, n1 + 1)
    )


_TRIPLE_WIDTH = {"six_four_two": 6, "eight_four_two": 8}


def triple_sum(
    family: Literal["six_four_two", "eight_four_two"],
    n: int,
    r: int,
    s: int,
    t: int,
    mode: Mode = "integer",
) -> Union[int, IntPoly]:
    """Three-factor alternating sum with exponents (r, s, t).

    sum_{k=-n}^{n} (-1)^k [q^C(k,2)] qb(A, A/2+k)^r qb(4n, 2n+k)^s qb(2n, n+k)^t
    where A = 6n for the six_four_two family and 8n for eight_four_two.

    >>> triple_sum("six_four_two", 1, 1, 1, 1)
    120
    """
    if family not in _TRIPLE_WIDTH:
        raise InvalidArgument(f"unknown family {family!r}")
    if min(n, r, s, t) < 1:
        raise InvalidArgument(
            f"requires n, r, s, t >= 1, got ({n}, {r}, {s}, {t})"
        )
    _check_mode(mode)
    A = _TRIPLE_WIDTH[family] * n
    if mode == "integer":
        return sum(
            _sign(k)
            * binom(A, A // 2 + k) ** r
            * binom(4 * n, 2 * n + k) ** s
            * binom(2 * n, n + k) ** t
            for k in range(-n, n + 1)
        )
    return _packed_sum(
        (k, [(qbinom(A, A // 2 + k), r),
             (qbinom(4 * n, 2 * n + k), s),
             (qbinom(2 * n, n + k), t)])
        for k in range(-n, n + 1)
    )


@dataclass(frozen=True)
class SumSpec:
    """A fully-specified sum instance, as used by the CLI and drivers.

    family selects the engine; n is an int for power/pattern/triple
    families and the composition tuple for gjz; exponents carries r (or
    r, s, t); pattern carries (p, I) for the pattern family.
    """

    family: Literal["power", "gjz", "triple_642", "triple_842", "pattern"]
    n: Union[int, tuple[int, ...]]
    exponents: tuple[int, ...] = (1,)
    pattern: Optional[tuple[int, tuple[int, ...]]] = None
    mode: Mode = "integer"

    def __post_init__(self):
        if any(e < 1 for e in self.exponents):
            raise InvalidArgument(f"exponents must be >= 1, got {self.exponents}")
        if self.family == "pattern" and (self.pattern is None or not self.pattern[1]):
            raise InvalidArgument("pattern family needs a prime and a nonempty index set")

    def compute(self) -> Union[int, IntPoly]:
        if self.family == "power":
            if self.mode != "integer":
                raise InvalidArgument("the power family is integer-only")
            return alt_power_sum(self.n, self.exponents[0])
        if self.family == "pattern":
            p, idx = self.pattern
            return pattern_sum(self.n, self.exponents[0], p, idx, self.mode)
        if self.family == "gjz":
            return gjz_sum(self.n, self.mode)
        if self.family in ("triple_642", "triple_842"):
            fam = "six_four_two" if self.family == "triple_642" else "eight_four_two"
            r, s, t = self.exponents
            return triple_sum(fam, self.n, r, s, t, self.mode)
        raise InvalidArgument(f"unknown family {self.family!r}")
