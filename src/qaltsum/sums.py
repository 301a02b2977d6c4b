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

Every integer-mode sum is evaluated over half its range (_even_sum).  Its
term T(k) is even about the centre of the range, and so is the sign, so
the terms at k and -k add up to 2(-1)^k T(k):

  centred     sum_{k=-n..n} (-1)^k T(k) = T(0) + 2 sum_{k=1..n} (-1)^k T(k)
  0..2n       sum_{k=0..2n} (-1)^k T(k)
                = 2 sum_{k<n} (-1)^k T(k) + (-1)^n T(n)

Each binomial of T is read from a row _row(N, K, m) = [C(N, K + j) for
j = 0..m], built from one math.comb.  The power and pattern sums read
(2n, n), as C(2n, k) = C(2n, 2n - k); the carries of k + (2n - k) are
the same read either way round, so the filters keep k exactly when they
keep 2n - k, and p | C(2n, k) (a carry in base p, by Kummer's theorem)
is tested on the row value.  The triple terms read (A, A/2), (4n, 2n)
and (2n, n), as C(2m, m + k) = C(2m, m - k); the gjz term reads
(n_i + n_{i+1}, n_i) up to min_i n_i, and is even in k because it is a
product of factorials: writing each factor as
(n_i + n_{i+1})! / ((n_i + k)! (n_{i+1} - k)!) and shifting the second
half of the denominators one step round the cycle gives

  prod_i (n_i + n_{i+1})! / prod_i ((n_i + k)! (n_i - k)!),

and T(k) = 0 once |k| > min_i n_i.  The q modes keep every k, because
q^C(k,2) is not even in k; the packed sum shares the products of +-k.

The power sum also has a residue form: alt_power_sums_mod(n, rs, m)
yields alt_power_sum(n, r) mod m for each r of an ascending range rs,
the same half-range sum with C(2n, k)^r mod m in place of C(2n, k)^r.
Its cost grows with the bits of r and of m, not with r times the bits
of C(2n, n), so it reaches exponents whose full sum would have millions
of digits.  Each term carries its weight in the half-range sum,
S(r) = (-1)^n (T(0) + 2 sum_{j>=1} (-1)^j T(j)), T(j) = C(2n, n + j)^r:
t_j = w_j T(j) mod m, first taken by pow term by term, and S(r) =
sum_j t_j mod m.  One pass over the terms then gives two exponents:
S(r) as that sum, and S(r + step) = sum_j t_j C(2n, n + j)^step mod m,
the products summed unreduced and reduced once; after it every t_j is
multiplied by C(2n, n + j)^(2 step) mod m.  That is one product modulo
m per term for every two exponents.  An odd-length range ends on a pass
with one value.  alt_power_sum_mod(n, r, m) is the case of one
exponent.  Both take the same n and r as alt_power_sum, reject the
same bad ones with the same message, and need m >= 1.

The q-mode triple sum has a residue form too: triple_sum(..., "q",
modulo=F), F a cyclotomic factorization, maps each d of F to the sum's
residue modulo Phi_d^e, e = F's multiplicity of d, and never builds the
sum.  One term loop (_triple_residue) runs over k = 0..n and reads the
same factors qb(N, N/2 + k), N = A, 4n, 2n, in that order; a term stops
at its first zero factor, and the terms k and -k share one factor list:

  e = 1   q-Lucas: qb(N, K) == C(N // d, K // d) qb(N mod d, K mod d)
          modulo Phi_d, the small q-binomial's residue taken from a
          bounded cache in qcomb, the scales of a term one constant
          factor (left out when it is 1), and q^C(k,2) a shift by
          C(k,2) mod d.  A carry at d makes a scale zero.
  e >= 2  the entries of the q-Pascal rows 2n, 4n and A modulo Phi_d^e
          from qcomb's row store, and q^C(k,2) a shift by C(k,2).

One packed_sum multiplies the factors, and the total is reduced modulo
Phi_d^e once (cyclo.residue).

Each residue is kept in a bounded cache keyed by the sum and (d, e), so
claims on one sum (t2c1 and t2c2, cj2c1q and cj2c2q) compute each shared
Phi_d^e once.

The sum's degree, r (A/2)^2 + 4 s n^2 + t n^2, is that of its k = 0 term
alone, whose leading coefficient is 1 (triple_sum_degree).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import comb, prod
from operator import mul, sub
from typing import Iterable, Iterator, Literal, Optional, Sequence, Union

from .cyclo import CycloFactorization, cyclotomic_power, is_prime, residue
from .polycore import IntPoly, InvalidArgument, packed_sum
from .qcomb import _carry_at, _digit_residue, _row_mod, qbinom

__all__ = [
    "alt_power_sum",
    "alt_power_sum_mod",
    "alt_power_sums_mod",
    "alt_power_sum_filtered",
    "gjz_sum",
    "pattern_sum",
    "triple_sum",
    "triple_sum_degree",
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


def _even_sum(values: Iterable[int]) -> int:
    """sum_{k=-m}^{m} (-1)^k T(k) for T even in k, from values T(0), ..., T(m).

    >>> _even_sum(_row(4, 2, 2))  # C(4, 2 + k): 1 - 4 + 6 - 4 + 1
    0
    """
    terms = iter(values)  # read a pair at a time: a generator of powers is never held whole
    first, rest = next(terms), chain(terms, (0,))  # (T(1), T(2)), ..., 0 for an odd m
    return first - 2 * sum(map(sub, rest, rest))


def _row(N: int, K: int, m: int) -> list[int]:
    """[C(N, K + j) for j = 0..m], by C(N, k - 1) = C(N, k) k/(N - k + 1).

    For 0 <= K <= K + m <= N; the one math.comb, C(N, K + m), is 1 at K + m = N.

    >>> _row(4, 2, 2)
    [6, 4, 1]
    """
    row = [comb(N, K + m)]
    for k in range(K + m, K, -1):
        row.append(row[-1] * k // (N - k + 1))
    return row[::-1]


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

    Evaluated over half the range: C(2n, k) = C(2n, 2n - k), and k and
    2n - k have the same sign, so the sum is
    2 sum_{k<n} (-1)^k C(2n, k)^r + (-1)^n C(2n, n)^r.

    >>> alt_power_sum(1, 2), alt_power_sum(2, 3), alt_power_sum(2, 4)
    (-2, 90, 786)
    """
    _check_power(n, r)
    return _sign(n) * _even_sum(b ** r for b in _row(2 * n, n, n))


def alt_power_sum_mod(n: int, r: int, m: int) -> int:
    """alt_power_sum(n, r) % m, with every power taken modulo m.

    >>> alt_power_sum_mod(2, 4, 7), alt_power_sum(2, 4) % 7
    (2, 2)
    """
    return next(alt_power_sums_mod(n, range(r, r + 1), m))


def alt_power_sums_mod(n: int, rs: range, m: int) -> Iterator[int]:
    """alt_power_sum(n, r) % m for each r of the ascending range rs, in order.

    The arguments are checked at the call; the values are computed as
    they are taken, two exponents per pass over the terms with one
    product modulo m per term for the pair (see the module docstring).

    >>> list(alt_power_sums_mod(2, range(2, 5), 7)), [alt_power_sum(2, r) % 7 for r in (2, 3, 4)]
    ([6, 6, 2], [6, 6, 2])
    """
    if not rs or rs.step < 0:
        raise InvalidArgument(f"the exponents must be a nonempty ascending range, got {rs}")
    _check_power(n, rs[0])
    if m < 1:
        raise InvalidArgument(f"alt_power_sum_mod requires m >= 1, got m={m}")
    return _power_sums_mod(n, rs, m)


def _power_sums_mod(n: int, rs: range, m: int) -> Iterator[int]:
    row = [b % m for b in _row(2 * n, n, n)]  # C(2n, n + j) mod m
    # t_j = w_j C(2n, n + j)^r mod m, w_j = (-1)^n (1 at j = 0, else 2 (-1)^j): S(r) = sum t_j
    terms = [_sign(n) * (2 * _sign(j) if j else 1) * pow(b, rs[0], m) % m
             for j, b in enumerate(row)]
    yield sum(terms) % m
    if len(rs) == 1:
        return
    step = [pow(b, rs.step, m) for b in row]  # built only when a second exponent is asked for
    twice = [x * x % m for x in step]
    for i in range(1, len(rs)):
        if i % 2:  # S(r + step) = sum t_j C(2n, n + j)^step, the products summed unreduced
            yield sum(map(mul, terms, step)) % m
        else:
            terms = [x * y % m for x, y in zip(terms, twice)]
            yield sum(terms) % m


def _check_power(n: int, r: int) -> None:
    if n < 1 or r < 1:
        raise InvalidArgument(f"alt_power_sum requires n, r >= 1, got n={n}, r={r}")


def _check_filter(n: int, r: int, p: int) -> None:
    if n < 1 or r < 1:
        raise InvalidArgument(f"requires n, r >= 1, got n={n}, r={r}")
    if not is_prime(p):
        raise InvalidArgument(f"{p} is not prime")


def alt_power_sum_filtered(
    n: int, r: int, p: int, filter: Literal["p_divides", "p_ndivides"]
) -> int:
    """The power sum restricted to the k with p | C(2n,k), or its complement.

    The two filtered halves add up to alt_power_sum(n, r).
    """
    _check_filter(n, r, p)
    if filter not in ("p_divides", "p_ndivides"):
        raise InvalidArgument(f"unknown filter {filter!r}")
    want = filter == "p_divides"
    return _sign(n) * _even_sum(b ** r if (b % p == 0) == want else 0 for b in _row(2 * n, n, n))


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
    _check_filter(n, r, p)
    idx = sorted(set(I))
    if not idx:
        raise InvalidArgument("the index set I must be nonempty")
    if idx[0] < 1:
        raise InvalidArgument(f"indices in I must be >= 1, got {idx[0]}")
    _check_mode(mode)
    moduli = [p**a for a in idx]

    def kept(k):
        return all(_carry_at(2 * n, k, d) for d in moduli)

    if mode == "integer":
        row = enumerate(_row(2 * n, n, n))
        return _sign(n) * _even_sum(b ** r if kept(n + j) else 0 for j, b in row)
    return _packed_sum((k, [(qbinom(2 * n, k), r)]) for k in range(2 * n + 1) if kept(k))


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
        # even in k (see the module docstring) and zero for |k| > min(ns)
        rows = [_row(ns[i] + ns[(i + 1) % h], ns[i], min(ns)) for i in range(h)]
        return _even_sum(map(prod, zip(*rows)))
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
    *,
    modulo: Optional[CycloFactorization] = None,
) -> Union[int, IntPoly, dict[int, IntPoly]]:
    """Three-factor alternating sum with exponents (r, s, t).

    sum_{k=-n}^{n} (-1)^k [q^C(k,2)] qb(A, A/2+k)^r qb(4n, 2n+k)^s qb(2n, n+k)^t
    where A = 6n for the six_four_two family and 8n for eight_four_two.

    With modulo=F (q mode only) the sum is not built: the result maps each
    d of F to the residue of the q-mode sum modulo Phi_d^e, e = F's
    multiplicity of d (see the module docstring).

    >>> triple_sum("six_four_two", 1, 1, 1, 1)
    120
    >>> triple_sum("six_four_two", 1, 1, 1, 1, "q", modulo=CycloFactorization({2: 2, 8: 1}))
    {2: IntPoly('0'), 8: IntPoly('6 + 4*q - 4*q^3')}
    """
    if family not in _TRIPLE_WIDTH:
        raise InvalidArgument(f"unknown family {family!r}")
    if min(n, r, s, t) < 1:
        raise InvalidArgument(
            f"requires n, r, s, t >= 1, got ({n}, {r}, {s}, {t})"
        )
    _check_mode(mode)
    if modulo is not None:
        if mode != "q":
            raise InvalidArgument("modulo= needs mode 'q'")
        return {
            d: IntPoly(_triple_residue(family, n, r, s, t, d, e, cyclotomic_power(d, e).coeffs))
            for d, e in sorted(modulo.factors.items())
        }
    A = _TRIPLE_WIDTH[family] * n
    if mode == "integer":
        rows = zip(_row(A, A // 2, n), _row(4 * n, 2 * n, n), _row(2 * n, n, n))
        return _even_sum(a ** r * b ** s * c ** t for a, b, c in rows)
    return _packed_sum(
        (k, [(qbinom(A, A // 2 + k), r),
             (qbinom(4 * n, 2 * n + k), s),
             (qbinom(2 * n, n + k), t)])
        for k in range(-n, n + 1)
    )


def triple_sum_degree(
    family: Literal["six_four_two", "eight_four_two"], n: int, r: int, s: int, t: int
) -> int:
    """Degree of the q-mode triple sum: r (A/2)^2 + 4 s n^2 + t n^2.

    Term k has degree D0 - (r + s + t) k^2 + C(k, 2), with D0 that of the
    k = 0 term, which is below D0 for every k != 0; so the k = 0 term
    alone reaches D0, and the sum's leading coefficient is 1.

    >>> triple_sum_degree("six_four_two", 1, 1, 1, 1) == triple_sum(
    ...     "six_four_two", 1, 1, 1, 1, "q").degree
    True
    """
    half = _TRIPLE_WIDTH[family] * n // 2
    return r * half**2 + 4 * s * n**2 + t * n**2


# Residues kept for other claims on the same sum: t2c1 and t2c2 sum the
# same six_four_two family, and so do cj2c1q and cj2c2q, over
# overlapping Phi_d.
_RESIDUES = 1 << 12


@lru_cache(maxsize=_RESIDUES)
def _triple_residue(family, n: int, r: int, s: int, t: int, d: int, e: int,
                    mod: tuple[int, ...]) -> tuple[int, ...]:
    """The q-mode triple sum modulo mod = Phi_d^e, by one term loop.

    The factors are read by q-Lucas for e = 1 and from the q-Pascal rows
    modulo Phi_d^e for e >= 2 (see the module docstring), the rows asked
    for in ascending N so that each walk goes on from the row before.
    """
    A = _TRIPLE_WIDTH[family] * n
    rows = ((A, r), (4 * n, s), (2 * n, t))
    if e > 1:
        table = {N: _row_mod(N, d, e) for N in sorted({N for N, _ in rows})}
    terms = []
    for k in range(n + 1):
        scale, factors = 1, []
        for N, x in rows:
            K = N // 2 + k
            if e == 1:
                scale *= comb(N // d, K // d) ** x
                factor = _digit_residue(d, N % d, K % d)
            else:
                factor = table[N][K]
            if not scale or not factor:
                break
            factors.append((factor, x))
        else:
            if scale != 1:
                factors.append(((scale,), 1))
            terms += [(_sign(j), _weight(j) % d if e == 1 else _weight(j), factors)
                      for j in ((k, -k) if k else (0,))]
    return tuple(residue(packed_sum(terms), d, e, mod))
