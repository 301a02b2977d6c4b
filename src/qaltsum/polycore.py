"""Exact arithmetic in Z[q]: dense polynomials over Python's big integers.

A polynomial is stored as a tuple of coefficients in ascending order, so
``coeffs[i]`` is the coefficient of q**i.  Canonical form has no trailing
zero coefficient and represents zero as the empty tuple, which makes
equality, hashing and degree bookkeeping trivial.  Values are immutable;
every operation returns a fresh IntPoly, so instances can be shared
freely between threads.

Multiplication picks a strategy per call: a sparse accumulation when one
operand has very few terms, and Kronecker substitution for everything
else.  Kronecker substitution packs the coefficients into one huge
integer per operand and lets the interpreter's native big-integer
multiplication do the work, which keeps degree-10^4 products with
thousand-bit coefficients cheap without any custom fast arithmetic.  A
coefficient c goes into a slot of w bits as a balanced digit,
-2^(w-1) <= c < 2^(w-1): the nonnegative and the negative coefficients
are packed as two unsigned integers and subtracted, and unpacking adds
2^(w-1) to every slot and reads unsigned slots, so neither direction
runs a borrow chain.

A whole signed sum of products, sum sign * q^shift * prod f^e, is
evaluated the same way by packed_sum (Harvey, J. Symbolic Comput. 44,
2009): every term is packed, and the total is unpacked once.  The slot
width comes from the l1 norms of the factors, since no coefficient of
the sum exceeds sum over terms of prod l1(f)^e.  The q-mode alternating
sums go through packed_sum.  A product of many signed factors, such as
a cyclotomic factorization, can cancel far below that bound, so product
multiplies it by a tree whose slots follow the size of the actual
coefficients.  The packing format is private to this module.

Exact division by a dense divisor works the same way (Kronecker
division), wherever a cost estimate says it beats long division: one
big-integer divmod of a(2^w) by b(2^w).  If b divides a in Z[q], then
b(2^w) divides a(2^w), so an inexact divmod shows that b does not divide
a.  An exact one yields a candidate quotient q, decoded from balanced
slots, which is accepted only with a proof: either the digit bound
min(len b, len q) * max|b| * max|q| < 2^(w-1), which puts every
coefficient of b*q (like every one of a) inside a balanced slot, so b*q
and a, equal at 2^w, are equal; or, failing that, the multiply-back
b*q == a.  In every other case long division decides, and it alone
supplies the remainder and the failing step that NotDivisible carries.

Two text forms are supported and emitted bit-exactly:

>>> IntPoly("[1, 1, 2, 1, 1]") == IntPoly("1 + q + 2*q^2 + q^3 + q^4")
True
>>> str(IntPoly((1, -1)))
'1 - q'
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import accumulate, repeat
from math import gcd, prod
from typing import Iterable, Union

from ._kernels_py import divexact_steps

__all__ = [
    "IntPoly",
    "CongruenceWitness",
    "InvalidArgument",
    "NotDivisible",
    "ZeroPolynomial",
    "ZERO",
    "ONE",
    "Q",
    "monomial",
    "divexact",
    "divexact_qm1",
    "mul_qm1",
    "packed_sum",
    "product",
]


class InvalidArgument(ValueError):
    """An argument violates a documented precondition."""


class ZeroPolynomial(InvalidArgument):
    """The zero polynomial was passed where a nonzero one is required."""


class NotDivisible(ArithmeticError):
    """Exact polynomial division failed.

    Carries the nonzero remainder, and the quotient index of the failing
    leading-coefficient division when that is what stopped the division.
    """

    def __init__(self, dividend, divisor, remainder, step=None):
        self.dividend = dividend
        self.divisor = divisor
        self.remainder = remainder
        self.step = step
        if step is None:
            detail = f"remainder {remainder}"
        else:
            detail = f"inexact leading-coefficient division at quotient index {step}"
        super().__init__(f"{dividend} is not divisible by {divisor}: {detail}")


# A factor with at most this many nonzero terms is multiplied by sparse
# accumulation regardless of degree.
_SPARSE_TERMS = 6

# Kronecker division runs only where it is expected to beat long division.
# Per quotient coefficient with w-bit slots, its divmod costs about
# len(b) * w^2 bit products and long division about nnz(b) * (w + 256)
# bit operations, and one such operation was measured to cost as much as
# 174 bit products (CPython 3.11, x86-64).
_KRONECKER_DIV_RATIO = 174


class IntPoly:
    """Immutable dense polynomial over arbitrary-precision integers.

    Accepts an iterable of coefficients (ascending), a plain integer, or
    one of the two text forms:

    >>> IntPoly((1, 0, -2))
    IntPoly('1 - 2*q^2')
    >>> IntPoly(5) + IntPoly("q") * 3
    IntPoly('5 + 3*q')
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Union[Iterable[int], int, str] = ()):
        if isinstance(coeffs, IntPoly):
            cs = list(coeffs.coeffs)
        elif isinstance(coeffs, str):
            cs = _parse_coeffs(coeffs)
        elif isinstance(coeffs, int):
            cs = [coeffs]
        else:
            cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    def __reduce__(self):
        return (IntPoly, (self.coeffs,))

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> Union[int, float]:
        """Degree; the zero polynomial gets the -inf sentinel."""
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i: int) -> int:
        """Coefficient of q**i (0 beyond the stored degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPoly(out)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return IntPoly(_mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InvalidArgument(f"polynomial exponent must be a nonnegative int, got {n!r}")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def shifted(self, k: int) -> "IntPoly":
        """Multiply by q**k (k >= 0)."""
        if k < 0:
            raise InvalidArgument("shift must be nonnegative")
        if not self.coeffs or k == 0:
            return self
        return IntPoly((0,) * k + self.coeffs)

    # -- evaluation and content -------------------------------------------

    def evaluate(self, x: int) -> int:
        """Exact value at the integer x (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def content(self) -> int:
        """gcd of the coefficients; 0 for the zero polynomial."""
        return gcd(*self.coeffs)

    def is_primitive(self) -> bool:
        """True iff the coefficient gcd is 1.  Raises on the zero polynomial."""
        if not self.coeffs:
            raise ZeroPolynomial("primitivity is undefined for the zero polynomial")
        return self.content() == 1

    def divexact(self, other) -> "IntPoly":
        return divexact(self, other)

    # -- text forms --------------------------------------------------------

    def coeff_list_str(self) -> str:
        """Ascending coefficient-list form, e.g. '[1, 0, -2]'."""
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"

    def __str__(self) -> str:
        """Human form, e.g. '1 + q + 2*q^2'."""
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "q" if i == 1 else f"q^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "IntPoly":
        """Parse either text form (see module docstring)."""
        return cls(text)


def _coerce(value):
    if isinstance(value, IntPoly):
        return value
    if isinstance(value, int):
        return IntPoly(value)
    return NotImplemented


ZERO = IntPoly()
ONE = IntPoly((1,))
Q = IntPoly((0, 1))


def monomial(exp: int, coeff: int = 1) -> IntPoly:
    """coeff * q**exp."""
    if exp < 0:
        raise InvalidArgument("monomial exponent must be nonnegative")
    return IntPoly((0,) * exp + (coeff,))


# -- the q^m - 1 steps: q-integers, q-binomials and cyclotomic polynomials are
# products and exact quotients of factors q^m - 1, built by these two steps.


def mul_qm1(coeffs, m: int) -> list[int]:
    """coeffs * (q^m - 1) for m >= 1: shift by m and subtract."""
    if not coeffs:
        return []
    return list(map(operator.sub, [0] * m + list(coeffs), list(coeffs) + [0] * m))


def divexact_qm1(coeffs, m: int) -> list[int]:
    """Exact quotient coeffs / (q^m - 1) for m >= 1; raises NotDivisible.

    Q[j] = P[j+m] + Q[j+m] is a suffix sum along each residue class mod m;
    the division is exact iff the remainder P[i] + Q[i], i < m, vanishes.
    """
    n = len(coeffs) - m
    quot = [0] * max(n, 0)
    for r in range(min(m, n)):
        quot[r::m] = list(accumulate(coeffs[r + m :: m][::-1]))[::-1]
    rem = [c + (quot[i] if i < n else 0) for i, c in enumerate(coeffs[:m])]
    if any(rem):
        raise NotDivisible(IntPoly(coeffs), monomial(m) - 1, remainder=IntPoly(rem))
    return quot


# -- multiplication strategy ------------------------------------------------


def _mul_coeffs(a, b):
    if not a or not b:
        return []
    if len(b) == 1:
        s = b[0]
        return [c * s for c in a]
    if len(a) == 1:
        s = a[0]
        return [c * s for c in b]
    annz = len(a) - a.count(0)
    bnnz = len(b) - b.count(0)
    if annz > bnnz:  # sparser operand first: it drives the outer loops
        a, b, annz, bnnz = b, a, bnnz, annz
    if annz <= _SPARSE_TERMS:
        return _mul_sparse(b, a)
    return _mul_kronecker(a, b)


def _mul_sparse(dense, sparse):
    out = [0] * (len(dense) + len(sparse) - 1)
    for j, s in enumerate(sparse):
        if not s:
            continue
        for i, c in enumerate(dense):
            if c:
                out[i + j] += c * s
    return out


def _slot_bits(nbits):
    """Byte-aligned slot width of at least nbits bits."""
    return (nbits + 7) & ~7


def _max_abs(coeffs):
    return max(max(coeffs), -min(coeffs))


def _mul_kronecker(a, b):
    """Product via Kronecker substitution (evaluation at a power of two).

    Each coefficient gets a byte-aligned slot wide enough that the
    product's coefficients lie strictly inside a balanced slot, so the
    single big-integer multiplication carries the whole convolution.
    """
    bits = _slot_bits(
        _max_abs(a).bit_length()
        + _max_abs(b).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    nbytes = bits >> 3
    n = len(a) + len(b) - 1
    out = _unpack(_pack(a, bits, nbytes) * _pack(b, bits, nbytes), bits, nbytes, n)
    if out is None:
        raise AssertionError("Kronecker decode imbalance")
    return out


def _pack(coeffs, bits, nbytes):
    """The value of the polynomial at 2**bits, each c a balanced digit.

    The nonnegative and the negative parts are packed separately, so no
    borrow runs from one slot into the next.
    """
    if min(coeffs) >= 0:
        return int.from_bytes(
            b"".join(map(int.to_bytes, coeffs, repeat(nbytes), repeat("little"))), "little"
        )
    zero = bytes(nbytes)
    pos = b"".join([c.to_bytes(nbytes, "little") if c > 0 else zero for c in coeffs])
    neg = b"".join([(-c).to_bytes(nbytes, "little") if c < 0 else zero for c in coeffs])
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(value, bits, nbytes, n):
    """The n balanced slot digits of value, or None if it has no such form.

    Adding 2**(bits-1) to every slot (the bias 0x80...80) turns the
    balanced digits in [-2**(bits-1), 2**(bits-1)) into unsigned ones; the
    value is representable exactly when the biased value fits in n slots.
    """
    half = 1 << (bits - 1)
    biased = value + int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")
    if biased < 0 or biased >> (bits * n):
        return None
    buf = biased.to_bytes(n * nbytes, "little")
    from_bytes = int.from_bytes
    return [from_bytes(buf[i : i + nbytes], "little") - half for i in range(0, n * nbytes, nbytes)]


def packed_sum(terms) -> list[int]:
    """Coefficients of sum sign * q^shift * prod f^e over terms, evaluated packed.

    terms is an iterable of (sign, shift, factors): sign is 1 or -1,
    shift >= 0, and factors is a list of (coeffs, e) with e >= 0.  The l1
    norm, l1(f) = sum |c|, is submultiplicative, so no coefficient of the
    sum exceeds B = sum over terms of prod l1(f)^e in absolute value, and
    slots of bits(B) + 1 bits hold every one of them as a balanced digit,
    whatever the signs.  A term with a zero factor contributes nothing,
    and terms whose factors are the same coefficient objects with the
    same exponents share one product.  The result has no trailing zero.

    >>> packed_sum([(1, 0, [([1, 1], 2)]), (-1, 1, [([1, -1], 1)])])
    [1, 1, 2]
    """
    terms = [(sign, shift, [(f, e) for f, e in fs if e]) for sign, shift, fs in terms]
    terms = [term for term in terms if all(any(f) for f, _ in term[2])]
    if not terms:
        return []
    norms: dict[int, int] = {}
    bound = 0
    for _, _, fs in terms:
        for f, _ in fs:
            if id(f) not in norms:
                norms[id(f)] = sum(map(abs, f))
        bound += prod(norms[id(f)] ** e for f, e in fs)
    bits = _slot_bits(bound.bit_length() + 1)
    nbytes = bits >> 3
    packed: dict[int, int] = {}
    values: dict[tuple[tuple[int, int], ...], int] = {}
    total = 0
    n = 0
    for sign, shift, fs in terms:
        key = tuple((id(f), e) for f, e in fs)
        value = values.get(key)
        if value is None:
            value = 1
            for f, e in fs:
                p = packed.get(id(f))
                if p is None:
                    p = packed[id(f)] = _pack(f, bits, nbytes)
                value *= p**e
            values[key] = value
        n = max(n, shift + sum(e * (len(f) - 1) for f, e in fs) + 1)
        if sign < 0:
            total -= value << (bits * shift)
        else:
            total += value << (bits * shift)
    out = _unpack(total, bits, nbytes, n)
    if out is None:
        raise AssertionError("Kronecker decode imbalance")
    while out and not out[-1]:
        out.pop()
    return out


def product(factors) -> list[int]:
    """The product of a list of nonzero canonical coefficient lists.

    The slots are kept narrow however much signed factors cancel: while
    the product of the factors' l1 norms fits a 64-bit slot, the factors
    are multiplied packed at that width, where its looseness costs
    little.  Above it the list is split in halves, each multiplied out the
    same way, and the halves are multiplied by _mul_coeffs at the width
    their coefficients need.  64 bits was the fastest of 32, 64 and 128
    both on expanding every qbinom(n, k), n <= 45, from its cyclotomic
    factors and on n = 80 and 100.  The empty product is [1].

    >>> product([[1, 1], [-1, 1]]), product([])
    ([-1, 0, 1], [1])
    """
    if len(factors) == 1:
        return list(factors[0])
    bound = prod(sum(map(abs, f)) for f in factors)
    if bound.bit_length() < 64:
        bits = _slot_bits(bound.bit_length() + 1)
        nbytes = bits >> 3
        value = prod(_pack(f, bits, nbytes) for f in factors)
        return _unpack(value, bits, nbytes, sum(len(f) - 1 for f in factors) + 1)
    half = len(factors) // 2
    return _mul_coeffs(product(factors[:half]), product(factors[half:]))


# -- exact division ----------------------------------------------------------


def divexact(a, b) -> IntPoly:
    """Exact quotient a / b in Z[q]; raises NotDivisible otherwise.

    A dense divisor may be tried by Kronecker division
    (_divexact_kronecker); plain long division decides every other case
    and supplies the failure witness.  b need not be monic, but then every
    leading-coefficient division has to be exact on its own.

    >>> divexact(IntPoly("[-1, 0, 0, 0, 1]"), IntPoly("[-1, 1]"))
    IntPoly('1 + q + q^2 + q^3')
    """
    a = IntPoly(a) if not isinstance(a, IntPoly) else a
    b = IntPoly(b) if not isinstance(b, IntPoly) else b
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ZERO
    if len(a.coeffs) < len(b.coeffs):
        raise NotDivisible(a, b, remainder=a)
    quot = _divexact_kronecker(a.coeffs, b.coeffs)
    if quot is not None:
        return IntPoly(quot)
    quot, rem, step = divexact_steps(a.coeffs, b.coeffs)
    if quot is None:
        raise NotDivisible(a, b, remainder=IntPoly(rem), step=step)
    if rem:
        raise NotDivisible(a, b, remainder=IntPoly(rem))
    return IntPoly(quot)


def _divexact_kronecker(a, b):
    """The quotient a / b by Kronecker division, or None if it is not proved.

    See the module docstring for the proof.  The slot width leaves room
    for a quotient as large as a itself under the digit bound.  Divisors
    that are sparse, or for which long division is expected to be faster,
    are not tried.  None means only "not proved", never "not divisible".
    """
    nnz = len(b) - b.count(0)
    if nnz <= _SPARSE_TERMS:
        return None
    nq = len(a) - len(b) + 1
    bmax = _max_abs(b)
    bits = _slot_bits(
        _max_abs(a).bit_length() + bmax.bit_length() + min(len(b), nq).bit_length() + 1
    )
    if len(b) * bits * bits > _KRONECKER_DIV_RATIO * nnz * (bits + 256):
        return None
    nbytes = bits >> 3
    value, rem = divmod(_pack(a, bits, nbytes), _pack(b, bits, nbytes))
    if rem:
        return None
    quot = _unpack(value, bits, nbytes, nq)
    if quot is None:
        return None
    if min(len(b), nq) * bmax * _max_abs(quot) < 1 << (bits - 1):
        return quot
    return quot if _mul_coeffs(b, quot) == list(a) else None


# -- congruence witnesses ------------------------------------------------------


@dataclass(frozen=True)
class CongruenceWitness:
    """Outcome of one "dividend == 0 (mod modulus)" claim in Z[q].

    holds is True exactly when quotient is present and
    quotient * modulus == dividend; on failure the nonzero remainder is
    kept for counterexample reporting.
    """

    dividend: IntPoly
    modulus: IntPoly
    quotient: IntPoly | None
    holds: bool
    remainder: IntPoly | None = None


# -- parsing -------------------------------------------------------------------

_TERM_RE = re.compile(r"(?P<sign>[+-]?)(?P<coeff>\d+)?(?P<var>\*?q(?:\^(?P<exp>\d+))?)?")


def _parse_coeffs(text: str) -> list[int]:
    s = text.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unterminated coefficient list: {text!r}")
        inner = s[1:-1].strip()
        if not inner:
            return []
        return [int(tok) for tok in inner.split(",")]
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return []
    segments = re.findall(r"[+-]?[^+-]+", s)
    if "".join(segments) != s:
        raise ValueError(f"cannot parse polynomial text {text!r}")
    out: dict[int, int] = {}
    for seg in segments:
        m = _TERM_RE.fullmatch(seg)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"cannot parse term {seg!r} in {text!r}")
        if m.group("var") is not None and m.group("var").startswith("*") and m.group("coeff") is None:
            raise ValueError(f"cannot parse term {seg!r} in {text!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") is not None else 1
        if m.group("sign") == "-":
            coeff = -coeff
        if m.group("var") is None:
            exp = 0
        elif m.group("exp") is not None:
            exp = int(m.group("exp"))
        else:
            exp = 1
        out[exp] = out.get(exp, 0) + coeff
    size = max(out) + 1 if out else 0
    cs = [0] * size
    for exp, coeff in out.items():
        cs[exp] = coeff
    return cs
