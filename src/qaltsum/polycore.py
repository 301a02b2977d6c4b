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
-2^(w-1) <= c < 2^(w-1), so neither direction runs a borrow chain.
Slots of at most 64 bits are 8, 16, 32 or 64 bits wide, the widths of
the machine integers of the stdlib array module, and those are packed
and unpacked by a few C calls per polynomial: array writes each digit
as a two's-complement word, and flipping each word's top bit turns it
into c + 2^(w-1), an unsigned slot read by one int.from_bytes less the
bias sum 2^(w-1) 2^(w i); unpacking adds the bias and runs the same
steps backwards.  Wider slots are byte-aligned, each written by
int.to_bytes as the same unsigned c + 2^(w-1) and read back one by one.
Every slot width is proven wide enough, so a value with no balanced
form is a fault, and unpacking raises AssertionError on it.

A whole signed sum of products, sum sign * q^shift * prod f^e, is
evaluated the same way by packed_sum (Harvey, J. Symbolic Comput. 44,
2009): every term is packed, and the total is unpacked once.  The slot
width comes from the l1 norms of the factors, since no coefficient of
the sum exceeds sum over terms of prod l1(f)^e.  The q-mode alternating
sums go through packed_sum.  A product of many signed factors, such as
a cyclotomic factorization, can cancel far below that bound, so product
packs a group of factors whole only in slots of at most 32 bits, and
multiplies larger groups as two halves whose Kronecker slot comes from
the Cauchy-Schwarz bound on the halves' actual coefficients.  The
packing format is private to this module.

Every divisibility decision is made by one long division,
divexact_steps: it supplies the quotient of an exact division and the
remainder and failing step that NotDivisible carries, and divexact is
its only public entry.  Division by q^m - 1 has its own step
(divmod_qm1), per-residue-class suffix sums, and cyclo reduces modulo
Phi_d^e through it.

Two text forms are supported and emitted bit-exactly:

>>> IntPoly("[1, 1, 2, 1, 1]") == IntPoly("1 + q + 2*q^2 + q^3 + q^4")
True
>>> str(IntPoly((1, -1)))
'1 - q'
"""

from __future__ import annotations

import functools
import operator
import re
import sys
from array import array
from dataclasses import dataclass
from itertools import accumulate
from math import gcd, prod
from typing import Iterable, Iterator, Union

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
    "divmod_qm1",
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


class IntPoly:
    """Immutable dense polynomial over arbitrary-precision integers.

    Accepts an iterable of int coefficients (ascending), a plain integer,
    or one of the two text forms:

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
            cs = [operator.index(coeffs)]
        else:
            cs = list(map(operator.index, coeffs))
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

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i: int) -> int:
        """Coefficient of q**i (0 beyond the stored degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __iter__(self) -> Iterator[int]:
        """The stored coefficients, ascending (none for the zero polynomial)."""
        return iter(self.coeffs)

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
        return IntPoly(packed_sum([(1, 0, [(self.coeffs, n)])]))

    def shifted(self, k: int) -> "IntPoly":
        """Multiply by q**k (k >= 0)."""
        if k < 0:
            raise InvalidArgument("shift must be nonnegative")
        if not self.coeffs or k == 0:
            return self
        return IntPoly((0,) * k + self.coeffs)

    # -- evaluation and content -------------------------------------------

    def evaluate(self, x: int) -> int:
        """Exact value at the integer x (Horner; the coefficient sum at x = 1)."""
        if x == 1:
            return sum(self.coeffs)
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


def divmod_qm1(coeffs, m: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of coeffs by q^m - 1 for m >= 1.

    Q[j] = P[j+m] + Q[j+m] is a suffix sum along each residue class mod m,
    taken as a prefix sum of the reversed coefficients, and R[i] = P[i] +
    Q[i], i < m, the sum of the class of i, has min(m, len(coeffs))
    coefficients, trailing zeros kept.

    >>> divmod_qm1([1, 2, 3, 4, 5], 2)
    ([8, 4, 5], [9, 6])
    """
    tail = list(coeffs[m:])[::-1]
    for r in range(min(m, len(tail))):
        tail[r::m] = accumulate(tail[r::m])
    quot = tail[::-1]
    rem = list(coeffs[:m])
    rem[: len(quot)] = map(operator.add, rem, quot)
    return quot, rem


def divexact_qm1(coeffs, m: int) -> list[int]:
    """Exact quotient coeffs / (q^m - 1) by divmod_qm1; raises NotDivisible."""
    quot, rem = divmod_qm1(coeffs, m)
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
    """Slot width of at least nbits bits: 8, 16, 32 or 64, else byte-aligned."""
    if nbits <= 64:
        return max(8, 1 << (nbits - 1).bit_length())
    return (nbits + 7) & ~7


# The array codec of the machine-word slots: the typecode of each width
# in bytes, and the table that flips the top bit of a byte.
_WORD_CODES = {array(code).itemsize: code for code in "bhiq"}
_FLIP = bytes(b ^ 0x80 for b in range(256))


def _bias(nbytes, n):
    """sum 2^(w-1) 2^(w i) over n slots of w = 8 nbytes bits."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")


def _max_abs(coeffs):
    return max(max(coeffs), -min(coeffs))


def _mul_kronecker(a, b):
    """Product via Kronecker substitution (evaluation at a power of two).

    Each coefficient gets a slot wide enough that every coefficient of
    the product, c_k = sum_i a_i b_(k-i), lies strictly inside a balanced
    slot, so the single big-integer multiplication carries the whole
    convolution.  The width is the smaller of two bounds on |c_k|: the
    min(len(a), len(b)) terms of at most max|a| max|b| each, and the
    Cauchy-Schwarz bound ||a||_2 ||b||_2, which a = b = [M] * L meets at
    c_(L-1) = L M^2 and which stays close to the coefficients of a
    product of signed factors that cancel (product).
    """
    # max|a| max|b| min(len) < 2^(bits(max|a|) + bits(max|b|) + bits(min(len)))
    terms = (_max_abs(a).bit_length() + _max_abs(b).bit_length()
             + min(len(a), len(b)).bit_length())
    # c_k^2 <= sum a_i^2 sum b_j^2 = S < 2^bits(S), so |c_k| < 2^ceil(bits(S) / 2)
    squares = sum(map(operator.mul, a, a)) * sum(map(operator.mul, b, b))
    bits = _slot_bits(min(terms, (squares.bit_length() + 1) >> 1) + 1)
    nbytes = bits >> 3
    return _unpack(_pack(a, bits, nbytes) * _pack(b, bits, nbytes), bits, nbytes,
                   len(a) + len(b) - 1)


def _pack(coeffs, bits, nbytes):
    """The value of the polynomial at 2**bits, each c a balanced digit.

    Every slot is written as the unsigned c + 2**(bits-1) and the whole
    is read as one unsigned integer less the bias, so no borrow runs from
    one slot into the next.  Slots of 1, 2, 4 or 8 bytes go through array
    (module docstring): two's-complement words, little-endian on every
    host, their top bits flipped.  Wider slots are written by to_bytes.
    """
    code = _WORD_CODES.get(nbytes)
    if code is not None:
        words = array(code, coeffs)
        if sys.byteorder == "big":
            words.byteswap()
        buf = bytearray(words)
        buf[nbytes - 1 :: nbytes] = buf[nbytes - 1 :: nbytes].translate(_FLIP)
    else:
        half = 1 << (bits - 1)
        buf = b"".join([(c + half).to_bytes(nbytes, "little") for c in coeffs])
    return int.from_bytes(buf, "little") - _bias(nbytes, len(coeffs))


def _unpack(value, bits, nbytes, n):
    """The n balanced slot digits of value; AssertionError if it has no such form.

    Adding 2**(bits-1) to every slot (the bias 0x80...80) turns the
    balanced digits in [-2**(bits-1), 2**(bits-1)) into unsigned ones; the
    value is representable exactly when the biased value fits in n slots,
    which every caller's slot width guarantees.  Slots of 1, 2, 4 or 8
    bytes are then read back by array, after their top bits are flipped
    to give two's-complement words; wider slots are read one by one.
    """
    biased = value + _bias(nbytes, n)
    if biased < 0 or biased >> (bits * n):
        raise AssertionError("Kronecker decode imbalance")
    buf = biased.to_bytes(n * nbytes, "little")
    code = _WORD_CODES.get(nbytes)
    if code is not None:
        buf = bytearray(buf)
        buf[nbytes - 1 :: nbytes] = buf[nbytes - 1 :: nbytes].translate(_FLIP)
        words = array(code, buf)
        if sys.byteorder == "big":
            words.byteswap()
        return words.tolist()
    half = 1 << (bits - 1)
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
    while out and not out[-1]:
        out.pop()
    return out


def product(factors) -> list[int]:
    """The product of a list of nonzero canonical coefficient lists.

    The slots are kept narrow however much signed factors cancel.  While
    the product of the factors' l1 norms, which bounds every coefficient
    of their product, fits 31 bits, the factors are packed in slots of
    8, 16 or 32 bits and their packed values are multiplied pairwise, as
    a balanced tree.  Above it the list is split in halves, each
    multiplied out the same way, and the two exact halves are multiplied
    by _mul_kronecker, whose Cauchy-Schwarz width follows the size of
    their actual coefficients.  For qbinom(45, 22), whose coefficients
    have 36 bits, it is 37 bits where the l1 norms of its cyclotomic
    factors multiply to 96.  Over the 3,248 such products in expanding
    every qbinom(n, k), n <= 60, it exceeds the bits of the largest
    coefficient by 0 to 11, and by at most 2 in 2,600 of them.  A factor
    given as a tuple has its l1 norm and its packed value at each width
    taken once and kept (_factor_memo), since cyclo.expand passes the
    same cached Phi_d on every call; a list is measured and packed anew.
    The empty product is [1].

    >>> product([[1, 1], [-1, 1]]), product([])
    ([-1, 0, 1], [1])
    """
    if len(factors) <= 1:
        return list(factors[0]) if factors else [1]
    memos = [_factor_memo(f) if isinstance(f, tuple) else (sum(map(abs, f)), {}) for f in factors]
    # every coefficient of the product is at most prod l1(f) < 2^bits(bound) in absolute value
    bound = prod(l1 for l1, _ in memos)
    if bound.bit_length() < 32:
        bits = _slot_bits(bound.bit_length() + 1)
        nbytes = bits >> 3
        values = []
        for f, (_, packed) in zip(factors, memos):
            value = packed.get(bits)
            if value is None:
                value = packed[bits] = _pack(f, bits, nbytes)
            values.append(value)
        while len(values) > 1:  # neighbours in pairs; an odd last one waits a round
            values = [*map(operator.mul, values[::2], values[1::2]), *values[len(values) & ~1 :]]
        return _unpack(values[0], bits, nbytes, sum(len(f) - 1 for f in factors) + 1)
    half = len(factors) // 2
    return _mul_kronecker(product(factors[:half]), product(factors[half:]))


@functools.lru_cache(maxsize=1 << 8)
def _factor_memo(f: tuple) -> tuple[int, dict[int, int]]:
    """The l1 norm of the factor f and its packed values by slot width.

    product fills the dict, one entry per width it packs f at: 8, 16 or
    32 bits, so the memo stays within 3 values for each of its 256
    factors.
    """
    return sum(map(abs, f)), {}


# -- exact division ----------------------------------------------------------


def divexact(a, b) -> IntPoly:
    """Exact quotient a / b in Z[q]; raises NotDivisible otherwise.

    The one public entry to the long division, divexact_steps.  b need
    not be monic, but then every leading-coefficient division has to be
    exact on its own.  A zero b raises ZeroDivisionError.

    >>> divexact(IntPoly("[-1, 0, 0, 0, 1]"), IntPoly("[-1, 1]"))
    IntPoly('1 + q + q^2 + q^3')
    """
    a = a if isinstance(a, IntPoly) else IntPoly(a)
    b = b if isinstance(b, IntPoly) else IntPoly(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot, rem, step = divexact_steps(a.coeffs, b.coeffs)
    if quot is None or rem:
        raise NotDivisible(a, b, remainder=IntPoly(rem), step=step if quot is None else None)
    return IntPoly(quot)


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
