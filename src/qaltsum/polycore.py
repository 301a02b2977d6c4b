"""Exact arithmetic in Z[q]: dense polynomials over Python's big integers.

A polynomial is stored as a tuple of coefficients in ascending order, so
``coeffs[i]`` is the coefficient of q**i.  Canonical form has no trailing
zero coefficient and represents zero as the empty tuple, which makes
equality, hashing and degree bookkeeping trivial.  Values are immutable;
every operation returns a fresh IntPoly, so instances can be shared
freely between threads.

Multiplication picks a strategy per call: a sparse accumulation when one
operand has very few terms, a schoolbook kernel (compiled when available,
see _kernels) for small dense products, and Kronecker substitution for
everything else.  Kronecker substitution packs the coefficients into one
huge integer per operand and lets the interpreter's native big-integer
multiplication do the work, which keeps degree-10^4 products with
thousand-bit coefficients cheap without any custom fast arithmetic.

Two text forms are supported and emitted bit-exactly:

>>> IntPoly("[1, 1, 2, 1, 1]") == IntPoly("1 + q + 2*q^2 + q^3 + q^4")
True
>>> str(IntPoly((1, -1)))
'1 - q'
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

from . import _kernels

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


# Result degree at or below which the pure-Python schoolbook path is
# used for dense products; larger ones go through Kronecker substitution.
SCHOOLBOOK_CUTOFF = 64

# A factor with at most this many nonzero terms is multiplied by sparse
# accumulation regardless of degree.
_SPARSE_TERMS = 6

# Work ceilings (inner-loop iteration counts) below which the compiled
# kernel is attempted first; it rejects itself cheaply when coefficients
# exceed the 64-bit window.
_MUL_KERNEL_WORK = 1 << 20
_DIV_KERNEL_WORK = 1 << 22


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
        g = 0
        for c in self.coeffs:
            g = _gcd(g, c)
            if g == 1:
                break
        return g

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


def _gcd(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


ZERO = IntPoly()
ONE = IntPoly((1,))
Q = IntPoly((0, 1))


def monomial(exp: int, coeff: int = 1) -> IntPoly:
    """coeff * q**exp."""
    if exp < 0:
        raise InvalidArgument("monomial exponent must be nonnegative")
    return IntPoly((0,) * exp + (coeff,))


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
    annz = sum(1 for c in a if c)
    bnnz = sum(1 for c in b if c)
    if annz > bnnz:  # sparser operand first: it drives the outer loops
        a, b, annz, bnnz = b, a, bnnz, annz
    if _kernels.HAVE_COMPILED and annz * len(b) <= _MUL_KERNEL_WORK:
        out = _kernels.try_mul_int64(a, b)
        if out is not None:
            return out
    if annz <= _SPARSE_TERMS:
        return _mul_sparse(b, a)
    if len(a) + len(b) - 2 <= SCHOOLBOOK_CUTOFF:
        return _kernels.mul_schoolbook(a, b)
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


def _mul_kronecker(a, b):
    """Product via Kronecker substitution (evaluation at a power of two).

    Each coefficient gets a byte-aligned slot wide enough that the
    product's coefficients cannot interfere; the single big-integer
    multiplication then carries the whole convolution.  Slot decoding is
    signed: a high digit borrows from the next slot.
    """
    amax = max(abs(c) for c in a)
    bmax = max(abs(c) for c in b)
    bits = (
        amax.bit_length()
        + bmax.bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    bits = (bits + 7) & ~7
    nbytes = bits >> 3
    n = len(a) + len(b) - 1
    return _unpack(_pack(a, bits, nbytes) * _pack(b, bits, nbytes), bits, nbytes, n)


def _pack(coeffs, bits, nbytes):
    base = 1 << bits
    buf = bytearray(len(coeffs) * nbytes)
    borrow = 0
    for i, c in enumerate(coeffs):
        d = c - borrow
        borrow = 0
        if d < 0:
            d += base
            borrow = 1
        buf[i * nbytes : (i + 1) * nbytes] = d.to_bytes(nbytes, "little")
    value = int.from_bytes(bytes(buf), "little")
    if borrow:
        value -= 1 << (bits * len(coeffs))
    return value


def _unpack(value, bits, nbytes, n):
    wrapped = value < 0
    if wrapped:
        value += 1 << (bits * n)
    buf = value.to_bytes(n * nbytes, "little")
    half = 1 << (bits - 1)
    base = 1 << bits
    out = [0] * n
    carry = 0
    for i in range(n):
        d = int.from_bytes(buf[i * nbytes : (i + 1) * nbytes], "little") + carry
        carry = 0
        if d >= half:
            d -= base
            carry = 1
        out[i] = d
    if carry != (1 if wrapped else 0):
        raise AssertionError("Kronecker decode imbalance")
    return out


# -- exact division ----------------------------------------------------------


def divexact(a, b) -> IntPoly:
    """Exact quotient a / b in Z[q]; raises NotDivisible otherwise.

    Plain long division: b need not be monic, but then every
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
    result = None
    if (
        _kernels.HAVE_COMPILED
        and (len(a.coeffs) - len(b.coeffs) + 1) * len(b.coeffs) <= _DIV_KERNEL_WORK
    ):
        result = _kernels.try_divexact_int64(a.coeffs, b.coeffs)
    if result is None:
        result = _kernels.divexact_steps(a.coeffs, b.coeffs)
    quot, rem, step = result
    if quot is None:
        raise NotDivisible(a, b, remainder=IntPoly(rem), step=step)
    if rem:
        raise NotDivisible(a, b, remainder=IntPoly(rem))
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
