"""Exact Gaussian-rational scalars.

Every coefficient in the symbolic layer is an element of the field Q(i) of
Gaussian rationals.  A `Scalar` stores one integer triple (a, b, d) and
stands for (a + b*i) / d.  The triple is kept canonical: d > 0 and
gcd(a, b, d) == 1, so equal values have equal triples, and equality and
hashing compare the triple directly.  Each operation builds its triple with
integer arithmetic and normalises it with one three-argument gcd; sums over
a common denominator skip the cross-multiplication, real products build no
imaginary part, and negation needs no gcd at all.

The field is closed under the four arithmetic operations and has decidable,
exact equality, which is what makes the axiom checkers meaningful.  The
real and imaginary parts are read as `Fraction`s (`re`, `im`, `abs2`), so
reports and parsers see exact rationals; `triple` hands the integers
themselves to exact comparisons elsewhere.  Floating-point coefficients
never appear here; the numeric layer converts at its own boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InputError

__all__ = ["Scalar", "ZERO", "ONE", "I", "frac"]


def frac(value) -> Fraction:
    """Coerce ints, Fractions, or strings like "3/5" to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise InputError(f"zero denominator in {value!r}") from None
        except ValueError as exc:
            raise InputError(str(exc)) from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


_new = object.__new__


def _raw(a: int, b: int, d: int) -> "Scalar":
    """The Scalar (a + b*i) / d of a triple that is already canonical."""
    s = _new(Scalar)
    s._a = a
    s._b = b
    s._d = d
    return s


def _make(a: int, b: int, d: int) -> "Scalar":
    """The Scalar (a + b*i) / d, for any d > 0, in canonical form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    # _raw inlined: every arithmetic operator ends here.
    s = _new(Scalar)
    s._a = a
    s._b = b
    s._d = d
    return s


def _coerce(value) -> "Scalar":
    if isinstance(value, Scalar):
        return value
    if isinstance(value, int):
        return _raw(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _raw(value.numerator, 0, value.denominator)
    return Scalar(frac(value))


class Scalar:
    """An element (a + b*i) / d of the Gaussian rationals.

    Instances are immutable; all operators return new values.  Mixed
    arithmetic with ints and Fractions coerces exactly.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = frac(re), frac(im)
        rd, id_ = re.denominator, im.denominator
        if rd == id_:
            self._a, self._b, self._d = re.numerator, im.numerator, rd
            return
        # Over the lcm of two reduced denominators the triple is canonical.
        d = rd // gcd(rd, id_) * id_
        self._a = re.numerator * (d // rd)
        self._b = im.numerator * (d // id_)
        self._d = d

    # -- coercion ----------------------------------------------------------

    coerce = staticmethod(_coerce)

    # -- parts -------------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def triple(self) -> tuple:
        """The canonical integers (a, b, d) of (a + b*i) / d."""
        return self._a, self._b, self._d

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        d, f = self._d, other._d
        if d == f:
            return _make(self._a + other._a, self._b + other._b, d)
        return _make(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        d, f = self._d, other._d
        if d == f:
            return _make(self._a - other._a, self._b - other._b, d)
        return _make(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        if not b and not e:
            return _make(a * c, 0, self._d * other._d)
        return _make(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        f = other._d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            d = self._d * c
            if d < 0:
                return _make(-a * f, -b * f, -d)
            return _make(a * f, b * f, d)
        # (a + b*i)/d / ((c + e*i)/f) = f*(a + b*i)*(c - e*i) / (d*(c^2 + e^2))
        return _make(
            f * (a * c + b * e), f * (b * c - a * e), self._d * (c * c + e * e)
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("scalar powers must be integers")
        if n < 0:
            return ONE / (self ** (-n))
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- field structure ---------------------------------------------------

    def abs2(self) -> Fraction:
        """Exact squared modulus re**2 + im**2."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def is_unit(self) -> bool:
        """True when the scalar lies exactly on the unit circle."""
        return self._a * self._a + self._b * self._b == self._d * self._d

    # -- comparisons and hashing -------------------------------------------

    def __eq__(self, other):
        if type(other) is Scalar:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (
                not self._b
                and self._d == other.denominator
                and self._a == other.numerator
            )
        return NotImplemented

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    # -- conversion and display ----------------------------------------------

    def __complex__(self):
        # int / int rounds correctly, so each part is float(Fraction(_, d)).
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return _imag_str(im)
        im_part = _imag_str(im)
        if not im_part.startswith("-"):
            im_part = "+" + im_part
        return f"{re}{im_part}"


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}i"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
