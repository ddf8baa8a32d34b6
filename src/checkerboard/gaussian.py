"""Exact complex scalars: Gaussian rationals and Gaussian integers.

Parameters, witnesses and every value a user reads or writes are
``GaussRat``s (or plain ``Fraction``s where a value is real by
construction).  Classification runs on ``GaussInt``s instead: the
parameters of a state are lifted once to Gaussian integers over one
common denominator (``lift_to_integers``), and every matrix built from
them is an integer grid.  Arithmetic is exact; there is no floating point
anywhere in the core.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import lcm

from .errors import ParseError

Rat = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussRat:
    """Exact complex scalar with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    # -- predicates -------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return not self.im

    # -- involution and magnitude ----------------------------------
    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def real_fraction(self) -> Fraction:
        """The value as a Fraction; raises if the imaginary part is nonzero."""
        if self.im:
            raise ValueError(f"value {self!r} is not real")
        return self.re

    # -- ring operations -------------------------------------------
    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussRat):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussRat(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = o.abs2()
        if not den:
            raise ZeroDivisionError("division by zero GaussRat")
        return GaussRat(
            (self.re * o.re + self.im * o.im) / den,
            (self.im * o.re - self.re * o.im) / den,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = GaussRat(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison and hashing ------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- conversion -------------------------------------------------
    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        ims = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{self.im}i")
        if not self.re:
            return ims
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{ims}"


class GaussInt:
    """Exact complex scalar with integer real and imaginary parts.

    The integer counterpart of ``GaussRat`` for the classification hot
    path: plain ints, no normalization, and no immutability guard (no
    operation mutates one).  It does not mix with GaussRats.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0):
        self.re = re
        self.im = im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def __add__(self, other):
        if type(other) is not GaussInt:
            if type(other) is not int:  # sum() starts from the int 0
                return NotImplemented
            return GaussInt(self.re + other, self.im)
        return GaussInt(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussInt:
            return NotImplemented
        return GaussInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if type(other) is not GaussInt:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussInt(a * c - b * d, a * d + b * c)

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def __eq__(self, other):
        if type(other) is not GaussInt:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussInt({self.re!r}, {self.im!r})"

    def over(self, den: int) -> GaussRat:
        """This value divided by the positive integer ``den``, as a GaussRat."""
        return GaussRat(Fraction(self.re, den), Fraction(self.im, den))


def lift_to_integers(values) -> tuple:
    """(ints, d) for a sequence of GaussRats: d is their least common
    denominator and ints[k] = d * values[k] as a GaussInt."""
    d = 1
    for z in values:
        d = lcm(d, z.re.denominator, z.im.denominator)
    return [GaussInt(z.re.numerator * (d // z.re.denominator),
                     z.im.numerator * (d // z.im.denominator)) for z in values], d


IUNIT = GaussRat(0, 1)
ZERO = GaussRat(0)
ONE = GaussRat(1)


def conj(z):
    """Complex conjugate, generic over the scalar types used in this package."""
    if isinstance(z, (int, Fraction)):
        return z
    c = getattr(z, "conj", None)
    if c is not None:
        return c()
    return z.conjugate()  # builtin complex


def parse_gauss(token: str) -> GaussRat:
    """Parse compact literals such as ``"-1-2i"``, ``"i"``, ``"3/4"``.

    This is the notation used for transcribed matrices and parameter
    tables; file interchange uses the stricter {re, im} encoding instead.
    """
    tok = token.strip().replace(" ", "")
    if not tok:
        raise ParseError("empty scalar literal")
    terms = _re.findall(r"[+-]?[^+-]+", tok)
    term_shape = _re.compile(r"^[+-]?(?:[0-9]+(?:/[0-9]+)?i?|i)$")
    if (
        not terms
        or "".join(terms) != tok
        or any(not term_shape.match(t) for t in terms)
    ):
        raise ParseError(f"bad scalar literal {token!r}")
    re_part = im_part = None
    try:
        for term in terms:
            if term.endswith("i"):
                if im_part is not None:
                    raise ParseError(f"bad scalar literal {token!r}")
                body = term[:-1]
                if body in ("", "+"):
                    im_part = Fraction(1)
                elif body == "-":
                    im_part = Fraction(-1)
                else:
                    im_part = Fraction(body)
            else:
                if re_part is not None:
                    raise ParseError(f"bad scalar literal {token!r}")
                re_part = Fraction(term)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar literal {token!r}") from exc
    return GaussRat(re_part or Fraction(0), im_part or Fraction(0))
