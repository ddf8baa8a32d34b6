"""Exact complex scalars: Gaussian rationals and Gaussian integers.

A ``GaussRat`` is one Gaussian integer x + iy over one positive integer
d, in lowest terms, so its arithmetic is plain int arithmetic and one gcd
per result.  Parameters, witnesses and every value a user reads or writes
are ``GaussRat``s (or plain ``Fraction``s where a value is real by
construction); ``re`` and ``im`` give their parts as Fractions.
Classification uses no scalar objects: the parameters of a state are
lifted once to (re, im) int pairs, each generating vector's letters
over the common denominator of their own parts
(``family.CheckerParams.lifted``), and every block and product built
from them is plain int arithmetic; ``gauss_over`` turns a pair back into
a ``GaussRat`` where a value is printed.  A ``GaussInt`` is the entry of
a ``ZMat`` (``char_poly``, ``det``).  Arithmetic is exact; there is no
floating point anywhere in the core.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError


def _fraction_parts(x) -> tuple:
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return int(x), 1
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussRat:
    """Exact complex scalar (x + iy)/d: a Gaussian integer over a positive integer.

    The three ints are kept in lowest terms, gcd(x, y, d) = 1, so the form
    is canonical and equality compares them.  ``re`` and ``im`` give the
    parts as Fractions; hot paths read ``x``, ``y`` and ``d`` instead.
    Every operation builds its result through ``gauss_over``, which reduces
    with one gcd.
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, re=0, im=0):
        xn, xd = _fraction_parts(re)
        yn, yd = _fraction_parts(im)
        # Both parts are in lowest terms, so over the lcm of their
        # denominators x, y and d share no factor.
        d = lcm(xd, yd)
        _set_x(self, xn * (d // xd))
        _set_y(self, yn * (d // yd))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__; rebuild instead.
        return gauss_over, (self.x, self.y, self.d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.d)

    # -- predicates -------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.x or self.y)

    # -- involution and magnitude ----------------------------------
    def conj(self) -> "GaussRat":
        # Negating a part keeps gcd(x, y, d) = 1, so no reduction is needed.
        z = _new(GaussRat)
        _set_x(z, self.x)
        _set_y(z, -self.y)
        _set_d(z, self.d)
        return z

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        x, y, d = self.x, self.y, self.d
        return Fraction(x * x + y * y, d * d)

    def real_fraction(self) -> Fraction:
        """The value as a Fraction; raises if the imaginary part is nonzero."""
        if self.y:
            raise ValueError(f"value {self!r} is not real")
        return Fraction(self.x, self.d)

    # -- ring operations -------------------------------------------
    # Each operation takes a GaussRat, int or Fraction on either side.
    def __add__(self, o):
        if type(o) is not GaussRat and (o := _coerce(o)) is None:
            return NotImplemented
        d1, d2 = self.d, o.d
        if d1 == d2:
            return gauss_over(self.x + o.x, self.y + o.y, d1)
        return gauss_over(self.x * d2 + o.x * d1, self.y * d2 + o.y * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is not GaussRat and (o := _coerce(o)) is None:
            return NotImplemented
        d1, d2 = self.d, o.d
        if d1 == d2:
            return gauss_over(self.x - o.x, self.y - o.y, d1)
        return gauss_over(self.x * d2 - o.x * d1, self.y * d2 - o.y * d1, d1 * d2)

    def __rsub__(self, o):
        if (o := _coerce(o)) is None:
            return NotImplemented
        return o - self

    def __mul__(self, o):
        if type(o) is not GaussRat and (o := _coerce(o)) is None:
            return NotImplemented
        a, b, c, e = self.x, self.y, o.x, o.y
        return gauss_over(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is not GaussRat and (o := _coerce(o)) is None:
            return NotImplemented
        # (a + ib)/d1 / ((c + ie)/d2) = (a + ib)(c - ie) d2 / (d1 (c^2 + e^2))
        a, b, c, e, d2 = self.x, self.y, o.x, o.y, o.d
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero GaussRat")
        return gauss_over((a * c + b * e) * d2, (b * c - a * e) * d2, self.d * norm)

    def __rtruediv__(self, o):
        if (o := _coerce(o)) is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        z = _new(GaussRat)  # in lowest terms, as for ``conj``
        _set_x(z, -self.x)
        _set_y(z, -self.y)
        _set_d(z, self.d)
        return z

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison and hashing ------------------------------------
    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return self.x == other.x and self.y == other.y and self.d == other.d
        if isinstance(other, Fraction):
            return not self.y and self.x == other.numerator and self.d == other.denominator
        if isinstance(other, int):
            return not self.y and self.d == 1 and self.x == other
        return NotImplemented

    def __hash__(self):
        # A real value equals its Fraction (and an integral one its int), so
        # it must hash like them.
        if not self.y:
            return hash(Fraction(self.x, self.d))
        return hash((self.x, self.y, self.d))

    # -- conversion -------------------------------------------------
    def __complex__(self) -> complex:
        return complex(self.x / self.d, self.y / self.d)

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        ims = "i" if im == 1 else ("-i" if im == -1 else f"{im}i")
        if not re:
            return ims
        sign = "+" if im > 0 else ""
        return f"{re}{sign}{ims}"


def _coerce(x):
    """x as a GaussRat, or None when it is not a GaussRat, int or Fraction."""
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    return None


_set_x, _set_y, _set_d = GaussRat.x.__set__, GaussRat.y.__set__, GaussRat.d.__set__
_new = object.__new__


def gauss_over(x: int, y: int, d: int) -> GaussRat:
    """(x + iy)/d for ints with d > 0, reduced to lowest terms."""
    g = gcd(x, y, d)
    if g != 1:
        x, y, d = x // g, y // g, d // g
    z = _new(GaussRat)
    _set_x(z, x)
    _set_y(z, y)
    _set_d(z, d)
    return z


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
        return gauss_over(self.re, self.im, den)


IUNIT = GaussRat(0, 1)
ZERO = GaussRat(0)
ONE = GaussRat(1)


def conj(z):
    """Complex conjugate, generic over the scalar types used in this package.

    GaussInt, GaussRat and the jets have a ``conj`` method; int, Fraction
    and builtin complex have ``conjugate``.
    """
    c = getattr(z, "conj", None)
    return c() if c is not None else z.conjugate()


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
