from fractions import Fraction

import pytest
from hypothesis import given

from checkerboard.errors import ParseError
from checkerboard.gaussian import GaussRat, IUNIT, conj, parse_gauss

from conftest import small_gauss


def test_basic_arithmetic():
    z = GaussRat(1, 2)
    w = GaussRat(Fraction(1, 3), -1)
    assert z + w == GaussRat(Fraction(4, 3), 1)
    assert z - w == GaussRat(Fraction(2, 3), 3)
    assert z * w == GaussRat(Fraction(1, 3) + 2, Fraction(2, 3) - 1)
    assert IUNIT * IUNIT == GaussRat(-1)


def test_division():
    z = GaussRat(3, 4)
    assert z / z == GaussRat(1)
    assert (z / GaussRat(0, 1)) * GaussRat(0, 1) == z
    with pytest.raises(ZeroDivisionError):
        z / GaussRat(0)


def test_int_and_fraction_coercion():
    z = GaussRat(1, 1)
    assert 2 * z == GaussRat(2, 2)
    assert z + Fraction(1, 2) == GaussRat(Fraction(3, 2), 1)
    assert 1 - z == GaussRat(0, -1)
    assert 2 / GaussRat(1, 1) == GaussRat(1, -1)


def test_conj_and_abs2():
    z = GaussRat(Fraction(2, 3), Fraction(-1, 5))
    assert z.conj().conj() == z
    assert (z * z.conj()).im == 0
    assert z.abs2() == Fraction(4, 9) + Fraction(1, 25)


def test_pow():
    z = GaussRat(1, 1)
    assert z ** 0 == GaussRat(1)
    assert z ** 2 == GaussRat(0, 2)
    assert z ** 3 == z * z * z


def test_real_fraction():
    assert GaussRat(Fraction(5, 7)).real_fraction() == Fraction(5, 7)
    with pytest.raises(ValueError):
        GaussRat(0, 1).real_fraction()


def test_generic_conj_helper():
    assert conj(GaussRat(1, 2)) == GaussRat(1, -2)
    assert conj(Fraction(1, 3)) == Fraction(1, 3)
    assert conj(5) == 5
    assert conj(1 + 2j) == 1 - 2j


@given(small_gauss, small_gauss, small_gauss)
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert (x * y).conj() == x.conj() * y.conj()


@given(small_gauss, small_gauss)
def test_division_undoes_multiplication(x, y):
    if y:
        assert (x * y) / y == x


@pytest.mark.parametrize(
    "token,expected",
    [
        ("0", GaussRat(0)),
        ("1", GaussRat(1)),
        ("-1", GaussRat(-1)),
        ("i", IUNIT),
        ("-i", -IUNIT),
        ("2i", GaussRat(0, 2)),
        ("1-i", GaussRat(1, -1)),
        ("-1-2i", GaussRat(-1, -2)),
        ("3/4", GaussRat(Fraction(3, 4))),
        ("1/2-3/4i", GaussRat(Fraction(1, 2), Fraction(-3, 4))),
        ("2-i", GaussRat(2, -1)),
    ],
)
def test_parse_gauss(token, expected):
    assert parse_gauss(token) == expected


# The last three use non-ASCII digits (Arabic-Indic 3, fullwidth 3, Arabic-Indic 4),
# which int() and Fraction() would accept.
@pytest.mark.parametrize(
    "bad", ["", "x", "1+1", "ii", "1.5", "1/0i", "--1", "\u0663", "\uff13+i", "1/\u0664"]
)
def test_parse_gauss_rejects(bad):
    with pytest.raises(ParseError):
        parse_gauss(bad)
